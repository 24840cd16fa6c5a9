# Masks the wall-clock cells of `figures` output with `*`: fig02's
# cisp_time_s and exact_time_s columns and fig03's `pool build: … ms` rows.
# figures_tiny.txt is the masked `figures --tiny` output; CI diffs against
# it. Re-bless, for an intended change only, with
#   cargo run --release -q --bin figures -- --tiny | awk -f tests/golden/figures_mask.awk > tests/golden/figures_tiny.txt
BEGIN { FS = OFS = "\t" }
/^cities\tcisp_time_s\t/ { timed = 1; print; next }
timed && NF == 5 { $2 = "*"; $3 = "*"; print; next }
{ timed = 0 }
/^pool build: .* ms\t/ { $2 = "*" }
{ print }
