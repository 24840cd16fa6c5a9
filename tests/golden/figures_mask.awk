# Masks the wall-clock cells of `figures` output with `*`: fig02's
# cisp_time_s and exact_time_s columns.
# figures_tiny.txt is the masked `figures --tiny` output, and
# figures_full.sha256 one SHA-256 per figure of the masked `figures --full`
# output (figures_digest.sh); CI diffs against both. Re-bless, for an
# intended change only, with
#   cargo run --release -q --bin figures -- --tiny | awk -f tests/golden/figures_mask.awk > tests/golden/figures_tiny.txt
#   cargo run --release -q --bin figures -- --full | awk -f tests/golden/figures_mask.awk | sh tests/golden/figures_digest.sh > tests/golden/figures_full.sha256
BEGIN { FS = OFS = "\t" }
/^cities\tcisp_time_s\t/ { timed = 1; print; next }
timed && NF == 5 { $2 = "*"; $3 = "*"; print; next }
{ timed = 0; print }
