#!/bin/sh
# Reads masked `figures` output (tests/golden/figures_mask.awk) on stdin and
# prints one SHA-256 per figure section — a `# … reproduction — scale: …`
# header up to the next one — named by the figure's command-line name
# (fig02 … fig13, sec8). Output before the first header is a section of its
# own, `preamble`. figures_full.sha256 is this for the masked
# `figures --full` output; CI diffs against it (the re-bless command is in
# figures_mask.awk).
set -eu
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
awk -v dir="$dir" '
BEGIN { file = dir "/preamble" }
/^# .* reproduction — scale: / {
    name = $0
    sub(/ reproduction — scale: .*/, "", name)
    sub(/^# Fig\. /, "fig", name)
    sub(/^# §/, "sec", name)
    gsub(/[()]/, "", name)
    if (name ~ /^fig[0-9]([a-z]|$)/) sub(/^fig/, "fig0", name)
    file = dir "/" name
}
{ print > file }
'
cd "$dir"
sha256sum -- *
