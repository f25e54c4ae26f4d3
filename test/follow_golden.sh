#!/bin/sh
# follow_golden.sh MAIN LINEAGE_CHECK JOURNAL
#
# `train --follow` end to end on a copy of a complete label journal:
# batch-train on the copy (every record resumes, so nothing is measured),
# follow the same copy, and require the followed artifact to equal the
# batch one byte for byte and its lineage chain to hold (168 sweeps at
# --every 64 emit three versions).
set -eu
# Absolute paths: dune passes "lineage_check.exe" bare, which sh would
# look up in PATH.
abs() { case $1 in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
main=$(abs "$1") check=$(abs "$2") journal=$3
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
cp "$journal" "$d/labels.journal"
chmod u+w "$d/labels.journal"
if ! "$main" train --fast --scale 0.05 --journal "$d/labels.journal" \
     -o "$d/batch.artifact" > "$d/batch.log" 2>&1; then
  cat "$d/batch.log"; exit 1
fi
if ! "$main" train --fast --scale 0.05 --follow "$d/labels.journal" \
     --every 64 --idle-exit 0.5 -o "$d/follow.artifact" > "$d/follow.log" 2>&1; then
  cat "$d/follow.log"; exit 1
fi
cmp "$d/batch.artifact" "$d/follow.artifact"
"$check" "$d/follow.artifact" 3
