#!/bin/sh
# golden_train.sh MAIN JOURNAL FIXTURES
#
# Trained bits end to end: train every --model on a copy of a complete
# label journal (every record resumes, so nothing is measured) at the
# golden fixtures' configuration, require each artifact to equal
# FIXTURES/golden_<model>.artifact byte for byte, and require the
# cross-validation accuracies the fixtures were trained with.  Runs at
# the default jobs count, so UNROLLML_JOBS picks the pool width.
set -eu
main=$1 journal=$2 fixtures=$3
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
cp "$journal" "$d/labels.journal"
chmod u+w "$d/labels.journal"
for m in nn svm mlp; do
  if ! "$main" train --fast --scale 0.05 --journal "$d/labels.journal" \
       --model "$m" -o "$d/$m.artifact" > "$d/$m.log" 2>&1; then
    cat "$d/$m.log"; exit 1
  fi
  cmp "$d/$m.artifact" "$fixtures/golden_$m.artifact"
  if ! grep -qx 'cross-validation accuracy: nn 0.192, svm 0.242, mlp 0.222' "$d/$m.log"; then
    echo "train --model $m: cross-validation accuracies moved"; cat "$d/$m.log"; exit 1
  fi
done
