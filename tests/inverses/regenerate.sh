#!/bin/sh
# Regenerates the inverse-text fixtures: for every corpus coder in
# programs/, the output of `genic invert` with the timing figures stripped
# from the status lines (the one normalization inverse_fixture_test also
# applies). Run from the repository root after a change that is meant to
# alter the printed inverses:
#
#   tests/inverses/regenerate.sh build/tools/genic
#
# and review the diff before committing it: any difference is a change in
# the models Z3 returned, not only in the order of commutative operands.
set -eu
GENIC=${1:?usage: tests/inverses/regenerate.sh PATH/TO/genic}
OUT=$(dirname "$0")
for P in programs/*.genic; do
  NAME=$(basename "$P" .genic)
  "$GENIC" invert "$P" --jobs 1 |
    sed -E 's/ \([0-9]+\.[0-9]+s[^)]*\)$//' > "$OUT/$NAME.out"
done
