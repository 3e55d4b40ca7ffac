#!/bin/sh
# Regenerate the golden fixtures after an intentional rendering change.
#
#   scripts/promote-golden.sh [DIR]    (DIR defaults to test/golden)
#
# Promoted into test/golden, the new fixtures are part of the change:
# review the diff this prints like any other code.  scripts/check.sh
# promotes into a scratch DIR and diffs it against test/golden, so this
# list of golden test executables is the only one.
set -eu

dir=${1:-}
case "$dir" in
  "" | /*) ;;
  *) dir="$PWD/$dir" ;;
esac

cd "$(dirname "$0")/.."
dir=${dir:-test/golden}

golden_tests="test_golden test_lint_golden test_serve_chaos test_adaptive_golden"

for t in $golden_tests; do
  dune build "test/$t.exe"
  SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR="$dir" "./_build/default/test/$t.exe"
done

if [ "$dir" = test/golden ]; then
  git --no-pager diff --stat -- test/golden
fi
