#!/usr/bin/env bash
# Tier-1, less the golden digests, once per x86 SIMD level below the host's top
# that the host runs: X86_V3 (AVX2), then X86_V2, numpy's x86 baseline.  Usage,
# from anywhere in the repository:
#
#   bash .github/ci/simd_levels.sh
#
# numpy picks its SIMD code paths when it is imported, and
# NPY_DISABLE_CPU_FEATURES turns the named ones off for that one process: each
# level runs in a child with the targets above it off, as on a CPU without
# them.  The golden digests are left out: they were taken at X86_V4, and below
# it float64 exp gives other bits, and below X86_V3 so do complex abs and
# complex multiply.  Every other tier-1 test must pass at every level.  A level
# the host does not run, or that is already the host's top (the plain tier-1
# run covers it), is skipped, not failed; on a CPU that is not x86 both are.
#
# The tests' files go under $RUNNER_TEMP if it is set, else under a temporary
# directory that is removed on exit.  The first failing check stops the script
# and names its line.
set -eEuo pipefail
trap 'echo "$0: line $LINENO: check failed" >&2' ERR
cd "$(dirname "$0")/../.."
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

# features the caller's NPY_DISABLE_CPU_FEATURES turns off stay off in every child
disabled=${NPY_DISABLE_CPU_FEATURES:-}
# the named CPU features this process runs, of those given, from numpy's own
# table of them (the one np.show_runtime prints)
running() {
  python -c 'import sys; from numpy._core._multiarray_umath import __cpu_features__ as on
print(" ".join(name for name in sys.argv[1:] if on.get(name)))' "$@"
}

above="X86_V4 AVX512_ICL AVX512_SPR"
for level in X86_V3 X86_V2; do
  off=$(running $above)
  if [ -z "$(running "$level")" ] || [ -z "$off" ]; then
    echo "$0: skipping $level: the host does not run it, or runs nothing above it"
  else
    echo "$0: $level, with $off off"
    # the child must run the level, and none of the targets above it
    test "$(NPY_DISABLE_CPU_FEATURES="$disabled $off" running "$level" $above)" = "$level"
    NPY_DISABLE_CPU_FEATURES="$disabled $off" PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \
      --continue-on-collection-errors --ignore tests/test_golden.py --basetemp "$RUNNER_TEMP/$level"
  fi
  above="$above $level"
done
