#!/usr/bin/env bash
# Detection counting and shift estimation on the newest numpy.  pyproject.toml
# allows any numpy >= 2.0, and run_experiment draws each chunk of detections
# from a PCG64 advanced by two outputs per electron before it, in blocks
# written into one reused buffer by Generator.random(out=...), then counts the
# chunk's uniforms on the 2^-53 lattice.  This holds only while Generator.random makes one
# double (u >> 11) * 2^-53 of each 64-bit output u, and its successive
# random(out=...) blocks take the outputs one random((n, 2)) takes, in order.
# Each bootstrap stream draws its resamples a block at a time, and
# Generator.multinomial(n, p, size=k) must equal k successive
# multinomial(n, p) draws of that stream; the golden digests skip on any
# numpy but the pinned one, and the contract reference draws in the
# program's own blocks, so TestBlockBootstrap is the one check of this.
# ShiftEstimator.shifts takes the rfft of one zero-padded (k, nfft) buffer and
# writes the irfft back into it with irfft(out=...), where the estimator once
# let rfft pad each row and read the lags from a concatenated copy:
# TestCorrelationAssembly checks that every shift keeps those bits, and
# TestBootstrapMemory that a resample block holds only its float rows, that
# buffer and the spectra.  A failure here means the newest numpy changed how
# random() maps or spends its outputs, how a multinomial block spends them,
# or how its transforms pad or write their output.  Usage, from anywhere in
# the repository:
#
#   bash .github/ci/newest_numpy.sh            # upgrades numpy, then checks
#   bash .github/ci/newest_numpy.sh --source   # checks the installed numpy, upgrades nothing
#
# --source skips only the `pip install -U numpy`.  The tests' files go under
# $RUNNER_TEMP if it is set, else under a temporary directory that is removed
# on exit.  The first failing check stops the script and names its line.
set -eEuo pipefail
trap 'echo "$0: line $LINENO: check failed" >&2' ERR
cd "$(dirname "$0")/../.."
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
source=false
case "${1:-}" in
  --source) source=true ;;
  "") ;;
  *) echo "usage: $0 [--source]" >&2; exit 64 ;;
esac

if ! $source; then
  python -m pip install -U numpy
fi
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --basetemp "$RUNNER_TEMP/numpy" \
  tests/test_experiment.py::TestChunkCount \
  tests/test_experiment.py::TestBlockBootstrap \
  tests/test_experiment.py::TestBootstrapMemory \
  tests/test_pattern.py::TestCorrelationAssembly \
  tests/test_experiment.py::TestDeterminism::test_the_run_matches_the_contract_reference
