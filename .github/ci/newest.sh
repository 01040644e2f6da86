#!/usr/bin/env bash
# One dependency's tests on its newest release.  Usage, from anywhere in the
# repository:
#
#   bash .github/ci/newest.sh numpy|orjson            # upgrades the package, then checks
#   bash .github/ci/newest.sh numpy|orjson --source   # checks the installed package, upgrades nothing
#
# numpy: detection counting and shift estimation.  pyproject.toml allows any
# numpy >= 2.0, and run_experiment draws each chunk of detections from a PCG64
# advanced by two outputs per electron before it, in blocks written into one
# reused buffer by Generator.random(out=...), then counts the chunk's uniforms
# on the 2^-53 lattice.  This holds only while Generator.random makes one
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
# TestBootstrapMemory that a resample block holds only its rows, that buffer
# and the spectra.  The estimator casts integer counts to float once, by one
# assignment into that buffer: TestCorrelationAssembly checks that an int64
# block keeps its float copy's bits.  A failure here means the newest numpy
# changed how random() maps or spends its outputs, how a multinomial block
# spends them, how its transforms pad or write their output, or how it casts
# int64 counts.
#
# orjson: the CSV writer.  pyproject.toml allows any orjson >= 3.8, and
# csv_table rewrites orjson's notation into repr's by fixed rules; a failure
# here means the newest orjson writes another notation and pyproject.toml
# needs an upper bound.
#
# --source skips only the `pip install -U`.  The tests' files go under
# $RUNNER_TEMP if it is set, else under a temporary directory that is removed
# on exit.  The first failing check stops the script and names its line.
set -eEuo pipefail
trap 'echo "$0: line $LINENO: check failed" >&2' ERR
cd "$(dirname "$0")/../.."
usage() { echo "usage: $0 numpy|orjson [--source]" >&2; exit 64; }
case "${1:-}" in
  numpy) tests=(
    tests/test_experiment.py::TestChunkCount
    tests/test_experiment.py::TestBlockBootstrap
    tests/test_experiment.py::TestBootstrapMemory
    tests/test_pattern.py::TestCorrelationAssembly
    tests/test_experiment.py::TestDeterminism::test_the_run_matches_the_contract_reference
  ) ;;
  orjson) tests=(tests/test_csv.py) ;;
  *) usage ;;
esac
package=$1
source=false
case "${2:-}" in
  --source) source=true ;;
  "") ;;
  *) usage ;;
esac
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

if ! $source; then
  python -m pip install -U "$package"
fi
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --basetemp "$RUNNER_TEMP/$package" "${tests[@]}"
