#!/usr/bin/env bash
# The installed console script and the command line's file and exit-code
# contract, run end to end.  Usage, from anywhere in the repository:
#
#   bash .github/ci/console_script.sh            # installs the package, then checks
#   bash .github/ci/console_script.sh --source   # checks the source tree, installs nothing
#
# --source skips only the `pip install` and the installed `abmix phase`; every
# check after them runs through `python -m abmix.cli` in both modes.  Outputs
# go under $RUNNER_TEMP if it is set, else under a temporary directory that is
# removed on exit.  numpy's RuntimeWarnings are errors, as tier-1's
# filterwarnings makes them.  The first failing check stops the script and
# names its line.
set -eEuo pipefail
trap 'echo "$0: line $LINENO: check failed" >&2' ERR
cd "$(dirname "$0")/../.."
export PYTHONWARNINGS=error::RuntimeWarning
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

if $source; then
  export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
else
  python -m pip install --no-deps -e .
fi
# README's library example against the installed package's top-level names
python tests/test_readme.py
if ! $source; then
  abmix phase
fi
# the checks below run through this shim, so they also run on a source checkout
abmix() { python -m abmix.cli "$@"; }
abmix mixture --csv --out "$RUNNER_TEMP/smoke"
abmix current --out "$RUNNER_TEMP/smoke-current"
abmix experiment --out "$RUNNER_TEMP/smoke-exp"
# 1e6 electrons are 8 draw chunks, shared by both threads: one CPU and
# all CPUs must write the same files
echo '{"n_electrons": 1000000}' > "$RUNNER_TEMP/eight-chunks.json"
taskset -c 0 python -m abmix.cli experiment --config "$RUNNER_TEMP/eight-chunks.json" --out "$RUNNER_TEMP/one-cpu"
abmix experiment --config "$RUNNER_TEMP/eight-chunks.json" --out "$RUNNER_TEMP/all-cpus"
diff -r "$RUNNER_TEMP/one-cpu" "$RUNNER_TEMP/all-cpus"
# one refused run per exit code, each printing no result and writing nothing
refused() {   # refused <expected exit code> <abmix arguments>...
  local expected=$1 code=0
  shift
  abmix "$@" > "$RUNNER_TEMP/refused.out" 2> "$RUNNER_TEMP/refused.err" || code=$?
  test "$code" -eq "$expected" && test ! -s "$RUNNER_TEMP/refused.out"
}
# 2: `validate` lists a mixture mean that overflows and a wire packet off
# the grid, in builder order, from every command, `phase` included
solenoids='"solenoids": {"B1": 1.7976931348623157e308, "B2": 1.7976931348623157e308, "R1": 1e-300, "R2": 1e-300}'
amplitudes='"amplitudes": {"c1": [0.7071067811865476, 0.0], "c2": [0.7071067811865476, 0.0]}'
echo "{$solenoids, $amplitudes, \"wavepackets\": {\"center1\": 1e6}}" > "$RUNNER_TEMP/two-problems.json"
refused 2 phase --config "$RUNNER_TEMP/two-problems.json" --out "$RUNNER_TEMP/refused"
test "$(wc -l < "$RUNNER_TEMP/refused.err")" -eq 2
test "$(sed -n 's/^invalid config: \([a-z]*\): .*/\1/p' "$RUNNER_TEMP/refused.err" | tr '\n' ' ')" = "mixture wavepackets "
# 2: a width and a wire size out of range, each listed by the domain type that reads it
echo '{"envelope_width": 0, "wavepackets": {"n": 4}}' > "$RUNNER_TEMP/domain-ranges.json"
refused 2 phase --config "$RUNNER_TEMP/domain-ranges.json" --out "$RUNNER_TEMP/refused"
test "$(wc -l < "$RUNNER_TEMP/refused.err")" -eq 2
test "$(sed -n 's/^invalid config: \([a-z]*\): .*/\1/p' "$RUNNER_TEMP/refused.err" | tr '\n' ' ')" = "screen wavepackets "
# 3: a plane wave whose current overflows on its grid
echo '{"wavepackets": {"kind": "plane", "k": 1e300, "eta_min": -1e-300, "eta_max": 1e-300, "n": 64}}' \
  > "$RUNNER_TEMP/overflowing-plane.json"
refused 3 current --config "$RUNNER_TEMP/overflowing-plane.json" --out "$RUNNER_TEMP/refused"
# 4: --out under a regular file, which leaves no .blocked-* temporaries
echo "not a directory" > "$RUNNER_TEMP/blocker"
refused 4 mixture --csv --out "$RUNNER_TEMP/blocker/blocked"
test -z "$(find "$RUNNER_TEMP" -maxdepth 2 -name '.blocked-*')"
test ! -e "$RUNNER_TEMP/refused"
