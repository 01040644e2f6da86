#!/usr/bin/env bash
# Every benchmark workload, run once traced, must be correct.  The benchmark's
# self-tests trace only render_tables and mc_bootstrap, and the tracer wraps
# abmix functions by name, so a renamed or moved function shows up here.
# Usage, from anywhere in the repository:
#
#   bash .github/ci/trace_all.sh
#
# The harness's output goes to $RUNNER_TEMP/trace-all.txt if RUNNER_TEMP is
# set, else under a temporary directory that is removed on exit.  The first
# failing check stops the script and names its line.
set -eEuo pipefail
trap 'echo "$0: line $LINENO: check failed" >&2' ERR
cd "$(dirname "$0")/../.."
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

python3 perfbench/run.py --workload all --seconds 1 --trace 1 > "$RUNNER_TEMP/trace-all.txt"
# the last line is the run's summary; its "correct" must be true
tail -n 1 "$RUNNER_TEMP/trace-all.txt" | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
