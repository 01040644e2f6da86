#!/usr/bin/env bash
# The CSV writer on the newest orjson.  pyproject.toml allows any orjson >= 3.8,
# and csv_table rewrites orjson's notation into repr's by fixed rules; a
# failure here means the newest orjson writes another notation and
# pyproject.toml needs an upper bound.  Usage, from anywhere in the repository:
#
#   bash .github/ci/newest_orjson.sh            # upgrades orjson, then checks
#   bash .github/ci/newest_orjson.sh --source   # checks the installed orjson, upgrades nothing
#
# --source skips only the `pip install -U orjson`.  The tests' files go under
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
  python -m pip install -U orjson
fi
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --basetemp "$RUNNER_TEMP/csv" tests/test_csv.py
