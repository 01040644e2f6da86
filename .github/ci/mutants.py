#!/usr/bin/env python3
"""One-line mutants of src/abmix, each run against its module's tests.  Usage,
from anywhere in the repository:

    python3 .github/ci/mutants.py

For each row the script copies src/, tests/ and pyproject.toml into a fresh
temporary directory, replaces the row's old text, which must occur exactly
once in src/abmix/<module>.py, by its new text, and runs the module's test
files (TESTS) with `pytest -x -q`.  tests/test_golden.py is never run: its
digests pin almost any bit, but only on one numpy release and one x86 SIMD
level, and every rule must be pinned without them.

A `killed` row must fail its tests (pytest exit 1).  An `equivalent: <reason>`
row must pass them: the reason says why no test can tell the mutant from the
program, and a row that fails has a wrong reason.  Each row prints one line;
the script exits 1 if any row did not do what its verdict says, and 2 if a
row's old text is not in its module exactly once.  It uses the standard
library only, and runs the tests with the interpreter that runs it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# module -> the test files that pin its rules
TESTS = {
    "cli": ["tests/test_cli.py"],
    "config": ["tests/test_config.py"],
    "core": ["tests/test_core.py", "tests/test_dual.py"],
    "current": ["tests/test_current.py"],
    "dual": ["tests/test_dual.py"],
    "experiment": ["tests/test_experiment.py", "tests/test_acceptance.py"],
    "pattern": ["tests/test_pattern.py"],
}

# (module, old text, new text, "killed" or "equivalent: <reason>")
MUTANTS = [
    # the estimator
    ("pattern", "shifts[visibilities <= VISIBILITY_FLOOR]", "shifts[visibilities < VISIBILITY_FLOOR]", "killed"),
    ("pattern", "rebin = HISTOGRAM_REBIN if counts else 1", "rebin = 1 if counts else HISTOGRAM_REBIN", "killed"),
    ("pattern", "coefficients = np.array([np.dot(row, envelope) for row in rows])",
     "coefficients = (rows @ envelope)", "killed"),
    ("pattern", "rows -= coefficients[:, np.newaxis] * envelope", "rows -= 0.0", "killed"),
    ("pattern", "spectra *= self.reference_spectrum", "spectra *= np.conj(self.reference_spectrum)", "killed"),
    ("pattern", "where=curvature != 0.0)", "where=(curvature != 0.0) & (peaks > 0))",
     "equivalent: at peak 0 (lag -(n - 1)) the clipped neighbour is the peak, so the offset is -1/2, "
     "and the shift clips to -half the span with or without it"),
    ("pattern", "np.clip(peaks[:, np.newaxis] + [-1, 0, 1], 0, 2 * n - 2)",
     "np.clip(peaks[:, np.newaxis] + [-1, 0, 1], 0, 2 * n - 1)",
     "equivalent: index 2n - 1 is read only for a peak at lag n - 1, whose shift clips to half the span "
     "for any offset above -(n - 1)/2"),
    ("pattern", "if grid.span < MIN_PERIODS * period:", "if grid.span < 3.0 * period:", "killed"),
    # the experiment: draws, counts, bootstrap and report
    ("experiment", "np.ceil(cdf_edges(pattern)[1:-1] * 2.0**53)", "np.floor(cdf_edges(pattern)[1:-1] * 2.0**53)",
     "killed"),
    ("experiment", 'np.searchsorted(keys, edges, side="left")', 'np.searchsorted(keys, edges, side="right")',
     "killed"),
    ("experiment", "advance(2 * chunk * DRAW_CHUNK)", "advance(chunk * DRAW_CHUNK)", "killed"),
    ("experiment", "+ [(seed, 1, 0)]", "+ [(seed, 2, 0)]", "killed"),
    ("experiment", "row.sum() >= 2}", "row.sum() >= 1}", "killed"),
    ("experiment", "if len(shifts) >= 2 else math.nan", "if len(shifts) >= 1 else math.nan", "killed"),
    ("experiment", "variance += (shifts[0] - shifts[1]) ** 2 * fractions[0] * fractions[1] / n",
     "variance += 0.0", "killed"),
    ("experiment", "fractions[0] * fractions[1] / n", "fractions[0] * fractions[1] / (n - 1)", "killed"),
    ("experiment", "sum((f * s) ** 2 for f, s in zip(fractions, sigmas))",
     "sum(f * s ** 2 for f, s in zip(fractions, sigmas))", "killed"),
    ("experiment", "r.estimate.shift if r.count > 0", "r.estimate.shift if r.count > 1", "killed"),
    ("experiment", "r.estimate.uncertainty if r.count > 0", "r.estimate.uncertainty if r.count > 1", "killed"),
    ("experiment",   # both lines at once
     "shift if r.count > 0 else 0.0 for r in reports]\n    sigmas = [r.estimate.uncertainty if r.count > 0",
     "shift if r.count > 1 else 0.0 for r in reports]\n    sigmas = [r.estimate.uncertainty if r.count > 1", "killed"),
    ("experiment", "str(not math.isnan(pooled.shift))", "str(not math.isnan(pooled.uncertainty))", "killed"),
    ("experiment", "mean = sum(f * s for f, s in zip(fractions, shifts))",
     "mean = sum(f * s for f, s in zip(fractions, shifts)) / sum(fractions)",
     "equivalent: the fractions are a/n and (n - a)/n, which round to a sum of exactly 1.0 "
     "(no miss over every a <= n < 3000 and 10^6 random n < 10^9)"),
    ("experiment", "np.vstack([counts, counts.sum(axis=0)])", "np.vstack([counts, counts.sum(axis=0) + 0.0])",
     "equivalent: the rows become float64 copies of the int64 counts, exact below 2^53, and an integer "
     "block keeps its float copy's bits (TestCorrelationAssembly)"),
    # the closed forms and the rules of the value types
    ("core", "if math.isinf(2.0 * width * width):", "if math.isinf(width * width):", "killed"),
    ("core", "if not (value > 0.0 and math.isfinite(value)):", "if not (value >= 0.0 and math.isfinite(value)):",
     "killed"),
    ("core", 'require_positive("solenoid radius", self.radius)', "pass", "killed"),
    ("core", "return constants.e * flux_wb / constants.hbar", "return constants.e * flux_wb / constants.h",
     "killed"),
    ("core", "if self.n < 2:", "if self.n < 1:", "killed"),
    # the wire current
    ("current", 'require_gaussian_width("packet width", width)', 'require_positive("packet width", width)',
     "killed"),
    ("current", "out[0] = (-3.0 * samples[0] + 4.0 * samples[1] - samples[2]) / (2.0 * spacing)",
     "out[0] = (-3.0 * samples[0] + 4.0 * samples[1] - samples[2]) / spacing", "killed"),
    ("current", "j_mixture = amplitudes.p1 * j1 + amplitudes.p2 * j2",
     "j_mixture = amplitudes.p2 * j1 + amplitudes.p1 * j2", "killed"),
    # the mixture
    ("dual", "amplitudes.p1 * value1 + amplitudes.p2 * value2", "amplitudes.p1 * value1 + amplitudes.p1 * value2",
     "killed"),
    ("dual", "fringe_shift(c, g, config.flux1) + fringe_shift(c, g, config.flux2)",
     "fringe_shift(c, g, config.flux1) - fringe_shift(c, g, config.flux2)", "killed"),
    # the config and the command line
    ("config", "                if key in given:", "                if key not in given:", "killed"),
    ("config", "failed |= reader.read", "failed |= set()", "killed"),
    ("cli", "except (InterferenceError, ArithmeticError) as exc:", "except InterferenceError as exc:", "killed"),
    ("cli", 'f"warning: {w.message}\\n"', 'f"warning: {w.message}"', "killed"),
]


def mutate(tree: Path, module: str, old: str, new: str) -> None:
    path = tree / "src" / "abmix" / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise LookupError(f"{module}: {old!r} occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def run_row(module: str, old: str, new: str) -> tuple[int, float]:
    """pytest's exit code on the module's tests with the mutant applied, and its wall time."""
    with tempfile.TemporaryDirectory(prefix="abmix-mutant-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        mutate(tree, module, old, new)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS[module]]
        start = time.perf_counter()
        done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return done.returncode, time.perf_counter() - start


def main() -> int:
    wrong, start = 0, time.perf_counter()
    for module, old, new, verdict in MUTANTS:
        try:
            code, seconds = run_row(module, old, new)
        except LookupError as exc:
            print(f"stale row: {exc}", file=sys.stderr)
            return 2
        killed = verdict == "killed"
        ok = code == 1 if killed else code == 0
        outcome = {0: "survived", 1: "killed"}.get(code, f"pytest exit {code}")
        wrong += not ok
        print(f"{'ok' if ok else 'WRONG':5} {outcome:8} {seconds:5.1f} s  {module}: {old!r} -> {new!r}"
              + ("" if killed else "  (equivalent)"), flush=True)
    seconds = time.perf_counter() - start
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} rows as their verdicts say, in {seconds:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
