"""The benchmark's span tracer wraps abmix functions by name; a renamed or
deleted function would only surface in the slow benchmark self-tests, so the
names and the argument positions it reads work counts from are pinned here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from abmix.config import RunConfig
from abmix.experiment import run_experiment
from abmix.core import Grid
from abmix.pattern import IntensityPattern, ScreenOptics, inverse_cdf_positions

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("abmix_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [f"{module}.{name}" for module, name, _, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), name, None))]
    missing += [f"RunConfig.{name}" for name, _, _ in tracing.CONFIG_METHODS
                if not callable(getattr(RunConfig, name, None))]
    assert missing == []


def test_counted_arguments_keep_their_positions():
    # TARGETS reads n_electrons as argument 2 and quantiles as argument 1
    assert list(inspect.signature(run_experiment).parameters)[2] == "n_electrons"
    assert list(inspect.signature(inverse_cdf_positions).parameters)[1] == "quantiles"


def test_pattern_rows_reads_an_attribute_the_pattern_has():
    # pattern_csv's work count is the pattern's `n`, read by _pattern_rows
    pattern = IntensityPattern(ScreenOptics(Grid(0.0, 1.0, 129), 0.25, 1.0), [1.0] * 129)
    assert load_tracing()._pattern_rows((pattern,), {}) == pattern.optics.grid.n == pattern.n
