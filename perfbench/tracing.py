"""In-memory span tracing of abmix's layers, installed from outside the package.

Each traced function is replaced, at every module attribute of the package
that holds it, by a wrapper that records one span per call:

    [name, start, end, parent span index, op id, returned, count]

`returned` is false when the call raised.  `count` is an optional work
count taken from the call's arguments (electrons drawn, positions sampled,
CSV rows).  Spans stay in memory until the run ends; `write` then dumps
them once, and `layer_metrics` derives per-layer self time and counts.

Rebinding at module attributes reaches every caller that looks the name up
at call time, which is how abmix calls across modules (`from .x import f`
binds `f` in the caller's module; `cur.f` and same-module calls read the
defining module's globals).  No file of the package is modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _arg(position: int, keyword: str):
    """Work count read from one argument of the traced call."""

    def count(args, kwargs):
        value = kwargs[keyword] if keyword in kwargs else args[position]
        return int(getattr(value, "size", value))

    return count


def _pattern_rows(args, kwargs):
    pattern = kwargs["pattern"] if "pattern" in kwargs else args[0]
    return int(pattern.n)


# (module, attribute, span name, count) for every traced function.  The span
# name is "<layer>.<function>"; layers are named after abmix's modules.
TARGETS = (
    ("abmix.cli", "main", "cli.main", None),
    ("abmix.cli", "_write_all", "cli.write", None),
    ("abmix.experiment", "run_experiment", "experiment.run_experiment", _arg(2, "n_electrons")),
    ("abmix.experiment", "_bootstrap_sigma", "experiment.bootstrap", None),
    ("abmix.experiment", "report_text", "experiment.report_text", None),
    ("abmix.pattern", "two_slit_pattern", "pattern.two_slit_pattern", None),
    ("abmix.pattern", "mixture_pattern", "pattern.mixture_pattern", None),
    ("abmix.pattern", "visibility", "pattern.visibility", None),
    ("abmix.pattern", "estimate_shift", "pattern.estimate_shift", None),
    ("abmix.pattern", "inverse_cdf_positions", "pattern.inverse_cdf_positions", _arg(1, "quantiles")),
    ("abmix.pattern", "histogram_pattern", "pattern.histogram_pattern", None),
    ("abmix.pattern", "pattern_csv", "pattern.pattern_csv", _pattern_rows),
    ("abmix.current", "gaussian_packet", "current.gaussian_packet", None),
    ("abmix.current", "plane_wave", "current.plane_wave", None),
    ("abmix.current", "superpose", "current.superpose", None),
    ("abmix.current", "overlap", "current.overlap", None),
    ("abmix.current", "pointwise_product_max", "current.pointwise_product_max", None),
    ("abmix.current", "current_density", "current.current_density", None),
    ("abmix.current", "mixture_current_check", "current.mixture_current_check", None),
    ("abmix.current", "ensemble_current", "current.ensemble_current", None),
    ("abmix.current", "wavefunction_table", "current.wavefunction_table", None),
    ("abmix.current", "current_table", "current.current_table", None),
    ("abmix.dual", "outcome_distribution", "dual.outcome_distribution", None),
    ("abmix.dual", "mixture_expectations", "dual.mixture_expectations", None),
    ("abmix.dual", "classical_totals", "dual.classical_totals", None),
)
# RunConfig's loaders are looked up on the class, so they are wrapped there.
CONFIG_METHODS = (("from_file", "config.from_file", True), ("validate", "config.validate", False))

NAME, START, END, PARENT, OP, RETURNED, COUNT = range(7)


class Tracer:
    """Span recorder for one process; `install` wraps the package in place."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name, function, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
                span[RETURNED] = True
                return result
            finally:
                span[END] = clock()
                stack.pop()
                if count is not None:
                    span[COUNT] = count(args, kwargs)

        return traced

    def install(self) -> None:
        """Rebind every traced function at each package attribute holding it."""
        modules = [m for key, m in sys.modules.items() if key == "abmix" or key.startswith("abmix.")]
        for module_name, attribute, name, count in TARGETS:
            original = getattr(sys.modules[module_name], attribute)
            wrapper = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        run_config = sys.modules["abmix.config"].RunConfig
        for attribute, name, is_classmethod in CONFIG_METHODS:
            original = vars(run_config)[attribute]
            if is_classmethod:
                setattr(run_config, attribute, classmethod(self.wrap(name, original.__func__)))
            else:
                setattr(run_config, attribute, self.wrap(name, original))

    def write(self, path: Path) -> None:
        """Dump every span once, at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ["name", "start_s", "end_s", "parent", "op", "returned", "count"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": keys, "spans": self.spans}, handle, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-op averages of the per-layer metrics, over `n_ops` traced ops.

    Function times (`*_s` named after a function) are inclusive: they count
    nested traced calls, so `pattern.visibility_s` includes the calls made
    inside `estimate_shift`.  `<layer>.self_s` is exclusive.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    returned: dict[str, int] = {}
    counts: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    for span, own_time in zip(spans, own):
        name = span[NAME]
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        returned[name] = returned.get(name, 0) + int(span[RETURNED])
        counts[name] = counts.get(name, 0) + span[COUNT]
        self_by_name[name] = self_by_name.get(name, 0.0) + own_time

    def per_op(value: float) -> float:
        return value / n_ops

    def t(*names):
        return per_op(sum(total.get(name, 0.0) for name in names))

    def layer_self(layer):
        return per_op(sum(v for k, v in self_by_name.items() if k.startswith(layer + ".")))

    shift_calls = calls.get("pattern.estimate_shift", 0)
    return {
        "experiment.run_experiment_s": t("experiment.run_experiment"),
        "experiment.self_s": layer_self("experiment"),
        "experiment.bootstrap_s": t("experiment.bootstrap"),
        "experiment.electrons": per_op(counts.get("experiment.run_experiment", 0)),
        "pattern.estimate_shift_calls": per_op(shift_calls),
        "pattern.estimate_shift_s": t("pattern.estimate_shift"),
        "pattern.estimate_shift_ok_ratio": (
            returned.get("pattern.estimate_shift", 0) / shift_calls if shift_calls else 0.0
        ),
        "pattern.inverse_cdf_positions_s": t("pattern.inverse_cdf_positions"),
        "pattern.sampled_positions": per_op(counts.get("pattern.inverse_cdf_positions", 0)),
        "pattern.histogram_pattern_s": t("pattern.histogram_pattern"),
        "pattern.two_slit_pattern_s": t("pattern.two_slit_pattern"),
        "pattern.visibility_s": t("pattern.visibility"),
        "pattern.pattern_csv_s": t("pattern.pattern_csv"),
        "pattern.csv_rows": per_op(counts.get("pattern.pattern_csv", 0)),
        "pattern.self_s": layer_self("pattern"),
        "current.tables_s": t("current.wavefunction_table", "current.current_table"),
        "current.mixture_current_check_s": t("current.mixture_current_check"),
        "current.current_density_calls": per_op(calls.get("current.current_density", 0)),
        "current.self_s": layer_self("current"),
        "cli.self_s": per_op(self_by_name.get("cli.main", 0.0)),
        "cli.write_s": t("cli.write"),
        "config.load_s": layer_self("config"),
        "dual.closed_forms_s": layer_self("dual"),
    }
