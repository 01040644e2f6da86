"""Run configuration: a single JSON file, SI units throughout.

`SCHEMA` lists every key by its dotted path ("geometry.L" is key L of the
"geometry" section) with its type rule and default.  A default is a
constant or a function of the keys above it: h is 2*pi*hbar, each solenoid
field gives a branch phase of exactly +-1 rad for its radius, and the
screen (4096 cells over 16 fringe periods) and the envelope (2.5 periods)
follow the constants and the geometry.

Type rules: float keys take finite numbers; int keys take integers or
integral floats (2.0 but not 2.5); booleans and numeric strings are never
numbers; amplitudes are [re, im] lists of two numbers; wavepackets.kind is
"gaussian" or "plane"; out_dir is a non-empty string (an empty one names
no directory) with no NUL character (no path can hold one).  Unknown keys
are rejected at any depth, and a partial section is merged key by key with
the defaults.  SCHEMA bounds only what no domain object can judge before it
allocates: the grid sizes, by memory, and the counts and the seed, which no
builder reads.  Every other range, such as a width or a grid's least point
count, is its domain object's rule.

`validate` is the one place a loadable config is refused: it builds each
domain object once, skips one whose inputs already failed and lists every
other violation once.  After the apparatus come the screen (a
`pattern.ScreenOptics`, from the apparatus's fringe period), the four
mixture means and the wire wavefunctions of `wavepackets.kind`.  Every
command validates, and then reads, the same objects, so all fail alike.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any

import numpy as np

from .core import (ELECTRON_MASS, ELEMENTARY_CHARGE, HBAR, ApparatusGeometry, Grid, PhysicalConstants,
                   Solenoid, base_area, fringe_period)
from .current import gaussian_packet, plane_wave
from .dual import BranchAmplitudes, DualSolenoidConfig, mixture_expectations
from .errors import ValidationError
from .pattern import ScreenOptics

# -- type rules: (expected, test); test returns the typed value or None


def _number(raw: Any) -> float | None:
    if not isinstance(raw, bool) and isinstance(raw, (int, float)) and abs(raw) <= sys.float_info.max:
        return float(raw)
    return None


def _integer(expected: str, low: float = -math.inf, high: float = math.inf):
    def test(raw: Any) -> int | None:
        raw = int(raw) if isinstance(raw, float) and raw.is_integer() else raw
        return raw if not isinstance(raw, bool) and isinstance(raw, int) and low <= raw < high else None

    return expected, test


def _pair(raw: Any) -> list[float] | None:
    if isinstance(raw, list) and len(raw) == 2 and None not in (pair := [_number(x) for x in raw]):
        return pair
    return None


FLOAT = ("a finite number", _number)
PAIR = ("an [re, im] pair of finite numbers", _pair)
KIND = ("'gaussian' or 'plane'", lambda raw: raw if raw in ("gaussian", "plane") else None)
TEXT = ("a non-empty string with no NUL character",
        lambda raw: raw if isinstance(raw, str) and raw and "\x00" not in raw else None)

# -- derived defaults and builders read the resolved values through `v`


def _constants(v) -> PhysicalConstants:
    return PhysicalConstants(e=v["constants.e"], m=v["constants.m"], hbar=v["constants.hbar"], h=v["constants.h"])


def _geometry(v) -> ApparatusGeometry:
    return ApparatusGeometry(screen_distance=v["geometry.L"], slit_separation=v["geometry.d"], speed=v["geometry.v"])


def _periods(count: float):
    """Default of `count` fringe periods of the configured apparatus."""
    return lambda v: count * fringe_period(_constants(v), _geometry(v))


def _unit_field(radius: str, sign: float):
    """Default field whose branch phase difference is exactly `sign` rad: 0
    where the base area overflows to inf, which leaves the flux nan."""
    return lambda v: sign * ((v["constants.hbar"] / v["constants.e"]) / base_area(v[radius]))


def _wavepackets(v) -> tuple:
    """The `current` command's wire wavefunctions: the plane wave, or the two Gaussian packets."""
    grid = Grid(v["wavepackets.eta_min"], v["wavepackets.eta_max"], v["wavepackets.n"])
    if v["wavepackets.kind"] == "plane":
        return (plane_wave(grid, v["wavepackets.k"]),)
    return tuple(gaussian_packet(grid, v[f"wavepackets.center{k}"], v["wavepackets.width"], v[f"wavepackets.k{k}"])
                 for k in (1, 2))


ROOT_HALF = 1.0 / math.sqrt(2.0)

# numpy sizes an array in np.intp bytes: a grid whose largest array would
# need more fails at allocation with a ValueError, not with MemoryError.
# A screen's largest arrays take 32 bytes per cell: the shift estimator's
# zero-padded buffer of a pattern, nfft float64 values with nfft the power of
# 2 at or above 2n - 1, so nfft <= 4n - 4 and 8 * nfft <= 32n - 32 bytes, and
# its rfft, nfft // 2 + 1 complex128 values, 16 * (nfft // 2 + 1) <= 32n - 16
# bytes; and the experiment's int64 counts by thread and branch, 2 x 2 x n.
# The wire grid's largest take 16 bytes per point: complex128 samples,
# derivatives and current brackets.  Up to these bounds a grid too
# large for the machine fails with the out-of-memory line.
_INTP_MAX = int(np.iinfo(np.intp).max)
SCREEN_N_MAX = _INTP_MAX // 32
WIRE_N_MAX = _INTP_MAX // 16

# dotted key -> (type rule, default); a callable default reads the keys above it
SCHEMA: dict[str, tuple[tuple[str, Any], Any]] = {
    "constants.e": (FLOAT, ELEMENTARY_CHARGE),
    "constants.m": (FLOAT, ELECTRON_MASS),
    "constants.hbar": (FLOAT, HBAR),
    "constants.h": (FLOAT, lambda v: 2.0 * math.pi * v["constants.hbar"]),
    "geometry.L": (FLOAT, 1.0),        # screen distance; d slit separation; v electron speed
    "geometry.d": (FLOAT, 1e-5),
    "geometry.v": (FLOAT, 1e6),
    "solenoids.R1": (FLOAT, 2.5e-7),
    "solenoids.B1": (FLOAT, _unit_field("solenoids.R1", 1.0)),
    "solenoids.R2": (FLOAT, 2.5e-7),
    "solenoids.B2": (FLOAT, _unit_field("solenoids.R2", -1.0)),
    "amplitudes.c1": (PAIR, [ROOT_HALF, 0.0]),
    "amplitudes.c2": (PAIR, [ROOT_HALF, 0.0]),
    "screen.n": (_integer(f"an integer <= {SCREEN_N_MAX}", high=SCREEN_N_MAX + 1), 4096),
    "screen.x_min": (FLOAT, _periods(-8.0)),
    "screen.x_max": (FLOAT, _periods(8.0)),
    "envelope_width": (FLOAT, _periods(2.5)),
    "n_electrons": (_integer("an integer >= 1", 1), 100_000),
    "seed": (_integer("an unsigned 64-bit integer", 0, 2**64), 20240601),
    "out_dir": (TEXT, "abmix-out"),
    # the `current` command's wire grid: two Gaussian packets 16 widths apart,
    # each 8 widths clear of the grid ends
    "wavepackets.kind": (KIND, "gaussian"),
    "wavepackets.eta_min": (FLOAT, -256.0),
    "wavepackets.eta_max": (FLOAT, 256.0),
    "wavepackets.n": (_integer(f"an integer <= {WIRE_N_MAX}", high=WIRE_N_MAX + 1), 4096),
    "wavepackets.center1": (FLOAT, -128.0),
    "wavepackets.center2": (FLOAT, 128.0),
    "wavepackets.width": (FLOAT, 16.0),
    "wavepackets.k1": (FLOAT, 1.5),
    "wavepackets.k2": (FLOAT, -1.5),
    "wavepackets.k": (FLOAT, 1.5),
    "wavepackets.n_ensemble": (_integer("an integer >= 1", 1), 1000),
}
SECTIONS = {key.split(".")[0] for key in SCHEMA if "." in key}


# the domain objects, in build order: name -> builder(values and objects built so far)
_BUILDERS = (
    ("constants", _constants),
    ("geometry", _geometry),
    ("solenoid1", lambda v: Solenoid(field=v["solenoids.B1"], radius=v["solenoids.R1"])),
    ("solenoid2", lambda v: Solenoid(field=v["solenoids.B2"], radius=v["solenoids.R2"])),
    ("amplitudes", lambda v: BranchAmplitudes(c1=complex(*v["amplitudes.c1"]), c2=complex(*v["amplitudes.c2"]))),
    ("apparatus", lambda v: DualSolenoidConfig(v["solenoid1"], v["solenoid2"], v["geometry"], v["constants"])),
    # the apparatus is read before any screen key: if it failed, the screen,
    # which needs its fringe period, is skipped rather than listing its cause again
    ("screen", lambda v: ScreenOptics(
        period=fringe_period(v["apparatus"].constants, v["apparatus"].geometry),
        grid=Grid(v["screen.x_min"], v["screen.x_max"], v["screen.n"]),
        envelope_width=v["envelope_width"])),
    ("mixture", lambda v: mixture_expectations(v["apparatus"], v["amplitudes"])),
    ("wavepackets", _wavepackets),
)


class _Skip(Exception):
    """An input already failed and is reported; skip what depends on it."""


class _Reader:
    """The resolved values, and the objects built so far by builder name, as
    one derived default or builder reads them.

    Records the SCHEMA keys read; a value that derives from a failed key, or
    an object that failed or was skipped, raises _Skip, and a default that
    could not be derived raises its error.  A failed builder fails only the
    keys it read, so a later one that fails on its own inputs is listed too.
    """

    def __init__(self, cfg: "RunConfig", failed: set[str]):
        self.cfg, self.failed, self.read = cfg, failed, set()

    def __getitem__(self, key: str) -> Any:
        if key not in SCHEMA:   # a builder name
            if key not in self.cfg.objects:
                raise _Skip(key)
            return self.cfg.objects[key]
        self.read.add(key)
        if self.cfg.sources[key] & self.failed:
            raise _Skip(key)
        value = self.cfg.values[key]
        if isinstance(value, ValidationError):
            raise value
        return value


class RunConfig:
    """Typed values of every SCHEMA key; `validate` adds the domain objects.

    `cfg[key]` reads a value; `cfg.objects[name]` a domain object, by its
    builder name, once `validate` has returned no problems.
    """

    def __init__(self, data: dict[str, Any] | None = None, **overrides: Any):
        data = {**(data or {}), **{k: v for k, v in overrides.items() if v is not None}}
        self.problems: list[str] = []
        self.values: dict[str, Any] = {}
        self.sources: dict[str, set[str]] = {}   # the keys each value derives from
        self.objects: dict[str, Any] = {}         # filled by validate
        given = self._flatten(data)
        failed: set[str] = set()
        for key, ((expected, test), default) in SCHEMA.items():
            reader = _Reader(self, failed)
            self.sources[key] = {key}
            try:
                raw = given[key] if key in given else default(reader) if callable(default) else default
                if (value := test(raw)) is None:
                    raise ValueError(f"must be {expected}, got {raw!r}")
                self.values[key] = value
            except _Skip:
                failed.add(key)
            except (ValueError, ArithmeticError) as exc:
                if key in given:
                    self.problems.append(f"{key}: {exc}")
                    failed.add(key)
                else:
                    self.values[key] = ValidationError(f"cannot derive the default of {key}: {exc}")
            self.sources[key].update(*(self.sources[k] for k in reader.read))

    def _flatten(self, data: dict[str, Any]) -> dict[str, Any]:
        """Dotted key -> raw value; unknown keys and non-object sections are problems."""
        flat, unknown = {}, []
        for name, value in data.items():
            if name in SECTIONS and isinstance(value, dict):
                flat.update((f"{name}.{key}", item) for key, item in value.items())
            elif name in SECTIONS:
                self.problems.append(f"{name}: must be an object, got {value!r}")
            elif name in SCHEMA and "." not in name:
                flat[name] = value
            else:
                unknown.append(name)
        unknown += [key for key in flat if key not in SCHEMA]
        if unknown:
            self.problems.append(f"unknown config keys: {sorted(unknown)}")
        return flat

    @classmethod
    def from_file(cls, path: str, **overrides: Any) -> "RunConfig":
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except (ValueError, RecursionError) as exc:
                raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(f"config file {path} must hold a JSON object")
        return cls(data, **overrides)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def effective_dict(self) -> dict[str, Any]:
        """The resolved configuration as nested sections, round-trippable via
        RunConfig(...) and echoed in every CLI artifact.  out_dir is left
        out: it does not influence any computed value."""
        tree: dict[str, Any] = {}
        for key, value in self.values.items():
            section, _, name = key.rpartition(".")
            if key != "out_dir":
                (tree.setdefault(section, {}) if section else tree)[name] = value
        return tree

    def validate(self) -> list[str]:
        """Every violation, each once; an empty list means valid."""
        problems = list(self.problems)
        failed = set(SCHEMA) - set(self.values)
        self.objects = {}
        for name, build in _BUILDERS:
            reader = _Reader(self, failed)
            try:
                self.objects[name] = build(reader)
            except _Skip:
                continue
            except (ValidationError, ArithmeticError) as exc:
                problems.append(f"{name}: {exc}")
                failed |= reader.read
        return problems
