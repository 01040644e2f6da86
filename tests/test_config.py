"""The config schema at the CLI boundary: typing, validation and the echo."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from abmix.cli import main
from abmix.config import SCHEMA, SCREEN_N_MAX, SECTIONS, WIRE_N_MAX, RunConfig


def run(tmp_path, command, data):
    """Run one command on `data` in process; returns (exit code, stderr lines, out dir)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    out_dir = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*command, "--config", str(config), "--out", str(out_dir)])
    return code, err.getvalue().splitlines(), out_dir


def run_without_warnings(tmp_path, command, data):
    """`run`, failing on any warning the command emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(tmp_path, command, data)
    assert [str(w.message) for w in caught] == []
    return result


@pytest.mark.parametrize(
    "data, names",
    [
        ({"envelope_width": "wide"}, ["envelope_width"]),
        ({"seed": "abc"}, ["seed"]),
        ({"wavepackets": {"eta_max": "far"}}, ["wavepackets.eta_max"]),
        ({"wavepackets": {"n": "many"}}, ["wavepackets.n"]),
        ({"n_electrons": 1.7}, ["n_electrons"]),
        ({"geometry": {"zzz": 1.0}}, ["geometry.zzz"]),
        ({"constants": {"h": 6.7e-34}}, ["constants", "h must equal"]),
        ({"screen": {"n": 64}}, ["screen.n"]),
        ({"screen": {"x_min": -1.0, "x_max": 1.0, "n": 100}}, ["screen.n"]),
        # the envelope underflows to 0 within one fringe period of the axis
        ({"envelope_width": 1e-7}, ["envelope_width", "too narrow"]),
    ],
    ids=["envelope_width", "seed", "eta_max", "wavepackets_n", "n_electrons", "geometry_zzz",
         "constants_h", "screen_64_cells", "screen_2m_100_cells", "envelope_too_narrow"],
)
def test_malformed_input_is_one_exit_2_line(tmp_path, data, names):
    code, lines, out_dir = run_without_warnings(tmp_path, ["experiment"], data)
    assert code == 2
    assert len(lines) == 1
    assert lines[0].startswith(("invalid config: ", "error: "))
    assert all(name in lines[0] for name in names)
    assert not out_dir.exists()


def test_too_narrow_envelope_is_one_exit_2_line_for_mixture_csv(tmp_path):
    code, lines, out_dir = run_without_warnings(tmp_path, ["mixture", "--csv"], {"envelope_width": 1e-7})
    assert code == 2
    assert len(lines) == 1
    assert lines[0].startswith("error: envelope_width 1e-07 m is too narrow")
    assert not out_dir.exists()


def test_type_and_range_errors_in_two_sections_are_both_listed(tmp_path):
    code, lines, _ = run(tmp_path, ["phase"], {"geometry": {"L": "far"}, "solenoids": {"R1": -1.0}})
    assert code == 2
    assert len(lines) == 2
    assert "geometry.L: must be a finite number" in lines[0]
    assert "solenoid1: solenoid radius must be finite and positive" in lines[1]


@pytest.mark.parametrize(
    "command, data, key",
    [
        (["mixture"], {"screen": {"n": 1e300}}, "screen.n"),
        (["mixture"], {"screen": {"n": 2**62}}, "screen.n"),
        (["experiment"], {"screen": {"n": SCREEN_N_MAX + 1}}, "screen.n"),
        (["current"], {"wavepackets": {"n": 2**62}}, "wavepackets.n"),
        (["current"], {"wavepackets": {"n": WIRE_N_MAX + 1}}, "wavepackets.n"),
    ],
    ids=["screen_1e300", "screen_2_62", "screen_past_bound", "wire_2_62", "wire_past_bound"],
)
def test_grids_past_addressable_bytes_are_one_exit_2_line(tmp_path, command, data, key):
    code, lines, out_dir = run(tmp_path, command, data)
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"invalid config: {key}: must be an integer")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, data",
    [(["mixture"], {"screen": {"n": SCREEN_N_MAX}}), (["experiment"], {"screen": {"n": SCREEN_N_MAX}}),
     (["current"], {"wavepackets": {"n": WIRE_N_MAX}})],
    ids=["mixture", "experiment", "current"],
)
def test_grids_at_the_bound_stay_out_of_memory_failures(tmp_path, command, data):
    # addressable, but far beyond any machine's memory: the allocation fails
    code, lines, out_dir = run(tmp_path, command, data)
    assert code == 3
    assert lines == ["error: out of memory: reduce screen.n or wavepackets.n"]
    assert not out_dir.exists()


def test_a_plane_wave_whose_current_overflows_is_one_exit_3_line(tmp_path):
    # k * d_eta stays finite, but the derivative k / d_eta overflows
    data = {"wavepackets": {"kind": "plane", "k": 1e300, "eta_min": -1e-300, "eta_max": 1e-300, "n": 64}}
    code, lines, out_dir = run_without_warnings(tmp_path, ["current"], data)
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("error: current is not finite")
    assert not out_dir.exists()


def test_grid_bounds_follow_from_the_largest_arrays():
    intp_max = int(np.iinfo(np.intp).max)
    nfft = 1 << (2 * SCREEN_N_MAX - 2).bit_length()   # the estimator's transform length
    assert 16 * (nfft // 2 + 1) <= intp_max           # its rfft, complex128
    assert 2 * 2 * 8 * SCREEN_N_MAX <= intp_max < 2 * 2 * 8 * (SCREEN_N_MAX + 1)   # int64 counts
    assert 16 * WIRE_N_MAX <= intp_max < 16 * (WIRE_N_MAX + 1)   # complex128 samples


def test_schema_holds_31_keys():
    assert len(SCHEMA) == 31
    assert SECTIONS == {"constants", "geometry", "solenoids", "amplitudes", "screen", "wavepackets"}


def test_partial_sections_merge_with_derived_defaults():
    default = RunConfig()
    cfg = RunConfig({"screen": {"n": 8192}, "solenoids": {"R1": 5e-7}, "constants": {"hbar": 1e-34}})
    assert cfg.validate() == []
    assert cfg["screen.n"] == 8192
    assert cfg["screen.x_max"] == 8.0 * cfg.objects["screen"].span / 16.0
    assert cfg["constants.h"] == 2.0 * math.pi * 1e-34
    assert cfg["solenoids.R2"] == default["solenoids.R2"]
    # the defaulted fields still give a branch phase of exactly +-1 rad
    for k, sign in ((1, 1.0), (2, -1.0)):
        solenoid = cfg.objects[f"solenoid{k}"]
        phase = cfg["constants.e"] * solenoid.field * solenoid.area / cfg["constants.hbar"]
        assert phase == pytest.approx(sign, rel=1e-12)


def test_echo_types_follow_the_schema():
    cfg = RunConfig({"geometry": {"L": 2}, "n_electrons": 500.0, "wavepackets": {"k": 3}})
    echo = cfg.effective_dict()
    assert echo["geometry"]["L"] == 2.0 and isinstance(echo["geometry"]["L"], float)
    assert echo["n_electrons"] == 500 and isinstance(echo["n_electrons"], int)
    assert isinstance(echo["wavepackets"]["k"], float)
    assert "out_dir" not in echo
    assert RunConfig(json.loads(json.dumps(echo))).effective_dict() == json.loads(json.dumps(echo))


JUNK = st.one_of(
    st.integers(min_value=-10, max_value=100_000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.lists(st.one_of(st.floats(), st.integers(-10, 10), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-10, 10), max_size=2),
)
DEFAULTS = dict(RunConfig().values)


def value_for(key):
    """Mostly the default or a float default scaled by 0.5 to 2; one time in four, junk."""
    default = DEFAULTS[key]
    near = st.floats(0.5, 2.0).map(lambda factor: factor * default) if isinstance(default, float) else st.just(default)
    return st.integers(0, 3).flatmap(lambda pick: JUNK if pick == 0 else near)


KNOWN = st.sampled_from(sorted(SCHEMA)).flatmap(lambda key: st.tuples(st.just(key), value_for(key)))
UNKNOWN = st.tuples(st.sampled_from(["zzz", "geometry.zzz", "screen.n.deep", *sorted(SECTIONS)]), JUNK)


def nest(entries):
    """JSON object from (dotted key, value) entries; a plain section name sets the section itself."""
    data = {}
    for key, value in entries:
        section, _, name = key.partition(".")
        if name and isinstance(data.setdefault(section, {}), dict):
            data[section][name] = value
        elif not name:
            data[section] = value
    return data


@pytest.mark.parametrize("command", [["mixture", "--csv"], ["current"]], ids=["mixture", "current"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.builds(lambda known, unknown: nest(known + unknown),
                 st.lists(KNOWN, max_size=6), st.lists(UNKNOWN, max_size=1)))
def test_any_json_object_exits_cleanly_and_all_or_nothing(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, _ = run(Path(tmp), command, data)
        assert code in (0, 2, 3, 4)
        left = sorted(path.name for path in Path(tmp).iterdir())
        assert left == (["config.json", "out"] if code == 0 else ["config.json"])
