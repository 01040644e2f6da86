"""The config schema at the CLI boundary: typing, validation and the echo."""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from abmix import experiment
from abmix.cli import main
from abmix.config import SCHEMA, SCREEN_N_MAX, SECTIONS, WIRE_N_MAX, RunConfig


# finite closed forms, since R^2 underflows and each flux is 0, but the weights sum
# to 1 + 2.2e-16, within tolerance, and the mixture mean field overflows
OVERFLOWING_MEAN = {
    "solenoids": {"B1": 1.7976931348623157e308, "B2": 1.7976931348623157e308, "R1": 1e-300, "R2": 1e-300},
    "amplitudes": {"c1": [0.7071067811865476, 0.0], "c2": [0.7071067811865476, 0.0]},
}


def run(tmp_path, command, data, stdout=None):
    """Run one command on `data` in process, its stdout into `stdout` if given;
    returns (exit code, stderr lines, out dir)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    out_dir = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout or io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*command, "--config", str(config), "--out", str(out_dir)])
    return code, err.getvalue().splitlines(), out_dir


def run_without_warnings(tmp_path, command, data, stdout=None):
    """`run`, failing on any warning the command emits: `main` prints a
    UserWarning as a `warning:` line, and any other warning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(tmp_path, command, data, stdout)
    assert [line for line in result[1] if line.startswith("warning:")] == []
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


# B1 = 1e308 T is finite, but branch 1's phase e B1 pi R1^2 / hbar overflows to inf;
# the apparatus is refused whatever the branch's weight
OVERFLOWING_FIELDS = {
    "weighted": {"solenoids": {"B1": 1e308}},
    "antisymmetric": {"solenoids": {"B1": 1e308, "B2": -1e308}},   # the classical totals would be nan
    "branch1_weight_0": {"amplitudes": {"c1": [0.0, 0.0], "c2": [1.0, 0.0]}, "solenoids": {"B1": 1e308}},
    "branch2_weight_0": {"amplitudes": {"c1": [1.0, 0.0], "c2": [0.0, 0.0]}, "solenoids": {"B2": 1e308}},
    "branch2_weight_0_p1_below_1": {"amplitudes": {"c1": [math.sqrt(1.0 - 1e-13), 0.0], "c2": [0.0, 0.0]},
                                    "solenoids": {"B2": 1e308}},
}
COMMANDS = {"phase": ["phase"], "classical": ["classical"], "mixture": ["mixture", "--csv"],
            "experiment": ["experiment"], "current": ["current"]}

# each breaks one rule of the screen, which every command's validation judges
BAD_SCREENS = {
    "narrower_than_4_periods": {"screen": {"x_min": -1e-4, "x_max": 1e-4}},
    "envelope_narrower_than_the_central_fringes": {"envelope_width": 1e-7},
    "envelope_quotient_overflows": {"envelope_width": 1e-160},
    "envelope_square_overflows": {"envelope_width": 1e200},
    "envelope_twice_square_overflows": {"envelope_width": 1.2e154},   # w^2 is finite, 2 w^2 is not
    "envelope_square_underflows": {"envelope_width": 1e-300},
    "no_cell_near_the_axis": {"screen": {"x_min": 1e-3, "x_max": 2e-3, "n": 40960}},
    "envelope_width_0": {"envelope_width": 0},
    "envelope_width_negative": {"envelope_width": -1},
}


@pytest.mark.parametrize("data", BAD_SCREENS.values(), ids=BAD_SCREENS.keys())
def test_a_screen_that_breaks_a_rule_is_one_exit_2_line_from_every_command(tmp_path, data):
    refusals = set()
    for command in COMMANDS.values():
        code, lines, out_dir = run_without_warnings(tmp_path, command, data)
        assert code == 2, command
        assert len(lines) == 1 and lines[0].startswith("invalid config: screen: "), command
        assert not out_dir.exists(), command
        refusals.add(lines[0])
    assert len(refusals) == 1


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
def test_a_wavelength_that_is_not_finite_is_listed_once(tmp_path, command):
    # m v underflows to 0, so lambda is inf; the screen, whose default bounds
    # and fringe period follow from lambda, is skipped rather than listed too
    data = {"constants": {"m": 1e-300}, "geometry": {"v": 1e-300}}
    code, lines, out_dir = run_without_warnings(tmp_path, command, data)
    assert code == 2
    assert lines == ["invalid config: apparatus: de Broglie wavelength lambda [m] = inf is not finite"]
    assert not out_dir.exists()


# a default derived from other keys that cannot be computed is refused under
# the builder that reads it, naming the key it was derived for
UNDERIVABLE_DEFAULTS = {
    "field_of_a_tiny_radius": ({"solenoids": {"R1": 1e-200}}, "invalid config: solenoid1: cannot derive the "
                               "default of solenoids.B1: float division by zero"),
    "h_of_a_huge_hbar": ({"constants": {"hbar": 1e308}}, "invalid config: constants: cannot derive the "
                         "default of constants.h: must be a finite number, got inf"),
}


@pytest.mark.parametrize("data, line", UNDERIVABLE_DEFAULTS.values(), ids=UNDERIVABLE_DEFAULTS.keys())
@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
def test_a_default_that_cannot_be_derived_is_one_exit_2_line(tmp_path, command, data, line):
    code, lines, out_dir = run_without_warnings(tmp_path, command, data)
    assert code == 2
    assert lines == [line]
    assert not out_dir.exists()


# two defaults that each fail on their own inputs: a failed builder fails only
# the keys it read, so solenoid2, which reads none of solenoid1's, is listed too
INDEPENDENT_UNDERIVABLE_DEFAULTS = {
    "fields_of_two_tiny_radii": ({"solenoids": {"R1": 1e-200, "R2": 1e-200}}, [
        "invalid config: solenoid1: cannot derive the default of solenoids.B1: float division by zero",
        "invalid config: solenoid2: cannot derive the default of solenoids.B2: float division by zero",
    ]),
    "fields_of_a_huge_hbar_over_e": ({"constants": {"hbar": 1e300, "e": 1e-10}}, [
        "invalid config: solenoid1: cannot derive the default of solenoids.B1: must be a finite number, got inf",
        "invalid config: solenoid2: cannot derive the default of solenoids.B2: must be a finite number, got -inf",
    ]),
}


@pytest.mark.parametrize("data, expected", INDEPENDENT_UNDERIVABLE_DEFAULTS.values(),
                         ids=INDEPENDENT_UNDERIVABLE_DEFAULTS.keys())
@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
def test_two_defaults_that_fail_on_their_own_are_two_exit_2_lines(tmp_path, command, data, expected):
    stdout = io.StringIO()
    code, lines, out_dir = run_without_warnings(tmp_path, command, data, stdout)
    assert code == 2
    assert lines == expected
    assert stdout.getvalue() == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
def test_a_radius_whose_area_overflows_is_one_exit_2_line(tmp_path, command):
    # pi R1^2 overflows to inf, so the default field that gives 1 rad is 0 and the flux 0 * inf is nan
    data = {"solenoids": {"R1": 1e200}, "geometry": {"d": 1e300}}
    code, lines, out_dir = run_without_warnings(tmp_path, command, data)
    assert code == 2
    assert lines == ["invalid config: apparatus: branch 1 flux Phi_1 [Wb] = nan is not finite"]
    assert not out_dir.exists()


@pytest.mark.parametrize("data", OVERFLOWING_FIELDS.values(), ids=OVERFLOWING_FIELDS.keys())
@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
def test_a_field_whose_phase_overflows_is_one_exit_2_line(tmp_path, command, data):
    k = 1 if "B1" in data["solenoids"] else 2
    code, lines, out_dir = run_without_warnings(tmp_path, command, data)
    assert code == 2
    assert lines == [f"invalid config: apparatus: branch {k} phase difference dphi_{k} [rad] = inf is not finite"]
    assert not out_dir.exists()


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
def test_a_screen_distance_whose_shift_overflows_is_one_exit_2_line(tmp_path, command):
    # L / d overflows: the phase is 1 rad, the fringe period finite, the shift -inf
    code, lines, out_dir = run_without_warnings(tmp_path, command, {"geometry": {"L": 1e308}})
    assert code == 2
    assert lines == ["invalid config: apparatus: branch 1 fringe shift dx_1 [m] = -inf is not finite"]
    assert not out_dir.exists()


# each breaks a rule of a wire wavefunction or a mixture mean, which every
# command's validation builds: (config, the start of its one line, a value it names)
UNBUILDABLE = {
    "off_grid": ({"wavepackets": {"center1": 1e6}}, "wavepackets: packet with ", "1000000.0"),
    "tiny_width": ({"wavepackets": {"width": 1e-300}}, "wavepackets: packet with ", "1e-300"),   # width^2 underflows
    "huge_k1": ({"wavepackets": {"k1": 1e308}}, "wavepackets: packet with ", "1e+308"),   # k * eta overflows
    "huge_plane_k": ({"wavepackets": {"kind": "plane", "k": 1e308}}, "wavepackets: plane wave with ", "1e+308"),
    "huge_width": ({"wavepackets": {"width": 1e300}}, "wavepackets: packet width ", "1e+300"),   # width^2 overflows
    # width^2 is finite but 2 width^2 overflows, as for the envelope width
    "twice_square_width": ({"wavepackets": {"width": 1.2e154}}, "wavepackets: packet width ",
                           "1.2e+154 m is too large: 2 w^2 overflows"),
    "width_0": ({"wavepackets": {"width": 0}}, "wavepackets: packet width must be finite and positive, ", "0.0"),
    # a wire grid needs 2 points, and a wavefunction on it 8
    "wire_n_1": ({"wavepackets": {"n": 1}}, "wavepackets: a grid needs at least 2 points, ", "got 1"),
    "gaussian_n_4": ({"wavepackets": {"n": 4}}, "wavepackets: packet with center ",
                     "and k 1.5: need one sample per point of a grid of at least 8 points, got shape (4,) on 4 points"),
    "plane_n_4": ({"wavepackets": {"kind": "plane", "n": 4}}, "wavepackets: plane wave with k 1.5: need one ",
                  "on 4 points"),
    # (k * d_eta)**2, the plane-wave check's discretization bound, overflows
    "huge_plane_bound_k": ({"wavepackets": {"kind": "plane", "k": 1e200}}, "wavepackets: plane wave with ",
                           "1e+200: (k d_eta)^2 overflows"),
    # the weight is subnormal: normalized by it, the packet's norm is off by 9e-9
    "subnormal_weight": ({"wavepackets": {"center1": -687.0}}, "wavepackets: packet with ", "-687.0"),
    # flat on a grid of subnormal spacing: the weight is subnormal and, divided by it, the norm overflows
    "subnormal_spacing": ({"wavepackets": {"eta_min": 0.0, "eta_max": 1e-310, "center1": 0.0, "center2": 1e-310,
                                           "width": 1.0}}, "wavepackets: packet with ", "weight 1.0002442001567e-310"),
    # every closed form is finite (R^2 underflows, so each flux is 0), but the
    # weights sum to 1 + 2.2e-16 and the mean field overflows
    "overflowing_mean": (OVERFLOWING_MEAN, "mixture: mixture mean inf of (1.7976931348623157e+308, ", "inf"),
}


@pytest.mark.parametrize("data, start, value", UNBUILDABLE.values(), ids=UNBUILDABLE.keys())
def test_a_wavefunction_or_mean_that_cannot_be_built_is_one_exit_2_line_from_every_command(
    tmp_path, data, start, value
):
    refusals = set()
    for command in COMMANDS.values():
        code, lines, out_dir = run_without_warnings(tmp_path, command, data)
        assert code == 2, command
        assert len(lines) == 1 and lines[0].startswith(f"invalid config: {start}") and value in lines[0], command
        assert not out_dir.exists(), command
        refusals.add(lines[0])
    assert len(refusals) == 1


def test_a_plane_wave_reads_no_packet_width():
    # like center1, the packet width is a Gaussian key: the plane wave never reads it
    for width in (0.0, -1.0):
        assert RunConfig({"wavepackets": {"kind": "plane", "width": width}}).validate() == []


# a mixture mean and a wire packet that both fail: each is listed, in builder order
TWO_PROBLEMS = {**OVERFLOWING_MEAN, "wavepackets": {"center1": 1e6}}


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
def test_two_problems_are_two_lines_from_every_command(tmp_path, command):
    stdout = io.StringIO()
    code, lines, out_dir = run(tmp_path, command, TWO_PROBLEMS, stdout)
    assert code == 2
    assert lines == [
        "invalid config: mixture: mixture mean inf of (1.7976931348623157e+308, 1.7976931348623157e+308) "
        "with weights (0.5000000000000001, 0.5000000000000001) is not finite",
        "invalid config: wavepackets: packet with center 1000000.0, width 16.0 and k 1.5 has weight 0.0 "
        "on the wire grid [-256.0, 256.0]: it cannot be normalized",
    ]
    assert stdout.getvalue() == ""
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
    [*((command, {"screen": {"n": SCREEN_N_MAX}}) for command in COMMANDS.values()),
     *((command, {"wavepackets": {"n": WIRE_N_MAX}}) for command in COMMANDS.values())],
    ids=[*COMMANDS.keys(), *(f"{name}_wire" for name in COMMANDS)],
)
def test_grids_at_the_bound_stay_out_of_memory_failures(tmp_path, command, data):
    # addressable, but far beyond any machine's memory: the allocation fails
    # when validation builds the screen's envelope or the wire wavefunctions
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
    assert cfg["screen.x_max"] == 8.0 * cfg.objects["screen"].grid.span / 16.0
    assert cfg["constants.h"] == 2.0 * math.pi * 1e-34
    assert cfg["solenoids.R2"] == default["solenoids.R2"]
    # the defaulted fields still give a branch phase of exactly +-1 rad
    for k, sign in ((1, 1.0), (2, -1.0)):
        solenoid = cfg.objects[f"solenoid{k}"]
        phase = cfg["constants.e"] * solenoid.field * solenoid.area / cfg["constants.hbar"]
        assert phase == pytest.approx(sign, rel=1e-12)


@pytest.mark.parametrize("out_dir", ["", "a\u0000b", 7, None, ["run"]], ids=["empty", "nul", "int", "null", "list"])
def test_out_dir_must_be_a_non_empty_string_with_no_nul(out_dir):
    assert RunConfig({"out_dir": out_dir}).problems == [
        f"out_dir: must be a non-empty string with no NUL character, got {out_dir!r}"]


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
@example(data={"solenoids": {"B1": 1e308}})   # finite, but branch 1's phase overflows to inf
def test_any_json_object_exits_cleanly_and_all_or_nothing(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, _ = run(Path(tmp), command, data)
        assert code in (0, 2, 3, 4)
        left = sorted(path.name for path in Path(tmp).iterdir())
        assert left == (["config.json", "out"] if code == 0 else ["config.json"])


# the documented report.txt lines that read nan when a row is not measured
NAN_REPORT_LINE = re.compile(r"(branch[12]\.(estimated_shift_m|estimated_shift_sigma_m|visibility)"
                             r"|pooled\.shift_m|pooled\.shift_sigma_m|mean_shift_m|mean_shift_sigma_m) = nan")


def numbers_that_are_not_finite(text):
    """The tokens of `text`, split at blanks and commas, that read as a number
    but not a finite one, outside comment lines and NAN_REPORT_LINE lines."""
    lines = [line for line in text.splitlines() if not (line.startswith("#") or NAN_REPORT_LINE.fullmatch(line))]
    tokens = [token for line in lines for token in re.split(r"[\s,]+", line)]
    return [token for token in tokens if re.fullmatch(r"[-+]?(nan|inf)", token, re.IGNORECASE)]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.builds(lambda known, unknown: nest(known + unknown),
                 st.lists(KNOWN, max_size=6), st.lists(UNKNOWN, max_size=1)))
@example(data={"solenoids": {"B1": 1e308}})
@example(data={"solenoids": {"B1": 1e308, "B2": -1e308}})
@example(data={"geometry": {"L": 1e308}})
@example(data=OVERFLOWING_MEAN)
@example(data={"wavepackets": {"center1": 1e6}})
@example(data={"wavepackets": {"kind": "plane", "k": 1e200}})
@example(data=BAD_SCREENS["narrower_than_4_periods"])
@example(data=BAD_SCREENS["envelope_narrower_than_the_central_fringes"])
@example(data=BAD_SCREENS["envelope_quotient_overflows"])
@example(data=BAD_SCREENS["envelope_square_overflows"])
@example(data=BAD_SCREENS["envelope_twice_square_overflows"])
@example(data=BAD_SCREENS["envelope_square_underflows"])
@example(data=BAD_SCREENS["no_cell_near_the_axis"])
def test_every_command_prints_finite_numbers_or_refuses_alike(data):
    data = {**data, "n_electrons": 64}   # a small experiment
    refusals = {}
    for name, command in COMMANDS.items():
        stdout = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")   # main prints a UserWarning; any other warning fails the run
            code, lines, out_dir = run(Path(tmp), command, data, stdout)
            written = [path.read_text(encoding="utf-8") for path in out_dir.glob("*")]
        # a clean run's stderr holds at most the documented marginal clearance d < 10 R; a failing run's, no warning
        warned = [line for line in lines if line.startswith("warning: ")]
        assert warned == (lines if code == 0 else []) and all("model is marginal" in w for w in warned), name
        assert code in (0, 2, 3, 4), name
        assert not any("Traceback" in line for line in lines), name
        if code == 0:   # stdout and every file written
            assert numbers_that_are_not_finite("\n".join([stdout.getvalue(), *written])) == [], name
        if code == 2:   # validation is the one place a config is refused
            assert lines and all(line.startswith("invalid config: ") for line in lines), name
            refusals[name] = lines
    # validation does not depend on the command: all refuse alike, or none does
    assert len(refusals) in (0, len(COMMANDS))
    assert len({tuple(lines) for lines in refusals.values()}) <= 1


PERIOD = DEFAULTS["screen.x_max"] / 8.0   # the default screen spans 16 fringe periods


@st.composite
def experiment_configs(draw):
    """`abmix experiment` configs on small screens (140 to 520 cells over about
    4 to 16 periods), pure, weight-0 and mixed amplitudes, fields up to 1e308,
    envelope widths from 1/100 to 30 times the default and 1 to 3e4 electrons."""
    n = draw(st.integers(140, 520))
    periods = draw(st.floats(3.95, n / 32.0 + 0.3))   # 4 periods at least, 32 cells a period at most
    center = draw(st.floats(-1.0, 1.0)) * PERIOD
    field = st.one_of(st.floats(-0.01, 0.01), st.floats(-1e308, 1e308), st.sampled_from([0.0, 1e308, -1e308]))
    amplitudes = st.one_of(
        st.sampled_from([
            {"c1": [1.0, 0.0], "c2": [0.0, 0.0]},
            {"c1": [0.0, 0.0], "c2": [1.0, 0.0]},
            {"c1": [math.sqrt(1.0 - 1e-13), 0.0], "c2": [0.0, 0.0]},   # p1 rounds below 1
        ]),
        st.floats(0.0, math.pi / 2.0).map(lambda t: {"c1": [math.cos(t), 0.0], "c2": [0.0, math.sin(t)]}),
    )
    return {
        "screen": {"n": n, "x_min": center - periods * PERIOD / 2.0, "x_max": center + periods * PERIOD / 2.0},
        "solenoids": {"B1": draw(field), "B2": draw(field)},
        "amplitudes": draw(amplitudes),
        "envelope_width": DEFAULTS["envelope_width"] * 10.0 ** draw(st.floats(-2.0, 1.5)),
        "n_electrons": draw(st.integers(1, 30_000)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }


def report_values(out_dir):
    lines = (out_dir / "report.txt").read_text(encoding="utf-8").splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def files_in(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def histogram_counts(path):
    return np.loadtxt(path, delimiter=",", comments=("#", "x_m,"), usecols=1)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(experiment_configs())
@example(data=OVERFLOWING_FIELDS["branch1_weight_0"])
@example(data=OVERFLOWING_FIELDS["branch2_weight_0"])
def test_any_experiment_exits_cleanly_and_keeps_its_invariants(data):
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as rerun_tmp:
        code, lines, out_dir = run_without_warnings(Path(tmp), ["experiment"], data)
        assert code in (0, 2, 3, 4)
        left = sorted(path.name for path in Path(tmp).iterdir())   # hidden temporaries included
        assert left == (["config.json", "out"] if code == 0 else ["config.json"])
        if code != 0:
            # validate lists every violation, each once; a later failure is one line
            if lines[0].startswith("invalid config: "):
                assert all(line.startswith("invalid config: ") for line in lines)
                assert len(set(lines)) == len(lines)
            else:
                assert len(lines) == 1 and lines[0].startswith("error: ")
            return
        assert lines == []
        report = report_values(out_dir)
        assert all(math.isfinite(float(report[f"branch{k}.predicted_phase_rad"])) for k in (1, 2))
        counts = [int(report[f"branch{k}.count"]) for k in (1, 2)]
        assert sum(counts) == data["n_electrons"]
        branch_files = [out_dir / f"histogram_branch{k}.csv" for k in (1, 2)]
        assert [path.exists() for path in branch_files] == [count > 0 for count in counts]
        pooled = histogram_counts(out_dir / "histogram_pooled.csv")
        assert np.array_equal(pooled, sum(histogram_counts(path) for path in branch_files if path.exists()))
        assert report["pooled.measurable"] == str(report["pooled.shift_m"] != "nan").lower()
        # a rerun in smaller draw chunks takes the same uniforms, so it writes the same bytes
        with mock.patch.object(experiment, "DRAW_CHUNK", 4096):
            rerun_code, _, rerun_dir = run_without_warnings(Path(rerun_tmp), ["experiment"], data)
        assert rerun_code == 0
        assert files_in(rerun_dir) == files_in(out_dir)
