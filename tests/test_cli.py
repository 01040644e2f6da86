import json
import math
import os
import stat
import subprocess
import sys
import warnings

import pytest

from abmix import current, experiment, pattern
from abmix.cli import build_parser, main
from abmix.config import SCHEMA
from abmix.errors import ValidationError

ROOT_HALF = 1.0 / math.sqrt(2.0)


def write_config(tmp_path, **overrides):
    data = {
        "geometry": {"L": 1.0, "d": 1e-5, "v": 1e6},
        "solenoids": {"B1": 3.352e-3, "R1": 2.5e-7, "B2": -3.352e-3, "R2": 2.5e-7},
        "amplitudes": {"c1": [ROOT_HALF, 0.0], "c2": [ROOT_HALF, 0.0]},
        "n_electrons": 2000,
        "seed": 11,
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# report.txt's config names -> the SCHEMA key each echoes, and the part of an [re, im] pair
REPORT_CONFIG_KEYS = {
    "constants.e_C": ("constants.e", None), "constants.m_kg": ("constants.m", None),
    "constants.hbar_Js": ("constants.hbar", None), "constants.h_Js": ("constants.h", None),
    "geometry.L_m": ("geometry.L", None), "geometry.d_m": ("geometry.d", None),
    "geometry.v_m_per_s": ("geometry.v", None),
    "solenoid1.B_T": ("solenoids.B1", None), "solenoid1.R_m": ("solenoids.R1", None),
    "solenoid2.B_T": ("solenoids.B2", None), "solenoid2.R_m": ("solenoids.R2", None),
    "amplitudes.c1_re": ("amplitudes.c1", 0), "amplitudes.c1_im": ("amplitudes.c1", 1),
    "amplitudes.c2_re": ("amplitudes.c2", 0), "amplitudes.c2_im": ("amplitudes.c2", 1),
    "screen.x_min_m": ("screen.x_min", None), "screen.x_max_m": ("screen.x_max", None),
    "screen.n": ("screen.n", None), "envelope_width_m": ("envelope_width", None),
    "n_electrons": ("n_electrons", None), "seed": ("seed", None),
}

MIXTURE_FILES = {"pattern_branch1.csv", "pattern_branch2.csv", "pattern_mixture.csv", "mixture_summary.csv"}
CURRENT_FILES = {"wavefunction_branch1.csv", "wavefunction_branch2.csv", "current_total.csv",
                 "current_mixture.csv", "current_ensemble.csv"}


def files_in(directory):
    """Name -> bytes of every entry in `directory`, hidden ones included."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def fail_the_nth_call(monkeypatch, module, name, n, error):
    """Make the n-th call of `module.name` raise `error`; returns the list of
    calls' first arguments."""
    function, calls = getattr(module, name), []

    def failing(first, *args, **kwargs):
        calls.append(first)
        if len(calls) == n:
            raise error
        return function(first, *args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    return calls


def value_of(output, label):
    for line in output.splitlines():
        if line.strip().startswith(label):
            return float(line.split()[-1])
    raise AssertionError(f"label {label!r} not found in output:\n{output}")


class TestPhaseCommand:
    def test_default_config_prints_unit_phase(self, capsys):
        assert main(["phase"]) == 0
        out = capsys.readouterr().out
        assert value_of(out, "phase difference") == pytest.approx(1.0, rel=1e-12)

    def test_zero_field_prints_zeros(self, tmp_path, capsys):
        config = write_config(tmp_path, solenoids={"B1": 0.0, "R1": 2.5e-7, "B2": 0.0, "R2": 2.5e-7})
        assert main(["phase", "--config", config]) == 0
        out = capsys.readouterr().out
        assert value_of(out, "flux Phi") == 0.0
        assert value_of(out, "phase difference") == 0.0
        assert value_of(out, "fringe shift dx") == 0.0

    def test_both_shift_forms_agree_as_printed(self, capsys):
        assert main(["phase"]) == 0
        out = capsys.readouterr().out
        quantum = value_of(out, "fringe shift dx")
        classical = value_of(out, "fringe shift, classical form")
        assert quantum == pytest.approx(classical, rel=1e-12)

    def test_a_marginal_clearance_is_one_warning_line_on_every_run(self, tmp_path, capsys):
        # d = 1e-5 m is below 10 R = 2e-5 m: each run says so once, not only a process's first,
        # with no path and no source line; a refused run prints only its refusal
        config = tmp_path / "config.json"
        config.write_text('{"solenoids": {"R1": 2e-6, "R2": 2e-6}}', encoding="utf-8")
        for _ in range(2):
            assert main(["phase", "--config", str(config)]) == 0
            assert capsys.readouterr().err.splitlines() == [
                "warning: slit separation d=1e-05 is below 10R=1.9999999999999998e-05; "
                "the around-the-solenoid model is marginal"]
        config.write_text('{"solenoids": {"R1": 2e-6, "R2": 2e-6}, "n_electrons": 0}', encoding="utf-8")
        assert main(["phase", "--config", str(config)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid config: n_electrons")


class TestClassicalCommand:
    def test_antisymmetric_fields_cancel(self, capsys):
        assert main(["classical"]) == 0
        out = capsys.readouterr().out
        assert value_of(out, "total phase difference") == 0.0
        assert value_of(out, "total fringe shift") == 0.0

    def test_zeroed_second_solenoid_matches_phase_command(self, tmp_path, capsys):
        config = write_config(
            tmp_path, solenoids={"B1": 3.352e-3, "R1": 2.5e-7, "B2": 0.0, "R2": 2.5e-7}
        )
        assert main(["classical", "--config", config]) == 0
        classical_out = capsys.readouterr().out
        assert main(["phase", "--config", config]) == 0
        phase_out = capsys.readouterr().out
        assert value_of(classical_out, "total phase difference") == pytest.approx(
            value_of(phase_out, "phase difference"), rel=1e-15
        )
        assert value_of(classical_out, "total fringe shift") == pytest.approx(
            value_of(phase_out, "fringe shift dx"), rel=1e-15
        )

    def test_equal_fluxes_double_single_solenoid(self, tmp_path, capsys):
        config = write_config(
            tmp_path, solenoids={"B1": 3.352e-3, "R1": 2.5e-7, "B2": 3.352e-3, "R2": 2.5e-7}
        )
        assert main(["classical", "--config", config]) == 0
        classical_out = capsys.readouterr().out
        assert main(["phase", "--config", config]) == 0
        phase_out = capsys.readouterr().out
        assert value_of(classical_out, "total fringe shift") == pytest.approx(
            2.0 * value_of(phase_out, "fringe shift dx"), rel=1e-15
        )


class TestMixtureCommand:
    def test_antisymmetric_two_point_table(self, capsys):
        assert main(["mixture"]) == 0
        out = capsys.readouterr().out
        assert value_of(out, "branch 1 probability") == pytest.approx(0.5, abs=1e-12)
        assert value_of(out, "branch 2 probability") == pytest.approx(0.5, abs=1e-12)
        assert value_of(out, "branch 1 phase") == pytest.approx(1.0, rel=1e-12)
        assert value_of(out, "branch 2 phase") == pytest.approx(-1.0, rel=1e-12)
        assert value_of(out, "mixture mean phase") == pytest.approx(0.0, abs=1e-12)
        assert value_of(out, "mixture pattern visibility") == pytest.approx(
            abs(math.cos(1.0)), abs=1e-3
        )

    def test_pure_branch_mean_matches_branch_one(self, tmp_path, capsys):
        config = write_config(tmp_path, amplitudes={"c1": [1.0, 0.0], "c2": [0.0, 0.0]})
        assert main(["mixture", "--config", config]) == 0
        out = capsys.readouterr().out
        assert value_of(out, "mixture mean phase") == pytest.approx(
            value_of(out, "branch 1 phase"), rel=1e-15
        )

    def test_weighted_mean_cross_check(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            solenoids={"B1": 2e-3, "R1": 2.5e-7, "B2": 7e-3, "R2": 2.5e-7},
            amplitudes={"c1": [0.6, 0.0], "c2": [0.0, 0.8]},
        )
        assert main(["mixture", "--config", config]) == 0
        out = capsys.readouterr().out
        expected = 0.36 * value_of(out, "branch 1 phase") + 0.64 * value_of(out, "branch 2 phase")
        assert value_of(out, "mixture mean phase") == pytest.approx(expected, rel=1e-10)

    def test_csv_flag_writes_three_patterns(self, tmp_path, capsys):
        out_dir = tmp_path / "patterns"
        assert main(["mixture", "--csv", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        for name in ("pattern_branch1.csv", "pattern_branch2.csv", "pattern_mixture.csv"):
            text = (out_dir / name).read_text(encoding="utf-8")
            assert "# config = " in text  # artifacts carry their own echo
            body = [line for line in text.splitlines() if not line.startswith("#")]
            assert body[0] == "x_m,intensity"
            assert text.endswith("\n")


class TestExperimentCommand:
    def test_the_screen_envelope_is_computed_once_per_run(self, tmp_path, capsys, monkeypatch):
        # validation builds the run's one ScreenOptics, and run_experiment takes it as it is
        envelope, calls = pattern._envelope, []
        monkeypatch.setattr(pattern, "_envelope", lambda *args: calls.append(args) or envelope(*args))
        assert main(["experiment", "--config", write_config(tmp_path), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_fixed_seed_reruns_byte_identically(self, tmp_path, capsys):
        config = write_config(tmp_path)
        first_dir = tmp_path / "one"
        second_dir = tmp_path / "two"
        assert main(["experiment", "--config", config, "--out", str(first_dir)]) == 0
        assert main(["experiment", "--config", config, "--out", str(second_dir)]) == 0
        capsys.readouterr()
        for name in ("report.txt", "histogram_pooled.csv", "histogram_branch1.csv",
                     "histogram_branch2.csv"):
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()

    def test_pure_branch_one_empties_branch_two(self, tmp_path, capsys):
        config = write_config(tmp_path, amplitudes={"c1": [0.0, 1.0], "c2": [0.0, 0.0]})
        out_dir = tmp_path / "run"
        assert main(["experiment", "--config", config, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        report = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert "branch2.count = 0" in report
        assert not (out_dir / "histogram_branch2.csv").exists()

    def test_csv_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "--csv", "--out", str(tmp_path / "run")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["experiment", "--config", config, "--seed", "777", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert "config.seed = 777" in (out_dir / "report.txt").read_text(encoding="utf-8")

    def test_report_echo_pins_rng_and_seed(self, tmp_path, capsys):
        config = write_config(tmp_path, n_electrons=100, screen={"n": 1024})
        out_dir = tmp_path / "run"
        assert main(["experiment", "--config", config, "--seed", "99", "--out", str(out_dir)]) == 0
        text = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out.startswith(text)
        lines = text.splitlines()
        assert all(" = " in line for line in lines)
        echo = dict(line.split(" = ", 1) for line in lines)
        assert len(echo) == len(lines)   # every key of the file is unique, config.* and results alike
        assert echo["config.seed"] == "99"
        assert "PCG64" in echo["config.rng"]
        assert "branch uniform" in echo["config.draw_order"]
        assert echo["config.n_bootstrap"] == str(experiment.BOOTSTRAP_DEFAULT)
        assert "branch1.count" in echo and "mean_shift_m" in echo

    def test_report_config_equals_the_csv_config_line(self, tmp_path, capsys):
        # a signed zero and an integral float must come out as the resolved config holds them
        config = write_config(tmp_path, amplitudes={"c1": [0.6, -0.0], "c2": [0, 0.8]}, screen={"n": 1024.0})
        out_dir = tmp_path / "run"
        assert main(["experiment", "--config", config, "--seed", "0", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        csv_configs = set()
        for name in ("histogram_pooled.csv", "histogram_branch1.csv", "histogram_branch2.csv"):
            lines = (out_dir / name).read_text(encoding="utf-8").splitlines()
            csv_configs |= {line.removeprefix("# config = ") for line in lines if line.startswith("# config = ")}
        assert len(csv_configs) == 1
        resolved = json.loads(csv_configs.pop())
        report = (out_dir / "report.txt").read_text(encoding="utf-8").splitlines()
        echo = [line.removeprefix("config.").split(" = ", 1) for line in report if line.startswith("config.")]
        assert [name for name, _ in echo] == [*REPORT_CONFIG_KEYS, "n_bootstrap", "rng", "draw_order"]
        for name, text in echo[:len(REPORT_CONFIG_KEYS)]:
            key, part = REPORT_CONFIG_KEYS[name]
            section, _, field = key.rpartition(".")
            value = resolved[section][field] if section else resolved[field]
            assert text == json.dumps(value if part is None else value[part]), name
        assert dict(echo)["amplitudes.c1_im"] == "-0.0" and dict(echo)["screen.n"] == "1024"
        echoed = {key for key, _ in REPORT_CONFIG_KEYS.values()}
        assert echoed == {key for key in SCHEMA if key != "out_dir" and not key.startswith("wavepackets.")}


class TestCurrentCommand:
    def test_gaussian_decomposition_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "currents"
        assert main(["current", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "non-interference" not in out
        deviation = float(out.split("j_2)| = ")[1].split(" A")[0])
        bound = float(out.split("max|j_k| = ")[1].split(" A")[0])
        assert deviation < bound
        for name in ("current_total.csv", "current_mixture.csv", "current_ensemble.csv"):
            text = (out_dir / name).read_text(encoding="utf-8")
            assert "# config = " in text
            assert "eta_m,j_A" in text.splitlines()

    def test_real_packet_yields_zero_current(self, tmp_path, capsys):
        config = write_config(tmp_path, wavepackets={"k1": 0.0, "k2": 0.0})
        out_dir = tmp_path / "currents"
        assert main(["current", "--config", config, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        lines = (out_dir / "current_total.csv").read_text(encoding="utf-8").splitlines()
        rows = [line for line in lines if not line.startswith("#")][1:]
        assert all(float(row.split(",")[1]) == 0.0 for row in rows)

    def test_overlapping_packets_exit_with_precondition_failure(self, tmp_path, capsys):
        config = write_config(tmp_path, wavepackets={"center1": -10.0, "center2": 10.0})
        assert main(["current", "--config", config, "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "non-interference" in err

    def test_one_run_measures_the_overlap_once(self, tmp_path, capsys, monkeypatch):
        # the printed |overlap| is the one mixture_current_check measured for its predicate
        calls, measure = [], current.overlap
        monkeypatch.setattr(current, "overlap", lambda *args: calls.append(args) or measure(*args))
        assert main(["current", "--out", str(tmp_path / "run")]) == 0
        psi1, psi2 = calls[0]
        assert f"|overlap| = {abs(measure(psi1, psi2))!r}\n" in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize("n_ensemble", ["1e308", "1" + "0" * 400], ids=["float", "401_digit_integer"])
    def test_an_ensemble_current_that_is_not_finite_is_one_exit_3_line(self, tmp_path, capsys, n_ensemble):
        # with m = 1e-30 the current of one electron is near 3e28 A, which 1e308 electrons overflow
        config = tmp_path / "config.json"
        config.write_text(f'{{"wavepackets": {{"n_ensemble": {n_ensemble}}}, "constants": '
                          '{"e": 1.0, "m": 1e-30, "hbar": 1.0, "h": 6.283185307179586}}', encoding="utf-8")
        out_dir = tmp_path / "currents"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # main prints a UserWarning; any other warning fails the run
            assert main(["current", "--config", str(config), "--out", str(out_dir)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ensemble current is not finite: ")
        assert not out_dir.exists()

    def test_plane_wave_matches_analytic_bound(self, tmp_path, capsys):
        config = write_config(tmp_path, wavepackets={"kind": "plane", "k": 2.0})
        out_dir = tmp_path / "plane"
        assert main(["current", "--config", config, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        deviation = float(out.split("|psi|^2| = ")[1].split(" A")[0])
        bound = float(out.split("bound ")[1].split(" A")[0])
        assert deviation < bound
        assert (out_dir / "current_plane.csv").exists()


class TestValidationReporting:
    def test_every_violation_is_listed(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            geometry={"L": -1.0, "d": 1e-5, "v": 0.0},
            amplitudes={"c1": [1.0, 0.0], "c2": [1.0, 0.0]},
            n_electrons=0,
        )
        assert main(["phase", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.count("invalid config") >= 3
        assert "geometry" in err
        assert "amplitudes" in err
        assert "n_electrons" in err

    @pytest.mark.parametrize(
        "command", [["phase"], ["classical"], ["mixture", "--csv"], ["experiment"], ["current"]],
        ids=["phase", "classical", "mixture", "experiment", "current"],
    )
    @pytest.mark.parametrize(
        "width, message",
        [
            (1e300, "envelope_width 1e+300 m is too large: 2 w^2 overflows"),
            # w^2 is finite, but 2 w^2 overflows, which would make the envelope flat
            (1.2e154, "envelope_width 1.2e+154 m is too large: 2 w^2 overflows"),
            # 2 w^2 underflows to 0, so the envelope is 0 on every cell, or nan at x = 0
            (1e-200, "envelope_width 1e-200 m is too narrow: the envelope underflows to 0 within one fringe"),
            (1e-300, "envelope_width 1e-300 m is too narrow: the envelope underflows to 0 within one fringe"),
            # x^2 / 2w^2 overflows, and exp underflows on every cell
            (1e-160, "envelope_width 1e-160 m is too narrow: the envelope underflows to 0 within one fringe"),
            (1e-100, "envelope_width 1e-100 m is too narrow: the envelope underflows to 0 within one fringe"),
            # the envelope is above 0 on the cells nearest the axis, not on all within one period
            (1e-7, "envelope_width 1e-07 m is too narrow: the envelope underflows to 0 within one fringe"),
        ],
        ids=["huge", "twice_the_square_overflows", "square_underflows", "square_underflows_further",
             "quotient_overflows", "exp_underflows", "narrower_than_the_central_fringes"],
    )
    def test_unusable_envelope_width_is_one_exit_2_line(self, tmp_path, capsys, command, width, message):
        config = write_config(tmp_path, envelope_width=width)
        out_dir = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # main prints a UserWarning; any other warning fails the run
            assert main([*command, "--config", config, "--out", str(out_dir)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"invalid config: screen: {message}")
        assert not out_dir.exists()

    @pytest.mark.parametrize("amplitudes", [{"c1": [1e200, 0.0]}, {"c2": [0.0, 1e200]}], ids=["c1", "c2"])
    def test_an_amplitude_whose_weight_overflows_is_one_exit_2_line(self, tmp_path, capsys, amplitudes):
        config = write_config(tmp_path, amplitudes={"c1": [ROOT_HALF, 0.0], "c2": [ROOT_HALF, 0.0], **amplitudes})
        out_dir = tmp_path / "run"
        assert main(["experiment", "--config", config, "--out", str(out_dir)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("invalid config: amplitudes: weights (")
        assert "inf" in lines[0] and "violate normalization" in lines[0]
        assert not out_dir.exists()

    def test_unknown_keys_are_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"geomtry": {}}), encoding="utf-8")
        assert main(["phase", "--config", str(path)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_malformed_json_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["phase", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["phase"], ["classical"], ["mixture", "--csv"], ["experiment"], ["current"]],
                             ids=lambda command: command[0])
    @pytest.mark.parametrize("text", ["[]", '[{"seed": 1}]', "null"], ids=["empty_array", "array", "null"])
    def test_a_config_that_is_not_a_json_object_is_one_exit_2_line_from_every_command(
        self, tmp_path, capsys, command, text
    ):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main([*command, "--config", str(path), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: config file {path} must hold a JSON object"]
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [["phase"], ["classical"], ["mixture", "--csv"], ["experiment"], ["current"]],
                             ids=lambda command: command[0])
    @pytest.mark.parametrize("config", ["missing.json", "a_directory"], ids=["missing", "directory"])
    def test_an_unreadable_config_is_one_exit_4_line_from_every_command(self, tmp_path, capsys, command, config):
        (tmp_path / "a_directory").mkdir()
        out_dir = tmp_path / "out"
        assert main([*command, "--config", str(tmp_path / config), "--out", str(out_dir)]) == 4
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: I/O failure: ")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_invalid_run_writes_no_partial_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path, n_electrons=0)
        out_dir = tmp_path / "nothing"
        assert main(["experiment", "--config", config, "--out", str(out_dir)]) == 2
        capsys.readouterr()
        assert not out_dir.exists()

    def test_unwritable_output_directory_is_an_io_failure(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        out_dir = blocker / "sub"
        assert main(["mixture", "--csv", "--out", str(out_dir)]) == 4
        assert "I/O failure" in capsys.readouterr().err

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        calls = fail_the_nth_call(monkeypatch, os, "open", 2, OSError("disk full"))
        assert main(["mixture", "--csv", "--out", str(tmp_path / "run")]) == 4
        assert "disk full" in capsys.readouterr().err
        assert len(calls) == 2
        assert list(tmp_path.iterdir()) == []

    def test_an_interrupted_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        fail_the_nth_call(monkeypatch, os, "open", 3, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            main(["mixture", "--csv", "--out", str(tmp_path / "run")])
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_outputs(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "run"
        assert main(["mixture", "--csv", "--out", str(out_dir)]) == 0
        old = files_in(out_dir)
        fail_the_nth_call(monkeypatch, os, "open", 3, OSError("disk full"))
        # other optics, so every table would change
        assert main(["mixture", "--csv", "--config", write_config(tmp_path), "--out", str(out_dir)]) == 4
        capsys.readouterr()
        assert files_in(out_dir) == old
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "run"]

    @pytest.mark.parametrize("fault", [("open", 2), ("replace", 1)], ids=["write", "rename"])
    @pytest.mark.parametrize("kept", [[], ["a", "a/b", "a/b/kept.txt"]], ids=["new", "partly_existing"])
    def test_a_failed_write_removes_the_directories_it_made(self, tmp_path, capsys, monkeypatch, fault, kept):
        if kept:
            (tmp_path / "a" / "b").mkdir(parents=True)
            (tmp_path / "a" / "b" / "kept.txt").write_text("kept", encoding="utf-8")
        fail_the_nth_call(monkeypatch, os, *fault, OSError("disk full"))
        assert main(["mixture", "--csv", "--out", str(tmp_path / "a" / "b" / "c" / "run")]) == 4
        assert "disk full" in capsys.readouterr().err
        assert sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")) == kept

    def test_a_rename_failing_partway_keeps_the_files_already_moved(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "run"
        fail_the_nth_call(monkeypatch, os, "replace", 2, OSError("disk full"))
        assert main(["mixture", "--csv", "--out", str(out_dir)]) == 4
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == [out_dir]
        assert [path.name for path in out_dir.iterdir()] == ["pattern_branch1.csv"]

    def test_a_run_leaves_only_its_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["mixture", "--csv", "--out", str(out_dir)]) == 0
        assert list(tmp_path.iterdir()) == [out_dir]
        assert set(files_in(out_dir)) == MIXTURE_FILES
        assert main(["current", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == [out_dir]
        assert set(files_in(out_dir)) == MIXTURE_FILES | CURRENT_FILES

    def test_a_second_run_replaces_the_files(self, tmp_path, capsys):
        out_dir, fresh = tmp_path / "outs" / "run", tmp_path / "outs" / "fresh"
        config = write_config(tmp_path)
        assert main(["mixture", "--csv", "--out", str(out_dir)]) == 0
        first = files_in(out_dir)
        assert main(["mixture", "--csv", "--config", config, "--out", str(out_dir)]) == 0
        assert main(["mixture", "--csv", "--config", config, "--out", str(fresh)]) == 0
        capsys.readouterr()
        second = files_in(out_dir)
        assert second == files_in(fresh)
        assert all(second[name] != first[name] for name in MIXTURE_FILES)
        assert sorted(path.name for path in (tmp_path / "outs").iterdir()) == ["fresh", "run"]

    # a temporary named after all of it would exceed NAME_MAX, 255 bytes
    @pytest.mark.parametrize("name", ["o" * 240, "\U0001F600" * 60], ids=["ascii", "four_byte_characters"])
    def test_a_long_output_directory_name_still_fits(self, tmp_path, capsys, name):
        out_dir = tmp_path / name
        assert main(["mixture", "--csv", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == [out_dir]
        assert set(files_in(out_dir)) == MIXTURE_FILES

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=lambda umask: f"{umask:03o}")
    def test_outputs_take_the_umask(self, tmp_path, capsys, umask):
        previous = os.umask(umask)
        try:
            assert main(["mixture", "--csv", "--out", str(tmp_path / "run")]) == 0
            with open(tmp_path / "reference", "w"):
                pass
        finally:
            os.umask(previous)
        capsys.readouterr()
        expected = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
        assert expected == 0o666 & ~umask
        assert {stat.S_IMODE(path.stat().st_mode) for path in (tmp_path / "run").iterdir()} == {expected}

    @pytest.mark.parametrize("command", [["mixture", "--csv"], ["experiment"], ["current"], ["phase"], ["classical"]])
    def test_a_nul_in_out_dir_is_one_exit_2_line(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": "a\u0000b"}), encoding="utf-8")
        assert main([*command, "--config", str(config)]) == 2
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("invalid config: out_dir: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""   # rejected before anything is computed
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_an_empty_out_dir_is_one_exit_2_line_from_every_command(self, tmp_path, capsys, monkeypatch, source):
        # an empty out_dir names no directory: it would write into the working directory
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": ""} if source == "config" else {}), encoding="utf-8")
        refusals = set()
        for command in (["phase"], ["classical"], ["mixture", "--csv"], ["experiment"], ["current"]):
            assert main([*command, "--config", str(config), *(["--out", ""] if source == "flag" else [])]) == 2
            captured = capsys.readouterr()
            assert captured.out == "", command
            refusals.add(captured.err)
            assert list(tmp_path.iterdir()) == [config], command
        assert refusals == {"invalid config: out_dir: must be a non-empty string with no NUL character, got ''\n"}

    def test_a_directory_in_place_of_a_table_moves_no_file(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        (out_dir / "pattern_branch2.csv").mkdir(parents=True)
        assert main(["mixture", "--csv", "--out", str(out_dir)]) == 4
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ") and "Is a directory" in errors[0]
        assert [path.name for path in out_dir.iterdir()] == ["pattern_branch2.csv"]
        assert list(tmp_path.iterdir()) == [out_dir]

    def test_out_of_memory_is_a_precondition_failure(self, tmp_path, capsys, monkeypatch):
        def exhausted(**kwargs):
            raise MemoryError

        monkeypatch.setattr("abmix.cli.run_experiment", exhausted)
        out_dir = tmp_path / "run"
        assert main(["experiment", "--out", str(out_dir)]) == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        # memory does not grow with n_electrons: draws are counted in fixed chunks
        assert all(key in errors[0] for key in ("screen.n", "wavepackets.n"))
        assert "n_electrons" not in errors[0]
        assert not out_dir.exists()

    # (command, wavepackets config, the table writer its files are built with)
    @pytest.mark.parametrize("command, wavepackets, table", [
        (["mixture", "--csv"], {}, "abmix.cli.pattern_csv"),
        (["current"], {}, "abmix.current.current_table"),
        (["current"], {"kind": "plane"}, "abmix.current.current_table"),
        (["experiment"], {}, "abmix.cli.pattern_csv"),
    ], ids=["mixture", "current", "current_plane", "experiment"])
    @pytest.mark.parametrize("fault, code", [("blocked_out", 4), ("table_memory", 3)])
    def test_a_run_that_fails_after_computing_prints_no_result(
        self, tmp_path, capsys, monkeypatch, command, wavepackets, table, fault, code
    ):
        config = write_config(tmp_path, wavepackets=wavepackets)
        out_dir = tmp_path / "run"
        if fault == "blocked_out":
            (tmp_path / "blocker").write_text("not a directory", encoding="utf-8")
            out_dir = tmp_path / "blocker" / "run"
        else:
            def exhausted(*args):
                raise MemoryError

            monkeypatch.setattr(table, exhausted)
        before = {path.name for path in tmp_path.iterdir()}
        assert main([*command, "--config", config, "--out", str(out_dir)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert {path.name for path in tmp_path.iterdir()} == before   # no output, no temporary


    @pytest.mark.parametrize("phase", ["counting", "bootstrap"])
    @pytest.mark.parametrize("thread", ["caller", "worker"])
    @pytest.mark.parametrize("error, code", [(MemoryError(), 3), (ValidationError("rejected"), 2)],
                             ids=["memory", "validation"])
    def test_a_failure_on_either_thread_exits_cleanly(
        self, tmp_path, capsys, monkeypatch, schedule, phase, thread, error, code
    ):
        # both threads count chunks and bootstrap blocks; the caller works its
        # first unit of a phase before the worker starts, so it fails its second
        monkeypatch.setattr(experiment, "DRAW_CHUNK", 100)   # 20 chunks of the 2000 electrons
        schedule.fault = (phase, thread, 2 if thread == "caller" else 1, error)
        # the other thread is slowed so that it cannot take every unit left before the fault
        schedule.delay[phase, {"caller": "worker", "worker": "caller"}[thread]] = 0.001
        out_dir = tmp_path / "run"
        assert main(["experiment", "--config", write_config(tmp_path), "--out", str(out_dir)]) == code
        assert (phase, thread, "raise") in schedule.events
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not out_dir.exists()
        assert not schedule.workers_alive()


def test_one_parser_serves_every_run(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    commands = [["mixture", "--csv"], ["experiment", "--csv"], ["current"], ["mixture"]]

    def run_all(base, fresh_parser):
        base.mkdir()
        monkeypatch.chdir(base)
        codes = []
        for i, command in enumerate(commands):
            if fresh_parser:
                build_parser.cache_clear()
            try:
                codes.append(main([*command, "--out", f"out{i}"]))
            except SystemExit as exc:
                codes.append(exc.code)
        capsys.readouterr()
        return codes, {path.relative_to(base).as_posix(): path.read_bytes()
                       for path in sorted(base.rglob("*")) if path.is_file()}

    reused = run_all(tmp_path / "reused", fresh_parser=False)
    fresh = run_all(tmp_path / "fresh", fresh_parser=True)
    assert reused == fresh
    codes, files = reused
    assert codes == [0, 2, 0, 0]
    assert {name.split("/")[0] for name in files} == {"out0", "out2"}


def test_importing_the_cli_loads_no_executor_and_no_logging():
    # run_experiment's worker is a bare threading.Thread: concurrent.futures
    # would load logging and a dozen more modules into every command
    code = "import sys, abmix.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "abmix.cli", "phase"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "phase difference" in result.stdout
