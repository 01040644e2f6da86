"""Command-line front end.

Subcommands: phase, classical, mixture, experiment, current.  Every
command reads an optional JSON config (--config), applies flag overrides
(--seed, --out), prints a table to stdout and, where applicable, writes
CSV / flat-text artifacts into the output directory (--csv enables the
pattern CSVs of `mixture`).

Exit codes: 0 success, 2 validation failure (every violation is listed
once, not just the first), 3 physical-precondition or numerical failure
or out of memory, 4 I/O failure.  A failed run writes no file.  All
artifacts are plain text, deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from . import current as cur
from .config import RunConfig
from .core import (de_broglie_wavelength, flux, fringe_period, fringe_shift,
                   fringe_shift_classical_form, phase_shift)
from .dual import classical_totals, mixture_expectations, mixture_mean, outcome_distribution
from .errors import InterferenceError, UnmeasurableShiftError, ValidationError
from .experiment import report_text, run_experiment
from .pattern import mixture_pattern, pattern_csv, two_slit_pattern, visibility

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4


def _load_config(args) -> RunConfig | None:
    overrides = {"seed": args.seed, "out_dir": args.out}
    try:
        cfg = RunConfig.from_file(args.config, **overrides) if args.config else RunConfig(**overrides)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return None
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    problems = cfg.validate()
    for problem in problems:
        print(f"invalid config: {problem}", file=sys.stderr)
    return None if problems else cfg


def _echo_preamble(cfg: RunConfig, command: str) -> str:
    """Comment block reproducing the run: the resolved config as JSON."""
    payload = json.dumps(cfg.effective_dict(), sort_keys=True)
    return f"# command = {command}\n# config = {payload}\n"


def _write_all(cfg: RunConfig, command: str, files: dict[str, str]) -> None:
    """Write every artifact or none: each file goes to a temporary directory
    beside the output directory, and only when all are written are they
    moved into place.  CSV files get the config-echo comment preamble."""
    directory = Path(cfg["out_dir"])
    directory.parent.mkdir(parents=True, exist_ok=True)
    preamble = _echo_preamble(cfg, command)
    with tempfile.TemporaryDirectory(prefix=f".{directory.name}-", dir=directory.parent) as staging:
        for name, content in files.items():
            if name.endswith(".csv"):
                content = preamble + content
            (Path(staging) / name).write_text(content, encoding="utf-8")
        directory.mkdir(exist_ok=True)
        for name in files:
            os.replace(Path(staging) / name, directory / name)


def cmd_phase(cfg: RunConfig) -> int:
    constants, geometry, solenoid = (cfg.objects[k] for k in ("constants", "geometry", "solenoid1"))
    lam = de_broglie_wavelength(constants, geometry)
    phi = flux(solenoid)
    rows = [
        ("de Broglie wavelength lambda [m]", lam),
        ("fringe period lambda*L/d [m]", fringe_period(constants, geometry)),
        ("flux Phi [Wb]", phi),
        ("phase difference dphi [rad]", phase_shift(constants, phi)),
        ("fringe shift dx [m]", fringe_shift(constants, geometry, phi)),
        ("fringe shift, classical form [m]", fringe_shift_classical_form(constants, geometry, phi)),
    ]
    _print_table("single solenoid", rows)
    return EXIT_OK


def cmd_classical(cfg: RunConfig) -> int:
    config = cfg.objects["apparatus"]
    phi1, phi2 = config.flux1, config.flux2
    dphi, dx = classical_totals(config)
    rows = [
        ("flux 1 Phi_1 [Wb]", phi1),
        ("flux 2 Phi_2 [Wb]", phi2),
        ("total flux Phi [Wb]", phi1 + phi2),
        ("total phase difference dphi [rad]", dphi),
        ("total fringe shift dx [m]", dx),
    ]
    _print_table("classical two-solenoid totals", rows)
    return EXIT_OK


def cmd_mixture(cfg: RunConfig, write_csv: bool) -> int:
    config, amplitudes = cfg.objects["apparatus"], cfg.objects["amplitudes"]
    outcomes = outcome_distribution(config, amplitudes)
    dphi_mean, dx_mean = mixture_expectations(config, amplitudes)
    rows = []
    for o in outcomes:
        rows += [
            (f"branch {o.branch} probability |c{o.branch}|^2", o.probability),
            (f"branch {o.branch} flux Phi_{o.branch} [Wb]", o.flux),
            (f"branch {o.branch} phase dphi_{o.branch} [rad]", o.phase),
            (f"branch {o.branch} shift dx_{o.branch} [m]", o.shift),
        ]
    rows += [
        ("mixture field B [T]", mixture_mean(amplitudes, config.solenoid1.field, config.solenoid2.field)),
        ("mixture flux Phi [Wb]", mixture_mean(amplitudes, config.flux1, config.flux2)),
        ("mixture mean phase dphi [rad]", dphi_mean),
        ("mixture mean shift dx [m]", dx_mean),
    ]
    screen, width = cfg.objects["screen"], cfg["envelope_width"]
    branch_patterns = [
        two_slit_pattern(config.constants, config.geometry, o.phase, screen, width) for o in outcomes
    ]
    mixed = mixture_pattern(
        outcomes[0].probability, branch_patterns[0], outcomes[1].probability, branch_patterns[1]
    )
    mixed_visibility = visibility(mixed)
    rows.append(("mixture pattern visibility", mixed_visibility))
    _print_table("quantum mixture", rows)
    if write_csv:
        summary = ["quantity,value"]
        summary += [f"{label.replace(' ', '_').replace(',', '')},{value!r}" for label, value in rows]
        _write_all(cfg, "mixture", {
            "pattern_branch1.csv": pattern_csv(branch_patterns[0]),
            "pattern_branch2.csv": pattern_csv(branch_patterns[1]),
            "pattern_mixture.csv": pattern_csv(mixed),
            "mixture_summary.csv": "\n".join(summary) + "\n",
        })
        print(f"wrote pattern CSVs to {cfg['out_dir']}/")
    return EXIT_OK


def cmd_experiment(cfg: RunConfig) -> int:
    report = run_experiment(
        config=cfg.objects["apparatus"],
        amplitudes=cfg.objects["amplitudes"],
        n_electrons=cfg["n_electrons"],
        seed=cfg["seed"],
        screen=cfg.objects["screen"],
        envelope_width=cfg["envelope_width"],
    )
    text = report_text(report)
    files = {"report.txt": text, "histogram_pooled.csv": pattern_csv(report.pooled_histogram, "count")}
    for branch in (report.branch1, report.branch2):
        if branch.histogram is not None:
            files[f"histogram_branch{branch.branch}.csv"] = pattern_csv(branch.histogram, "count")
    _write_all(cfg, "experiment", files)
    sys.stdout.write(text)
    print(f"wrote report and histograms to {cfg['out_dir']}/")
    return EXIT_OK


def cmd_current(cfg: RunConfig) -> int:
    constants, grid = cfg.objects["constants"], cfg.objects["wavepackets"]

    if cfg["wavepackets.kind"] == "plane":
        k = cfg["wavepackets.k"]
        psi = cur.plane_wave(grid, k)
        j = cur.current_density(psi, constants)
        analytic = (constants.e * constants.hbar * k / constants.m) * abs(psi.samples) ** 2
        deviation = float(max(abs(j.samples - analytic)))
        bound = 0.4 * (k * grid.dx) ** 2 * float(max(abs(analytic)))
        print(f"plane wave k = {k!r} 1/m on {grid.n} samples, d_eta = {grid.dx!r} m")
        print(f"max |j - e*hbar*k/m*|psi|^2| = {deviation!r} A (discretization bound {bound!r} A)")
        _write_all(cfg, "current", {"current_plane.csv": cur.current_table(j)})
        print(f"wrote current_plane.csv to {cfg['out_dir']}/")
        return EXIT_OK

    amplitudes = cfg.objects["amplitudes"]
    width = cfg["wavepackets.width"]
    psi1 = cur.gaussian_packet(grid, cfg["wavepackets.center1"], width, cfg["wavepackets.k1"])
    psi2 = cur.gaussian_packet(grid, cfg["wavepackets.center2"], width, cfg["wavepackets.k2"])
    j_total, j_mixture, deviation = cur.mixture_current_check(
        amplitudes.c1, psi1, amplitudes.c2, psi2, constants
    )
    j_ensemble = cur.ensemble_current(cfg["wavepackets.n_ensemble"], j_total)
    scale = max(float(max(abs(cur.current_density(psi1, constants).samples))),
                float(max(abs(cur.current_density(psi2, constants).samples))))
    print(f"two gaussian packets, |overlap| = {abs(cur.overlap(psi1, psi2))!r}")
    print(f"max |j_total - (|c1|^2 j_1 + |c2|^2 j_2)| = {deviation!r} A")
    print(f"decomposition bound 1e-9 * max|j_k| = {1e-9 * scale!r} A")
    _write_all(cfg, "current", {
        "wavefunction_branch1.csv": cur.wavefunction_table(psi1),
        "wavefunction_branch2.csv": cur.wavefunction_table(psi2),
        "current_total.csv": cur.current_table(j_total),
        "current_mixture.csv": cur.current_table(j_mixture),
        "current_ensemble.csv": cur.current_table(j_ensemble),
    })
    print(f"wrote wavefunction and current CSVs to {cfg['out_dir']}/")
    return EXIT_OK


def _print_table(title: str, rows: list[tuple[str, float]]) -> None:
    print(title)
    label_width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"  {label:<{label_width}}  {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abmix",
        description="Two-solenoid Aharonov-Bohm mixture: closed forms, "
        "currents, patterns and Monte Carlo detection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("phase", "single-solenoid wavelength, flux, phase and fringe shift"),
        ("classical", "two classically energized solenoids: additive totals"),
        ("mixture", "two-point mixture outcomes, means and patterns"),
        ("experiment", "seeded Monte Carlo detection run with report files"),
        ("current", "wire-electron current density and its mixture decomposition"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (defaults used when omitted)")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--csv", action="store_true", help="write pattern CSVs (mixture)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _load_config(args)
    if cfg is None:
        return EXIT_VALIDATION
    commands = {"phase": cmd_phase, "classical": cmd_classical, "experiment": cmd_experiment,
                "current": cmd_current, "mixture": lambda cfg: cmd_mixture(cfg, args.csv)}
    try:
        return commands[args.command](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InterferenceError, UnmeasurableShiftError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError:
        print("error: out of memory: reduce n_electrons, screen.n or wavepackets.n", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
