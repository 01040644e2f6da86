"""Command-line front end.

Subcommands: phase, classical, mixture, experiment, current.  Every
command reads an optional JSON config (--config), applies flag overrides
(--seed, --out) and computes its stdout table and, where applicable, the
CSV / flat-text artifacts of the output directory (--csv enables the
pattern CSVs of `mixture`).  Commands return text and files, `main`
writes, then prints.

Exit codes: 0 success, 2 validation failure (every violation is listed
once, not just the first), 3 when the wire packets overlap
(InterferenceError), a current is not finite (ArithmeticError) or memory
runs out, 4 I/O failure, an unreadable --config included.  A failed run
writes no file and prints no result: each artifact is written to a hidden
temporary file beside the output directory and renamed into it only once
all are written (a killed process can leave such `.<out>-...` files
behind); stdout is written last, and after it, on stderr, each warning
the run raised as one `warning: <message>` line.
All artifacts are plain text, deterministic for a fixed (config, seed), and
echo the resolved config: the CSVs as one `# config =` JSON line,
report.txt as its `config.*` block.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import current as cur
from .config import RunConfig
from .core import (de_broglie_wavelength, flux, fringe_period, fringe_shift,
                   fringe_shift_classical_form, phase_shift)
from .dual import classical_totals, outcome_distribution
from .errors import InterferenceError, ValidationError
from .experiment import BOOTSTRAP_DEFAULT, DRAW_ORDER, RNG_ALGORITHM, report_text, run_experiment
from .pattern import mixture_pattern, pattern_csv, two_slit_pattern, visibility

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4


def _load_config(args) -> RunConfig | None:
    overrides = {"seed": args.seed, "out_dir": args.out}
    cfg = RunConfig.from_file(args.config, **overrides) if args.config else RunConfig(**overrides)
    problems = cfg.validate()
    for problem in problems:
        print(f"invalid config: {problem}", file=sys.stderr)
    return None if problems else cfg


def _echo_preamble(cfg: RunConfig, command: str) -> str:
    """Comment block reproducing the run: the resolved config as JSON."""
    payload = json.dumps(cfg.effective_dict(), sort_keys=True)
    return f"# command = {command}\n# config = {payload}\n"


# report.txt's `config.*` names -> SCHEMA keys, in the report's order, which
# is not SCHEMA's (B before R, screen.n after the bounds); an amplitude's
# [re, im] pair gives a `_re` and an `_im` line
_REPORT_CONFIG = {
    "constants.e_C": "constants.e", "constants.m_kg": "constants.m",
    "constants.hbar_Js": "constants.hbar", "constants.h_Js": "constants.h",
    "geometry.L_m": "geometry.L", "geometry.d_m": "geometry.d", "geometry.v_m_per_s": "geometry.v",
    "solenoid1.B_T": "solenoids.B1", "solenoid1.R_m": "solenoids.R1",
    "solenoid2.B_T": "solenoids.B2", "solenoid2.R_m": "solenoids.R2",
    "amplitudes.c1": "amplitudes.c1", "amplitudes.c2": "amplitudes.c2",
    "screen.x_min_m": "screen.x_min", "screen.x_max_m": "screen.x_max", "screen.n": "screen.n",
    "envelope_width_m": "envelope_width", "n_electrons": "n_electrons", "seed": "seed",
}


def _report_config(cfg: RunConfig) -> str:
    """report.txt's `config.*` block: the resolved values the CSVs' `# config =`
    line holds, then the experiment's fixed bootstrap size, RNG and draw order."""
    items = []
    for name, key in _REPORT_CONFIG.items():
        value = cfg[key]
        items += zip((f"{name}_re", f"{name}_im"), value) if isinstance(value, list) else [(name, value)]
    lines = [f"config.{name} = {value!r}" for name, value in items]
    lines += [f"config.n_bootstrap = {BOOTSTRAP_DEFAULT!r}", f"config.rng = {RNG_ALGORITHM}",
              f"config.draw_order = {DRAW_ORDER}"]
    return "\n".join(lines) + "\n"


def _write_all(cfg: RunConfig, command: str, files: dict[str, str]) -> None:
    """Write every artifact or none.  Each file is written to its own hidden
    temporary `.<out>-<file>-<token>` beside the output directory `<out>`;
    only once all are written is `<out>` made and each file renamed into it.
    On any failure, KeyboardInterrupt included, the temporaries written so
    far are removed.  A target that is a directory fails the write before
    anything is written.  If a rename fails partway, the files already
    renamed stay in place; a killed process can leave hidden temporaries
    beside `<out>`.  The directories a failed run made, `<out>` and its
    parents, are removed again as long as they are empty.  CSV files get
    the config-echo comment preamble."""
    directory = Path(cfg["out_dir"])
    for target in (directory / name for name in files):
        if target.is_dir() and not target.is_symlink():   # os.replace replaces a symlink, even one to a directory
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    made = list(itertools.takewhile(lambda path: not path.exists(), (directory, *directory.parents)))
    preamble = _echo_preamble(cfg, command)
    # the token keeps concurrent runs apart; the name is cut to 64 bytes, whole
    # characters only, so the temporary fits NAME_MAX, which counts bytes
    prefix = f".{os.fsencode(directory.name)[:64].decode('utf-8', 'ignore')}-"
    token = os.urandom(6).hex()
    staged: list[tuple[Path, Path]] = []
    try:
        directory.parent.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            if name.endswith(".csv"):
                content = preamble + content
            temporary = directory.parent / f"{prefix}{name}-{token}"
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)   # the umask applies
            staged.append((temporary, directory / name))
            with open(fd, "w", encoding="utf-8") as handle:
                handle.write(content)
        directory.mkdir(exist_ok=True)
        for temporary, target in staged:
            os.replace(temporary, target)
    except BaseException:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):   # a moved temporary is already gone
                os.unlink(temporary)
        for path in made:   # deepest first
            with contextlib.suppress(OSError):   # not empty, or never made
                path.rmdir()
        raise


def cmd_phase(cfg: RunConfig) -> tuple[str, dict[str, str]]:
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
    return _table("single solenoid", rows), {}


def cmd_classical(cfg: RunConfig) -> tuple[str, dict[str, str]]:
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
    return _table("classical two-solenoid totals", rows), {}


def cmd_mixture(cfg: RunConfig, write_csv: bool) -> tuple[str, dict[str, str]]:
    config, amplitudes = cfg.objects["apparatus"], cfg.objects["amplitudes"]
    outcomes = outcome_distribution(config, amplitudes)
    rows = []
    for o in outcomes:
        rows += [
            (f"branch {o.branch} probability |c{o.branch}|^2", o.probability),
            (f"branch {o.branch} flux Phi_{o.branch} [Wb]", o.flux),
            (f"branch {o.branch} phase dphi_{o.branch} [rad]", o.phase),
            (f"branch {o.branch} shift dx_{o.branch} [m]", o.shift),
        ]
    rows += zip(("mixture field B [T]", "mixture flux Phi [Wb]", "mixture mean phase dphi [rad]",
                 "mixture mean shift dx [m]"), cfg.objects["mixture"])
    branch_patterns = [two_slit_pattern(cfg.objects["screen"], o.phase) for o in outcomes]
    mixed = mixture_pattern(amplitudes, *branch_patterns)
    rows.append(("mixture pattern visibility", visibility(mixed)))
    text = _table("quantum mixture", rows)
    if not write_csv:
        return text, {}
    summary = ["quantity,value"]   # rows by label, not by grid position: not csv_table's shape
    summary += [f"{label.replace(' ', '_').replace(',', '')},{value!r}" for label, value in rows]
    return text + f"wrote pattern CSVs to {cfg['out_dir']}/\n", {
        "pattern_branch1.csv": pattern_csv(branch_patterns[0]),
        "pattern_branch2.csv": pattern_csv(branch_patterns[1]),
        "pattern_mixture.csv": pattern_csv(mixed),
        "mixture_summary.csv": "\n".join(summary) + "\n",
    }


def cmd_experiment(cfg: RunConfig) -> tuple[str, dict[str, str]]:
    report = run_experiment(
        config=cfg.objects["apparatus"],
        amplitudes=cfg.objects["amplitudes"],
        n_electrons=cfg["n_electrons"],
        seed=cfg["seed"],
        optics=cfg.objects["screen"],
    )
    text = _report_config(cfg) + report_text(report)
    files = {"report.txt": text, "histogram_pooled.csv": pattern_csv(report.pooled_histogram, "count")}
    for branch in (report.branch1, report.branch2):
        if branch.count:
            files[f"histogram_branch{branch.outcome.branch}.csv"] = pattern_csv(branch.histogram, "count")
    return text + f"wrote report and histograms to {cfg['out_dir']}/\n", files


def cmd_current(cfg: RunConfig) -> tuple[str, dict[str, str]]:
    constants, amplitudes, packets = (cfg.objects[k] for k in ("constants", "amplitudes", "wavepackets"))
    if cfg["wavepackets.kind"] == "plane":
        k, grid = cfg["wavepackets.k"], packets[0].grid
        j, deviation, bound = cur.plane_wave_check(packets[0], k, constants)
        text = (f"plane wave k = {k!r} 1/m on {grid.n} samples, d_eta = {grid.dx!r} m\n"
                f"max |j - e*hbar*k/m*|psi|^2| = {deviation!r} A (discretization bound {bound!r} A)\n"
                f"wrote current_plane.csv to {cfg['out_dir']}/\n")
        return text, {"current_plane.csv": cur.current_table(grid, j)}

    psi1, psi2 = packets
    j_total, j_mixture, deviation, bound, overlap = cur.mixture_current_check(amplitudes, psi1, psi2, constants)
    j_ensemble = cur.ensemble_current(cfg["wavepackets.n_ensemble"], j_total)
    tolerance = np.format_float_scientific(cur.DECOMPOSITION_TOL, trim="-", exp_digits=1)
    text = (f"two gaussian packets, |overlap| = {overlap!r}\n"
            f"max |j_total - (|c1|^2 j_1 + |c2|^2 j_2)| = {deviation!r} A\n"
            f"decomposition bound {tolerance} * max|j_k| = {bound!r} A\n"
            f"wrote wavefunction and current CSVs to {cfg['out_dir']}/\n")
    return text, {
        "wavefunction_branch1.csv": cur.wavefunction_table(psi1),
        "wavefunction_branch2.csv": cur.wavefunction_table(psi2),
        "current_total.csv": cur.current_table(psi1.grid, j_total),
        "current_mixture.csv": cur.current_table(psi1.grid, j_mixture),
        "current_ensemble.csv": cur.current_table(psi1.grid, j_ensemble),
    }


def _table(title: str, rows: list[tuple[str, float]]) -> str:
    label_width = max(len(label) for label, _ in rows)
    return "".join([f"{title}\n", *(f"  {label:<{label_width}}  {value!r}\n" for label, value in rows)])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `abmix` parser, built once per process: `parse_args` returns a new
    namespace each call, so one parser serves every `main(argv)`."""
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
        if name == "mixture":
            p.add_argument("--csv", action="store_true", help="write the pattern CSVs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"phase": cmd_phase, "classical": cmd_classical, "experiment": cmd_experiment,
                "current": cmd_current, "mixture": lambda cfg: cmd_mixture(cfg, args.csv)}
    try:
        with warnings.catch_warnings(record=True) as caught:   # each run's warnings, not once per location
            warnings.simplefilter("always", UserWarning)
            cfg = _load_config(args)   # validation builds the screen's and the wire's arrays, which can exhaust memory
            if cfg is None:
                return EXIT_VALIDATION
            text, files = commands[args.command](cfg)
            if files:
                _write_all(cfg, args.command, files)
        sys.stdout.write(text)
        sys.stderr.writelines(f"warning: {w.message}\n" for w in caught)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InterferenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError:
        print("error: out of memory: reduce screen.n or wavepackets.n", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
