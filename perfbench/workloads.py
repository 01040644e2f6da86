"""Workload inputs, the op that runs them through `abmix.cli.main`, and the
checks on every op's outputs.

An op is a run of CLI commands, each to completion with its files written:

    mc_bootstrap   `abmix experiment`, n = 1e5: estimator and bootstrap bound
    mc_sampling    `abmix experiment`, n = 1e7: sampling bound, 160 MB of
                   uniforms, more than the last-level cache
    render_tables  `abmix mixture --csv` then `abmix current`, for each of
                   SWEEP branch phases: CSV formatting bound, no RNG and no
                   estimator

A step is one branch phase delta with its own `--seed`, config file and
output directory; an op is one step, or SWEEP steps for render_tables.  A
render_tables step takes about 0.1 s, so a sweep keeps its op near the
Monte Carlo ops' length, and each op time then averages over about a second
of the host's speed rather than catching one moment of it.

Every step's `--seed` and config file come from the workload seed alone, so
the same workload seed gives the same ops.  Each step gets its own delta:
uniform in [0.6, 1.2] rad for the Monte Carlo workloads, and a golden-ratio
sweep of (0, pi) for render_tables.  Equal branch weights throughout, so the
mixture visibility is |cos delta|.

The checks recompute what they judge from the physical constants and the
written files, not from the package, with bounds wide enough (6 sigma) that
a correct program does not fail them by chance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# CODATA 2018 values and the package's default desk-scale apparatus.
E_CHARGE = 1.602176634e-19
M_ELECTRON = 9.1093837015e-31
H_PLANCK = 6.62607015e-34
HBAR = H_PLANCK / (2.0 * math.pi)
L_SCREEN, D_SLITS, SPEED = 1.0, 1e-5, 1e6
RADIUS = 2.5e-7
PERIOD = (H_PLANCK / (M_ELECTRON * SPEED)) * L_SCREEN / D_SLITS
CELLS = 4096
CELL_WIDTH = 16.0 * PERIOD / (CELLS - 1)   # default screen: 16 periods
P_BRANCH = 0.5                             # default amplitudes 1/sqrt(2)
N_ENSEMBLE = 1000.0                        # default wavepackets.n_ensemble
SIGMAS = 6.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

ELECTRONS = {"mc_bootstrap": 100_000, "mc_sampling": 10_000_000}
WORKLOADS = ("mc_bootstrap", "mc_sampling", "render_tables")
SWEEP = 8                    # render_tables steps per op
RNG_LINE = "config.rng = "   # carries the numpy version; left out of digests


@dataclass(frozen=True)
class Step:
    seed: int
    delta: float
    config: dict


@dataclass(frozen=True)
class OpInput:
    index: int
    steps: tuple[Step, ...]


def op_inputs(workload: str, workload_seed: int):
    """Endless, reproducible stream of op inputs for one workload seed."""
    rng = random.Random(f"abmix-perfbench:{workload}:{workload_seed}")
    start = rng.random()
    per_op = 1 if workload in ELECTRONS else SWEEP
    index = 0
    while True:
        steps = []
        for k in range(index * per_op, (index + 1) * per_op):
            seed = rng.getrandbits(63)
            if workload in ELECTRONS:
                delta = rng.uniform(0.6, 1.2)
            else:
                delta = math.pi * ((start + k * GOLDEN) % 1.0)
            field = delta * (HBAR / E_CHARGE) / (math.pi * RADIUS**2)
            config = {"solenoids": {"B1": field, "R1": RADIUS, "B2": -field, "R2": RADIUS}}
            if workload in ELECTRONS:
                config["n_electrons"] = ELECTRONS[workload]
            steps.append(Step(seed=seed, delta=delta, config=config))
        yield OpInput(index=index, steps=tuple(steps))
        index += 1


def commands(workload: str) -> list[list[str]]:
    if workload in ELECTRONS:
        return [["experiment"]]
    return [["mixture", "--csv"], ["current"]]


def run_op(cli, workload: str, op: OpInput, work_dir: Path) -> tuple[float, list[int], str]:
    """Run one op in process; returns (wall seconds, exit codes, stdout).

    Only the CLI calls are timed.  Step k's config file, written before the
    clock starts, and its output directory are under `work_dir/step<k>/`;
    stdout and stderr go to memory.
    """
    tails = []
    for k, step in enumerate(op.steps):
        step_dir = work_dir / f"step{k}"
        step_dir.mkdir(parents=True, exist_ok=True)
        (step_dir / "config.json").write_text(json.dumps(step.config), encoding="utf-8")
        tails.append(["--config", str(step_dir / "config.json"), "--seed", str(step.seed),
                      "--out", str(step_dir / "out")])
    captured = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        for tail in tails:
            for command in commands(workload):
                try:
                    codes.append(cli.main(command + tail))
                except (Exception, SystemExit) as exc:   # a crashing op is counted, not fatal
                    print(f"op raised {exc!r}")
                    codes.append(-1)
        elapsed = time.perf_counter() - start
    return elapsed, codes, captured.getvalue()


def read_outputs(work_dir: Path) -> dict[str, bytes]:
    """Every file an op wrote, keyed `step<k>/<file name>`."""
    return {f"{path.parent.parent.name}/{path.name}": path.read_bytes()
            for path in sorted(work_dir.glob("step*/out/*")) if path.is_file()}


def digests(files: dict[str, bytes]) -> dict[str, str]:
    """sha256 of every output file, the report's numpy-version line left out."""
    result = {}
    for name, data in files.items():
        if name.endswith("/report.txt"):
            lines = data.decode().splitlines(keepends=True)
            data = "".join(line for line in lines if not line.startswith(RNG_LINE)).encode()
        result[name] = hashlib.sha256(data).hexdigest()
    return result


def _csv_table(files: dict[str, bytes], name: str, header: str, problems: list[str]) -> np.ndarray | None:
    """Data rows of one CSV, after checking its header and row count."""
    if name not in files:
        problems.append(f"{name}: missing")
        return None
    lines = files[name].decode().splitlines()
    comments = 0
    while comments < len(lines) and lines[comments].startswith("#"):
        comments += 1
    if comments == len(lines) or lines[comments] != header:
        problems.append(f"{name}: header is not {header!r}")
        return None
    rows = lines[comments + 1:]
    if len(rows) != CELLS:
        problems.append(f"{name}: {len(rows)} rows, expected {CELLS}")
        return None
    columns = header.count(",") + 1
    try:
        values = np.fromstring(",".join(rows), sep=",")
    except ValueError:
        values = np.empty(0)
    if values.size != CELLS * columns:
        problems.append(f"{name}: unparsable rows")
        return None
    return values.reshape(CELLS, columns)


def _report(files: dict[str, bytes], problems: list[str]) -> dict[str, float]:
    values = {}
    for line in files.get("report.txt", b"").decode().splitlines():
        key, _, value = line.partition(" = ")
        if not key.startswith("config."):
            with contextlib.suppress(ValueError):
                values[key] = float(value)
    if not values:
        problems.append("report.txt: missing or empty")
    return values


def _verify_experiment(step: Step, files: dict[str, bytes], problems: list[str]) -> None:
    n = step.config["n_electrons"]
    report = _report(files, problems)
    keys = [f"branch{k}.{f}" for k in (1, 2) for f in
            ("count", "predicted_shift_m", "estimated_shift_m", "estimated_shift_sigma_m")]
    keys += ["mean_shift_m", "mean_shift_sigma_m"]
    if any(key not in report for key in keys):
        problems.append("report.txt: missing keys")
        return
    counts = [int(report[f"branch{k}.count"]) for k in (1, 2)]
    count_sigma = math.sqrt(n * P_BRANCH * (1.0 - P_BRANCH))
    if sum(counts) != n:
        problems.append(f"branch counts {counts} do not add up to n = {n}")
    for k, count in zip((1, 2), counts):
        if abs(count - n * P_BRANCH) > SIGMAS * count_sigma:
            problems.append(f"branch{k}.count {count} is beyond 6 sigma of {n * P_BRANCH}")
    estimates = [report[f"branch{k}.estimated_shift_m"] for k in (1, 2)]
    if not estimates[0] * estimates[1] < 0.0:
        problems.append(f"branch shift estimates {estimates} do not have opposite signs")
    for k, sign in ((1, 1.0), (2, -1.0)):
        epsilon = -sign * PERIOD * step.delta / (2.0 * math.pi)
        predicted = report[f"branch{k}.predicted_shift_m"]
        if not abs(predicted - epsilon) <= 1e-9 * abs(epsilon):
            problems.append(f"branch{k}.predicted_shift_m {predicted!r} differs from {epsilon!r}")
        sigma = report[f"branch{k}.estimated_shift_sigma_m"]
        error = abs(estimates[k - 1] - epsilon)
        if not (sigma > 0.0 and error <= 0.5 * CELL_WIDTH + SIGMAS * sigma):
            problems.append(
                f"branch{k}.estimated_shift_m is {error!r} m from {epsilon!r}, "
                f"beyond dx/2 + 6 sigma_boot ({sigma!r})"
            )
    mean, mean_sigma = report["mean_shift_m"], report["mean_shift_sigma_m"]
    if not abs(mean) <= SIGMAS * mean_sigma:
        problems.append(f"mean_shift_m {mean!r} is beyond 6 sigma ({mean_sigma!r}) of 0")
    for name, total in (("histogram_pooled.csv", n), ("histogram_branch1.csv", counts[0]),
                        ("histogram_branch2.csv", counts[1])):
        table = _csv_table(files, name, "x_m,count", problems)
        if table is not None and table[:, 1].sum() != total:
            problems.append(f"{name}: counts add up to {table[:, 1].sum()}, expected {total}")


def _current(table: np.ndarray) -> np.ndarray:
    """j = (hbar e / m) Im(psi* dpsi/deta) from a wavefunction table, with the
    second-order stencil the package documents."""
    psi = table[:, 1] + 1j * table[:, 2]
    spacing = (table[-1, 0] - table[0, 0]) / (len(psi) - 1)
    dpsi = np.gradient(psi, spacing, edge_order=2)
    return (HBAR * E_CHARGE / M_ELECTRON) * np.imag(np.conj(psi) * dpsi)


def _verify_tables(step: Step, files: dict[str, bytes], problems: list[str]) -> None:
    for name in ("pattern_branch1.csv", "pattern_branch2.csv", "pattern_mixture.csv"):
        _csv_table(files, name, "x_m,intensity", problems)
    summary = dict(
        line.split(",", 1) for line in files.get("mixture_summary.csv", b"").decode().splitlines()[1:]
    )
    try:
        mixed = float(summary["mixture_pattern_visibility"])
    except (KeyError, ValueError):
        problems.append("mixture_summary.csv: no mixture_pattern_visibility")
    else:
        if not abs(mixed - abs(math.cos(step.delta))) <= 1e-3:
            problems.append(f"mixture visibility {mixed!r} is not |cos {step.delta!r}| within 1e-3")
    psi_tables = [_csv_table(files, f"wavefunction_branch{k}.csv", "eta_m,re_psi,im_psi", problems)
                  for k in (1, 2)]
    j_tables = {name: _csv_table(files, f"current_{name}.csv", "eta_m,j_A", problems)
                for name in ("total", "mixture", "ensemble")}
    if any(t is None for t in psi_tables) or any(t is None for t in j_tables.values()):
        return
    scale = max(float(np.max(np.abs(_current(t)))) for t in psi_tables)
    deviation = float(np.max(np.abs(j_tables["total"][:, 1] - j_tables["mixture"][:, 1])))
    if not deviation <= 1e-9 * scale:
        problems.append(f"current decomposition deviation {deviation!r} A exceeds 1e-9 max|j_k|")
    if not np.array_equal(j_tables["ensemble"][:, 1], N_ENSEMBLE * j_tables["total"][:, 1]):
        problems.append(f"current_ensemble.csv is not {N_ENSEMBLE} x current_total.csv")


def verify(workload: str, op: OpInput, codes: list[int], files: dict[str, bytes]) -> list[str]:
    """Every check one op fails; empty when the op is correct."""
    if any(code != 0 for code in codes):
        return [f"exit codes {codes}"]
    problems: list[str] = []
    for k, step in enumerate(op.steps):
        prefix = f"step{k}/"
        step_files = {name[len(prefix):]: data for name, data in files.items() if name.startswith(prefix)}
        step_problems: list[str] = []
        try:
            if workload in ELECTRONS:
                _verify_experiment(step, step_files, step_problems)
            else:
                _verify_tables(step, step_files, step_problems)
        except Exception as exc:   # malformed output must fail the op, not the run
            step_problems.append(f"verification raised {exc!r}")
        problems += [f"step{k} (seed {step.seed}): {problem}" for problem in step_problems]
    return problems
