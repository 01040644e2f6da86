"""abmix benchmark: drives `abmix.cli.main` in process, one op at a time.

    python3 perfbench/run.py --workload mc_bootstrap --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Run from the root of a checkout; the package is imported from its `src/`.
The load is one closed-loop client: one process, one op in flight, ops back
to back.  Workloads, inputs and output checks live in `workloads.py`; the
traced run's span recorder in `tracing.py`.

A run is, in order:

1. set-up samples (`--trace 0` only): SETUP_SAMPLES fresh interpreters, one
   after another, each importing abmix, generating inputs and running one
   warm-up op; `setup_s` is their median wall time to ready;
2. this process's own warm-up op: the golden op, op 0 of the default
   workload seed, whose output digests must match `golden.json`;
3. ops until they took `--seconds` in all, each verified, op 1 repeating
   op 0's inputs so the two outputs must be byte-identical;
4. with `--trace 1`, step 3 gets half of `--seconds` and the other half
   runs the same ops with every layer wrapped, giving the per-layer
   metrics and `trace.overhead_ratio` (traced over untraced median op time).

Only the CLI calls are timed; writing config files, reading and checking
outputs happen between ops.  The last stdout line is the result JSON; the
line before it holds the details: every op time, with their throughput,
median and tail, sample count, failures and environment.

The timing metric is `op_min_s`, the fastest op of the run.  On a 2-vCPU
guest of a shared machine, CPU-bound code ran up to 2x slower for stretches
of seconds to minutes, on both CPUs at once.
How much of a run falls in such a stretch sets its median, tail and
throughput, whose spread over ten runs reached 0.34 of their median; the
fastest op of a run is taken when the host is least contended and moves
with the program's own cost.  A failed op is counted and the run goes on; the exit code is
0 whenever the result is printed, 2 when the checkout holds no abmix.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-run"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
TAIL_BEYOND = 10


def import_cli():
    """abmix.cli from this checkout's src/, or None when it is not there."""
    source = ROOT / "src"
    if not (source / "abmix" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(source))
    import abmix.cli

    if Path(abmix.cli.__file__).resolve().parent != (source / "abmix").resolve():
        return None
    return abmix.cli


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the median when there are too few samples for any."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def environment(workload: str) -> dict:
    cpu_model, caches = "unknown", {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    n = workloads.ELECTRONS.get(workload)
    if n is not None:
        working_set = {"uniforms": 16 * n, "positions": 8 * n, "branch_masks": 2 * n}
    else:   # three patterns, two complex wavefunctions, three currents
        working_set = {"grid_arrays": workloads.CELLS * (3 * 8 + 2 * 16 + 3 * 8)}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "working_set_bytes_computed": working_set,
    }


class Runner:
    """One benchmark run: ops, checks and the tallies behind the metrics."""

    def __init__(self, cli, workload: str):
        self.cli, self.workload = cli, workload
        self.attempted = 0
        self.failures: list[str] = []
        self.bytes_written = 0
        self.work = SCRATCH / f"{workload}-{os.getpid()}"

    def op(self, op, expect_files=None, expect_digests=None) -> tuple[float, dict[str, bytes]]:
        """Run one op, verify it, count it and clean up.  `expect_*` add the
        determinism and golden checks.  Returns the wall time and the output
        files."""
        work_dir = self.work / f"op-{self.attempted}"
        elapsed, codes, output = workloads.run_op(self.cli, self.workload, op, work_dir)
        files = workloads.read_outputs(work_dir)
        shutil.rmtree(work_dir, ignore_errors=True)
        self.bytes_written += sum(len(data) for data in files.values())
        problems = workloads.verify(self.workload, op, codes, files)
        if any(code != 0 for code in codes):
            problems.append(output.strip()[-300:])
        if expect_files is not None and files != expect_files:
            problems.append("outputs differ from the first run of the same inputs")
        if expect_digests is not None:
            actual = workloads.digests(files)
            wrong = sorted(k for k in set(actual) | set(expect_digests)
                           if actual.get(k) != expect_digests.get(k))
            if wrong:
                problems.append(f"digests differ from golden.json for {wrong}")
        self.attempted += 1
        if problems:
            self.failures.append(f"op {op.index}: {'; '.join(problems)}")
        return elapsed, files

    def golden_op(self) -> None:
        """The warm-up op: op 0 of the default workload seed, pinned digests."""
        pinned = json.loads(GOLDEN.read_text())["digests"].get(self.workload, {})
        self.op(next(workloads.op_inputs(self.workload, DEFAULT_SEED)), expect_digests=pinned)

    def loop(self, seed: int, seconds: float, tracer=None) -> list[float]:
        """Ops back to back until they took `seconds`, at least two; the
        second repeats the first's inputs and must give the same bytes."""
        inputs = workloads.op_inputs(self.workload, seed)
        first = next(inputs)
        times: list[float] = []
        first_files = None
        while sum(times) < seconds or len(times) < 2:
            if tracer is not None:
                tracer.op = len(times)
            if not times:
                elapsed, first_files = self.op(first)
            elif len(times) == 1:
                elapsed, _ = self.op(first, expect_files=first_files)
                first_files = None
            else:
                elapsed, _ = self.op(next(inputs))
            times.append(elapsed)
        return times


def setup_samples(workload: str) -> tuple[list[float], list[str]]:
    """Wall time of fresh processes from spawn until their first op could start."""
    samples, problems = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        lines = child.stdout.split()
        if child.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            problems.append(f"setup probe exited {child.returncode}: {child.stderr.strip()[-300:]}")
            continue
        samples.append(float(lines[1]) - start)
    return samples, problems


def run(args, cli) -> dict:
    runner = Runner(cli, args.workload)
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    setup_failures: list[str] = []
    try:
        if args.trace == 0:
            samples, setup_failures = setup_samples(args.workload)
            detail.update(setup_samples_s=samples, setup_failures=setup_failures)
        runner.golden_op()
        share = args.seconds / 2 if args.trace else args.seconds
        times = runner.loop(args.seed, share)
        if args.trace == 1:
            tracer = tracing.Tracer()
            tracer.install()
            written_before = runner.bytes_written
            traced = runner.loop(args.seed, share, tracer)
            tracer.write(SCRATCH / f"trace-{args.workload}-seed{args.seed}.json")
            layers = tracing.layer_metrics(tracer.spans, len(traced))
            layers["cli.bytes_written"] = (runner.bytes_written - written_before) / len(traced)
            layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(times)
            detail["traced_op_times_s"] = traced
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    tail_value, percentile = tail(times)
    detail.update(
        samples=len(times), op_times_s=times,
        ops_per_s=len(times) / sum(times), op_p50_s=statistics.median(times),
        op_tail_s=tail_value, op_tail_percentile=percentile,
        failed_op_ratio=len(runner.failures) / runner.attempted, failed_op_base=runner.attempted,
        failures=runner.failures[:20], environment=environment(args.workload),
    )
    if args.trace == 1:
        metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    else:
        metrics = {
            "op_min_s": (min(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "setup_s": (statistics.median(samples) if samples else float("nan"), "s"),
            "ok_op_ratio": (1.0 - detail["failed_op_ratio"], "ratio"),
        }
    print(json.dumps(detail))
    return {
        "correct": not (runner.failures or setup_failures) and all(v == v for v, _ in metrics.values()),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith("bytes_written") else "count"


def run_all(args) -> int:
    """Each workload in its own process, one after another; one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if child.returncode != 0:
            print(child.stderr, file=sys.stderr)
            return child.returncode
        *_, detail, result = (json.loads(line) for line in child.stdout.splitlines())
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print(f"{workload:<14} {name:<34} {metric['value']:>14.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
        if args.trace == 0:
            for name, unit in (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s")):
                print(f"{workload:<14} {name:<34} {detail[name]:>14.6g} {unit}")
            print(f"{workload:<14} {'(op_tail percentile, samples)':<34} "
                  f"{detail['op_tail_percentile']:>14.4g} {detail['samples']}")
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--bless", action="store_true", help="pin the golden op's digests in golden.json")
    args = parser.parse_args()

    cli = import_cli()
    if cli is None:
        print(f"error: no abmix package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        runner = Runner(cli, args.workload)
        runner.golden_op()
        print("ready", time.monotonic())
        shutil.rmtree(runner.work, ignore_errors=True)
        return 0
    if args.bless:
        return bless(cli, args.workload)
    print(json.dumps(run(args, cli)))
    return 0


def bless(cli, workload: str) -> int:
    runner = Runner(cli, workload)
    try:
        _, files = runner.op(next(workloads.op_inputs(workload, DEFAULT_SEED)))
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    if runner.failures:
        print("\n".join(runner.failures), file=sys.stderr)
        return 1
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"digests": {}}
    golden.update(workload_seed=DEFAULT_SEED, numpy=np.__version__)
    golden["digests"][workload] = workloads.digests(files)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
