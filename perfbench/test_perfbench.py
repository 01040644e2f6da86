"""Self-tests of the benchmark itself: `python3 -m pytest perfbench -q`.

One-second runs, so each test takes seconds, not minutes.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    child = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "5", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return child


def result_of(child):
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["render_tables", "mc_bootstrap"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result, detail = result_of(bench("--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 3


def run_corrupted(monkeypatch, capsys, workload, damage):
    """One in-process run in which `damage(call, files)` may alter the
    outputs that the harness reads back after each op."""
    read_outputs = workloads.read_outputs
    calls = []

    def damaged(work_dir):
        files = read_outputs(work_dir)
        damage(len(calls), files)
        calls.append(work_dir)
        return files

    monkeypatch.setattr(workloads, "read_outputs", damaged)
    args = argparse.Namespace(workload=workload, seed=5, seconds=1.0, trace=0)
    result = run.run(args, run.import_cli())
    detail = json.loads(capsys.readouterr().out.splitlines()[-1])
    return result, detail


def test_flipped_branch_shift_sign_is_counted_and_the_run_goes_on(monkeypatch, capsys):
    def flip_sign(call, files):
        if call == 1:   # the first timed op; call 0 is the warm-up op
            key = "branch1.estimated_shift_m = "
            lines = files["step0/report.txt"].decode().splitlines(keepends=True)
            lines = [key + repr(-float(line[len(key):])) + "\n" if line.startswith(key) else line
                     for line in lines]
            files["step0/report.txt"] = "".join(lines).encode()

    result, detail = run_corrupted(monkeypatch, capsys, "mc_bootstrap", flip_sign)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert result["metrics"]["ok_op_ratio"]["value"] == 1 - result["failed"] / result["attempted"]
    assert "opposite signs" in detail["failures"][0]


def test_golden_digest_mismatch_is_counted_and_the_run_goes_on(monkeypatch, capsys):
    def flip_last_digit(call, files):
        if call == 0:   # the warm-up op, checked against golden.json
            data = bytearray(files["step0/wavefunction_branch2.csv"])
            data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
            files["step0/wavefunction_branch2.csv"] = bytes(data)

    result, detail = run_corrupted(monkeypatch, capsys, "render_tables", flip_last_digit)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] >= 3
    assert "golden.json" in detail["failures"][0]


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = bench("--workload", "mc_bootstrap", "--trace", "0", cwd=tmp_path)
    assert child.returncode != 0
    assert "correct" not in child.stdout
