"""The benchmark's own tests, at the smoke size (about 10k points).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracer  # noqa: E402
from bench import CLI_ENTRY  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(workload, seed: int, where: Path) -> dict[str, str]:
    where.mkdir()
    workload.write_inputs(workload.generate(seed, workload.sizes["smoke"]),
                          where)
    return {name: oracle.sha256_file(where / name)
            for name in workload.inputs}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_input_bytes(name, tmp_path):
    workload = WORKLOADS[name]
    first = _inputs(workload, 7, tmp_path / "a")
    assert _inputs(workload, 7, tmp_path / "b") == first
    assert _inputs(workload, 8, tmp_path / "c") != first


def test_spec_lists_the_metrics_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == \
        [name for name, _, _ in tracer.METRICS]
    assert {m["unit"] for m in SPEC["per_layer"]} == \
        {unit for _, unit, _ in tracer.METRICS}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    commands = len(WORKLOADS[name].commands())
    assert result["attempted"] >= commands * (1 + trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "scan_manybox", "--seed", "1", "--seconds",
                "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _pcedit(workdir: Path, argv) -> None:
    subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], cwd=workdir,
                   env={"PYTHONPATH": str(ROOT / "src")}, check=True,
                   capture_output=True)


def _corrupt_color(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x40  # blue channel of the last binary PLY vertex
    path.write_bytes(data)


@pytest.mark.parametrize("name,index", [("scan_manybox", 0),
                                        ("scan_manybox", 1),
                                        ("scan_bigbox", 2),
                                        ("convert_binary", 0)])
def test_checks_reject_a_changed_output(name, index, tmp_path):
    workload = WORKLOADS[name]
    data = workload.generate(5, workload.sizes["smoke"])
    workload.write_inputs(data, tmp_path)
    expected = workload.expect(data, tmp_path)
    command = workload.commands()[index]
    _pcedit(tmp_path, command.argv)
    workload.check(index, tmp_path, expected)
    _corrupt_color(tmp_path / command.outputs[0])
    with pytest.raises(CheckFailed):
        workload.check(index, tmp_path, expected)


def test_checks_reject_a_shifted_position(tmp_path):
    workload = WORKLOADS["convert_ascii"]
    data = workload.generate(5, workload.sizes["smoke"])
    workload.write_inputs(data, tmp_path)
    expected = workload.expect(data, tmp_path)
    command = workload.commands()[0]
    _pcedit(tmp_path, command.argv)
    workload.check(0, tmp_path, expected)
    path = tmp_path / "a.ply"
    lines = path.read_text().splitlines(keepends=True)
    first = lines.index("end_header\n") + 1
    x, rest = lines[first].split(" ", 1)
    lines[first] = f"{float(x) + 1e-3:.6f} {rest}"
    path.write_text("".join(lines))
    with pytest.raises(CheckFailed):
        workload.check(0, tmp_path, expected)


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"id": 0, "parent": None, "start": 0, "end": 100},
        {"id": 1, "parent": 0, "start": 10, "end": 50},
        {"id": 2, "parent": 1, "start": 20, "end": 30},
        {"id": 3, "parent": 0, "start": 60, "end": 70},
    ]
    own = {span["id"]: ns for span, ns in tracer.self_times(spans)}
    assert own == {0: 50, 1: 30, 2: 10, 3: 10}


def test_oracle_containment_matches_a_hand_built_box():
    box = oracle.Box("b", centroid=np.zeros(3), dims=np.array([2.0, 4.0, 6.0]),
                     rot=oracle.rotation(0.0, 0.0, 90.0))
    inside = box.contains(np.array([[1.9, 0.9, 2.9], [0.0, 1.1, 0.0],
                                    [-1.99, -0.99, -2.99]]))
    assert inside.tolist() == [True, False, True]
