"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root with ``python -m pytest bench``.  The 3-D
workloads run on a 2x4 lattice with an 8-direction circle instead of the
default 16x32/64 grid, so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()
from workloads import WORKLOADS  # noqa: E402  (imports the program)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny_grid(monkeypatch):
    import dirsubdiff as ds
    from dirsubdiff import cli, engine

    real = engine.default_grid

    def tiny(dim):
        return ds.SphereGrid.sphere(2, 4, 8) if dim == 3 else real(dim)

    for module in (ds, engine, cli):
        monkeypatch.setattr(module, "default_grid", tiny)


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_and_checks(tiny_grid, workload):
    result, extras = run.run(workload, seed=7, seconds=0, trace=0, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert extras["failed_ratio"] == 0.0
    assert extras["inputs"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_planted_wrong_expectation_fails(tiny_grid, workload):
    result, extras = run.run(workload, seed=7, seconds=0, trace=0, plant=True, setup_repeats=1)
    assert not result["correct"]
    assert extras["failed_ratio"] == 1.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_per_layer_metrics(tiny_grid, workload):
    result, extras = run.run(workload, seed=7, seconds=0, trace=1, setup_repeats=1)
    assert result["correct"]
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    busy = {
        "subdiff3d": ("engine.directed_subdiff.calls", "json.encode_bytes", "cli.main.self_s"),
        "verify2d": ("theorems.verify_sum_rule.calls", "deriv.dirderiv_transform.calls"),
        "setalg3d": ("dirset.sup.calls", "dirset.grid_from_json.calls", "json.decode_bytes"),
    }[workload]
    assert all(metrics[name] > 0 for name in busy)
    assert (HERE.parent / extras["spans"]).is_file()


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _run_script(root, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=root, capture_output=True,
        text=True, timeout=180,
    )


def test_script_prints_result_last():
    proc = _run_script(HERE.parent, "--workload", "verify2d", "--seed", "3",
                       "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, m in result["metrics"].items():
        assert any(line.startswith(f"verify2d {name} = ") and line.endswith(m["unit"])
                   for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_script(tmp_path, "--workload", "verify2d", "--seed", "3", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
