"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
import spans
import speed
from hypervolume import hypervolume_2d
from workloads import same_as_recorded

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def brute_hypervolume(points, ref) -> int:
    """Unit cells of [0, ref) dominated by some point (integer coordinates)."""
    rx, ry = ref
    return sum(any(px <= x and py <= y for px, py in points)
               for x in range(rx) for y in range(ry))


@pytest.mark.parametrize("seed", range(40))
def test_hypervolume_matches_grid_count(seed):
    rng = np.random.default_rng(seed)
    ref = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
    points = [tuple(int(v) for v in p) for p in rng.integers(0, 14, size=(int(rng.integers(0, 8)), 2))]
    assert hypervolume_2d(points, ref) == brute_hypervolume(points, ref)


def test_hypervolume_edge_cases():
    assert hypervolume_2d([], (3, 3)) == 0.0
    assert hypervolume_2d([(3, 0), (0, 3)], (3, 3)) == 0.0  # on the reference boundary
    assert hypervolume_2d([(1.5, 0.5)], (2, 2)) == 0.75
    assert hypervolume_2d([(1, 1), (1, 1), (2, 0)], (3, 3)) == 5.0


def test_stored_inputs_match_generator():
    stored = json.loads(inputs.DATA_FILE.read_text())
    assert stored["generator"] == inputs.GENERATOR
    assert stored["seed"] == inputs.DEFAULT_SEED
    assert stored["placements"] == inputs.generate(inputs.DEFAULT_SEED)


def test_stored_placements_are_feasible_and_distinct():
    for name, (vertices, count, (m_lo, m_hi), _) in inputs.BATCHES.items():
        batch = inputs.batch(name, inputs.DEFAULT_SEED)
        assert len(batch) == count
        elements = inputs.lattice(vertices)
        assert len({json.dumps(p["xy"]) for p in batch}) == count
        for p in batch:
            assert m_lo <= len(p["xy"]) <= m_hi
            assert inputs.feasible(vertices, p["xy"], elements)


def test_benchmark_json_names_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == spans.metric_specs()
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["optimize-L", "evaluate-rect", "simulate-L"]


def test_same_as_recorded(tmp_path):
    path = tmp_path / "fronts" / "key.csv"
    assert same_as_recorded(path, b"a,b\n") is None
    assert same_as_recorded(path, b"a,b\n") is True
    assert same_as_recorded(path, b"a,c\n") is False


def test_timed_samples_around_and_during_and_subtracts_them(monkeypatch):
    monkeypatch.setattr(speed, "SAMPLE_PERIOD_S", 0.1)
    monkeypatch.setattr(speed, "kernel", lambda: time.sleep(0.02))
    result, seconds, samples = speed.timed(lambda: time.sleep(0.45) or "done")
    assert result == "done"
    assert len(samples) >= 5  # before, about four during, after
    assert all(0.02 <= s < 0.1 for s in samples)
    assert seconds + sum(samples[1:-1]) == pytest.approx(0.45, abs=0.05)
    assert speed.scaled(2.0, [speed.REFERENCE_S / 2] * 3) == pytest.approx(4.0)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_all_workloads(trace):
    for tiny_dir in run.OUT.glob("*-tiny"):  # start from fresh inputs
        shutil.rmtree(tiny_dir)
    proc = _run(["--workload", "all", "--tiny", "--seconds", "1", "--trace", str(trace)], HERE.parent)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    group = BENCHMARK["per_layer" if trace else "end_to_end"]
    for name, result in summary["workloads"].items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert list(result["metrics"]) == [m["name"] for m in group]
        for metric, spec in zip(result["metrics"].values(), group):
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], (int, float))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "evaluate-rect", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
