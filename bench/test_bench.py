"""Tests of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".matrices", ".states", ".samples", ".steps")


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_end_to_end_run_emits_every_metric(workload):
    result, lines = run.run_benchmark(workload, seed=3, seconds=0, trace=False, size="tiny")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= 1
    printed = "\n".join(lines)
    for name, unit in _units("end_to_end").items():
        assert f"{name} = " in printed and f" {unit}" in printed
    assert "error_rate = " in printed
    if workload in ("sweep", "oracle"):
        assert result["failed"] == 0 and result["correct"], lines


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, _ = run.run_benchmark(workload, seed=5, seconds=0, trace=True, size="tiny")
    second, _ = run.run_benchmark(workload, seed=5, seconds=0, trace=True, size="tiny")
    assert {k: m["unit"] for k, m in first["metrics"].items()} == _units("per_layer")
    counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)]
    assert "lapack.eig.calls" in counts and "qab_core.steps" in counts
    for key in counts:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["lapack.eig.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(
        run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],  # fmt: skip
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_speed_probe_is_not_traced():
    run._use_source_tree()
    import speed
    import tracer

    probe = speed.SpeedProbe()
    with tracer.Tracer() as t:
        speeds = probe()
    assert all(wall > 0 and cpu > 0 for wall, cpu in speeds.values())
    assert t.layer_metrics()["lapack.eig.calls"] == 0


def test_speed_factor_picks_the_cpus_a_command_used():
    import speed

    before = {0: (1.0, 1.0), 1: (3.0, 3.0)}
    after = {0: (2.0, 2.0), 1: (4.0, 4.0)}
    assert speed.speed_factor(before, after, 1, busy=1.0) == (3.5, 3.5)
    assert speed.speed_factor(before, after, 1, busy=1.8) == (2.5, 2.5)
    assert speed.speed_factor(before, after, None, busy=1.0) == (2.5, 2.5)
