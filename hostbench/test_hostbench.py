"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest hostbench/test_hostbench.py -q

Each workload runs at test size, traced, twice: no op may fail, the
count metrics and the simulated outputs must repeat exactly, and in
every op the self times of the spans under it may not add up to more
than the op's wall time.  The host-speed probe is checked on its own.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

sys.path.insert(0, str(HERE))
from probe import SpeedProbe  # noqa: E402
from run import tail  # noqa: E402
from tracer import Recorder  # noqa: E402


def _count_metric(name: str) -> bool:
    return name.endswith(".calls") or name in (
        "core.engine.events", "serving.scheduler.iterations",
        "dse.sim_ratio")


def _tiny_traced(workload: str, work: Path) -> dict:
    work.mkdir()
    out = work / "result.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(work / "cache"))
    subprocess.run([sys.executable, str(HERE / "worker.py"), "run",
                    "--workload", workload, "--seed", "3", "--tiny",
                    "--trace", "--work", str(work), "--out", str(out)],
                   cwd=ROOT, env=env, check=True, timeout=300)
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_repeats(workload, tmp_path):
    first = _tiny_traced(workload, tmp_path / "a")
    second = _tiny_traced(workload, tmp_path / "b")
    for run in (first, second):
        assert run["failed"] == 0, run["errors"]
        assert run["attempted"] >= 2
        for op in run["op_accounting"]:
            assert op["children_self_s"] <= op["wall_s"] + 1e-9, op
    counts = {k: v for k, v in first["layers"].items() if _count_metric(k)}
    assert any(counts.values())
    assert counts == {k: v for k, v in second["layers"].items()
                      if _count_metric(k)}
    assert first["outputs"] == second["outputs"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    rec = Recorder()
    with rec.op_scope(0):
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            with rec.span("inner"):
                pass
    totals = rec.layer_totals()
    assert totals["inner"]["calls"] == 2
    outer = totals["outer"]
    assert outer["self_s"] == pytest.approx(outer["s"] - totals["inner"]["s"])
    (op,) = rec.op_accounting()
    assert op["children_self_s"] == pytest.approx(outer["s"])


def test_wrap_records_only_inside_ops_and_unwraps():
    class Target:
        def work(self, x):
            return x + 1

    rec = Recorder()
    rec.wrap(Target, "work", "target.work")
    assert Target().work(1) == 2            # outside any op: not recorded
    with rec.op_scope(0):
        assert Target().work(2) == 3
    rec.unwrap_all()
    assert rec.layer_totals()["target.work"]["calls"] == 1
    assert not hasattr(Target.work, "__wrapped__")


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail(list(range(19))) is None
    pct, value = tail([float(i) for i in range(100)])
    assert pct == 90
    assert sum(1 for i in range(100) if i > value) >= 10


def test_probe_scale_averages_reference_over_probe_time():
    probe = SpeedProbe()
    ref = probe.REFERENCE_S
    probe.samples.extend([ref] * 3 + [2 * ref] * 5)
    assert probe.scale(3) == pytest.approx(0.5)
    # Fewer than MIN_SAMPLES probes since the mark: borrow earlier ones.
    assert probe.scale(7) == pytest.approx(0.5)
    assert probe.scale(0) == pytest.approx((3 * 1.0 + 5 * 0.5) / 8)


def test_probe_ticks_while_code_runs():
    probe = SpeedProbe()
    probe.start()
    try:
        end = time.perf_counter() + 20 * probe.INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= probe.MIN_SAMPLES
    assert probe.scale(0) > 0
