"""Request-level LLM serving across edge design points.

Claim to reproduce: the serving stack of Section 2's unified
architecture is a *scheduling* story once the compiler fixes per-step
costs — iteration-level (continuous) batching strictly beats static
batching on goodput at every design point, because static batches pad
to their longest member while admitted KV reservations idle.  The
KV-capacity constraint comes from each design point's own memory
hierarchy, so the same offered trace stresses the points differently.

Standalone, ``python benchmarks/bench_llm_serving.py --label L`` runs the
scaling leg instead: the ``make serve-smoke`` tenant mix as one
continuous campaign at 10k and 100k requests, timed in host wall-clock
seconds, appended as one entry to ``benchmarks/results/BENCH_serving.json``.
"""

import argparse
import json
import os
import pathlib
import platform
import sys
import time
from dataclasses import replace

from repro.analysis import ascii_table
from repro.config import soc_config_by_name
from repro.models.gpt import GPT_TINY
from repro.serving import ServeSpec, StepCostModel, TenantSpec, \
    simulate_serving
from repro.serving.cli import SMOKE_RATE_SCALE, default_tenants, \
    smoke_spec, warm_smoke_buckets

_TRAJECTORY = pathlib.Path(__file__).parent / "results" / "BENCH_serving.json"
SCALING_REQUESTS = (10_000, 100_000)

SEED = 0
REQUESTS = 400          # per tenant, per design point
DESIGN_POINTS = ("ascend-310", "kirin-990-5g")


def _tenants():
    return (
        TenantSpec(name="chat", rate_rps=600.0, requests=REQUESTS,
                   prefill_choices=(16, 32, 64), decode_choices=(8, 16, 32),
                   slo_ms=250.0, priority=1, critical=True, kv_floor=0.25),
        TenantSpec(name="batch", rate_rps=400.0, requests=REQUESTS,
                   prefill_choices=(64, 128, 256),
                   prefill_weights=(1.0, 2.0, 1.0),
                   decode_choices=(16, 32, 64), slo_ms=1000.0,
                   kv_ceiling=0.75),
    )


def test_llm_serving_design_points(report, benchmark):
    def sweep():
        rows = {}
        for soc_name in DESIGN_POINTS:
            soc = soc_config_by_name(soc_name)
            core = soc.core_groups[0][0]
            spec = ServeSpec(model=GPT_TINY, core=core, soc=soc,
                             tenants=_tenants(), seed=SEED,
                             policy="fcfs", max_batch=16, kv_fraction=0.0)
            cost = StepCostModel(GPT_TINY, core)
            rows[soc_name] = {
                mode: simulate_serving(spec, mode=mode, cost_model=cost,
                                       with_manifest=False,
                                       with_counters=False)
                for mode in ("continuous", "static")
            }
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = []
    for soc_name in DESIGN_POINTS:
        for mode in ("continuous", "static"):
            rep = rows[soc_name][mode]
            agg = rep.aggregate
            kv = rep.payload["kv"]
            table.append([
                soc_name, mode,
                f"{kv['total_bytes'] / 1e6:.1f}",
                f"{agg['latency']['p50']:,}",
                f"{agg['latency']['p99']:,}",
                f"{agg['slo_attainment']:.1%}",
                f"{agg['goodput_rps']:.0f}",
                f"{agg['tokens_per_s']:.0f}",
            ])
    report("llm_serving", ascii_table(
        ["design point", "batching", "KV MB", "p50 lat (cyc)",
         "p99 lat (cyc)", "SLO", "goodput rps", "tok/s"],
        table,
        title=f"LLM serving — {2 * REQUESTS} requests, 2 tenants, "
              f"gpt-tiny, seed {SEED}"))

    for soc_name in DESIGN_POINTS:
        cont = rows[soc_name]["continuous"]
        stat = rows[soc_name]["static"]
        # The tentpole claim, at every design point:
        assert cont.goodput_rps() > stat.goodput_rps(), soc_name
        # Same trace fully accounted for in both modes:
        for rep in (cont, stat):
            agg = rep.aggregate
            assert agg["completed"] + agg["rejected"] == 2 * REQUESTS
        # Continuous batching also strictly shortens the campaign:
        assert (cont.payload["makespan_cycles"]
                < stat.payload["makespan_cycles"]), soc_name

    # Identical seeds: a design point's report is fully reproducible.
    again = soc_config_by_name(DESIGN_POINTS[0])
    spec = ServeSpec(model=GPT_TINY, core=again.core_groups[0][0],
                     soc=again, tenants=_tenants(), seed=SEED,
                     policy="fcfs", max_batch=16, kv_fraction=0.0)
    rerun = simulate_serving(spec, mode="continuous",
                             with_manifest=False, with_counters=False)
    assert rerun.digest() == rows[DESIGN_POINTS[0]]["continuous"].digest()

    # The bigger memory system serves strictly more tokens per second.
    assert (rows["ascend-310"]["continuous"].aggregate["tokens_per_s"]
            > rows["kirin-990-5g"]["continuous"].aggregate["tokens_per_s"])


# -- scaling leg --------------------------------------------------------------

def measure_scaling() -> list:
    """Wall-clock req/s of the smoke campaign at each total request count
    (split evenly over its two tenants)."""
    spec = smoke_spec()
    cost = StepCostModel(spec.model, spec.core, dtype=spec.dtype)
    warm_smoke_buckets(cost)
    points = []
    for total in SCALING_REQUESTS:
        campaign = replace(spec, tenants=default_tenants(
            total // 2, SMOKE_RATE_SCALE))
        t0 = time.perf_counter()
        rep = simulate_serving(campaign, mode="continuous", cost_model=cost,
                               with_manifest=False, with_counters=False)
        seconds = time.perf_counter() - t0
        offered = rep.aggregate["offered"]
        points.append({
            "requests": offered,
            "seconds": round(seconds, 2),
            "req_per_s": round(offered / seconds, 1),
            "iterations": rep.payload["steps"]["iterations"],
            "digest": rep.digest(),
        })
        print(f"  {offered:>7,} requests: {seconds:8.2f} s wall = "
              f"{offered / seconds:8,.0f} req/s "
              f"(digest {rep.digest()[:16]}...)", flush=True)
    return points


def _append_trajectory(entry: dict) -> None:
    _TRAJECTORY.parent.mkdir(exist_ok=True)
    history = []
    if _TRAJECTORY.exists():
        history = json.loads(_TRAJECTORY.read_text())
    history.append(entry)
    _TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True,
                        help="what this entry measures, e.g. a commit")
    args = parser.parse_args(argv)
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "label": args.label,
        "host": {"machine": platform.machine(),
                 "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "scaling": measure_scaling(),
    }
    _append_trajectory(entry)
    print(f"appended to {_TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
