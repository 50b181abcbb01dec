"""One workload run in its own process; ``run.py`` starts this file.

Modes:

* ``setup``: import, generate inputs and warm caches, then exit.  Its
  time is one set-up sample.
* ``run``: set up, then execute the workload's ops in a closed loop
  (each op starts when the previous one returned) and check every
  output.  With ``--trace`` the public calls at each layer boundary
  are wrapped in spans (:mod:`tracer`) and per-layer numbers come back
  with the result.  ``compile-sweep`` ends with a warm pass in a child
  ``warm`` process.
* ``warm``: recompile the pairs a ``run`` wrote, in a process that
  never compiled them, from the on-disk cache tier alone.

Set-up and untraced op times are host seconds scaled to the reference
host speed by :mod:`probe`; ``--raw`` (and ``--trace``) keep plain wall
seconds, so a traced run compares with an untraced ``--raw`` one.
Every mode writes one JSON result to ``--out``.  Op inputs depend only
on ``(seed, op index)``; ``--seconds`` sets how many ops a run makes.
Simulated outputs (cycles, serving report digests, DSE frontiers) are
checked but never scored: the repository holds no hardware reference
to score them against.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from typing import Dict, Optional  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from probe import SpeedProbe  # noqa: E402
from tracer import Recorder  # noqa: E402

DEFAULT_SEED = 0
# Supervisor workers of dse-edge.  One makes the supervisor simulate
# in the measured process, where the host-speed probe runs; with pool
# workers the probe could not see the CPUs they ran on.
DSE_WORKERS = 1


class CheckFailed(Exception):
    """An op returned, but its output failed the workload's check."""


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def _n_ops(seconds: float, per_second: float, minimum: int) -> int:
    return max(minimum, round(seconds * per_second))


# Each workload provides: ``n_ops``; ``setup()``; ``op(i)`` (the timed
# call); ``check(i, out)`` -> a digest of the simulated outputs, raising
# CheckFailed on a bad one; ``keep(i, out)``; ``instrument(rec)``;
# ``pinned()`` and ``pinned_digest``, its value at the default seed;
# ``throughput(times)`` from op index -> seconds; ``finish(result)``.

# -- compile-sweep -------------------------------------------------------------

class CompileSweep:
    """Cold compiles of (model, never-seen design point) pairs.

    Op ``i`` compiles ``MODELS[i % 3]`` on variant ``i // 2`` of
    ``BASES[i % 2]``, in a private cache directory that starts empty.
    """

    name = "compile-sweep"
    MODELS = (("resnet50", {}), ("bert-base", {"seq": 128}), ("gesture", {}))
    BASES = ("ascend", "ascend-max")
    VARIANTS_PER_BASE = 64   # fixed, so op i's design point never
    OPS_PER_SECOND = 10.0    # depends on how many ops a run makes
    PINNED_OPS = 12
    pinned_digest = (
        "63e1aba549f1964da1776710d88496b2ad8f20705b9e891cb218006224ef362f")

    def __init__(self, seed: int, seconds: float, tiny: bool,
                 work: Path) -> None:
        self.seed = seed
        self.work = work
        self.n_ops = 6 if tiny else min(
            len(self.BASES) * self.VARIANTS_PER_BASE,
            _n_ops(seconds, self.OPS_PER_SECOND, self.PINNED_OPS))
        self.records: Dict[int, dict] = {}

    def setup(self) -> None:
        from repro.config.core_configs import core_config_by_name
        from repro.perf.predictor.dataset import design_point_variants

        import repro.compiler  # noqa: F401  (import cost is set-up)
        self.variants = {
            base: design_point_variants(core_config_by_name(base),
                                        self.VARIANTS_PER_BASE, self.seed,
                                        include_base=False)
            for base in self.BASES}

    def pair(self, i: int):
        model, kwargs = self.MODELS[i % len(self.MODELS)]
        base = self.BASES[i % len(self.BASES)]
        return model, kwargs, self.variants[base][i // len(self.BASES)]

    def op(self, i: int):
        from repro import models
        from repro.compiler import GraphEngine, cache

        model, kwargs, config = self.pair(i)
        cache_dir = self.work / f"cache-{i}"
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
        before = cache.snapshot()
        graph = models.build_model(model, **kwargs)
        compiled = GraphEngine(config).compile_graph(graph)
        after = cache.snapshot()
        return compiled, {k: after[k] - before[k] for k in after}, cache_dir

    def check(self, i: int, out) -> str:
        compiled, delta, _ = out
        reused = {k: delta[k] for k in ("hits", "model_hits",
                                        "model_memory_hits") if delta[k]}
        if reused:
            raise CheckFailed(f"cold op {i} reused cached work: {reused}")
        return _digest([layer.cycles for layer in compiled.layers])

    def keep(self, i: int, out) -> None:
        compiled, _, cache_dir = out
        self.records[i] = {
            "model": self.pair(i)[0], "config": compiled.config.name,
            "cycles": [layer.cycles for layer in compiled.layers],
            "events": sum(layer.instr_count for layer in compiled.layers),
            "cache_dir": str(cache_dir)}

    def instrument(self, rec: Recorder) -> None:
        from repro import models
        from repro.compiler import graph_engine, lowering
        from repro.compiler.graph_engine import GraphEngine
        from repro.core.costs import CostModel

        rec.wrap(models, "build_model", "models.build")
        rec.wrap(GraphEngine, "compile_graph", "compiler.graph_engine")
        rec.wrap(graph_engine, "lower_workload", "compiler.lowering")
        rec.wrap(lowering, "choose_tiling", "compiler.tiling")
        rec.wrap(graph_engine, "schedule_summary", "core.engine.drain",
                 on_result=lambda args, kw, res: rec.count(
                     "core.engine.events", len(args[0])))
        rec.wrap(CostModel, "cost_columns", "core.costs")

    def pinned(self) -> str:
        head = [self.records[i] for i in range(self.PINNED_OPS)
                if i in self.records]
        return _digest([[r["model"], r["config"], r["cycles"]]
                        for r in head])

    def throughput(self, times: Dict[int, float]) -> float:
        """Scheduled instruction events per host second of cold compile."""
        return (sum(self.records[i]["events"] for i in times)
                / sum(times.values()))

    def finish(self, result: dict) -> None:
        """The warm pass: a fresh process recompiles every pair from the
        disk tier the cold ops wrote and must return identical cycles."""
        jobs_path = self.work / "warm-jobs.json"
        out_path = self.work / "warm-result.json"
        jobs = [{"index": i, "cycles": r["cycles"],
                 "cache_dir": r["cache_dir"]}
                for i, r in sorted(self.records.items())]
        jobs_path.write_text(json.dumps({"seed": self.seed, "jobs": jobs}))
        subprocess.run([sys.executable, __file__, "warm",
                        "--workload", self.name,
                        "--ops", str(jobs_path), "--out", str(out_path)],
                       check=True, stdout=sys.stderr, timeout=120)
        warm = json.loads(out_path.read_text())
        result["attempted"] += warm["attempted"]
        result["failed"] += warm["failed"]
        result["errors"] += warm["errors"]
        result["info"]["warm_op_p50_s"] = (median(warm["op_s"])
                                          if warm["op_s"] else None)
        result["info"]["warm_ops"] = len(warm["op_s"])
        result["cache"] = {k: v + warm["cache"].get(k, 0)
                           for k, v in result["cache"].items()}


def warm_main(args) -> dict:
    """``warm`` mode: read-side recompiles from the disk tier only."""
    from repro import models
    from repro.compiler import GraphEngine, cache

    spec = json.loads(Path(args.ops).read_text())
    sweep = CompileSweep(spec["seed"], 0.0, False, Path("."))
    sweep.setup()
    op_s, errors = [], []
    before_all = cache.snapshot()
    for job in spec["jobs"]:
        i = job["index"]
        model, kwargs, config = sweep.pair(i)
        os.environ["REPRO_CACHE_DIR"] = job["cache_dir"]
        before = cache.snapshot()
        t = time.perf_counter()
        try:
            graph = models.build_model(model, **kwargs)
            compiled = GraphEngine(config).compile_graph(graph)
            elapsed = time.perf_counter() - t
            after = cache.snapshot()
            if after["model_hits"] - before["model_hits"] != 1:
                raise CheckFailed(f"warm op {i} missed the disk tier")
            if [layer.cycles for layer in compiled.layers] != job["cycles"]:
                raise CheckFailed(f"warm op {i} cycles differ from cold")
        except Exception:  # a failed op is counted, the run goes on
            errors.append(traceback.format_exc())
            continue
        op_s.append(elapsed)
    after_all = cache.snapshot()
    return {"op_s": op_s, "attempted": len(spec["jobs"]),
            "failed": len(errors), "errors": errors,
            "cache": {k: after_all[k] - before_all[k] for k in after_all}}


# -- serve-overload / serve-light ------------------------------------------------

class _TracedStepCost:
    """Duck-typed stand-in for the shared StepCostModel: forwards every
    attribute, so ``instrument`` can wrap just the two pricing calls."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Serve:
    """Continuous-batching campaigns of the serve-smoke tenant mix.

    gpt-tiny on ascend-mini/ascend-310, on-chip KV, FCFS, max_batch 16.
    Every op is one campaign on its own seeded trace; step costs come
    from a compile cache warmed for every reachable bucket in set-up.
    """

    REQUESTS_PER_TENANT = 1750
    PINNED_DIGESTS = {
        "serve-overload":
            "51b630f72bd8a19d60ebd5aec2810f8cff842991cc5a78821b0e68c6ccb92461",
        "serve-light":
            "1c5521e6cc0a94ad6de2f9832a1998dede24062bce20a77078a482ca54cb07c0",
    }
    RATE_SCALE = {"serve-overload": 2.0, "serve-light": 0.5}
    OPS_PER_SECOND = {"serve-overload": 1 / 2.0, "serve-light": 1 / 0.8}

    def __init__(self, name: str, seed: int, seconds: float, tiny: bool,
                 work: Path) -> None:
        self.name = name
        self.pinned_digest = self.PINNED_DIGESTS[name]
        self.seed = seed
        self.requests = 150 if tiny else self.REQUESTS_PER_TENANT
        self.n_ops = 2 if tiny else _n_ops(
            seconds, self.OPS_PER_SECOND[name], 2)
        self.reports: Dict[int, object] = {}
        self.rec: Optional[Recorder] = None
        self.traced = None

    def setup(self) -> None:
        from repro.config.core_configs import core_config_by_name
        from repro.config.soc_configs import soc_config_by_name
        from repro.models.gpt import GPT_TINY
        from repro.serving import StepCostModel
        from repro.serving.cli import default_tenants

        self.model = GPT_TINY
        self.core = core_config_by_name("ascend-mini")
        self.soc = soc_config_by_name("ascend-310")
        self.tenants = default_tenants(self.requests,
                                       self.RATE_SCALE[self.name])
        self.cost = StepCostModel(self.model, self.core)
        # Every bucket a campaign of this mix can reach: prompt totals
        # chunk at max_context; decode contexts stay under 512 tokens
        # (longest prompt 256 + longest generation 64).
        tokens = StepCostModel.MIN_TOKEN_BUCKET
        while tokens <= self.model.max_context:
            self.cost.prefill_cycles(tokens)
            if tokens <= 512:
                for batch in (1, 2, 4, 8, 16):
                    self.cost.decode_cycles(batch, tokens)
            tokens *= 2

    def op(self, i: int):
        from repro.serving import ServeSpec, simulate_serving

        spec = ServeSpec(model=self.model, core=self.core, soc=self.soc,
                         tenants=self.tenants, seed=_op_seed(self.seed, i),
                         policy="fcfs", max_batch=16, kv_fraction=0.0)
        if self.rec is None:
            return simulate_serving(spec, cost_model=self.cost,
                                    with_manifest=False)
        with self.rec.span("serving.scheduler"):
            return simulate_serving(spec, cost_model=self.traced,
                                    with_manifest=False)

    def check(self, i: int, report) -> str:
        agg = report.aggregate
        if agg["completed"] + agg["rejected"] != agg["offered"]:
            raise CheckFailed(f"campaign {i}: {agg['completed']} done + "
                              f"{agg['rejected']} rejected != "
                              f"{agg['offered']} offered")
        if agg["offered"] != self.requests * len(self.tenants):
            raise CheckFailed(f"campaign {i} offered {agg['offered']}")
        return report.digest()

    def keep(self, i: int, report) -> None:
        self.reports[i] = report

    def instrument(self, rec: Recorder) -> None:
        from repro.serving import KvLedger, scheduler
        from repro.soc.qos import QosArbiter

        self.rec = rec
        self.traced = _TracedStepCost(self.cost)
        rec.wrap(scheduler, "generate_trace", "serving.traffic")
        rec.wrap(KvLedger, "try_reserve", "serving.kvcache.try_reserve",
                 on_result=lambda args, kw, res: rec.count(
                     "serving.kvcache.admitted", int(res)))
        rec.wrap(KvLedger, "feasible_ever", "serving.kvcache.feasible_ever")
        rec.wrap(KvLedger, "grow", "serving.kvcache.grow")
        rec.wrap(QosArbiter, "arbitrate", "soc.qos.arbitrate")
        rec.wrap(self.traced, "prefill_cycles", "serving.stepcost")
        rec.wrap(self.traced, "decode_cycles", "serving.stepcost")
        rec.wrap(scheduler, "latency_summary", "serving.metrics")

    def pinned(self) -> Optional[str]:
        first = self.reports.get(0)
        return first.digest() if first is not None else None

    def throughput(self, times: Dict[int, float]) -> float:
        """Requests reaching a terminal state per host second."""
        done = sum(self.reports[i].aggregate["completed"]
                   + self.reports[i].aggregate["rejected"] for i in times)
        return done / sum(times.values())

    def finish(self, result: dict) -> None:
        buckets = set()
        for r in self.reports.values():
            buckets.update(r.payload["steps"].get("invocations", {}))
        result["counts"]["serving.scheduler.iterations"] = sum(
            r.payload["steps"]["iterations"] for r in self.reports.values())
        result["counts"]["serving.stepcost.buckets"] = len(buckets)


# -- dse-edge -------------------------------------------------------------------

class DseEdge:
    """Predictor-gated searches over the 82,944-point ``edge`` space.

    Set-up trains the predictor (the scale-search recipe of
    ``benchmarks/bench_dse_scale.py``, smaller); each op is one seeded
    search, from an empty compile-cache directory, whose promoted
    candidates are simulated by the sweep supervisor with
    ``DSE_WORKERS`` workers.  Promotion is capped at ``top_k`` per
    generation: with the default cap, how many candidates a seed happens
    to promote moved a search's cost by a third, which swamped host
    time.
    """

    name = "dse-edge"
    POPULATION = 200
    GENERATIONS = 2
    PROMOTE = 4
    TRAIN_VARIANTS = 8
    TRAIN_ROUNDS = 60
    TRAIN_SEED = 0
    OPS_PER_SECOND = 1 / 2.0
    pinned_digest = (
        "9c73e9adee8ad047349d7eecc4ff04b35fdbf532e68e6a0cfa5ae2148f8a8d5d")

    def __init__(self, seed: int, seconds: float, tiny: bool,
                 work: Path) -> None:
        self.seed = seed
        self.work = work
        self.n_ops = 2 if tiny else _n_ops(seconds, self.OPS_PER_SECOND, 2)
        self.population = 40 if tiny else self.POPULATION
        self.variants = 2 if tiny else self.TRAIN_VARIANTS
        self.payloads: Dict[int, dict] = {}

    def setup(self) -> None:
        from repro.dse import space_by_name
        from repro.perf.predictor.train import train_predictor

        import repro.dse.engine  # noqa: F401  (import cost is set-up)
        self.space = space_by_name("edge")
        corpus = [(entry.model, entry.kwargs_dict) for entry in self.space.mix]
        self.recipe = {
            "corpus": [[model, kwargs] for model, kwargs in corpus],
            "cores": [self.space.base_name],
            "variants": self.variants,
            "rounds": self.TRAIN_ROUNDS,
            "seed": self.TRAIN_SEED,
        }
        self.predictor = train_predictor(
            seed=self.TRAIN_SEED, corpus=corpus,
            cores=[self.space.base_name],
            variants_per_core=self.variants, rounds=self.TRAIN_ROUNDS,
            max_workers=DSE_WORKERS).predictor

    def op(self, i: int):
        from repro.dse import DseEngine, SearchSpec

        spec = SearchSpec(space=self.space, population=self.population,
                          generations=self.GENERATIONS,
                          top_k=self.PROMOTE, max_promote=self.PROMOTE,
                          seed=_op_seed(self.seed, i),
                          predictor_recipe=self.recipe)
        os.environ["REPRO_CACHE_DIR"] = str(self.work / f"cache-{i}")
        engine = DseEngine(spec, self.predictor, self.work / f"dse-{i}")
        engine.run(max_workers=DSE_WORKERS)
        return engine

    def check(self, i: int, engine) -> str:
        stats = engine.stats()
        if not stats["simulated"] <= stats["predicted"]:
            raise CheckFailed(f"search {i} simulated {stats['simulated']} "
                              f"> predicted {stats['predicted']}")
        vecs = [vec for vec, _ in engine.frontier()]
        for a in vecs:
            for b in vecs:
                if a != b and all(x <= y for x, y in zip(a, b)):
                    raise CheckFailed(f"search {i}: frontier point {a} "
                                      f"dominates {b}")
        return engine.frontier_payload()["content_key"]

    def keep(self, i: int, engine) -> None:
        self.payloads[i] = engine.frontier_payload()

    def instrument(self, rec: Recorder) -> None:
        from repro import models
        from repro.bench import supervisor
        from repro.dse import engine
        from repro.dse.strategies import strategy_by_name
        from repro.perf.predictor.model import CyclePredictor

        def supervised(args, kwargs, outcome):
            rec.count("bench.supervisor.jobs", outcome.counters["jobs"])
            rec.count("bench.supervisor.retries", outcome.counters["retries"])

        rec.wrap(models, "build_model", "models.build")
        rec.wrap(type(strategy_by_name("evolve")), "propose", "dse.propose")
        rec.wrap(engine, "config_feature_columns", "perf.predictor.features")
        rec.wrap(engine, "candidate_feature_matrix",
                 "perf.predictor.features")
        rec.wrap(CyclePredictor, "predict", "perf.predictor.predict")
        rec.wrap(supervisor, "supervise", "bench.supervisor",
                 on_result=supervised)

    def pinned(self) -> Optional[str]:
        first = self.payloads.get(0)
        return first["content_key"] if first is not None else None

    def throughput(self, times: Dict[int, float]) -> float:
        """Proposed candidates per host second of the whole search."""
        return (sum(self.payloads[i]["stats"]["predicted"] for i in times)
                / sum(times.values()))

    def finish(self, result: dict) -> None:
        predicted = sum(p["stats"]["predicted"]
                        for p in self.payloads.values())
        simulated = sum(p["stats"]["simulated"]
                        for p in self.payloads.values())
        result["counts"]["dse.sim_ratio"] = (simulated / predicted
                                             if predicted else 0.0)


def make_workload(name: str, seed: int, seconds: float, tiny: bool,
                  work: Path):
    if name == CompileSweep.name:
        return CompileSweep(seed, seconds, tiny, work)
    if name in Serve.RATE_SCALE:
        return Serve(name, seed, seconds, tiny, work)
    if name == DseEdge.name:
        return DseEdge(seed, seconds, tiny, work)
    raise SystemExit(f"unknown workload {name!r}")


# -- per-layer numbers ------------------------------------------------------------

def layer_metrics(rec: Recorder, result: dict) -> Dict[str, float]:
    """Every per-layer metric; layers a workload never calls read 0."""
    totals = rec.layer_totals()
    m: Dict[str, float] = {}
    for span, fields in (
            ("models.build", ("calls", "s")),
            ("compiler.tiling", ("calls", "self_s")),
            ("compiler.lowering", ("calls", "self_s")),
            ("core.costs", ("calls", "s")),
            ("core.engine.drain", ("calls", "self_s")),
            ("compiler.graph_engine", ("self_s",)),
            ("serving.traffic", ("s",)),
            ("serving.kvcache.try_reserve", ("calls", "s")),
            ("serving.kvcache.feasible_ever", ("calls", "s")),
            ("serving.kvcache.grow", ("calls", "s")),
            ("soc.qos.arbitrate", ("calls", "s")),
            ("serving.stepcost", ("calls", "s")),
            ("serving.metrics", ("s",)),
            ("serving.scheduler", ("self_s",)),
            ("dse.propose", ("calls", "s")),
            ("perf.predictor.features", ("s",)),
            ("perf.predictor.predict", ("calls", "s")),
            ("bench.supervisor", ("s",))):
        for field in fields:
            m[f"{span}.{field}"] = totals.get(span, {}).get(field, 0)
    counts = {**rec.counts, **result["counts"]}
    for key in ("core.engine.events", "bench.supervisor.jobs",
                "bench.supervisor.retries", "serving.scheduler.iterations",
                "serving.stepcost.buckets", "dse.sim_ratio"):
        m[key] = counts.get(key, 0)
    tries = m["serving.kvcache.try_reserve.calls"]
    m["serving.kvcache.admit_ratio"] = (
        counts.get("serving.kvcache.admitted", 0) / tries if tries else 0.0)
    hits, misses = result["counts"]["compiler.tiling.estimate"]
    m["compiler.tiling.estimate_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    cache = result["cache"]
    for key in ("misses", "stores", "hits", "memory_hits"):
        m[f"compiler.cache.{key}"] = cache.get(key, 0)
    served = (cache.get("hits", 0) + cache.get("memory_hits", 0)
              + cache.get("model_memory_hits", 0))
    lookups = served + cache.get("misses", 0)
    m["compiler.cache.hit_ratio"] = served / lookups if lookups else 0.0
    m["trace.spans"] = len(rec.name)
    return m


# -- modes ------------------------------------------------------------------------

def _scaled(probe: Optional[SpeedProbe], since: int, wall: float) -> float:
    return wall if probe is None else wall * probe.scale(since)


def run_main(args, probe: Optional[SpeedProbe]) -> dict:
    from repro.compiler import cache
    from repro.compiler.tiling import estimate_gemm_cycles

    work = Path(args.work)
    wl = make_workload(args.workload, args.seed, args.seconds, args.tiny,
                       work)
    wl.setup()
    setup_s = _scaled(probe, 0, time.perf_counter() - _T0)
    rec = Recorder() if args.trace else None
    if rec is not None:
        wl.instrument(rec)

    result = {"setup_s": setup_s, "attempted": wl.n_ops, "failed": 0,
              "errors": [], "counts": {}, "info": {}}
    digests: Dict[int, str] = {}
    times: Dict[int, float] = {}
    walls: Dict[int, float] = {}
    cache_before = cache.snapshot()
    est_before = estimate_gemm_cycles.cache_info()
    for i in range(wl.n_ops):
        since = probe.mark() if probe is not None else 0
        t = time.perf_counter()
        try:
            with rec.op_scope(i) if rec is not None else nullcontext():
                out = wl.op(i)
            walls[i] = time.perf_counter() - t
            elapsed = _scaled(probe, since, walls[i])
            digests[i] = wl.check(i, out)
            wl.keep(i, out)
        except Exception:  # a failed op is counted, the run goes on
            result["failed"] += 1
            result["errors"].append(traceback.format_exc())
            continue
        times[i] = elapsed
    est_after = estimate_gemm_cycles.cache_info()
    cache_after = cache.snapshot()
    result["rss_mb"] = _rss_mb()
    if rec is not None:
        rec.unwrap_all()
    result["op_s"] = list(times.values())
    result["op_wall_s"] = [walls[i] for i in times]
    result["outputs"] = list(digests.values())
    result["throughput"] = wl.throughput(times) if times else 0.0
    result["cache"] = {k: cache_after[k] - cache_before[k]
                       for k in cache_after}
    result["counts"]["compiler.tiling.estimate"] = (
        est_after.hits - est_before.hits,
        est_after.misses - est_before.misses)
    wl.finish(result)
    if probe is not None:
        result["info"]["probe_p50_s"] = median(probe.samples)
    result["pin"] = None
    if args.seed == DEFAULT_SEED and not args.tiny:
        result["pin"] = {"expected": wl.pinned_digest,
                         "actual": wl.pinned()}
    if rec is not None:
        result["layers"] = layer_metrics(rec, result)
        result["op_accounting"] = rec.op_accounting()
        rec.save(work / "trace.npz")
    return result


def setup_main(args, probe: Optional[SpeedProbe]) -> dict:
    wl = make_workload(args.workload, args.seed, args.seconds, args.tiny,
                       Path(args.work))
    wl.setup()
    return {"setup_s": _scaled(probe, 0, time.perf_counter() - _T0)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "warm"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--raw", action="store_true",
                        help="time in plain wall seconds, without the "
                        "host-speed probe")
    parser.add_argument("--tiny", action="store_true",
                        help="test size: a few small ops")
    parser.add_argument("--work", default=".")
    parser.add_argument("--ops", help="warm mode: the jobs file")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "warm":
        result = warm_main(args)
    else:
        probe = None if args.raw or args.trace else SpeedProbe()
        if probe is not None:
            probe.start()
        mode = {"setup": setup_main, "run": run_main}
        try:
            result = mode[args.mode](args, probe)
        finally:
            if probe is not None:
                probe.stop()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
