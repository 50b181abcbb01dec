"""Graph Engine: compile model graphs into per-layer programs and streams.

This is the "Graph -> Streams -> Tasks" tier of Figure 16.  Each layer
group is lowered (``lower_workload``), scheduled on the event engine, and
summarized into a :class:`CompiledLayer` carrying the statistics every
evaluation figure needs: per-pipe busy cycles, L1 traffic, GM traffic.

Identical layer groups (e.g. the 12/24 transformer layers of BERT) hit a
compilation cache keyed by workload structure, so large models compile in
seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config.core_configs import CoreConfig
from ..core.costs import CostModel
from ..core.engine import schedule_summary
from ..graph import Graph
from ..graph.ops import Conv2D, DepthwiseConv2D
from ..graph.workload import OpWorkload
from ..isa.pipes import Pipe
from ..profiling.session import active_session
from . import cache
from .lowering import lower_workload
from .stream import Block, Stream, Task

__all__ = ["CompiledLayer", "CompiledModel", "GraphEngine"]

# The numeric fields a cached CompiledLayer round-trips through the
# persistent cache (everything except name/workload identity).
_PAYLOAD_FIELDS = (
    "cycles", "cube_cycles", "vector_cycles", "mte1_cycles", "mte2_cycles",
    "mte3_cycles", "l1_read_bytes", "l1_write_bytes", "gm_read_bytes",
    "gm_write_bytes", "instr_count",
)


@dataclass(frozen=True)
class CompiledLayer:
    """Timing/traffic summary of one compiled layer group."""

    name: str
    workload: OpWorkload
    cycles: int
    cube_cycles: int
    vector_cycles: int
    mte1_cycles: int
    mte2_cycles: int
    mte3_cycles: int
    l1_read_bytes: int
    l1_write_bytes: int
    gm_read_bytes: int
    gm_write_bytes: int
    instr_count: int

    @property
    def cube_vector_ratio(self) -> float:
        """The paper's Figures 4-8 metric: cube busy / vector busy time.

        Layers with no vector work at all report ``inf``; layers with no
        cube work report 0.
        """
        if self.vector_cycles == 0:
            return math.inf if self.cube_cycles else 0.0
        return self.cube_cycles / self.vector_cycles

    @property
    def l1_read_bits_per_cycle(self) -> float:
        """Figure 9's metric (demand averaged over the layer)."""
        if self.cycles == 0:
            return 0.0
        return self.l1_read_bytes * 8 / self.cycles

    @property
    def l1_write_bits_per_cycle(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.l1_write_bytes * 8 / self.cycles


@dataclass
class CompiledModel:
    """All compiled layers of one model on one core design point."""

    name: str
    config: CoreConfig
    layers: List[CompiledLayer]

    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def seconds(self) -> float:
        return self.total_cycles / self.config.frequency_hz

    @property
    def total_macs(self) -> int:
        return sum(layer.workload.macs for layer in self.layers)

    def cube_utilization(self) -> float:
        """Achieved / peak MACs over the whole model."""
        peak = self.config.cube.macs_per_cycle * self.total_cycles
        return self.total_macs / peak if peak else 0.0

    def gm_traffic_bytes(self) -> Tuple[int, int]:
        return (
            sum(l.gm_read_bytes for l in self.layers),
            sum(l.gm_write_bytes for l in self.layers),
        )


def _observed(layer: CompiledLayer) -> CompiledLayer:
    """Report a cache-served layer to the active profiling session.

    Freshly compiled layers are observed at the scheduler
    (``schedule_summary``); cache hits never reach it, so without this
    hook a warm profiled run would appear to execute nothing.
    """
    session = active_session()
    if session is not None:
        session.observe_layer(layer)
    return layer


class GraphEngine:
    """Compiles graphs for one core design point, with a workload cache.

    The cache is process-global and keyed by (core design point, workload
    structure): two engines for the same design point share compiled
    layers, so constructing many SoC models (LLC sweeps, PPA tables) does
    not recompile identical layers.
    """

    # Both in-memory tiers are LRU-bounded by REPRO_CACHE_MAX_ENTRIES
    # (unbounded by default); evictions show up in cache.stats().
    _GLOBAL_CACHE: cache.LruCache = cache.LruCache()
    # Whole-model artifacts (ordered CompiledLayer lists) keyed by
    # cache.model_content_key — the third caching tier above per-layer.
    _GLOBAL_MODEL_CACHE: cache.LruCache = cache.LruCache()

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        self.costs = CostModel(config)
        self._cache = GraphEngine._GLOBAL_CACHE

    # -- layer compilation ----------------------------------------------------

    def compile_workload(self, work: OpWorkload, name: Optional[str] = None,
                         a_bytes_scale: float = 1.0,
                         weight_density: Optional[float] = None
                         ) -> CompiledLayer:
        """Lower + schedule one workload, with two-tier caching.

        Tier 1 is the process-global in-memory cache; tier 2 the
        persistent content-addressed cache (see
        :mod:`repro.compiler.cache`).  Both use the same content-hash
        key, so a layer compiled in one process is a disk hit in the
        next.
        """
        key = cache.content_key(self.config, work, a_bytes_scale,
                                weight_density)
        # Active stall/sync fault campaigns suspend every stats tier:
        # cached clean schedules would mask the injected faults, and
        # faulted schedules must never be served to clean runs.
        stats_cached = not cache.timing_stats_bypassed()
        if stats_cached:
            cached = self._cache.get(key)
            if cached is not None:
                cache.note_memory_hit()
                return _observed(self._relabel(cached, work, name))
            payload = cache.load(key)
            if payload is not None:
                try:
                    layer = self._from_payload(payload, work, name)
                except (KeyError, TypeError):
                    pass  # incomplete entry: recompile below
                else:
                    self._cache[key] = layer
                    return _observed(layer)
        program = lower_workload(work, self.config,
                                 a_bytes_scale_for_gemms=a_bytes_scale,
                                 weight_density=weight_density)
        summary = schedule_summary(program, self.costs)
        layer = CompiledLayer(
            name=name or work.name,
            workload=work,
            cycles=summary.total_cycles,
            cube_cycles=summary.busy_cycles(Pipe.M),
            vector_cycles=summary.busy_cycles(Pipe.V),
            mte1_cycles=summary.busy_cycles(Pipe.MTE1),
            mte2_cycles=summary.busy_cycles(Pipe.MTE2),
            mte3_cycles=summary.busy_cycles(Pipe.MTE3),
            l1_read_bytes=summary.l1_read_bytes,
            l1_write_bytes=summary.l1_write_bytes,
            gm_read_bytes=summary.gm_read_bytes,
            gm_write_bytes=summary.gm_write_bytes,
            instr_count=len(program),
        )
        if stats_cached:
            self._cache[key] = layer
            cache.store(key, {f: getattr(layer, f)
                              for f in _PAYLOAD_FIELDS})
        return layer

    @staticmethod
    def _relabel(layer: CompiledLayer, work: OpWorkload,
                 name: Optional[str]) -> CompiledLayer:
        """Cached statistics under this call's name/workload identity."""
        return CompiledLayer(
            name=name or work.name, workload=work,
            **{f: getattr(layer, f) for f in _PAYLOAD_FIELDS},
        )

    @staticmethod
    def _from_payload(payload: dict, work: OpWorkload,
                      name: Optional[str]) -> CompiledLayer:
        return CompiledLayer(
            name=name or work.name, workload=work,
            **{f: payload[f] for f in _PAYLOAD_FIELDS},
        )

    # -- model compilation ----------------------------------------------------

    def compile_graph(self, graph: Graph,
                      workloads: Optional[Sequence[Tuple[str, OpWorkload]]] = None
                      ) -> CompiledModel:
        """Compile a model graph, one CompiledLayer per layer group.

        ``workloads`` overrides the graph's own grouped workloads — the
        training path passes :func:`~repro.models.training.training_workloads`
        output here.

        Whole models are cached as artifacts, memory -> disk ->
        recompile: the key hashes the ordered (group, workload, scale)
        sequence plus the design point, so a warm process rebuilds
        ResNet-50/BERT (and the stream schedules derived from them via
        :meth:`to_streams`) without lowering or scheduling a single
        layer.

        ``REPRO_COMPILE_WORKERS`` >= 2 routes through
        :meth:`compile_graph_parallel`, which shards cold per-layer
        compiles across a fork-based worker pool; results are identical
        by construction (workers only pre-seed the caches the serial
        path then reads).  Unset/0/1 keeps the serial path — the
        off-by-default behavior is byte-for-byte unchanged.
        """
        workers = _compile_workers()
        if workers > 1:
            return self.compile_graph_parallel(graph, workloads,
                                               max_workers=workers)
        return self._compile_graph_serial(graph, workloads)

    def compile_graph_parallel(self, graph: Graph,
                               workloads: Optional[
                                   Sequence[Tuple[str, OpWorkload]]] = None,
                               max_workers: Optional[int] = None
                               ) -> CompiledModel:
        """Shard cold per-layer compiles across a fork-based worker pool.

        The structurally deduped layer set (minus in-memory cache hits)
        fans out over :func:`repro.bench.supervise` — each worker lowers
        + schedules its layers, stores their stats into the shared
        persistent cache, and ships the numeric payload back; the
        parent seeds the process-global memory cache from those payloads
        and then runs the *unchanged* serial assembly, so the resulting
        :class:`CompiledModel` is byte-identical to a serial compile.
        Worker cache counters fold back into this process's
        ``cache.stats()`` via the sweep harness's fork-aware stats
        plumbing.  Jobs the supervisor quarantines (crashing, hung, or
        chaos-poisoned workers past their retry budget) simply ship no
        payload — the serial assembly recompiles those layers in
        process, so a degraded sweep still yields an identical model.
        Falls back to serial work transparently on no-fork platforms
        (the supervisor's own fallback) and skips the fan-out
        entirely when a timing-fault campaign is active (per-call
        perturbations must not cross process boundaries) or when the
        whole model is already cached in memory.
        """
        pairs = list(workloads if workloads is not None
                     else graph.grouped_workloads())
        scales = _im2col_scales(graph)
        model_key = cache.model_content_key(self.config, pairs, scales)
        if (not cache.timing_stats_bypassed()
                and GraphEngine._GLOBAL_MODEL_CACHE.get(model_key) is None):
            seen: Dict[str, Tuple[OpWorkload, float]] = {}
            for group, work in pairs:
                scale = scales.get(group, 1.0)
                key = cache.content_key(self.config, work, scale, None)
                if key in seen or self._cache.get(key) is not None:
                    continue
                seen[key] = (work, scale)
            if seen:
                from ..bench.supervisor import SweepPolicy, supervise

                jobs = [(self.config, work, scale)
                        for work, scale in seen.values()]
                outcome = supervise(jobs, _compile_layer_job,
                                    max_workers=max_workers,
                                    policy=SweepPolicy.from_env())
                for key, payload in zip(seen, outcome.results):
                    if payload is None:
                        continue  # quarantined job: serial path recompiles
                    work, _ = seen[key]
                    try:
                        layer = self._from_payload(payload, work, None)
                    except (KeyError, TypeError):
                        continue  # worker anomaly: serial path recompiles
                    self._cache[key] = layer
        return self._compile_graph_serial(graph, workloads)

    def _compile_graph_serial(self, graph: Graph,
                              workloads: Optional[
                                  Sequence[Tuple[str, OpWorkload]]] = None
                              ) -> CompiledModel:
        pairs = list(workloads if workloads is not None
                     else graph.grouped_workloads())
        scales = _im2col_scales(graph)
        key = cache.model_content_key(self.config, pairs, scales)

        # See compile_workload: timing-fault campaigns bypass the stats
        # tiers in both directions.
        stats_cached = not cache.timing_stats_bypassed()
        if stats_cached:
            cached = GraphEngine._GLOBAL_MODEL_CACHE.get(key)
            if cached is not None:
                cache.note_model_memory_hit()
                layers = [_observed(self._relabel(layer, work, group))
                          for layer, (group, work) in zip(cached, pairs)]
                return CompiledModel(name=graph.name, config=self.config,
                                     layers=layers)

            payload = cache.load_model(key)
            if payload is not None:
                layers = self._model_from_payload(payload, pairs)
                if layers is not None:
                    GraphEngine._GLOBAL_MODEL_CACHE[key] = layers
                    for layer in layers:
                        _observed(layer)
                    return CompiledModel(name=graph.name,
                                         config=self.config, layers=layers)
                # Structurally corrupt whole-model entry: move it aside
                # so every later process sees a clean miss instead of
                # re-loading and re-rejecting the same artifact.
                cache.quarantine_model(key)

        layers = [
            self.compile_workload(work, name=group,
                                  a_bytes_scale=scales.get(group, 1.0))
            for group, work in pairs
        ]
        if not stats_cached:
            return CompiledModel(name=graph.name, config=self.config,
                                 layers=layers)
        GraphEngine._GLOBAL_MODEL_CACHE[key] = layers
        cache.store_model(key, {
            "layers": [
                {field: getattr(layer, field) for field in _PAYLOAD_FIELDS}
                for layer in layers
            ],
        })
        return CompiledModel(name=graph.name, config=self.config, layers=layers)

    @staticmethod
    def _model_from_payload(payload: dict, pairs: Sequence[Tuple[str, OpWorkload]]
                            ) -> Optional[List[CompiledLayer]]:
        """Rebuild the layer list from a persisted model artifact, or
        None when the entry is incomplete (treated as a miss)."""
        entries = payload.get("layers")
        if not isinstance(entries, list) or len(entries) != len(pairs):
            return None
        layers = []
        for entry, (group, work) in zip(entries, pairs):
            try:
                layers.append(CompiledLayer(
                    name=group, workload=work,
                    **{field: entry[field] for field in _PAYLOAD_FIELDS},
                ))
            except (KeyError, TypeError):
                return None
        return layers

    def to_streams(self, compiled: CompiledModel, blocks_per_task: int = 1
                   ) -> Stream:
        """Turn a compiled model into a Figure 17 stream of tasks.

        ``blocks_per_task`` splits every layer across that many blocks
        (batch / output-tile parallelism) for multi-core scheduling.
        """
        tasks = []
        for layer in compiled.layers:
            per_block = math.ceil(layer.cycles / blocks_per_task)
            blocks = [
                Block(
                    name=f"{layer.name}.b{i}",
                    cycles=per_block,
                    gm_read_bytes=layer.gm_read_bytes // blocks_per_task,
                    gm_write_bytes=layer.gm_write_bytes // blocks_per_task,
                )
                for i in range(blocks_per_task)
            ]
            tasks.append(Task(name=layer.name, blocks=blocks,
                              workload=layer.workload))
        return Stream(name=compiled.name, tasks=tasks)


def _compile_workers() -> int:
    """Worker count for process-sharded compiles (``REPRO_COMPILE_WORKERS``).

    Unset, ``0``, and ``1`` all select the serial path — parallel
    compilation is opt-in because forking a pool only pays off on cold
    multi-layer compiles.
    """
    from ..config.env import env_int

    limit = env_int("REPRO_COMPILE_WORKERS", default=None, minimum=0)
    return limit or 1


def _compile_layer_job(job: Tuple[CoreConfig, OpWorkload, float]) -> dict:
    """Sweep worker: compile one deduped layer, return its payload.

    Runs in a forked worker.  ``compile_workload`` stores the stats
    entry into the shared persistent cache as a side effect, so even on
    platforms where the payload hand-back is lost the next serial
    compile is a disk hit.
    """
    config, work, scale = job
    layer = GraphEngine(config).compile_workload(work, a_bytes_scale=scale)
    return {f: getattr(layer, f) for f in _PAYLOAD_FIELDS}


def _im2col_scales(graph: Graph) -> Dict[str, float]:
    """Per-group GM fetch scale for convolution A-matrices.

    A KxK/stride-s convolution's im2col matrix re-reads each input pixel
    up to (K/s)^2 times; the raw image is fetched from GM once and the
    expansion happens on-chip (MTE img2col), so GM traffic scales by the
    inverse expansion factor.
    """
    scales: Dict[str, float] = {}
    for op in graph:
        if isinstance(op, Conv2D):
            kh, kw = op.kernel
            sh, sw = op.stride
            expansion = max(1.0, (kh / sh) * (kw / sw))
            group = op.group or op.name
            # Keep the strongest (smallest) scale seen in the group.
            scales[group] = min(scales.get(group, 1.0), 1.0 / expansion)
    return scales
