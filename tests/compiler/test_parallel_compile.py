"""Process-sharded compiles must be equivalent to the serial oracle.

``GraphEngine.compile_graph_parallel`` fans the structurally deduped
layer set over a fork pool; the workers only pre-seed caches and the
serial assembly then runs unchanged, so the result must be
instruction-for-instruction and cost-equal to a serial compile — across
design points, dtypes, worker counts, and on platforms without fork.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import GraphEngine, cache
from repro.compiler.graph_engine import _compile_workers
from repro.compiler.lowering import clear_lowering_memo
from repro.config.core_configs import CORE_CONFIGS
from repro.dtypes import FP16, INT8
from repro.errors import ConfigError
from repro.graph import Graph
from repro.graph.workload import GemmWork, OpWorkload, VectorWork

_CONFIGS = [CORE_CONFIGS["ascend"], CORE_CONFIGS["ascend-max"],
            CORE_CONFIGS["ascend-next"]]
_LAYER_FIELDS = ("name", "cycles", "cube_cycles", "vector_cycles",
                 "mte1_cycles", "mte2_cycles", "mte3_cycles",
                 "l1_read_bytes", "l1_write_bytes", "gm_read_bytes",
                 "gm_write_bytes", "instr_count")


def _fresh_engine(config, tmp_path, monkeypatch, tag):
    """A GraphEngine whose every cache tier starts empty."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / tag))
    monkeypatch.setattr(GraphEngine, "_GLOBAL_CACHE", cache.LruCache())
    monkeypatch.setattr(GraphEngine, "_GLOBAL_MODEL_CACHE", cache.LruCache())
    clear_lowering_memo()
    return GraphEngine(config)


def _workload(i, m, k, n, dtype, count, vec_elems):
    return (f"layer_{i}", OpWorkload(
        name=f"layer_{i}",
        gemms=(GemmWork(m=m, k=k, n=n, dtype=dtype, count=count),),
        vector=((VectorWork(elems=vec_elems, passes=1, dtype=FP16),)
                if vec_elems else ()),
    ))


def _assert_models_equal(a, b):
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        for field in _LAYER_FIELDS:
            assert getattr(la, field) == getattr(lb, field), field
    assert a.total_cycles == b.total_cycles


class TestParallelEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 31),
        n_layers=st.integers(2, 6),
        config=st.sampled_from(_CONFIGS),
        dtype=st.sampled_from([FP16, INT8]),
        workers=st.sampled_from([2, 3]),
    )
    def test_random_models_identical(self, seed, n_layers, config, dtype,
                                     workers):
        # Fixtures don't reset per hypothesis example — manage cache
        # state manually instead of via monkeypatch/tmp_path.
        import os
        import tempfile

        rng = np.random.default_rng(seed)
        pairs = []
        for i in range(n_layers):
            m, k, n = (int(rng.integers(16, 160)) for _ in range(3))
            pairs.append(_workload(i, m, k, n, dtype,
                                   count=int(rng.integers(1, 4)),
                                   vec_elems=int(rng.integers(0, 2)) * 2048))
        graph = Graph("rand")

        saved_dir = os.environ.get("REPRO_CACHE_DIR")
        saved_caches = (GraphEngine._GLOBAL_CACHE,
                        GraphEngine._GLOBAL_MODEL_CACHE)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "serial")
                GraphEngine._GLOBAL_CACHE = cache.LruCache()
                GraphEngine._GLOBAL_MODEL_CACHE = cache.LruCache()
                clear_lowering_memo()
                ref = GraphEngine(config)._compile_graph_serial(
                    graph, workloads=pairs)

                os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "par")
                GraphEngine._GLOBAL_CACHE = cache.LruCache()
                GraphEngine._GLOBAL_MODEL_CACHE = cache.LruCache()
                clear_lowering_memo()
                out = GraphEngine(config).compile_graph_parallel(
                    graph, workloads=pairs, max_workers=workers)
        finally:
            if saved_dir is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved_dir
            (GraphEngine._GLOBAL_CACHE,
             GraphEngine._GLOBAL_MODEL_CACHE) = saved_caches
        _assert_models_equal(ref, out)

    def test_no_fork_platform_falls_back(self, tmp_path, monkeypatch):
        config = CORE_CONFIGS["ascend"]
        pairs = [_workload(i, 64 + 16 * i, 64, 64, FP16, 1, 0)
                 for i in range(3)]
        graph = Graph("nofork")

        serial = _fresh_engine(config, tmp_path, monkeypatch, "serial")
        ref = serial._compile_graph_serial(graph, workloads=pairs)

        import repro.bench.runner as runner

        parallel = _fresh_engine(config, tmp_path, monkeypatch, "nofork")
        monkeypatch.setattr(runner, "_fork_context", lambda: None)
        out = parallel.compile_graph_parallel(graph, workloads=pairs,
                                              max_workers=4)
        _assert_models_equal(ref, out)

    def test_serial_worker_count_matches(self, tmp_path, monkeypatch):
        config = CORE_CONFIGS["ascend"]
        pairs = [_workload(0, 96, 64, 96, FP16, 1, 0)]
        graph = Graph("w1")
        serial = _fresh_engine(config, tmp_path, monkeypatch, "serial")
        ref = serial._compile_graph_serial(graph, workloads=pairs)
        parallel = _fresh_engine(config, tmp_path, monkeypatch, "one")
        out = parallel.compile_graph_parallel(graph, workloads=pairs,
                                              max_workers=1)
        _assert_models_equal(ref, out)


class TestEnvRouting:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILE_WORKERS", raising=False)
        assert _compile_workers() == 1
        for value in ("0", "1"):
            monkeypatch.setenv("REPRO_COMPILE_WORKERS", value)
            assert _compile_workers() == 1
        monkeypatch.setenv("REPRO_COMPILE_WORKERS", "4")
        assert _compile_workers() == 4
        monkeypatch.setenv("REPRO_COMPILE_WORKERS", "nope")
        with pytest.raises(ConfigError, match="REPRO_COMPILE_WORKERS"):
            _compile_workers()

    def test_env_routes_compile_graph(self, tmp_path, monkeypatch):
        config = CORE_CONFIGS["ascend"]
        pairs = [_workload(i, 64, 64 + 16 * i, 64, FP16, 1, 0)
                 for i in range(2)]
        graph = Graph("routed")
        serial = _fresh_engine(config, tmp_path, monkeypatch, "serial")
        monkeypatch.delenv("REPRO_COMPILE_WORKERS", raising=False)
        ref = serial.compile_graph(graph, workloads=pairs)

        routed = _fresh_engine(config, tmp_path, monkeypatch, "routed")
        monkeypatch.setenv("REPRO_COMPILE_WORKERS", "2")
        out = routed.compile_graph(graph, workloads=pairs)
        _assert_models_equal(ref, out)

    def test_fault_campaign_skips_fanout(self, tmp_path, monkeypatch):
        """Timing-fault campaigns must not cross process boundaries —
        the parallel path degrades to pure serial compilation."""
        from repro.reliability import FaultPlan, StallFault, fault_scope

        config = CORE_CONFIGS["ascend"]
        pairs = [_workload(0, 96, 96, 96, FP16, 1, 0)]
        graph = Graph("faulted")
        engine = _fresh_engine(config, tmp_path, monkeypatch, "fault")
        plan = FaultPlan(seed=7, stall=(StallFault(pipe="*", factor=2.0,
                                                   probability=1.0),))
        with fault_scope(plan):
            faulted = engine.compile_graph_parallel(graph, workloads=pairs,
                                                    max_workers=2)
        clean = engine.compile_graph_parallel(graph, workloads=pairs,
                                              max_workers=2)
        # The stall campaign slows every instruction, so the faulted
        # compile must differ — proof it was not served from any cache
        # a worker could have seeded.
        assert faulted.total_cycles > clean.total_cycles
