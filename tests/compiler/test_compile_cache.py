"""Persistent compile cache: keys, round-trips, invalidation, stats."""

import json

import pytest

from repro.compiler import GraphEngine
from repro.compiler import cache
from repro.config import ASCEND, ASCEND_MAX
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.models import build_model


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.reset_stats()
    saved_models = dict(GraphEngine._GLOBAL_MODEL_CACHE)
    GraphEngine._GLOBAL_MODEL_CACHE.clear()
    yield tmp_path
    GraphEngine._GLOBAL_MODEL_CACHE.clear()
    GraphEngine._GLOBAL_MODEL_CACHE.update(saved_models)
    cache.reset_stats()


@pytest.fixture()
def fresh_engine():
    """A GraphEngine without the process-global memory cache, so tests
    exercise the persistent tier."""
    engine = GraphEngine(ASCEND)
    engine._cache = {}
    return engine


_WORK = OpWorkload(
    name="unit",
    gemms=(GemmWork(m=64, k=64, n=64),),
    vector=(VectorWork(elems=4096),),
    weight_bytes=8192, input_bytes=8192, output_bytes=8192,
)


class TestContentKey:
    def test_stable_and_input_sensitive(self):
        key = cache.content_key(ASCEND, _WORK)
        assert key == cache.content_key(ASCEND, _WORK)
        assert key != cache.content_key(ASCEND_MAX, _WORK)
        other = OpWorkload(name="unit", gemms=(GemmWork(m=128, k=64, n=64),),
                           vector=_WORK.vector, weight_bytes=8192,
                           input_bytes=8192, output_bytes=8192)
        assert key != cache.content_key(ASCEND, other)
        assert key != cache.content_key(ASCEND, _WORK, a_bytes_scale=0.5)
        assert key != cache.content_key(ASCEND, _WORK, weight_density=0.4)

    def test_name_does_not_affect_key(self):
        renamed = OpWorkload(name="other", gemms=_WORK.gemms,
                             vector=_WORK.vector, weight_bytes=8192,
                             input_bytes=8192, output_bytes=8192)
        # Compiled statistics are name-independent (hit paths relabel),
        # so the key hashes structure only: identically-shaped layers
        # (e.g. the 12 transformer blocks of BERT) dedupe to one compile.
        assert cache.content_key(ASCEND, _WORK) \
            == cache.content_key(ASCEND, renamed)

    def test_renamed_layer_is_a_memory_hit(self, cache_dir, fresh_engine):
        first = fresh_engine.compile_workload(_WORK)
        renamed = OpWorkload(name="other", gemms=_WORK.gemms,
                             vector=_WORK.vector, weight_bytes=8192,
                             input_bytes=8192, output_bytes=8192)
        second = fresh_engine.compile_workload(renamed)
        assert cache.stats()["memory_hits"] == 1
        assert second.name == "other"  # relabeled, not the cached name
        assert second.cycles == first.cycles


class TestPersistentRoundTrip:
    def test_disk_hit_matches_compiled(self, cache_dir, fresh_engine):
        cold = fresh_engine.compile_workload(_WORK)
        assert cache.stats()["stores"] == 1

        rebuilt = GraphEngine(ASCEND)
        rebuilt._cache = {}
        warm = rebuilt.compile_workload(_WORK)
        assert cache.stats()["hits"] == 1
        assert warm == cold

    def test_memory_tier_skips_disk(self, cache_dir, fresh_engine):
        fresh_engine.compile_workload(_WORK)
        fresh_engine.compile_workload(_WORK, name="again")
        stats = cache.stats()
        assert stats["memory_hits"] == 1
        assert stats["hits"] == 0  # disk never consulted twice

    def test_relabel_keeps_statistics(self, cache_dir, fresh_engine):
        first = fresh_engine.compile_workload(_WORK)
        second = fresh_engine.compile_workload(_WORK, name="alias")
        assert second.name == "alias"
        assert second.cycles == first.cycles
        assert second.instr_count == first.instr_count

    def test_disabled_by_env(self, cache_dir, fresh_engine, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        fresh_engine.compile_workload(_WORK)
        assert not any(cache_dir.iterdir())
        assert cache.stats()["stores"] == 0


class TestInvalidation:
    def test_schema_mismatch_is_a_miss(self, cache_dir, fresh_engine):
        fresh_engine.compile_workload(_WORK)
        key = cache.content_key(ASCEND, _WORK)
        path = cache.cache_dir() / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["schema"] = cache.SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.load(key) is None

    def test_corrupt_entry_is_tolerated(self, cache_dir, fresh_engine):
        cold = fresh_engine.compile_workload(_WORK)
        key = cache.content_key(ASCEND, _WORK)
        (cache.cache_dir() / f"{key}.json").write_text("{not json")
        rebuilt = GraphEngine(ASCEND)
        rebuilt._cache = {}
        recompiled = rebuilt.compile_workload(_WORK)
        assert recompiled == cold
        assert cache.stats()["errors"] >= 1

    def test_incomplete_entry_recompiles(self, cache_dir, fresh_engine):
        cold = fresh_engine.compile_workload(_WORK)
        key = cache.content_key(ASCEND, _WORK)
        (cache.cache_dir() / f"{key}.json").write_text(
            json.dumps({"schema": cache.SCHEMA_VERSION, "cycles": 1}))
        rebuilt = GraphEngine(ASCEND)
        rebuilt._cache = {}
        assert rebuilt.compile_workload(_WORK) == cold


class TestModelLevel:
    def test_memory_tier_round_trip(self, cache_dir):
        """Same-process recompile of a model is one in-memory artifact
        hit — no per-layer work, no disk reads."""
        graph = build_model("gesture", batch=1)
        cold_engine = GraphEngine(ASCEND)
        cold_engine._cache = {}
        cold = cold_engine.compile_graph(graph)
        assert cache.stats()["model_stores"] == 1

        warm_engine = GraphEngine(ASCEND)
        warm_engine._cache = {}
        warm = warm_engine.compile_graph(graph)
        assert warm.total_cycles == cold.total_cycles
        assert [l.cycles for l in warm.layers] \
            == [l.cycles for l in cold.layers]
        stats = cache.stats()
        assert stats["model_memory_hits"] == 1
        assert stats["model_hits"] == 0  # disk never consulted twice

    def test_disk_tier_round_trip(self, cache_dir):
        """Clearing the in-memory model cache (a fresh process) rebuilds
        the whole model from its persisted artifact without compiling a
        single layer."""
        graph = build_model("gesture", batch=1)
        cold_engine = GraphEngine(ASCEND)
        cold_engine._cache = {}
        cold = cold_engine.compile_graph(graph)

        GraphEngine._GLOBAL_MODEL_CACHE.clear()
        warm_engine = GraphEngine(ASCEND)
        warm_engine._cache = {}
        calls = []
        warm_engine.compile_workload = lambda *a, **kw: calls.append(a)  # type: ignore[assignment]
        warm = warm_engine.compile_graph(graph)
        assert calls == []  # artifact hit: no layer ever compiled
        assert cache.stats()["model_hits"] == 1
        assert warm.total_cycles == cold.total_cycles
        assert [(l.name, l.cycles, l.gm_read_bytes) for l in warm.layers] \
            == [(l.name, l.cycles, l.gm_read_bytes) for l in cold.layers]

    def test_stream_schedule_from_artifact(self, cache_dir):
        """to_streams over a disk-rebuilt model equals the cold one —
        the artifact covers the stream-schedule inputs."""
        graph = build_model("gesture", batch=1)
        engine = GraphEngine(ASCEND)
        engine._cache = {}
        cold_stream = engine.to_streams(engine.compile_graph(graph),
                                        blocks_per_task=2)

        GraphEngine._GLOBAL_MODEL_CACHE.clear()
        warm_engine = GraphEngine(ASCEND)
        warm_engine._cache = {}
        warm_stream = warm_engine.to_streams(warm_engine.compile_graph(graph),
                                             blocks_per_task=2)
        assert [(t.name, [(b.name, b.cycles, b.gm_read_bytes, b.gm_write_bytes)
                          for b in t.blocks]) for t in warm_stream.tasks] \
            == [(t.name, [(b.name, b.cycles, b.gm_read_bytes, b.gm_write_bytes)
                          for b in t.blocks]) for t in cold_stream.tasks]

    def test_corrupt_model_artifact_recompiles(self, cache_dir):
        graph = build_model("gesture", batch=1)
        engine = GraphEngine(ASCEND)
        engine._cache = {}
        cold = engine.compile_graph(graph)

        # Truncate the artifact's layer list: must be treated as a miss.
        entries = list(cache.cache_dir().glob("model-*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_text())
        payload["layers"] = payload["layers"][:1]
        entries[0].write_text(json.dumps(payload))

        GraphEngine._GLOBAL_MODEL_CACHE.clear()
        rebuilt_engine = GraphEngine(ASCEND)
        rebuilt = rebuilt_engine.compile_graph(graph)
        assert rebuilt.total_cycles == cold.total_cycles


class TestLruEviction:
    def _work(self, i):
        return OpWorkload(name=f"w{i}", gemms=(GemmWork(m=16 + 16 * i,
                                                        k=32, n=32),))

    def test_unbounded_by_default(self, cache_dir, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
        lru = cache.LruCache()
        for i in range(50):
            lru[i] = i
        assert len(lru) == 50
        assert cache.stats()["evictions"] == 0
        assert cache.stats()["max_entries"] is None

    def test_cap_evicts_least_recently_used(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "2")
        lru = cache.LruCache()
        lru["a"] = 1
        lru["b"] = 2
        assert lru["a"] == 1   # touch: "b" becomes the eviction victim
        lru["c"] = 3
        assert "b" not in lru
        assert set(lru) == {"a", "c"}
        assert cache.stats()["evictions"] == 1

    def test_cap_reread_at_runtime(self, cache_dir, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
        lru = cache.LruCache()
        for i in range(10):
            lru[i] = i
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "3")
        lru["new"] = 1  # insertion under the tightened cap trims to 3
        assert len(lru) == 3
        assert cache.stats()["evictions"] == 8

    def test_zero_or_empty_cap_means_unbounded(self, cache_dir, monkeypatch):
        for unbounded in ("0", "", "  "):
            monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", unbounded)
            assert cache.memory_max_entries() is None

    def test_invalid_cap_raises_config_error(self, cache_dir, monkeypatch):
        from repro.errors import ConfigError

        for bad in ("zero", "-4", "3.5"):
            monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", bad)
            with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_ENTRIES"):
                cache.memory_max_entries()
        # The cache_dir fixture's teardown repopulates the global model
        # cache, which consults this variable — leave it valid.
        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES")

    def test_compile_workloads_respect_cap(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")  # memory tier only
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "2")
        engine = GraphEngine(ASCEND)
        engine._cache = cache.LruCache()
        for i in range(5):
            engine.compile_workload(self._work(i))
        assert len(engine._cache) == 2
        assert cache.stats()["evictions"] == 3

