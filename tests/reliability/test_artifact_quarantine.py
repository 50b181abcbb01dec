"""Injected-corruption regression per artifact tier (ISSUE 9 satellite).

The per-layer JSON tier has quarantined corrupt entries since PR 4
(``test_compiler_faults.py``); these tests pin the same
retry-with-quarantine discipline on the other two artifact tiers:
whole-model JSON entries (``model-<key>.json``) and the trained
predictor artifact.  In every case the corrupt file is moved aside — a
clean miss that recompiles (or degrades to full simulation), never a
crash and never a poisoned re-read.
"""

import json

import pytest

from repro.compiler import GraphEngine, cache
from repro.config import ASCEND
from repro.errors import ConfigError, DegradedSweepWarning
from repro.models import build_model

pytestmark = pytest.mark.faults


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.reset_stats()
    GraphEngine._GLOBAL_MODEL_CACHE.clear()
    yield tmp_path
    GraphEngine._GLOBAL_MODEL_CACHE.clear()
    cache.reset_stats()


def _fresh_engine():
    engine = GraphEngine(ASCEND)
    engine._cache = {}
    return engine


class TestModelTierQuarantine:
    def _cold_compile(self, cache_dir):
        graph = build_model("gesture", batch=1)
        cold = _fresh_engine().compile_graph(graph)
        [entry] = list(cache.cache_dir().glob("model-*.json"))
        return graph, cold, entry

    def test_garbled_json_quarantined_on_load(self, cache_dir):
        graph, cold, entry = self._cold_compile(cache_dir)
        entry.write_text("{not json")
        GraphEngine._GLOBAL_MODEL_CACHE.clear()
        rebuilt = _fresh_engine().compile_graph(graph)
        assert rebuilt.total_cycles == cold.total_cycles
        # The corrupt bytes moved aside; the recompile re-stored a
        # clean artifact at the same path.
        assert (cache.quarantine_dir() / entry.name).exists()
        assert isinstance(json.loads(entry.read_text())["layers"], list)

    def test_structurally_corrupt_payload_quarantined(self, cache_dir):
        # Valid JSON, wrong shape: "layers" is not a list at all.
        graph, cold, entry = self._cold_compile(cache_dir)
        entry.write_text(json.dumps(
            {"schema": cache.SCHEMA_VERSION, "layers": "gone"}))
        GraphEngine._GLOBAL_MODEL_CACHE.clear()
        rebuilt = _fresh_engine().compile_graph(graph)
        assert rebuilt.total_cycles == cold.total_cycles
        quarantined = cache.quarantine_dir() / entry.name
        assert json.loads(quarantined.read_text())["layers"] == "gone"
        assert isinstance(json.loads(entry.read_text())["layers"], list)

    def test_truncated_layer_list_quarantined(self, cache_dir):
        # The entry parses and has a layers list, but it no longer
        # matches the graph — the compiler rejects it, and the reject
        # must move the artifact aside instead of re-missing forever.
        graph, cold, entry = self._cold_compile(cache_dir)
        payload = json.loads(entry.read_text())
        payload["layers"] = payload["layers"][:1]
        entry.write_text(json.dumps(payload))
        GraphEngine._GLOBAL_MODEL_CACHE.clear()
        rebuilt = _fresh_engine().compile_graph(graph)
        assert rebuilt.total_cycles == cold.total_cycles
        quarantined = cache.quarantine_dir() / entry.name
        assert len(json.loads(quarantined.read_text())["layers"]) == 1
        # The recompile rewrote a clean artifact that loads again.
        GraphEngine._GLOBAL_MODEL_CACHE.clear()
        before = cache.stats()["model_hits"]
        _fresh_engine().compile_graph(graph)
        assert cache.stats()["model_hits"] == before + 1


class TestPredictorArtifactQuarantine:
    def test_garbled_json_quarantined_strict(self, tmp_path):
        from repro.perf.predictor.train import load_artifact

        artifact = tmp_path / "predictor_model.json"
        artifact.write_text("{not json")
        with pytest.raises(ConfigError, match="corrupt"):
            load_artifact(artifact)
        assert not artifact.exists()
        assert (tmp_path / "predictor_model.json.corrupt").exists()

    def test_undeserializable_model_payload_quarantined(self, tmp_path):
        from repro.perf.predictor.train import (ARTIFACT_SCHEMA_VERSION,
                                                load_artifact)

        # "model" is not even a mapping, so deserialization blows up
        # with a raw TypeError/AttributeError — the loader must wrap
        # that in a quarantine, not leak the traceback.
        artifact = tmp_path / "predictor_model.json"
        artifact.write_text(json.dumps(
            {"schema": ARTIFACT_SCHEMA_VERSION, "model": 42}))
        with pytest.raises(ConfigError, match="retrain"):
            load_artifact(artifact)
        assert (tmp_path / "predictor_model.json.corrupt").exists()

    def test_graceful_loader_degrades_with_warning(self, tmp_path):
        from repro.perf.predictor.train import try_load_artifact

        artifact = tmp_path / "predictor_model.json"
        artifact.write_text("{not json")
        with pytest.warns(DegradedSweepWarning, match="full simulation"):
            predictor, payload = try_load_artifact(artifact)
        assert predictor is None and payload is None
        assert (tmp_path / "predictor_model.json.corrupt").exists()

    def test_missing_artifact_degrades_without_quarantine(self, tmp_path):
        from repro.perf.predictor.train import try_load_artifact

        with pytest.warns(DegradedSweepWarning, match="train"):
            predictor, _ = try_load_artifact(tmp_path / "absent.json")
        assert predictor is None
        assert not list(tmp_path.iterdir())  # nothing to move aside
