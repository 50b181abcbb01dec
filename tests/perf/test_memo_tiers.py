"""``clear_memo_tiers`` empties every in-process memo tier, and
``private_cache_dir`` isolates the on-disk tier.

The predictor-triage speedup gate times a triage leg against a
simulate-everything leg; a tier that survives the clear serves the
second leg warm and makes the gate's verdict depend on what earlier runs
left behind.
"""

import os

from repro.compiler import GraphEngine, lowering, tiling
from repro.compiler.lowering import lower_gemm
from repro.config import ASCEND_MAX
from repro.config.core_configs import core_config_by_name
from repro.core import CostModel
from repro.core import engine as engine_mod
from repro.core.engine import schedule_summary
from repro.isa import program as program_mod
from repro.models import build_model
from repro.perf.predictor.sweep import clear_memo_tiers, private_cache_dir


def _tier_sizes() -> dict:
    return {
        "graph_engine.layers": len(GraphEngine._GLOBAL_CACHE),
        "graph_engine.models": len(GraphEngine._GLOBAL_MODEL_CACHE),
        "lowering.arena_memo": len(lowering._ARENA_MEMO),
        "tiling.cost_models": tiling._cost_model_for.cache_info().currsize,
        "tiling.estimates": tiling.estimate_gemm_cycles.cache_info().currsize,
        "tiling.choices": tiling._choose_cached.cache_info().currsize,
        "program.validate": len(program_mod._VALIDATE_MEMO),
        "engine.summaries": len(engine_mod._SUMMARY_MEMO),
    }


def test_clear_memo_tiers_empties_every_tier(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    GraphEngine(core_config_by_name("ascend-tiny")).compile_graph(
        build_model("gesture", batch=1))
    program = lower_gemm(64, 64, 64, ASCEND_MAX, tag="tiers")
    program.validate(ASCEND_MAX)
    schedule_summary(program, CostModel(ASCEND_MAX))

    filled = _tier_sizes()
    assert all(filled.values()), filled
    clear_memo_tiers()
    assert not any(_tier_sizes().values()), _tier_sizes()


def test_private_cache_dir_is_fresh_and_restored(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with private_cache_dir() as tmp:
        assert os.environ["REPRO_CACHE_DIR"] == tmp != str(tmp_path)
        assert os.path.isdir(tmp) and not os.listdir(tmp)
    assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path)
    assert not os.path.exists(tmp)

    monkeypatch.delenv("REPRO_CACHE_DIR")
    with private_cache_dir():
        pass
    assert "REPRO_CACHE_DIR" not in os.environ
