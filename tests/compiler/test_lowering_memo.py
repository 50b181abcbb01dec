"""Lowering memoization must be a pure speedup: identical programs out.

Lowered arenas are memoized per-(structure, config) and hits are
retagged via zero-copy column sharing; these tests pin that a memo hit
is instruction-for-instruction identical to a fresh lowering (one
lowered right after ``clear_lowering_memo()``), also while a fault
campaign is active.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.compiler.lowering import (
    clear_lowering_memo,
    lower_gemm,
    lower_vector_work,
    lower_workload,
    lowering_stats,
    reset_lowering_stats,
)
from repro.config.core_configs import CORE_CONFIGS
from repro.core import CostModel
from repro.core.engine import schedule
from repro.dtypes import FP16, INT8, INT32
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.isa.arena import _COLUMN_NAMES
from repro.reliability import fault_scope, parse_fault_spec

# Only design points whose cube speaks fp16 — the dtype these tests
# lower with (ascend-tiny is int-only, for example).
_CONFIGS = [c for c in CORE_CONFIGS.values() if c.supports_dtype(FP16)]


def _fresh(lower, *args, **kwargs):
    """``lower(*args, **kwargs)`` with the memo empty before and after."""
    clear_lowering_memo()
    try:
        return lower(*args, **kwargs)
    finally:
        clear_lowering_memo()


@contextmanager
def _memo():
    clear_lowering_memo()
    try:
        yield
    finally:
        clear_lowering_memo()


def _columns_identical(a, b):
    ar, br = a._arena, b._arena
    assert ar is not None and br is not None
    assert ar.n == br.n
    assert ar.tags == br.tags
    for col in _COLUMN_NAMES:
        x, y = getattr(ar, col), getattr(br, col)
        if x.dtype.kind == "f":
            assert np.array_equal(x, y, equal_nan=True), col
        else:
            assert np.array_equal(x, y), col
    assert a.instructions == b.instructions


class TestMemoEquivalence:
    @pytest.mark.parametrize("config", _CONFIGS,
                             ids=[c.name for c in _CONFIGS])
    def test_gemm_memo_identical(self, config):
        ref = [_fresh(lower_gemm, 96, 64, 80, config, tag="t")
               for _ in range(3)]
        with _memo():
            reset_lowering_stats()
            out = [lower_gemm(96, 64, 80, config, tag="t")
                   for _ in range(3)]
            assert lowering_stats()["memo_hits"] == 2
        for a, b in zip(ref, out):
            _columns_identical(a, b)
        # Memo hits with the same tag share one arena object outright.
        assert out[1]._arena is out[2]._arena

    def test_int8_and_retag(self):
        config = _CONFIGS[0]
        with _memo():
            first = lower_gemm(64, 64, 64, config, dtype=INT8,
                               out_dtype=INT32, tag="alpha")
            second = lower_gemm(64, 64, 64, config, dtype=INT8,
                                out_dtype=INT32, tag="beta")
        fresh = _fresh(lower_gemm, 64, 64, 64, config, dtype=INT8,
                       out_dtype=INT32, tag="beta")
        assert second._arena.kind is first._arena.kind  # shared columns
        _columns_identical(second, fresh)

    def test_vector_memo_identical(self):
        config = _CONFIGS[0]
        work = VectorWork(elems=4096, passes=2, dtype=FP16)
        ref = _fresh(lower_vector_work, work, config, tag="v")
        with _memo():
            lower_vector_work(work, config, tag="x")
            hit = lower_vector_work(work, config, tag="v")
        _columns_identical(ref, hit)

    def test_workload_memo_identical_across_names(self):
        config = _CONFIGS[0]
        base = dict(gemms=(GemmWork(m=96, k=96, n=96, dtype=FP16, count=3),),
                    vector=(VectorWork(elems=2048, passes=1, dtype=FP16),))
        w1 = OpWorkload(name="layer_0", **base)
        w2 = OpWorkload(name="layer_7", **base)
        ref = _fresh(lower_workload, w2, config)
        with _memo():
            lower_workload(w1, config)
            hit = lower_workload(w2, config)
        # Name differs (tag differs) but the structure memo hits and the
        # retagged result is identical to the fresh lowering.
        _columns_identical(ref, hit)

    def test_workload_hit_skips_sub_lowering(self, monkeypatch):
        """A repeat ``lower_workload`` is one memo hit: its GEMM and
        vector sub-programs are not lowered again (no tiling search, no
        sub-memo lookups)."""
        from repro.compiler import lowering

        config = _CONFIGS[0]
        work = OpWorkload(
            name="block",
            gemms=(GemmWork(m=128, k=96, n=64, dtype=FP16, count=2),
                   GemmWork(m=64, k=64, n=64, dtype=FP16, count=1)),
            vector=(VectorWork(elems=2048, passes=1, dtype=FP16),))
        calls = []
        real = lowering.choose_tiling

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lowering, "choose_tiling", counting)
        with _memo():
            first = lower_workload(work, config)
            assert len(calls) == 2
            calls.clear()
            reset_lowering_stats()
            again = lower_workload(work, config)
            assert calls == []
            assert lowering_stats()["memo_hits"] == 1
        _columns_identical(first, again)

    @pytest.mark.parametrize("variant", [{"weight_density": 0.3},
                                         {"b_resident": True}],
                             ids=["sparse", "b_resident"])
    def test_variants_keyed_apart(self, variant):
        """The key covers ``weight_density`` and ``b_resident``: a dense
        entry never answers for a variant, and a variant's hit matches
        its fresh lowering."""
        config = _CONFIGS[0]
        ref = _fresh(lower_gemm, 128, 256, 96, config, tag="t", **variant)
        with _memo():
            dense = lower_gemm(128, 256, 96, config, tag="t")
            reset_lowering_stats()
            first = lower_gemm(128, 256, 96, config, tag="t", **variant)
            assert lowering_stats()["memo_hits"] == 0
            hit = lower_gemm(128, 256, 96, config, tag="t", **variant)
            assert lowering_stats()["memo_hits"] == 1
        assert first.instructions != dense.instructions
        _columns_identical(ref, hit)


class TestMemoUnderFaults:
    def test_hit_under_stall_plan_matches_fresh(self):
        """The memo stays on during fault campaigns: no remaining fault
        hook mutates a lowered arena, so a hit is column-identical to a
        fresh lowering and schedules to the same cycles under the same
        seeded stall plan."""
        config = _CONFIGS[0]
        costs = CostModel(config)
        plan = parse_fault_spec("seed=9;stall:factor=3,p=0.3")
        with fault_scope(plan):
            fresh = _fresh(lower_gemm, 96, 128, 64, config, tag="t")
        with fault_scope(plan) as inj:
            fresh_cycles = schedule(fresh, costs).total_cycles
            assert inj.counters["stall_injected"] > 0
        with _memo():
            with fault_scope(plan):
                lower_gemm(96, 128, 64, config, tag="t")
                reset_lowering_stats()
                hit = lower_gemm(96, 128, 64, config, tag="t")
                assert lowering_stats()["memo_hits"] == 1
            with fault_scope(plan):
                hit_cycles = schedule(hit, costs).total_cycles
        _columns_identical(fresh, hit)
        assert hit_cycles == fresh_cycles
        assert fresh_cycles > schedule(fresh, costs).total_cycles
