"""Columnar lowering is pinned instruction-for-instruction to the object oracle.

``repro.compiler.lowering`` emits every program as columns;
``tests/compiler/reference_lowering.py`` keeps the original per-object
emitters.  These properties assert the two produce byte-identical
instruction streams — same classes, same regions, same offsets, same
tags, same error types — across dtypes, design points and workload
shapes, for the default, sparse (``weight_density``) and
weight-stationary (``b_resident``) GEMM schedules, and that the columnar
cost model prices every row exactly like the per-instruction one.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import lowering
from repro.compiler.lowering import GemmLayout, PostOp, clear_lowering_memo
from repro.compiler.tiling import choose_tiling
from repro.config import ASCEND, ASCEND_MAX, ASCEND_TINY
from repro.config.core_configs import CORE_CONFIGS
from repro.core import CostModel
from repro.core.engine import schedule, schedule_summary
from repro.dtypes import FP16, FP32, INT4, INT8, INT32
from repro.errors import CompileError, IsaError
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.isa.arena import InstructionArena
from repro.isa.instructions import VectorOpcode
from repro.models.zoo import build_model

from ..core.reference_scheduler import schedule_fixpoint
from . import reference_lowering


def _both(fn):
    """Run ``fn`` against the oracle, then production lowering; errors
    count as outcomes."""
    results = []
    for module in (reference_lowering, lowering):
        try:
            results.append(fn(module))
        except (IsaError, CompileError) as exc:
            results.append(type(exc))
    return results


def _assert_identical(obj, ar):
    if isinstance(obj, type):  # both must fail with the same error class
        assert ar is obj
        return
    assert not isinstance(ar, type), f"arena path raised {ar}"
    assert ar._arena is not None
    assert len(obj) == len(ar)
    assert obj.instructions == ar.instructions


_CONFIGS = list(CORE_CONFIGS.values())
_DTYPES = (FP16, FP32, INT8, INT4)
_INT8_CONFIGS = [c for c in _CONFIGS if c.supports_dtype(INT8)]


class TestGemmEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 600),
        n=st.integers(1, 300),
        config=st.sampled_from(_CONFIGS),
        dtype=st.sampled_from(_DTYPES),
    )
    def test_perf_schedule(self, m, k, n, config, dtype):
        outcomes = _both(lambda L: L.lower_gemm(m, k, n, config, dtype=dtype))
        _assert_identical(*outcomes)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 200),
        k=st.integers(1, 400),
        n=st.integers(1, 200),
        config=st.sampled_from([ASCEND_TINY, ASCEND, ASCEND_MAX]),
        bias=st.booleans(),
        relu=st.booleans(),
    )
    def test_functional_layout(self, m, k, n, config, bias, relu):
        layout = GemmLayout(0, 4 << 20, 8 << 20,
                            bias_offset=(12 << 20) if bias else None)
        post = [PostOp(VectorOpcode.RELU)] if relu else []
        outcomes = _both(lambda L: L.lower_gemm(
            m, k, n, config, layout=layout, post_ops=post, tag="fn"))
        _assert_identical(*outcomes)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(8, 256),
        k=st.integers(8, 256),
        n=st.integers(8, 256),
        scale=st.sampled_from([0.25, 0.5, 1.0, 1.75]),
    )
    def test_a_bytes_scale(self, m, k, n, scale):
        outcomes = _both(lambda L: L.lower_gemm(
            m, k, n, ASCEND, a_bytes_scale=scale))
        _assert_identical(*outcomes)

    def test_arena_path_actually_engaged(self):
        prog = lowering.lower_gemm(96, 160, 64, ASCEND_MAX)
        assert prog._arena is not None

    def test_exotic_variants_lower_to_columns(self, monkeypatch):
        def no_objects(*args, **kwargs):
            raise AssertionError("lowering built columns from objects")

        monkeypatch.setattr(InstructionArena, "from_instructions",
                            no_objects)
        clear_lowering_memo()
        sparse = lowering.lower_gemm(64, 64, 64, ASCEND_MAX,
                                     weight_density=0.3)
        resident = lowering.lower_gemm(64, 64, 64, ASCEND_MAX,
                                       b_resident=True)
        assert sparse._arena is not None
        assert resident._arena is not None
        assert sparse.arena.exact and resident.arena.exact
        costs = CostModel(ASCEND_MAX)
        assert schedule_summary(sparse, costs).total_cycles > 0
        assert schedule_summary(resident, costs).total_cycles > 0


class TestSparseEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 600),
        n=st.integers(1, 300),
        density=st.floats(0.0, 1.0),
        config=st.sampled_from(_CONFIGS),
        dtype=st.sampled_from(_DTYPES),
    )
    def test_perf_schedule(self, m, k, n, density, config, dtype):
        outcomes = _both(lambda L: L.lower_gemm(
            m, k, n, config, dtype=dtype, weight_density=density, tag="zvc"))
        _assert_identical(*outcomes)

    def test_functional_layout_rejected(self):
        outcomes = _both(lambda L: L.lower_gemm(
            64, 64, 64, ASCEND, weight_density=0.5,
            layout=GemmLayout(0, 1 << 20, 2 << 20)))
        assert outcomes == [CompileError, CompileError]


class TestBResidentEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 4096),
        n=st.integers(1, 300),
        config=st.sampled_from(_CONFIGS),
        dtype=st.sampled_from(_DTYPES),
        scale=st.sampled_from([0.25, 1.0]),
    )
    def test_perf_schedule(self, m, k, n, config, dtype, scale):
        outcomes = _both(lambda L: L.lower_gemm(
            m, k, n, config, dtype=dtype, a_bytes_scale=scale,
            b_resident=True, tag="ws"))
        _assert_identical(*outcomes)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 200),
        k=st.integers(1, 2048),
        n=st.integers(1, 200),
        config=st.sampled_from(_INT8_CONFIGS),
        bias=st.booleans(),
        post=st.sampled_from([(), (PostOp(VectorOpcode.RELU),),
                              (PostOp(VectorOpcode.RELU),
                               PostOp(VectorOpcode.MULS, 0.5))]),
    )
    def test_functional_int8_to_int32(self, m, k, n, config, bias, post):
        layout = GemmLayout(0, 4 << 20, 8 << 20,
                            bias_offset=(12 << 20) if bias else None)
        outcomes = _both(lambda L: L.lower_gemm(
            m, k, n, config, dtype=INT8, out_dtype=INT32, layout=layout,
            post_ops=post, b_resident=True, tag="fn"))
        _assert_identical(*outcomes)

    @pytest.mark.parametrize("fits", [True, False])
    def test_strip_fit_and_fallback(self, fits):
        """Both sides of the L0B fit check: a resident schedule, and an
        explicit tiling whose K-strip overflows L0B (default schedule)."""
        m, k, n = 160, (256 if fits else 8192), 96
        tiling = None if fits else choose_tiling(m, k, n, ASCEND_MAX, FP16)
        if not fits:  # the fp16 K-strip overflows L0B
            strip = math.ceil(k / tiling.tk) * tiling.tk * tiling.tn * 2
            assert strip > ASCEND_MAX.l0b_bytes
        layout = GemmLayout(0, 4 << 20, 8 << 20, bias_offset=12 << 20)
        post = [PostOp(VectorOpcode.RELU)]
        outcomes = _both(lambda L: L.lower_gemm(
            m, k, n, ASCEND_MAX, tiling=tiling, layout=layout,
            post_ops=post, b_resident=True, tag="ws"))
        _assert_identical(*outcomes)
        default = lowering.lower_gemm(m, k, n, ASCEND_MAX, tiling=tiling,
                                      layout=layout, post_ops=post,
                                      tag="ws")
        same = default.instructions == outcomes[1].instructions
        assert same is not fits


class TestVectorEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        elems=st.one_of(st.just(0), st.integers(1, 3_000_000)),
        passes=st.integers(1, 3),
        dtype=st.sampled_from(_DTYPES),
        config=st.sampled_from(_CONFIGS),
        load=st.booleans(),
        store=st.booleans(),
    )
    def test_streaming(self, elems, passes, dtype, config, load, store):
        work = VectorWork(elems=elems, passes=passes, dtype=dtype)
        outcomes = _both(lambda L: L.lower_vector_work(
            work, config, load_input=load, store_output=store))
        _assert_identical(*outcomes)


class TestWorkloadEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        gemm_count=st.integers(1, 3),
        reps=st.integers(1, 4),
        vec_elems=st.integers(0, 500_000),
        config=st.sampled_from([ASCEND, ASCEND_MAX]),
    )
    def test_mixed_workload(self, gemm_count, reps, vec_elems, config):
        work = OpWorkload(
            name="mix",
            gemms=tuple(GemmWork(m=32 * (i + 1), k=96, n=48, count=reps)
                        for i in range(gemm_count)),
            vector=(VectorWork(elems=vec_elems),) if vec_elems else (),
        )
        outcomes = _both(lambda L: L.lower_workload(work, config))
        _assert_identical(*outcomes)

    @settings(max_examples=15, deadline=None)
    @given(
        gemm_count=st.integers(1, 3),
        reps=st.integers(1, 3),
        density=st.floats(0.0, 1.0),
        scale=st.sampled_from([0.5, 1.0]),
        config=st.sampled_from([ASCEND, ASCEND_MAX]),
    )
    def test_sparse_workload(self, gemm_count, reps, density, scale, config):
        work = OpWorkload(
            name="zvc",
            gemms=tuple(GemmWork(m=48 * (i + 1), k=160, n=64, count=reps)
                        for i in range(gemm_count)),
            vector=(VectorWork(elems=20_000),),
        )
        outcomes = _both(lambda L: L.lower_workload(
            work, config, a_bytes_scale_for_gemms=scale,
            weight_density=density))
        _assert_identical(*outcomes)

    @pytest.mark.parametrize("model", ["gesture", "pointnet"])
    def test_conv_and_mlp_models(self, model):
        graph = build_model(model)
        for group, work in graph.grouped_workloads():
            outcomes = _both(lambda L: L.lower_workload(work, ASCEND))
            _assert_identical(*outcomes)


class TestCostColumns:
    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 500),
        n=st.integers(1, 300),
        config=st.sampled_from(_CONFIGS),
        dtype=st.sampled_from(_DTYPES),
    )
    def test_matches_per_instruction_costs(self, m, k, n, config, dtype):
        if not config.supports_dtype(dtype):
            return
        try:
            prog = lowering.lower_gemm(m, k, n, config, dtype=dtype)
        except (IsaError, CompileError):
            return
        costs = CostModel(config)
        arena = prog._arena
        assert arena is not None
        per_row = costs.cost_columns(arena)
        assert per_row.tolist() == [costs.cost(i) for i in prog.instructions]

    def test_object_built_arena_prices_identically(self):
        prog = reference_lowering.lower_gemm(80, 224, 96, ASCEND_MAX)
        arena = InstructionArena.from_instructions(prog.instructions)
        costs = CostModel(ASCEND_MAX)
        assert costs.cost_columns(arena).tolist() \
            == [costs.cost(i) for i in prog.instructions]


class TestSchedulerEquivalence:
    """Programs lowered either way schedule to the same trace, equal to
    the fixpoint oracle's."""

    def _programs(self):
        work = OpWorkload(
            name="sched",
            gemms=(GemmWork(m=96, k=256, n=64, count=2),),
            vector=(VectorWork(elems=400_000),),
        )
        return (reference_lowering.lower_workload(work, ASCEND_MAX),
                lowering.lower_workload(work, ASCEND_MAX))

    def test_traces_bit_identical(self):
        p_obj, p_ar = self._programs()
        costs = CostModel(ASCEND_MAX)
        t_obj = schedule(p_obj, costs)
        t_ar = schedule(p_ar, costs)
        t_fix = schedule_fixpoint(p_obj, costs)
        for a, b in ((t_obj, t_ar), (t_obj, t_fix)):
            assert len(a.events) == len(b.events)
            for ea, eb in zip(a.events, b.events):
                assert (ea.index, ea.pipe, ea.start, ea.end) \
                    == (eb.index, eb.pipe, eb.start, eb.end)

    def test_summaries_identical(self):
        p_obj, p_ar = self._programs()
        costs = CostModel(ASCEND_MAX)
        assert schedule_summary(p_obj, costs) == schedule_summary(p_ar, costs)
