"""The timing engine must be bit-identical to the fixpoint oracle.

``schedule`` and ``schedule_summary`` drain every program through its
columnar arena; the rescan-to-fixpoint loop in
``tests/core/reference_scheduler.py`` walks the same in-order per-pipe
queues over single-producer/single-consumer flag channels, so start/end
times are independent of visit order.  These tests pin that equivalence
on randomized hand-built programs covering every instruction class
(including the DeadlockError path) and on the real compiled corpus.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.lowering import lower_workload
from repro.config import ASCEND, ASCEND_MAX
from repro.core.costs import CostModel
from repro.core.engine import schedule, schedule_summary
from repro.errors import DeadlockError
from repro.isa import (
    CopyInstr,
    CubeMatmul,
    DecompressInstr,
    Img2ColInstr,
    MemSpace,
    Pipe,
    PipeBarrier,
    Program,
    Region,
    ScalarInstr,
    SetFlag,
    TransposeInstr,
    VectorInstr,
    VectorOpcode,
    WaitFlag,
)
from repro.dtypes import FP16, FP32, INT8
from repro.models import build_model

from .reference_scheduler import schedule_fixpoint

_COSTS = CostModel(ASCEND_MAX)

_PIPES = [Pipe.M, Pipe.V, Pipe.MTE1, Pipe.MTE2, Pipe.MTE3, Pipe.S]


def _payload(rng: np.random.Generator):
    """One random non-flag instruction of one of nine classes, in draw
    order: cube, inbound copy, scalar, img2col, transpose, 3-source
    select, barrier, outbound copy, decompress."""
    kind = rng.integers(0, 9)
    if kind == 0:
        return CubeMatmul(
            a=Region(MemSpace.L0A, 0, (16, 16), FP16),
            b=Region(MemSpace.L0B, 0, (16, 16), FP16),
            c=Region(MemSpace.L0C, 0, (16, 16), FP32),
        )
    if kind == 1:
        return CopyInstr(
            dst=Region(MemSpace.L1, 0, (64,), FP16),
            src=Region(MemSpace.GM, 0, (64,), FP16),
        )
    if kind == 2:
        return ScalarInstr(op="nop", cycles=int(rng.integers(1, 5)))
    if kind == 3:
        h = int(rng.integers(4, 9))
        return Img2ColInstr(
            dst=Region(MemSpace.L0A, 0, ((h - 2) ** 2, 9 * 16), FP16),
            src=Region(MemSpace.L1, 0, (h, h, 16), FP16),
            kernel=(3, 3))
    if kind == 4:
        cols = 16 * int(rng.integers(1, 4))
        return TransposeInstr(dst=Region(MemSpace.L0B, 0, (cols, 16), FP16),
                              src=Region(MemSpace.L1, 0, (16, cols), FP16))
    if kind == 5:
        elems = 128 * int(rng.integers(1, 5))
        ub = [Region(MemSpace.UB, i * 2 * elems, (elems,), FP16)
              for i in range(4)]
        return VectorInstr(op=VectorOpcode.SELECT_GE, dst=ub[0],
                           srcs=tuple(ub[1:]))
    if kind == 6:
        return PipeBarrier(
            barrier_pipe=_PIPES[int(rng.integers(0, len(_PIPES)))])
    if kind == 7:
        # UB -> GM or L1 -> GM: the MTE3 write-back routes.
        src = (MemSpace.UB, MemSpace.L1)[int(rng.integers(0, 2))]
        elems = 64 * int(rng.integers(1, 5))
        return CopyInstr(dst=Region(MemSpace.GM, 0, (elems,), FP16),
                         src=Region(src, 0, (elems,), FP16))
    return DecompressInstr(
        dst=Region(MemSpace.L0B, 0, (16, 16), FP16),
        src=Region(MemSpace.L1, 0, (int(rng.integers(64, 512)),), INT8))


def _random_flagged_program(rng: np.random.Generator, n: int,
                            allow_deadlock: bool) -> Program:
    """Multi-pipe payload with set/wait chains.

    Sets are emitted eagerly and their waits deferred a random distance,
    producing cross-pipe chains rather than adjacent pairs.  With
    ``allow_deadlock`` the program may contain a wait whose producer
    never signals.
    """
    instrs = []
    deferred = []  # pending WaitFlags not yet emitted
    for _ in range(n):
        instrs.append(_payload(rng))
        roll = rng.random()
        if roll < 0.35:
            src, dst = rng.choice(len(_PIPES), size=2, replace=False)
            flag = SetFlag(src_pipe=_PIPES[src], dst_pipe=_PIPES[dst],
                           event_id=int(rng.integers(0, 4)))
            instrs.append(flag)
            deferred.append(WaitFlag(src_pipe=flag.src_pipe,
                                     dst_pipe=flag.dst_pipe,
                                     event_id=flag.event_id))
        elif roll < 0.6 and deferred:
            instrs.append(deferred.pop(int(rng.integers(0, len(deferred)))))
    instrs.extend(deferred)  # close every chain
    if allow_deadlock and rng.random() < 0.5:
        src, dst = rng.choice(len(_PIPES), size=2, replace=False)
        # A wait nobody will ever signal.
        instrs.insert(
            int(rng.integers(0, len(instrs) + 1)),
            WaitFlag(src_pipe=_PIPES[src], dst_pipe=_PIPES[dst], event_id=7),
        )
    return Program(instrs)


class TestSchedulerEquivalence:
    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_traces_bit_identical(self, seed, n):
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=False)
        assert schedule(program, _COSTS).events \
            == schedule_fixpoint(program, _COSTS).events

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_deadlock_agreement(self, seed, n):
        """The engine and the oracle agree on *whether* a program
        deadlocks, and on the surviving trace when it does not."""
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=True)
        try:
            oracle = schedule_fixpoint(program, _COSTS)
        except DeadlockError:
            with pytest.raises(DeadlockError):
                schedule(program, _COSTS)
            with pytest.raises(DeadlockError):
                schedule_summary(program, _COSTS)
        else:
            assert schedule(program, _COSTS).events == oracle.events

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_summary_matches_trace(self, seed, n):
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=False)
        assert schedule_summary(program, _COSTS) \
            == schedule_fixpoint(program, _COSTS).summary()

    def test_plain_instruction_list_accepted(self):
        instrs = _random_flagged_program(np.random.default_rng(5), 20,
                                         allow_deadlock=False).instructions
        oracle = schedule_fixpoint(instrs, _COSTS)
        assert schedule(list(instrs), _COSTS).events == oracle.events
        assert schedule_summary(list(instrs), _COSTS) == oracle.summary()


class TestEveryInstructionClass:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle(self, seed):
        """Hand-built programs of every class reach the arena drain: the
        trace and summary equal the oracle's, for the object-built
        program and for an arena-built one over the same columns."""
        program = _random_flagged_program(np.random.default_rng(seed), 80,
                                          allow_deadlock=False)
        assert {type(i) for i in program} >= {
            CubeMatmul, CopyInstr, ScalarInstr, Img2ColInstr,
            TransposeInstr, VectorInstr, PipeBarrier, DecompressInstr}
        oracle = schedule_fixpoint(program, _COSTS)
        for variant in (program, Program.from_arena(program.arena)):
            assert schedule(variant, _COSTS).events == oracle.events
            assert schedule_summary(variant, _COSTS) == oracle.summary()


class TestCompiledCorpusEquivalence:
    def test_resnet50_corpus_bit_identical(self):
        """Every compiled ResNet-50 layer program schedules identically
        to the oracle, and the one-pass summary agrees with the
        per-query aggregates."""
        graph = build_model("resnet50", batch=1)
        costs = CostModel(ASCEND)
        for _, work in graph.grouped_workloads():
            program = lower_workload(work, ASCEND)
            fast = schedule(program, costs)
            oracle = schedule_fixpoint(program, costs)
            assert fast.events == oracle.events
            summary = schedule_summary(program, costs)
            assert summary.total_cycles == oracle.total_cycles
            for pipe in Pipe:
                assert summary.busy_cycles(pipe) == oracle.busy_cycles(pipe)
            assert (summary.l1_read_bytes, summary.l1_write_bytes) \
                == oracle.l1_traffic_bytes()
            assert (summary.gm_read_bytes, summary.gm_write_bytes) \
                == oracle.gm_traffic_bytes()
