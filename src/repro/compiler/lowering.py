"""Lowering: workloads -> double-buffered, flag-synchronized programs.

This is the compiler tier that produces the Figure 3 execution pattern:
all five pipes (MTE2 inbound, MTE1 feed, cube, vector, MTE3 outbound) run
concurrently, coupled only by set_flag/wait_flag pairs, with every buffer
double-buffered so the pipeline never serializes on a slot.

Event-id map (one purpose per id, FIFO per channel):

====  =================  ==========================================
id    channel            meaning
====  =================  ==========================================
0     MTE2 -> MTE1       L1 stage (A strip + B panel) ready
1     MTE1 -> MTE2       L1 stage slot released
2     MTE1 -> M          L0A/L0B feed ready
3     M -> MTE1          L0 feed slot released
4     M -> V             L0C output tile complete
5     V -> M             L0C slot released
6     V -> MTE3          UB tile ready
7     MTE3 -> V          UB slot released
====  =================  ==========================================
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config.core_configs import CoreConfig
from ..dtypes import DType, FP16, INT8, accumulator_for
from ..errors import CompileError
from ..graph.workload import GemmWork, OpWorkload, VectorWork
from ..isa.channels import (
    EV_B_RESIDENT_FREE,
    EV_L0C_TILE_FREE,
    EV_L0C_TILE_READY,
    EV_L0_FEED_FREE,
    EV_L0_FEED_READY,
    EV_L1_STAGE_FREE,
    EV_L1_STAGE_READY,
    EV_UB_TILE_FREE,
    EV_UB_TILE_READY,
    EV_VEC_CHUNK_READY,
    EV_VEC_RESULT_READY,
    EV_VEC_SLOT_FREE,
)
from ..isa.instructions import (
    CopyInstr,
    CubeMatmul,
    DecompressInstr,
    Instruction,
    SetFlag,
    VectorInstr,
    VectorOpcode,
    WaitFlag,
)
from ..isa.memref import MemSpace, Region
from ..isa.pipes import Pipe
from ..isa.program import Program
from ..memory.zvc import zvc_compressed_nbytes
from .tiling import Tiling, choose_tiling

__all__ = ["GemmLayout", "PostOp", "clear_lowering_memo", "lower_gemm",
           "lower_vector_work", "lower_workload", "lowering_stats",
           "reset_lowering_stats"]

# REPRO_LOWERING selects the emitter: "arena" (default) produces columnar
# programs via vectorized index arithmetic; "objects" keeps the original
# per-instruction loop as a bit-exact oracle.  The sparse (weight_density)
# and weight-stationary (b_resident) variants always take the object
# path — they are ablation-only and not worth a columnar twin.


def _lowering_mode() -> str:
    from ..config.env import env_choice

    return env_choice("REPRO_LOWERING", "arena", ("arena", "objects"))


# Graceful degradation under an injected arena fault: the object
# emitter still exists, so fall back to it and count the event rather
# than failing the compile.
_LOWERING_STATS = {"arena_fallbacks": 0, "memo_hits": 0}


def lowering_stats() -> dict:
    """Counters for compiler-tier degradation events in this process."""
    return dict(_LOWERING_STATS)


def reset_lowering_stats() -> None:
    for k in _LOWERING_STATS:
        _LOWERING_STATS[k] = 0


def _try_arena(thunk):
    """Run an arena-emitter thunk; None means "use the object emitter".

    Only an injected arena fault falls back.  Any other error from the
    arena emitter propagates from where it arose: the object emitter
    would reject the same inputs, so retrying there only doubles the
    work and hides the origin.
    """
    from ..reliability.injector import active_injector

    inj = active_injector()
    if inj is not None and inj.should_fail_arena():
        _LOWERING_STATS["arena_fallbacks"] += 1
        return None
    return thunk()


# Lowering is pure given its arguments minus the tag, and real graphs
# repeat structures relentlessly (BERT's 12 encoder blocks, resnet's
# stages), so the arena emitters memoize their output keyed on the
# structural arguments.  A hit is retagged via the zero-copy
# :meth:`InstructionArena.retagged` — column arrays are shared, never
# mutated after lowering, so sharing is safe and downstream
# identity-keyed caches (``schedule_summary``'s memo) hit for free.
# ``REPRO_LOWER_MEMO=0`` disables it; any active fault campaign
# bypasses it because injected arena faults are per-call.
_ARENA_MEMO: dict = {}
_ARENA_MEMO_CAP = 1024


def _memo_enabled() -> bool:
    from ..config.env import env_flag
    from ..reliability.injector import active_injector

    return active_injector() is None and env_flag("REPRO_LOWER_MEMO", True)


def _memo_get(key):
    hit = _ARENA_MEMO.get(key)
    if hit is not None:
        _LOWERING_STATS["memo_hits"] += 1
    return hit


def _memo_put(key, arena) -> None:
    _ARENA_MEMO[key] = arena
    while len(_ARENA_MEMO) > _ARENA_MEMO_CAP:
        _ARENA_MEMO.pop(next(iter(_ARENA_MEMO)))


def clear_lowering_memo() -> None:
    """Drop all memoized arenas (tests, and fork-worker hygiene)."""
    _ARENA_MEMO.clear()


@dataclass(frozen=True)
class GemmLayout:
    """GM placement for functional GEMM execution.

    A is (m, k) row-major at ``a_offset``; B is (k, n) at ``b_offset``;
    C is (m, n) at ``c_offset`` in the output dtype; ``bias_offset``
    optionally locates an (n,)-vector added to every output row.
    """

    a_offset: int
    b_offset: int
    c_offset: int
    bias_offset: Optional[int] = None


@dataclass(frozen=True)
class PostOp:
    """An elementwise epilogue applied to each output tile in UB."""

    op: VectorOpcode
    scalar: Optional[float] = None


# Flag instructions are immutable and tiny, and a compiled tile loop
# emits the same (src, dst, event, tag) flag thousands of times — intern
# them so repeated emissions share one object (building arena columns
# and trace metadata from objects is memoized per distinct object).
_FLAG_CACHE: dict = {}


def _interned_flag(cls, src: Pipe, dst: Pipe, event: int, tag: str):
    key = (cls, src, dst, event, tag)
    instr = _FLAG_CACHE.get(key)
    if instr is None:
        instr = cls(src_pipe=src, dst_pipe=dst, event_id=event, tag=tag)
        _FLAG_CACHE[key] = instr
    return instr


class _Emitter:
    """Accumulates instructions and balances flag channels at the end."""

    def __init__(self, name: str, tag: str) -> None:
        self.instrs: List[Instruction] = []
        self.tag = tag
        self.name = name
        self._sets: Counter = Counter()
        self._waits: Counter = Counter()

    def emit(self, instr: Instruction) -> None:
        self.instrs.append(instr)

    def set_flag(self, src: Pipe, dst: Pipe, event: int) -> None:
        self._sets[(src, dst, event)] += 1
        self.emit(_interned_flag(SetFlag, src, dst, event, self.tag))

    def wait_flag(self, src: Pipe, dst: Pipe, event: int) -> None:
        self._waits[(src, dst, event)] += 1
        self.emit(_interned_flag(WaitFlag, src, dst, event, self.tag))

    def finish(self) -> Program:
        """Drain unmatched release flags — the kernel-end barrier."""
        for (src, dst, event), count in sorted(
            self._sets.items(), key=lambda kv: str(kv[0])
        ):
            for _ in range(count - self._waits[(src, dst, event)]):
                self.wait_flag(src, dst, event)
        return Program(self.instrs, name=self.name)


def lower_gemm(
    m: int,
    k: int,
    n: int,
    config: CoreConfig,
    dtype: DType = FP16,
    out_dtype: Optional[DType] = None,
    tag: str = "",
    tiling: Optional[Tiling] = None,
    post_ops: Sequence[PostOp] = (),
    layout: Optional[GemmLayout] = None,
    weight_density: Optional[float] = None,
    a_bytes_scale: float = 1.0,
    b_resident: bool = False,
) -> Program:
    """Lower one M x K x N GEMM to a pipelined instruction stream.

    Args:
        layout: GM placement — provide it for functional execution; omit
            it for performance-only lowering (regions then start at offset
            0 and may alias, which the scheduler never reads).
        post_ops: elementwise epilogue per output tile (activation etc.).
        weight_density: when set (<1), B tiles travel ZVC-compressed from
            GM through L1 and are expanded by the MTE *decomp* module —
            performance-only (Section 2.2 sparse path).
        a_bytes_scale: scales the bytes MTE2 fetches for A from GM.  Conv
            lowering passes the inverse im2col expansion factor: the raw
            image is fetched once while the expanded matrix only exists
            between L1 and L0A.
        b_resident: weight-stationary schedule — when the whole K-strip
            of B for one output column fits L0B, pin it there and stream
            A tiles past it (Section 2.5's reason the A bus is wider than
            the B bus).  Falls back to the default schedule when B does
            not fit.
    """
    if weight_density is not None and layout is not None:
        raise CompileError("compressed weights are performance-only lowering")
    if not 0 < a_bytes_scale <= 1:
        raise CompileError(f"a_bytes_scale must be in (0, 1], got {a_bytes_scale}")
    out_dtype = out_dtype or dtype
    if tiling is None and b_resident and weight_density is None:
        tiling = _residency_tiling(m, k, n, config, dtype)
    tiling = tiling or choose_tiling(m, k, n, config, dtype)
    if (weight_density is None and not b_resident
            and _lowering_mode() != "objects"):
        from .arena_lowering import lower_gemm_arena
        memo_key = None
        if _memo_enabled():
            memo_key = ("gemm", config, dtype, out_dtype, m, k, n, tiling,
                        tuple(post_ops), layout, a_bytes_scale)
            hit = _memo_get(memo_key)
            if hit is not None:
                return Program.from_arena(
                    hit.retagged(tag),
                    name=f"gemm_{m}x{k}x{n}_{config.name}")
        program = _try_arena(lambda: lower_gemm_arena(
            m, k, n, config, dtype, out_dtype, tag, tiling, post_ops,
            layout, a_bytes_scale))
        if program is not None:
            if memo_key is not None:
                _memo_put(memo_key, program._arena)
            return program
    acc = accumulator_for(dtype)
    functional = layout is not None

    tm, tk, tn, k_stage = tiling.tm, tiling.tk, tiling.tn, tiling.k_stage
    tiles_m = math.ceil(m / tm)
    tiles_n = math.ceil(n / tn)
    k_stages = math.ceil(k / k_stage)

    # Scratchpad slot offsets (double buffered).
    a_stage_b = int(tm * k_stage * dtype.bytes)
    b_stage_b = int(k_stage * tn * dtype.bytes)
    l1_a = (0, a_stage_b)
    l1_b = (2 * a_stage_b, 2 * a_stage_b + b_stage_b)
    a_feed_b = int(tm * tk * dtype.bytes)
    b_feed_b = int(tk * tn * dtype.bytes)
    c_tile_b = int(tm * tn * acc.bytes)
    ub_tile_b = int(tm * tn * out_dtype.bytes)
    ub_bias_off = 2 * ub_tile_b  # bias row staged after the two tile slots

    e = _Emitter(f"gemm_{m}x{k}x{n}_{config.name}", tag)

    if functional and layout.bias_offset is not None:
        bias_gm = Region(MemSpace.GM, layout.bias_offset, (1, n), out_dtype)
        bias_ub = Region(MemSpace.UB, ub_bias_off, (1, n), out_dtype)
        e.emit(CopyInstr(dst=bias_ub, src=bias_gm, tag=tag))

    b_strip_bytes = int(math.ceil(k / tk) * tk * tn * dtype.bytes)
    if (b_resident and weight_density is None
            and b_strip_bytes <= config.l0b_bytes):
        _emit_b_resident(e, m, k, n, config, dtype, out_dtype, tag, tiling,
                         post_ops, layout, a_bytes_scale)
        return e.finish()

    stage_idx = feed_idx = tile_idx = 0
    for om in range(tiles_m):
        rm = min(tm, m - om * tm)  # actual rows in this tile
        for on in range(tiles_n):
            rn = min(tn, n - on * tn)
            c_slot = tile_idx % 2
            c_reg = Region(MemSpace.L0C, c_slot * c_tile_b, (rm, rn), acc)
            first_matmul_of_tile = True
            for ok in range(k_stages):
                rk_stage = min(k_stage, k - ok * k_stage)
                slot = stage_idx % 2
                # ---- MTE2: stage A strip and B panel into L1 ----
                if stage_idx >= 2:
                    e.wait_flag(Pipe.MTE1, Pipe.MTE2, EV_L1_STAGE_FREE)
                a_l1 = Region(MemSpace.L1, l1_a[slot], (rm, rk_stage), dtype)
                b_l1 = Region(MemSpace.L1, l1_b[slot], (rk_stage, rn), dtype)
                if functional:
                    a_gm = Region(
                        MemSpace.GM,
                        layout.a_offset
                        + int((om * tm * k + ok * k_stage) * dtype.bytes),
                        (rm, rk_stage), dtype,
                        pitch=int(k * dtype.bytes),
                    )
                    b_gm = Region(
                        MemSpace.GM,
                        layout.b_offset
                        + int((ok * k_stage * n + on * tn) * dtype.bytes),
                        (rk_stage, rn), dtype,
                        pitch=int(n * dtype.bytes),
                    )
                    e.emit(CopyInstr(dst=a_l1, src=a_gm, tag=tag))
                    e.emit(CopyInstr(dst=b_l1, src=b_gm, tag=tag))
                else:
                    a_rows = max(1, int(round(rm * a_bytes_scale)))
                    a_gm = Region(MemSpace.GM, 0, (a_rows, rk_stage), dtype)
                    e.emit(CopyInstr(
                        dst=Region(MemSpace.L1, l1_a[slot], (a_rows, rk_stage), dtype),
                        src=a_gm, tag=tag))
                    if weight_density is not None:
                        comp = max(1, int(zvc_compressed_nbytes(
                            rk_stage * rn, weight_density, dtype.bytes)))
                        e.emit(CopyInstr(
                            dst=Region(MemSpace.L1, l1_b[slot], (comp,), INT8),
                            src=Region(MemSpace.GM, 0, (comp,), INT8), tag=tag))
                    else:
                        e.emit(CopyInstr(
                            dst=b_l1, src=Region(MemSpace.GM, 0, (rk_stage, rn), dtype),
                            tag=tag))
                e.set_flag(Pipe.MTE2, Pipe.MTE1, EV_L1_STAGE_READY)
                # ---- MTE1: feed L0 tiles from this stage ----
                e.wait_flag(Pipe.MTE2, Pipe.MTE1, EV_L1_STAGE_READY)
                for ik in range(math.ceil(rk_stage / tk)):
                    rk = min(tk, rk_stage - ik * tk)
                    fslot = feed_idx % 2
                    if feed_idx >= 2:
                        e.wait_flag(Pipe.M, Pipe.MTE1, EV_L0_FEED_FREE)
                    a_l0 = Region(MemSpace.L0A, fslot * a_feed_b, (rm, rk), dtype)
                    b_l0 = Region(MemSpace.L0B, fslot * b_feed_b, (rk, rn), dtype)
                    a_src = Region(MemSpace.L1, l1_a[slot] + int(ik * tk * dtype.bytes),
                                   (rm, rk), dtype,
                                   pitch=int(rk_stage * dtype.bytes))
                    e.emit(CopyInstr(dst=a_l0, src=a_src, tag=tag))
                    if weight_density is not None:
                        comp = max(1, int(zvc_compressed_nbytes(
                            rk * rn, weight_density, dtype.bytes)))
                        e.emit(DecompressInstr(
                            dst=b_l0,
                            src=Region(MemSpace.L1, l1_b[slot], (comp,), INT8),
                            tag=tag))
                    else:
                        b_src = Region(MemSpace.L1,
                                       l1_b[slot] + int(ik * tk * rn * dtype.bytes),
                                       (rk, rn), dtype)
                        e.emit(CopyInstr(dst=b_l0, src=b_src, tag=tag))
                    e.set_flag(Pipe.MTE1, Pipe.M, EV_L0_FEED_READY)
                    # ---- cube ----
                    e.wait_flag(Pipe.MTE1, Pipe.M, EV_L0_FEED_READY)
                    if first_matmul_of_tile and tile_idx >= 2:
                        e.wait_flag(Pipe.V, Pipe.M, EV_L0C_TILE_FREE)
                    e.emit(CubeMatmul(a=a_l0, b=b_l0, c=c_reg,
                                      accumulate=not first_matmul_of_tile,
                                      tag=tag))
                    first_matmul_of_tile = False
                    e.set_flag(Pipe.M, Pipe.MTE1, EV_L0_FEED_FREE)
                    feed_idx += 1
                e.set_flag(Pipe.MTE1, Pipe.MTE2, EV_L1_STAGE_FREE)
                stage_idx += 1
            # ---- vector epilogue ----
            e.set_flag(Pipe.M, Pipe.V, EV_L0C_TILE_READY)
            e.wait_flag(Pipe.M, Pipe.V, EV_L0C_TILE_READY)
            if tile_idx >= 2:
                e.wait_flag(Pipe.MTE3, Pipe.V, EV_UB_TILE_FREE)
            ub_reg = Region(MemSpace.UB, c_slot * ub_tile_b, (rm, rn), out_dtype)
            e.emit(VectorInstr(op=VectorOpcode.CAST, dst=ub_reg, srcs=(c_reg,),
                               tag=tag))
            e.set_flag(Pipe.V, Pipe.M, EV_L0C_TILE_FREE)
            if functional and layout.bias_offset is not None:
                bias_slice = Region(
                    MemSpace.UB,
                    ub_bias_off + int(on * tn * out_dtype.bytes),
                    (1, rn), out_dtype,
                )
                e.emit(VectorInstr(op=VectorOpcode.ADD, dst=ub_reg,
                                   srcs=(ub_reg, bias_slice), tag=tag))
            for post in post_ops:
                e.emit(VectorInstr(op=post.op, dst=ub_reg, srcs=(ub_reg,),
                                   scalar=post.scalar, tag=tag))
            e.set_flag(Pipe.V, Pipe.MTE3, EV_UB_TILE_READY)
            # ---- MTE3: store ----
            e.wait_flag(Pipe.V, Pipe.MTE3, EV_UB_TILE_READY)
            if functional:
                c_gm = Region(
                    MemSpace.GM,
                    layout.c_offset + int((om * tm * n + on * tn) * out_dtype.bytes),
                    (rm, rn), out_dtype,
                    pitch=int(n * out_dtype.bytes),
                )
            else:
                c_gm = Region(MemSpace.GM, 0, (rm, rn), out_dtype)
            e.emit(CopyInstr(dst=c_gm, src=ub_reg, tag=tag))
            e.set_flag(Pipe.MTE3, Pipe.V, EV_UB_TILE_FREE)
            tile_idx += 1

    return e.finish()


def _residency_tiling(m: int, k: int, n: int, config: CoreConfig,
                      dtype: DType) -> Optional[Tiling]:
    """Best tiling whose whole B K-strip fits L0B, or None."""
    from .tiling import estimate_gemm_cycles, legal_tilings

    compatible = [
        t for t in legal_tilings(m, k, n, config, dtype)
        if math.ceil(k / t.tk) * t.tk * t.tn * dtype.bytes
        <= config.l0b_bytes
    ]
    if not compatible:
        return None
    return min(compatible,
               key=lambda t: estimate_gemm_cycles(m, k, n, t, config, dtype))


def _emit_b_resident(e: _Emitter, m: int, k: int, n: int,
                     config: CoreConfig, dtype: DType, out_dtype: DType,
                     tag: str, tiling: Tiling, post_ops: Sequence[PostOp],
                     layout: Optional[GemmLayout],
                     a_bytes_scale: float) -> None:
    """Weight-stationary schedule: per output column (on), pin every B
    tile of the K strip in L0B once, then stream all A strips past it.

    Event-id additions over the default schedule: id 9 on M -> MTE1
    signals that a column's matmuls retired, so the next column may
    overwrite the resident B tiles.
    """
    acc = accumulator_for(dtype)
    functional = layout is not None
    tm, tk, tn, k_stage = tiling.tm, tiling.tk, tiling.tn, tiling.k_stage
    tiles_m = math.ceil(m / tm)
    tiles_n = math.ceil(n / tn)
    k_stages = math.ceil(k / k_stage)

    a_stage_b = int(tm * k_stage * dtype.bytes)
    b_stage_b = int(k_stage * tn * dtype.bytes)
    l1_a = (0, a_stage_b)
    l1_b = (2 * a_stage_b, 2 * a_stage_b + b_stage_b)
    a_feed_b = int(tm * tk * dtype.bytes)
    b_feed_b = int(tk * tn * dtype.bytes)
    c_tile_b = int(tm * tn * acc.bytes)
    ub_tile_b = int(tm * tn * out_dtype.bytes)

    stage_idx = feed_idx = tile_idx = 0
    for on in range(tiles_n):
        rn = min(tn, n - on * tn)
        if on > 0:
            e.wait_flag(Pipe.M, Pipe.MTE1, EV_B_RESIDENT_FREE)  # resident B free to replace
        for om in range(tiles_m):
            rm = min(tm, m - om * tm)
            c_slot = tile_idx % 2
            c_reg = Region(MemSpace.L0C, c_slot * c_tile_b, (rm, rn), acc)
            first_matmul_of_tile = True
            global_feed = 0  # index into the resident L0B tile array
            for ok in range(k_stages):
                rk_stage = min(k_stage, k - ok * k_stage)
                slot = stage_idx % 2
                if stage_idx >= 2:
                    e.wait_flag(Pipe.MTE1, Pipe.MTE2, EV_L1_STAGE_FREE)
                a_l1 = Region(MemSpace.L1, l1_a[slot], (rm, rk_stage), dtype)
                if functional:
                    a_gm = Region(
                        MemSpace.GM,
                        layout.a_offset
                        + int((om * tm * k + ok * k_stage) * dtype.bytes),
                        (rm, rk_stage), dtype, pitch=int(k * dtype.bytes))
                    e.emit(CopyInstr(dst=a_l1, src=a_gm, tag=tag))
                else:
                    a_rows = max(1, int(round(rm * a_bytes_scale)))
                    e.emit(CopyInstr(
                        dst=Region(MemSpace.L1, l1_a[slot],
                                   (a_rows, rk_stage), dtype),
                        src=Region(MemSpace.GM, 0, (a_rows, rk_stage), dtype),
                        tag=tag))
                if om == 0:
                    b_l1 = Region(MemSpace.L1, l1_b[slot], (rk_stage, rn),
                                  dtype)
                    if functional:
                        b_gm = Region(
                            MemSpace.GM,
                            layout.b_offset
                            + int((ok * k_stage * n + on * tn) * dtype.bytes),
                            (rk_stage, rn), dtype, pitch=int(n * dtype.bytes))
                        e.emit(CopyInstr(dst=b_l1, src=b_gm, tag=tag))
                    else:
                        e.emit(CopyInstr(
                            dst=b_l1,
                            src=Region(MemSpace.GM, 0, (rk_stage, rn), dtype),
                            tag=tag))
                e.set_flag(Pipe.MTE2, Pipe.MTE1, EV_L1_STAGE_READY)
                e.wait_flag(Pipe.MTE2, Pipe.MTE1, EV_L1_STAGE_READY)
                for ik in range(math.ceil(rk_stage / tk)):
                    rk = min(tk, rk_stage - ik * tk)
                    fslot = feed_idx % 2
                    if feed_idx >= 2:
                        e.wait_flag(Pipe.M, Pipe.MTE1, EV_L0_FEED_FREE)
                    a_l0 = Region(MemSpace.L0A, fslot * a_feed_b, (rm, rk),
                                  dtype)
                    a_src = Region(
                        MemSpace.L1, l1_a[slot] + int(ik * tk * dtype.bytes),
                        (rm, rk), dtype, pitch=int(rk_stage * dtype.bytes))
                    b_l0 = Region(MemSpace.L0B, global_feed * b_feed_b,
                                  (rk, rn), dtype)
                    if om == 0:
                        b_src = Region(
                            MemSpace.L1,
                            l1_b[slot] + int(ik * tk * rn * dtype.bytes),
                            (rk, rn), dtype)
                        e.emit(CopyInstr(dst=b_l0, src=b_src, tag=tag))
                    e.emit(CopyInstr(dst=a_l0, src=a_src, tag=tag))
                    e.set_flag(Pipe.MTE1, Pipe.M, EV_L0_FEED_READY)
                    e.wait_flag(Pipe.MTE1, Pipe.M, EV_L0_FEED_READY)
                    if first_matmul_of_tile and tile_idx >= 2:
                        e.wait_flag(Pipe.V, Pipe.M, EV_L0C_TILE_FREE)
                    e.emit(CubeMatmul(a=a_l0, b=b_l0, c=c_reg,
                                      accumulate=not first_matmul_of_tile,
                                      tag=tag))
                    first_matmul_of_tile = False
                    e.set_flag(Pipe.M, Pipe.MTE1, EV_L0_FEED_FREE)
                    feed_idx += 1
                    global_feed += 1
                e.set_flag(Pipe.MTE1, Pipe.MTE2, EV_L1_STAGE_FREE)
                stage_idx += 1
            # vector epilogue + store (identical to the default schedule)
            e.set_flag(Pipe.M, Pipe.V, EV_L0C_TILE_READY)
            e.wait_flag(Pipe.M, Pipe.V, EV_L0C_TILE_READY)
            if tile_idx >= 2:
                e.wait_flag(Pipe.MTE3, Pipe.V, EV_UB_TILE_FREE)
            ub_reg = Region(MemSpace.UB, c_slot * ub_tile_b, (rm, rn),
                            out_dtype)
            e.emit(VectorInstr(op=VectorOpcode.CAST, dst=ub_reg,
                               srcs=(c_reg,), tag=tag))
            e.set_flag(Pipe.V, Pipe.M, EV_L0C_TILE_FREE)
            if functional and layout.bias_offset is not None:
                bias_slice = Region(
                    MemSpace.UB,
                    2 * ub_tile_b + int(on * tn * out_dtype.bytes),
                    (1, rn), out_dtype)
                e.emit(VectorInstr(op=VectorOpcode.ADD, dst=ub_reg,
                                   srcs=(ub_reg, bias_slice), tag=tag))
            for post in post_ops:
                e.emit(VectorInstr(op=post.op, dst=ub_reg, srcs=(ub_reg,),
                                   scalar=post.scalar, tag=tag))
            e.set_flag(Pipe.V, Pipe.MTE3, EV_UB_TILE_READY)
            e.wait_flag(Pipe.V, Pipe.MTE3, EV_UB_TILE_READY)
            if functional:
                c_gm = Region(
                    MemSpace.GM,
                    layout.c_offset
                    + int((om * tm * n + on * tn) * out_dtype.bytes),
                    (rm, rn), out_dtype, pitch=int(n * out_dtype.bytes))
            else:
                c_gm = Region(MemSpace.GM, 0, (rm, rn), out_dtype)
            e.emit(CopyInstr(dst=c_gm, src=ub_reg, tag=tag))
            e.set_flag(Pipe.MTE3, Pipe.V, EV_UB_TILE_FREE)
            tile_idx += 1
        e.set_flag(Pipe.M, Pipe.MTE1, EV_B_RESIDENT_FREE)  # column retired


def lower_vector_work(work: VectorWork, config: CoreConfig, tag: str = "",
                      load_input: bool = True,
                      store_output: bool = True) -> Program:
    """Lower a pure vector workload to a UB-tiled streaming program.

    Each chunk streams GM -> UB (MTE2), runs ``passes`` datapath passes,
    and streams back UB -> GM (MTE3); chunks double-buffer through UB.
    Every pass is emitted as one 1-pass instruction, which charges exactly
    ``passes * elems`` element-passes — the quantity the workload model
    defines.
    """
    if _lowering_mode() != "objects":
        from .arena_lowering import lower_vector_arena
        memo_key = None
        if _memo_enabled():
            memo_key = ("vec", config, work, load_input, store_output)
            hit = _memo_get(memo_key)
            if hit is not None:
                return Program.from_arena(
                    hit.retagged(tag),
                    name=f"vector_{work.elems}x{work.passes}_{config.name}")
        program = _try_arena(lambda: lower_vector_arena(
            work, config, tag, load_input, store_output))
        if program is not None:
            if memo_key is not None:
                _memo_put(memo_key, program._arena)
            return program
    elem_b = work.dtype.bytes
    # Two in-flight chunks must fit UB.
    chunk_elems = max(1, int(config.ub_bytes / (2 * elem_b)))
    chunks = math.ceil(work.elems / chunk_elems) if work.elems else 0
    e = _Emitter(f"vector_{work.elems}x{work.passes}_{config.name}", tag)
    for i in range(chunks):
        ce = min(chunk_elems, work.elems - i * chunk_elems)
        slot = i % 2
        ub = Region(MemSpace.UB, slot * int(chunk_elems * elem_b), (ce,), work.dtype)
        if load_input:
            if i >= 2:
                e.wait_flag(Pipe.V, Pipe.MTE2, EV_VEC_SLOT_FREE)
            e.emit(CopyInstr(dst=ub, src=Region(MemSpace.GM, 0, (ce,), work.dtype),
                             tag=tag))
            e.set_flag(Pipe.MTE2, Pipe.V, EV_VEC_CHUNK_READY)
            e.wait_flag(Pipe.MTE2, Pipe.V, EV_VEC_CHUNK_READY)
        for _ in range(work.passes):
            e.emit(VectorInstr(op=VectorOpcode.MULS, dst=ub, srcs=(ub,),
                               scalar=1.0, tag=tag))
        if load_input:
            e.set_flag(Pipe.V, Pipe.MTE2, EV_VEC_SLOT_FREE)
        if store_output:
            e.set_flag(Pipe.V, Pipe.MTE3, EV_VEC_RESULT_READY)
            e.wait_flag(Pipe.V, Pipe.MTE3, EV_VEC_RESULT_READY)
            e.emit(CopyInstr(dst=Region(MemSpace.GM, 0, (ce,), work.dtype), src=ub,
                             tag=tag))
    return e.finish()


def lower_workload(work: OpWorkload, config: CoreConfig,
                   tag: Optional[str] = None,
                   a_bytes_scale_for_gemms: float = 1.0,
                   weight_density: Optional[float] = None) -> Program:
    """Lower an op workload (GEMMs + vector work) to one program.

    Performance-only: sub-programs are concatenated; each is internally
    flag-balanced, so the concatenation is a legal program.
    """
    tag = tag if tag is not None else work.name
    name = f"{work.name}_{config.name}"
    subs = []
    reps: List[int] = []
    for g in work.gemms:
        subs.append(lower_gemm(g.m, g.k, g.n, config, dtype=g.dtype, tag=tag,
                               a_bytes_scale=a_bytes_scale_for_gemms,
                               weight_density=weight_density))
        reps.append(g.count)
    for v in work.vector:
        subs.append(lower_vector_work(v, config, tag=tag))
        reps.append(1)
    if _lowering_mode() != "objects" and all(
            s._arena is not None for s in subs):
        from ..isa.arena import InstructionArena
        memo_key = None
        if _memo_enabled():
            memo_key = ("workload", config, work.gemms, work.vector,
                        a_bytes_scale_for_gemms, weight_density)
            hit = _memo_get(memo_key)
            if hit is not None:
                return Program.from_arena(hit.retagged(tag), name=name)
        # The sub-program memo hands structurally identical adjacent
        # layers the *same* arena object — fold them into the repeat
        # count so concat records one wide repeat block (better
        # steady-state extrapolation) instead of several narrow ones.
        arenas: List = []
        mreps: List[int] = []
        for sub, count in zip(subs, reps):
            if arenas and sub._arena is arenas[-1]:
                mreps[-1] += count
            else:
                arenas.append(sub._arena)
                mreps.append(count)
        program = _try_arena(lambda: Program.from_arena(
            InstructionArena.concat(arenas, mreps), name=name))
        if program is not None:
            if memo_key is not None:
                _memo_put(memo_key, program._arena)
            return program
    instrs: List[Instruction] = []
    for sub, count in zip(subs, reps):
        for _ in range(count):
            instrs.extend(sub.instructions)
    return Program(instrs, name=name)
