"""Functional replay across the GEMM dtype matrix.

Each case replays one program on several fresh cores: every replay must
leave byte-identical scratchpad state (replay is deterministic), and the
result must match a numpy reference for fp16, fp32, int8 and int4.
"""

import numpy as np
import pytest

from repro.compiler import lower_gemm
from repro.compiler.lowering import GemmLayout
from repro.config import ASCEND, ASCEND_MAX
from repro.config.core_configs import ASCEND_NEXT
from repro.core import AscendCore
from repro.dtypes import FP16, FP32, INT4, INT8, INT32
from repro.isa import CopyInstr, CubeMatmul, MemSpace, Program, Region

_GM_BYTES = 4 * 1024 * 1024  # plenty for the test GEMMs, cheap to compare
_LAYOUT = GemmLayout(0, 2 ** 19, 2 ** 20)


def _full_state(core):
    """Every scratchpad's raw bytes — the strongest equality witness."""
    return {space: pad._data.copy() for space, pad in core.memory.spaces.items()}


def _replay(config, program, preloads, replays, validate=True):
    """Run ``program`` on ``replays`` fresh cores; assert byte-identical state.

    Returns the first core for numpy reference checks.
    """
    cores = []
    for _ in range(replays):
        core = AscendCore(config, gm_bytes=_GM_BYTES)
        for region, values in preloads:
            core.memory.write(region, values)
        core.run(program, validate=validate)
        cores.append(core)
    first = _full_state(cores[0])
    for i, core in enumerate(cores[1:], start=1):
        for space, expected in first.items():
            assert np.array_equal(_full_state(core)[space], expected), \
                f"{space.name} diverged on replay {i}"
    return cores[0]


class TestGemmDtypeMatrix:
    @pytest.mark.parametrize("replays", [2, 4])
    def test_fp16(self, rng, replays):
        m, k, n = 96, 80, 64
        a = rng.standard_normal((m, k)).astype(np.float16)
        b = rng.standard_normal((k, n)).astype(np.float16)
        program = lower_gemm(m, k, n, ASCEND_MAX, dtype=FP16, layout=_LAYOUT)
        core = _replay(
            ASCEND_MAX, program,
            [(Region(MemSpace.GM, 0, (m, k), FP16), a),
             (Region(MemSpace.GM, 2 ** 19, (k, n), FP16), b)],
            replays)
        out = core.memory.read(Region(MemSpace.GM, 2 ** 20, (m, n), FP16))
        ref = a.astype(np.float32) @ b.astype(np.float32)
        assert np.allclose(out.astype(np.float32), ref, rtol=1e-2, atol=1e-2)

    @pytest.mark.parametrize("replays", [2, 4])
    def test_fp32(self, rng, replays):
        m, k, n = 48, 40, 24
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        program = lower_gemm(m, k, n, ASCEND_NEXT, dtype=FP32, layout=_LAYOUT)
        core = _replay(
            ASCEND_NEXT, program,
            [(Region(MemSpace.GM, 0, (m, k), FP32), a),
             (Region(MemSpace.GM, 2 ** 19, (k, n), FP32), b)],
            replays)
        out = core.memory.read(Region(MemSpace.GM, 2 ** 20, (m, n), FP32))
        assert np.allclose(out, a @ b, rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("replays", [2, 4])
    def test_int8(self, rng, replays):
        m, k, n = 64, 48, 32
        a = rng.integers(-16, 16, (m, k)).astype(np.int8)
        b = rng.integers(-16, 16, (k, n)).astype(np.int8)
        program = lower_gemm(m, k, n, ASCEND_MAX, dtype=INT8,
                             out_dtype=INT32, layout=_LAYOUT)
        core = _replay(
            ASCEND_MAX, program,
            [(Region(MemSpace.GM, 0, (m, k), INT8), a),
             (Region(MemSpace.GM, 2 ** 19, (k, n), INT8), b)],
            replays)
        out = core.memory.read(Region(MemSpace.GM, 2 ** 20, (m, n), INT32))
        assert np.array_equal(out, a.astype(np.int32) @ b.astype(np.int32))

    @pytest.mark.parametrize("replays", [2, 4])
    def test_int4(self, rng, replays):
        """int4 tiles (the automotive core's mode) through independent
        matmuls interleaved with MTE2 staging copies: every product and
        every staged byte is exact."""
        a = rng.integers(-8, 8, (16, 64)).astype(np.int8)
        b = rng.integers(-8, 8, (64, 16)).astype(np.int8)
        stage = rng.standard_normal((4, 256)).astype(np.float16)
        ra = Region(MemSpace.L0A, 0, (16, 64), INT4)
        rb = Region(MemSpace.L0B, 0, (64, 16), INT4)
        instrs = []
        for i in range(4):
            instrs.append(CopyInstr(
                dst=Region(MemSpace.L1, i * 512, (256,), FP16),
                src=Region(MemSpace.GM, i * 512, (256,), FP16)))
            instrs.append(CubeMatmul(
                a=ra, b=rb, c=Region(MemSpace.L0C, i * 1024, (16, 16), INT32)))
        program = Program(instrs)
        core = _replay(
            ASCEND, program,
            [(ra, a), (rb, b),
             (Region(MemSpace.GM, 0, (4, 256), FP16), stage)],
            replays, validate=False)
        ref = a.astype(np.int32) @ b.astype(np.int32)
        for i in range(4):
            out = core.memory.read(
                Region(MemSpace.L0C, i * 1024, (16, 16), INT32))
            assert np.array_equal(out, ref)
            staged = core.memory.read(
                Region(MemSpace.L1, i * 512, (256,), FP16))
            assert np.array_equal(staged, stage[i])
