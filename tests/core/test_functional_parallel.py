"""Parallel functional execution must be bit-identical to the serial oracle.

Functional mode batches independent tile ops into wavefronts and runs
each wave across a thread pool; for a legally synchronized program the
result must match the serial instruction-by-instruction replay exactly —
every scratchpad byte, every dtype, every worker count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import lower_gemm
from repro.compiler.lowering import GemmLayout
from repro.config import ASCEND, ASCEND_MAX
from repro.config.core_configs import ASCEND_NEXT
from repro.core import AscendCore, resolve_workers
from repro.core.costs import CostModel
from repro.core.engine import schedule
from repro.core.trace import FUNCTIONAL_KINDS
from repro.dtypes import FP16, FP32, INT4, INT8, INT32
from repro.isa import CopyInstr, CubeMatmul, MemSpace, Pipe, Program, Region

from .test_engine_equivalence import _random_flagged_program

_GM_BYTES = 4 * 1024 * 1024  # plenty for the test GEMMs, cheap to compare
_LAYOUT = GemmLayout(0, 2 ** 19, 2 ** 20)

_COSTS_MAX = CostModel(ASCEND_MAX)


def _full_state(core):
    """Every scratchpad's raw bytes — the strongest equality witness."""
    return {space: pad._data.copy() for space, pad in core.memory.spaces.items()}


def _run_serial_and_parallel(config, program, preloads, workers,
                             validate=True):
    """Run ``program`` on two fresh cores; assert byte-identical state.

    Returns the serial core for numpy reference checks.
    """
    cores = []
    for w in (1, workers):
        core = AscendCore(config, gm_bytes=_GM_BYTES)
        for region, values in preloads:
            core.memory.write(region, values)
        core.run(program, validate=validate, workers=w)
        cores.append(core)
    serial, parallel = cores
    for space, expected in _full_state(serial).items():
        assert np.array_equal(_full_state(parallel)[space], expected), \
            f"{space.name} diverged under workers={workers}"
    return serial


class TestGemmDtypeMatrix:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_fp16(self, rng, workers):
        m, k, n = 96, 80, 64
        a = rng.standard_normal((m, k)).astype(np.float16)
        b = rng.standard_normal((k, n)).astype(np.float16)
        program = lower_gemm(m, k, n, ASCEND_MAX, dtype=FP16, layout=_LAYOUT)
        serial = _run_serial_and_parallel(
            ASCEND_MAX, program,
            [(Region(MemSpace.GM, 0, (m, k), FP16), a),
             (Region(MemSpace.GM, 2 ** 19, (k, n), FP16), b)],
            workers)
        out = serial.memory.read(Region(MemSpace.GM, 2 ** 20, (m, n), FP16))
        ref = a.astype(np.float32) @ b.astype(np.float32)
        assert np.allclose(out.astype(np.float32), ref, rtol=1e-2, atol=1e-2)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_fp32(self, rng, workers):
        m, k, n = 48, 40, 24
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        program = lower_gemm(m, k, n, ASCEND_NEXT, dtype=FP32, layout=_LAYOUT)
        serial = _run_serial_and_parallel(
            ASCEND_NEXT, program,
            [(Region(MemSpace.GM, 0, (m, k), FP32), a),
             (Region(MemSpace.GM, 2 ** 19, (k, n), FP32), b)],
            workers)
        out = serial.memory.read(Region(MemSpace.GM, 2 ** 20, (m, n), FP32))
        assert np.allclose(out, a @ b, rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_int8(self, rng, workers):
        m, k, n = 64, 48, 32
        a = rng.integers(-16, 16, (m, k)).astype(np.int8)
        b = rng.integers(-16, 16, (k, n)).astype(np.int8)
        program = lower_gemm(m, k, n, ASCEND_MAX, dtype=INT8,
                             out_dtype=INT32, layout=_LAYOUT)
        serial = _run_serial_and_parallel(
            ASCEND_MAX, program,
            [(Region(MemSpace.GM, 0, (m, k), INT8), a),
             (Region(MemSpace.GM, 2 ** 19, (k, n), INT8), b)],
            workers)
        out = serial.memory.read(Region(MemSpace.GM, 2 ** 20, (m, n), INT32))
        assert np.array_equal(out, a.astype(np.int32) @ b.astype(np.int32))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_int4(self, rng, workers):
        """int4 tiles (the automotive core's mode) through independent
        matmuls overlapped with MTE2 staging copies — multi-pipe waves."""
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
        serial = _run_serial_and_parallel(
            ASCEND, program,
            [(ra, a), (rb, b),
             (Region(MemSpace.GM, 0, (4, 256), FP16), stage)],
            workers, validate=False)
        ref = a.astype(np.int32) @ b.astype(np.int32)
        for i in range(4):
            out = serial.memory.read(
                Region(MemSpace.L0C, i * 1024, (16, 16), INT32))
            assert np.array_equal(out, ref)


class TestRandomProgramEquivalence:
    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 50),
           st.sampled_from([2, 3, 4]))
    @settings(max_examples=25, deadline=None)
    def test_state_bit_identical(self, seed, n, workers):
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=False,
                                          classes=3)
        feed = rng.standard_normal(64).astype(np.float16)
        _run_serial_and_parallel(
            ASCEND_MAX, program,
            [(Region(MemSpace.GM, 0, (64,), FP16), feed)],
            workers, validate=False)


class TestWavefrontStructure:
    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_waves_partition_and_overlap(self, seed, n):
        """Waves partition the functional instructions in order; within a
        wave every pair of events overlaps in time (hence no dependence
        edge can exist between them) and pipes are distinct."""
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=False)
        trace = schedule(program, _COSTS_MAX)
        waves = trace.wavefronts()

        flat = [instr for wave in waves for instr in wave]
        ordered = trace.functional_instructions()
        assert len(flat) == len(ordered)
        assert all(mine is theirs for mine, theirs in zip(flat, ordered))

        keep = [i for i, e in enumerate(trace.events)
                if int(trace.kinds[i]) in FUNCTIONAL_KINDS]
        pos = 0
        for wave in waves:
            rows = keep[pos:pos + len(wave)]
            pos += len(wave)
            starts = [int(trace.starts[i]) for i in rows]
            ends = [int(trace.ends[i]) for i in rows]
            assert max(starts) < min(ends)  # mutual overlap
            pipes = [int(trace.pipes[i]) for i in rows]
            assert len(set(pipes)) == len(pipes)  # one event per pipe

    def test_empty_and_flag_only_traces(self):
        from repro.isa import SetFlag, WaitFlag
        from repro.core.trace import ExecutionTrace
        assert ExecutionTrace().wavefronts() == []
        program = Program([
            SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=0),
            WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=0),
        ])
        trace = schedule(program, _COSTS_MAX)
        assert trace.wavefronts() == []
        assert trace.functional_instructions() == []


class TestSerialCutover:
    """Small kernels must dodge the thread pool entirely.

    Below ``REPRO_FUNC_MIN_TILES`` functional tiles, a pool request is
    demoted to the serial oracle — the executor costs more than the
    numpy time it would overlap — and results are identical either way.
    """

    def _spied_pool(self, monkeypatch):
        """Patch the executor used by ``_replay`` to count creations."""
        import repro.core.core as core_mod

        created = []
        real = core_mod.ThreadPoolExecutor

        class Spy(real):
            def __init__(self, *a, **kw):
                created.append(1)
                super().__init__(*a, **kw)

        monkeypatch.setattr(core_mod, "ThreadPoolExecutor", Spy)
        return created

    def _run_gemm(self, rng, workers):
        m, k, n = 64, 64, 64
        a = rng.standard_normal((m, k)).astype(np.float16)
        b = rng.standard_normal((k, n)).astype(np.float16)
        program = lower_gemm(m, k, n, ASCEND_MAX, layout=_LAYOUT)
        core = AscendCore(ASCEND_MAX, gm_bytes=_GM_BYTES)
        core.memory.write(Region(MemSpace.GM, 0, (m, k), FP16), a)
        core.memory.write(Region(MemSpace.GM, 2 ** 19, (k, n), FP16), b)
        trace = core.run(program, workers=workers).trace
        return core, trace

    def test_threshold_parsing(self, monkeypatch):
        from repro.core import functional_min_tiles
        from repro.errors import ConfigError

        monkeypatch.delenv("REPRO_FUNC_MIN_TILES", raising=False)
        assert functional_min_tiles() == 512
        monkeypatch.setenv("REPRO_FUNC_MIN_TILES", "64")
        assert functional_min_tiles() == 64
        monkeypatch.setenv("REPRO_FUNC_MIN_TILES", "0")
        assert functional_min_tiles() == 0
        monkeypatch.setenv("REPRO_FUNC_MIN_TILES", "bogus")
        with pytest.raises(ConfigError, match="REPRO_FUNC_MIN_TILES"):
            functional_min_tiles()

    def test_small_kernel_demoted_to_serial(self, rng, monkeypatch):
        monkeypatch.delenv("REPRO_FUNC_MIN_TILES", raising=False)
        created = self._spied_pool(monkeypatch)
        _, trace = self._run_gemm(rng, workers=4)
        # A 64^3 GEMM sits far below the 512-tile default cutover.
        assert trace.n_functional() < 512
        assert created == []  # no pool was ever constructed

    def test_zero_threshold_engages_pool(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_FUNC_MIN_TILES", "0")
        created = self._spied_pool(monkeypatch)
        self._run_gemm(rng, workers=4)
        assert created  # cutover disabled: pool request honored

    def test_identical_results_either_side_of_cutover(self, rng, monkeypatch):
        seed_state = rng.integers(0, 2 ** 31)
        states = []
        for threshold in ("1000000", "0"):
            monkeypatch.setenv("REPRO_FUNC_MIN_TILES", threshold)
            local = np.random.default_rng(int(seed_state))
            core, _ = self._run_gemm(local, workers=4)
            states.append(_full_state(core))
        for space, expected in states[0].items():
            assert np.array_equal(states[1][space], expected), space.name


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUNC_WORKERS", "8")
        assert resolve_workers(4) == 4
        assert resolve_workers(0) == 1
        assert resolve_workers("serial") == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUNC_WORKERS", raising=False)
        assert resolve_workers() == 1  # unset: the serial oracle
        for value, expected in [("4", 4), ("serial", 1), ("oracle", 1),
                                ("", 1), ("0", 1), (" SERIAL ", 1)]:
            monkeypatch.setenv("REPRO_FUNC_WORKERS", value)
            assert resolve_workers() == expected

    def test_env_drives_core_run(self, rng, monkeypatch):
        """REPRO_FUNC_WORKERS switches core.run without code changes and
        preserves results exactly."""
        m, k, n = 64, 64, 64
        a = rng.standard_normal((m, k)).astype(np.float16)
        b = rng.standard_normal((k, n)).astype(np.float16)
        program = lower_gemm(m, k, n, ASCEND_MAX, layout=_LAYOUT)
        states = []
        for value in ("serial", "4"):
            monkeypatch.setenv("REPRO_FUNC_WORKERS", value)
            core = AscendCore(ASCEND_MAX, gm_bytes=_GM_BYTES)
            core.memory.write(Region(MemSpace.GM, 0, (m, k), FP16), a)
            core.memory.write(Region(MemSpace.GM, 2 ** 19, (k, n), FP16), b)
            core.run(program)
            states.append(_full_state(core))
        for space, expected in states[0].items():
            assert np.array_equal(states[1][space], expected)
