"""The Ascend core: timing + functional execution of a Program.

The core owns its scratchpads (:class:`~repro.memory.hierarchy.CoreMemory`)
and a :class:`~repro.core.costs.CostModel` for its design point.  ``run``
first derives the schedule (Figure 3 semantics), then — unless timing-only
— replays the instructions functionally, serially, one at a time in
causal (start-time) order, so results are correct for any legally
synchronized program.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.core_configs import CoreConfig
from ..errors import IsaError
from ..isa.instructions import (
    CopyInstr,
    CubeMatmul,
    DecompressInstr,
    Img2ColInstr,
    Instruction,
    PipeBarrier,
    ScalarInstr,
    SetFlag,
    TransposeInstr,
    VectorInstr,
    WaitFlag,
)
from ..isa.program import Program
from ..memory.hierarchy import CoreMemory
from .costs import CostModel
from .cube import execute_cube
from .engine import schedule
from .mte import (
    execute_copy,
    execute_decompress,
    execute_img2col,
    execute_transpose,
)
from .trace import ExecutionTrace
from .vector import execute_vector

__all__ = ["AscendCore", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one program execution on a core."""

    trace: ExecutionTrace
    config: CoreConfig

    @property
    def cycles(self) -> int:
        return self.trace.total_cycles

    @property
    def seconds(self) -> float:
        return self.cycles / self.config.frequency_hz


class AscendCore:
    """One Ascend core instance (any design point from Table 5)."""

    def __init__(self, config: CoreConfig, gm_bytes: int = 64 * 1024 * 1024) -> None:
        self.config = config
        self.memory = CoreMemory(config, gm_bytes=gm_bytes)
        self.costs = CostModel(config)

    def run(self, program: Program, functional: bool = True,
            validate: bool = True) -> RunResult:
        """Execute a program; returns timing (and mutates GM if functional).

        Args:
            program: the instruction stream to execute.
            functional: when False, only the schedule is computed — used
                for full-network performance studies where numerics are
                irrelevant and weights would not fit in simulation memory.
            validate: run static program validation first.
        """
        if validate:
            program.validate(self.config)
        trace = schedule(program, self.costs)
        if functional:
            self._replay(trace)
        return RunResult(trace=trace, config=self.config)

    # -- functional replay ----------------------------------------------------

    def _replay(self, trace: ExecutionTrace) -> None:
        for instr in trace.functional_instructions():
            self._execute(instr)

    def _execute(self, instr: Instruction) -> None:
        if isinstance(instr, CubeMatmul):
            execute_cube(instr, self.memory)
        elif isinstance(instr, VectorInstr):
            execute_vector(instr, self.memory)
        elif isinstance(instr, Img2ColInstr):
            execute_img2col(instr, self.memory)
        elif isinstance(instr, TransposeInstr):
            execute_transpose(instr, self.memory)
        elif isinstance(instr, DecompressInstr):
            execute_decompress(instr, self.memory)
        elif isinstance(instr, CopyInstr):
            execute_copy(instr, self.memory)
        elif isinstance(instr, (ScalarInstr, SetFlag, WaitFlag, PipeBarrier)):
            pass  # no architectural state outside the schedule
        else:  # pragma: no cover - instruction set is closed
            raise IsaError(f"cannot execute {type(instr).__name__}")
