"""The Ascend core simulator — the paper's primary contribution.

:class:`AscendCore` executes :class:`~repro.isa.program.Program` objects in
two coupled modes:

* **timing**: an event-driven replay of the PSQ/per-pipe-queue/barrier
  execution model of Figure 3, using the Table 5 design parameters as the
  cost model;
* **functional**: numpy-backed execution of the same instruction list
  against the core's scratchpads, in the causal order the timing engine
  derived.
"""

from .costs import CostModel
from .trace import TraceEvent, ExecutionTrace, TraceSummary
from .engine import schedule
from .core import AscendCore, RunResult

__all__ = [
    "CostModel",
    "TraceEvent",
    "ExecutionTrace",
    "TraceSummary",
    "schedule",
    "AscendCore",
    "RunResult",
]
