"""The rescan-to-fixpoint scheduler: reference oracle for ``core/engine.py``.

Production scheduling drains every program through the columnar arena
(static wait->set matching, a flat program-order pass when every wait
matches backward, and a per-pipe queue drain otherwise).  This is the
original scheduler, kept verbatim: per-pipe in-order queues rescanned
until no pipe can make progress, with flags held in FIFO channels and
resolved at retire time.  It walks instruction objects row by row, so
it only drives small programs and the compiled test corpus, where its
traces, summaries and deadlock reports must match ``schedule`` /
``schedule_summary`` exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.core.costs import CostModel
from repro.core.engine import _DISPATCH_PER_CYCLE, _raise_deadlock, \
    _sync_injected
from repro.core.trace import ExecutionTrace, TraceEvent
from repro.isa.channels import pack_channel as _pack_channel
from repro.isa.instructions import Instruction, SetFlag, WaitFlag
from repro.isa.pipes import Pipe
from repro.isa.program import Program
from repro.reliability.deadlock import PipeStall
from repro.reliability.injector import active_injector

__all__ = ["schedule_fixpoint"]

_Channel = Tuple[Pipe, Pipe, int]


def schedule_fixpoint(program: Program, costs: CostModel) -> ExecutionTrace:
    """The original rescan-to-fixpoint scheduler (reference oracle)."""
    queues: Dict[Pipe, Deque[Tuple[int, Instruction]]] = {p: deque() for p in Pipe}
    for index, instr in enumerate(program):
        queues[instr.pipe].append((index, instr))

    pipe_time: Dict[Pipe, int] = {p: 0 for p in Pipe}
    # Completed set_flag times waiting to be consumed, FIFO per channel.
    flags: Dict[_Channel, Deque[int]] = {}
    events: List[TraceEvent] = []

    remaining = len(program)
    while remaining:
        progress = False
        for pipe in Pipe:
            queue = queues[pipe]
            while queue:
                index, instr = queue[0]
                dispatch_ready = index // _DISPATCH_PER_CYCLE
                start = max(pipe_time[pipe], dispatch_ready)
                if isinstance(instr, WaitFlag):
                    channel = (instr.src_pipe, instr.dst_pipe, instr.event_id)
                    pending = flags.get(channel)
                    if not pending:
                        break  # stalled: producer has not signalled yet
                    start = max(start, pending.popleft())
                end = start + costs.cost(instr)
                if isinstance(instr, SetFlag):
                    channel = (instr.src_pipe, instr.dst_pipe, instr.event_id)
                    flags.setdefault(channel, deque()).append(end)
                pipe_time[pipe] = end
                events.append(TraceEvent(index, instr, pipe, start, end))
                queue.popleft()
                remaining -= 1
                progress = True
        if not progress:
            # Watchdog: same wait-for-graph diagnosis as the fast drains.
            pending: Dict[int, int] = {}
            for queue in queues.values():
                for i, instr in queue:
                    if isinstance(instr, SetFlag):
                        ch = _pack_channel(instr.src_pipe, instr.dst_pipe,
                                           instr.event_id)
                        if ch not in pending or i < pending[ch]:
                            pending[ch] = i
            stalls = []
            for pipe, queue in queues.items():
                if not queue:
                    continue
                i, instr = queue[0]
                kind = type(instr).__name__
                if isinstance(instr, WaitFlag):
                    ch = _pack_channel(instr.src_pipe, instr.dst_pipe,
                                       instr.event_id)
                    producer = pending.get(ch)
                    stalls.append(PipeStall(
                        pipe=str(pipe), index=i, kind=kind, channel=ch,
                        producer_index=producer,
                        never_set=producer is None))
                else:
                    stalls.append(PipeStall(pipe=str(pipe), index=i,
                                            kind=kind))
            _raise_deadlock(stalls, _sync_injected(active_injector()))

    events.sort(key=lambda e: (e.start, e.end, e.index))
    return ExecutionTrace(events=events)
