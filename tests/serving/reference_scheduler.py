"""The flat pending-list scheduler: reference oracle for ``scheduler.py``.

Production admission keeps one queue per request class and heap-merges
their heads each round.  This is the scheduler it replaced, kept
verbatim: one ``pending`` list, re-sorted and fully re-scanned every
round, with per-tenant QoS demand re-summed from the whole queue.  It
costs O(queue) per round, so it only drives small campaigns in tests,
where ``ServeReport.digest()`` of both must match byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import SchedulingError
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import ServeReport, ServeSpec, _Campaign

__all__ = ["simulate_reference"]


class ReferenceCampaign(_Campaign):
    """Shares set-up, the ledger and reporting; re-implements the queue,
    the admission round, the engine loop and the step."""

    def __init__(self, spec: ServeSpec, mode: str, cost_model,
                 trace: Optional[Sequence[Request]]) -> None:
        super().__init__(spec, mode, cost_model, trace)
        self.pending: List[RequestState] = []

    def _qos_budgets(self) -> Optional[Dict[str, float]]:
        """Per-tenant byte budgets for this admission round.

        With two or more tenants contending, the round's budgets come
        from one MPAM arbitration over the KV capacity: floors first,
        then priority-weighted proportional shares up to each ceiling —
        soc.qos semantics, applied to cache bytes instead of DRAM
        bandwidth.  A single demanding tenant needs no arbitration.
        """
        demands: Dict[str, float] = {}
        for st in self.pending:
            need = float(st.request.kv_bytes(self.bpt))
            demands[st.request.tenant] = demands.get(st.request.tenant,
                                                     0.0) + need
        if len(demands) < 2:
            return None
        ordered = {name: demands[name] for name in sorted(demands)}
        return dict(self.ledger.arbiter.arbitrate(ordered).granted)

    def _admit(self) -> None:
        slots = self.spec.max_batch - len(self.running)
        if slots <= 0 or not self.pending:
            return
        self.pending.sort(key=self._sort_key)
        budgets = self._qos_budgets()
        kept: List[RequestState] = []
        for st in self.pending:
            tenant = st.request.tenant
            need = st.request.kv_bytes(self.bpt)
            if slots <= 0:
                kept.append(st)
                continue
            if not self.ledger.feasible_ever(tenant, need):
                # This request can never fit — not even on an idle
                # system inside its tenant's MPAM envelope.
                st.rejected_cycles = self.clock
                self.ledger.note_rejected()
                self.rejected.append(st)
                continue
            over_budget = (budgets is not None
                           and need > budgets.get(tenant, 0.0))
            if not over_budget and self.ledger.try_reserve(tenant, need):
                st.admitted_cycles = self.clock
                st.kv_reserved_bytes = need
                self.running.append(st)
                slots -= 1
                if budgets is not None:
                    budgets[tenant] = budgets.get(tenant, 0.0) - need
            else:
                kept.append(st)
        self.pending = kept
        # Progress guarantee: an idle engine must never spin on QoS
        # round budgets alone — force the head-of-line feasible request
        # through the ledger (which still enforces floors/ceilings).
        if not self.running and self.pending:
            for st in list(self.pending):
                tenant = st.request.tenant
                need = st.request.kv_bytes(self.bpt)
                if self.ledger.try_reserve(tenant, need):
                    st.admitted_cycles = self.clock
                    st.kv_reserved_bytes = need
                    self.running.append(st)
                    self.pending.remove(st)
                    break

    # -- the engine loop ------------------------------------------------------

    def run(self) -> None:
        arrivals = self.trace
        cursor = 0
        offered = len(arrivals)
        guard = 0
        while len(self.finished) + len(self.rejected) < offered:
            guard += 1
            if guard > 100 * offered + 1000:
                raise SchedulingError(
                    "serving simulation failed to make progress "
                    f"({len(self.finished)} done, {len(self.rejected)} "
                    f"rejected of {offered})")
            while (cursor < offered
                   and arrivals[cursor].arrival_cycles <= self.clock):
                self.pending.append(RequestState(arrivals[cursor]))
                cursor += 1
            if not self.running and not self.pending:
                # Idle: jump to the next arrival.
                self.clock = max(self.clock, arrivals[cursor].arrival_cycles)
                continue
            if self.mode == "continuous" or not self.running:
                self._admit()
                if self.mode == "static":
                    self.static_width = len(self.running)
            if not self.running:
                # Everything pending was rejected this round; loop.
                continue
            self._step()

    def _step(self) -> None:
        self.iterations += 1
        prefilling = [st for st in self.running if not st.prefilled]
        decoding = [st for st in self.running if st.prefilled]
        step_cycles = 0
        if prefilling:
            total_tokens = sum(st.request.prefill_tokens for st in prefilling)
            step_cycles += self.cost.prefill_cycles(total_tokens)
            self.prefill_steps += 1
        if decoding:
            width = (self.static_width if self.mode == "static"
                     else len(decoding))
            max_context = max(st.context_tokens for st in decoding)
            step_cycles += self.cost.decode_cycles(max(width, len(decoding)),
                                                   max_context)
            self.decode_steps += 1
        if step_cycles <= 0:
            raise SchedulingError("engine step priced at zero cycles")
        self.clock += step_cycles
        for st in prefilling:
            st.prefilled = True
            grown = st.request.prefill_tokens * self.bpt
            st.kv_resident_bytes += grown
            self.ledger.grow(st.request.tenant, grown)
        still_running: List[RequestState] = []
        for st in self.running:
            if st in prefilling:
                still_running.append(st)
                continue
            st.decoded += 1
            st.kv_resident_bytes += self.bpt
            self.ledger.grow(st.request.tenant, self.bpt)
            if st.decoded == 1:
                st.first_token_cycles = self.clock
            if st.decoded >= st.request.decode_tokens:
                st.finish_cycles = self.clock
                self.ledger.release(st.request.tenant, st.kv_reserved_bytes,
                                    st.kv_resident_bytes)
                self.finished.append(st)
            else:
                still_running.append(st)
        self.running = still_running
        if self.mode == "static" and not self.running:
            self.static_width = 0


def simulate_reference(spec: ServeSpec, mode: str = "continuous",
                       cost_model=None,
                       trace: Optional[Sequence[Request]] = None
                       ) -> ServeReport:
    """:func:`repro.serving.simulate_serving` through the reference."""
    campaign = ReferenceCampaign(spec, mode, cost_model, trace)
    campaign.run()
    return campaign.report(with_manifest=False, with_counters=False)
