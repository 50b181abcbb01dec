"""Iteration-level serving schedulers over the compiled cost model.

Two batching disciplines over the *same* offered trace:

* **continuous** (Orca-style iteration-level scheduling): admission runs
  at every engine iteration — a request that finishes its generation
  frees its batch slot and KV reservation immediately, and a queued
  request can join mid-flight.  Admission order is the configured policy
  (FCFS or shortest-prefill-first), per-tenant contention is arbitrated
  through the MPAM/QoS machinery (floors, ceilings, priorities), and
  the KV ledger is the hard capacity gate.
* **static** (the classic baseline): requests are admitted only at batch
  boundaries; the whole batch then runs to the *longest* member's
  completion, with every decode step priced at the full admitted batch
  width — finished requests pad the batch, which is exactly the goodput
  loss continuous batching removes.

The simulator is a pure function of (trace, spec, cost model): integer
cycle arithmetic end to end, tenants iterated in sorted order, no
wall-clock — two runs of the same campaign produce byte-identical
reports (``ServeReport.digest()`` pins this in CI).
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..config.core_configs import CoreConfig
from ..config.soc_configs import SocConfig
from ..dtypes import DType, FP16
from ..errors import ConfigError, SchedulingError
from ..models.gpt import GptConfig
from ..profiling.counters import PerfCounters
from ..profiling.manifest import RunManifest
from .kvcache import KvCapacity, KvLedger
from .metrics import latency_summary
from .request import Request, RequestState
from .stepcost import StepCostModel
from .traffic import TenantSpec, generate_trace

__all__ = ["ServeSpec", "ServeReport", "simulate_serving", "MODES",
           "POLICIES"]

MODES = ("continuous", "static")
POLICIES = ("fcfs", "spf")


@dataclass(frozen=True)
class ServeSpec:
    """One serving campaign: model x design point x tenants x knobs.

    ``policy`` is the admission order (``fcfs`` arrival order or ``spf``
    shortest-prefill-first), ``max_batch`` the in-flight request ceiling
    per engine iteration, and ``kv_fraction`` the share of post-weight
    DRAM the KV cache may occupy.  They are plain fields: no environment
    variable fills or overrides them.
    """

    model: GptConfig
    core: CoreConfig
    soc: SocConfig
    tenants: Tuple[TenantSpec, ...]
    seed: int = 0
    policy: str = "fcfs"
    max_batch: int = 32
    kv_fraction: float = 0.3
    dtype: DType = FP16

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("a serving campaign needs at least one tenant")
        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; known: {POLICIES}")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")


@dataclass
class ServeReport:
    """Outcome of one campaign, ready for artifacts and CI gates."""

    payload: Dict[str, object]
    counters: Optional[PerfCounters] = None
    manifest: Optional[RunManifest] = None

    def to_dict(self) -> dict:
        out = dict(self.payload)
        if self.counters is not None:
            out["counters"] = self.counters.to_dict()
        if self.manifest is not None:
            out["manifest"] = self.manifest.to_dict()
        return out

    def digest(self) -> str:
        """sha256 over the deterministic metrics payload.

        The manifest (git state, platform, cache hit counts) and the
        counters are provenance, not results — two byte-identical
        campaigns on different machines share a digest.
        """
        canonical = json.dumps(self.payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # Convenience accessors for gates/tests.
    @property
    def aggregate(self) -> dict:
        return self.payload["aggregate"]  # type: ignore[return-value]

    @property
    def tenants(self) -> dict:
        return self.payload["tenants"]  # type: ignore[return-value]

    def goodput_rps(self) -> float:
        return float(self.aggregate["goodput_rps"])


def _policy_key(policy: str):
    if policy == "spf":
        return lambda st: (st.request.prefill_tokens,
                           st.request.arrival_cycles,
                           st.request.tenant, st.request.index)
    return lambda st: (st.request.arrival_cycles, st.request.tenant,
                       st.request.index)


class _RequestClass:
    """The queued requests of one (tenant, prefill, decode) class.

    Every member has the same KV need and the same ``feasible_ever``
    verdict, and arrival order is policy order inside a class (both
    policy keys reduce to (arrival, index) once tenant and prompt length
    are fixed).  ``queue`` holds (policy key, state) pairs.
    """

    __slots__ = ("order", "tenant", "need", "feasible", "queue")

    def __init__(self, order: int, tenant: str, need: int,
                 feasible: bool) -> None:
        self.order = order
        self.tenant = tenant
        self.need = need
        self.feasible = feasible
        self.queue: Deque[Tuple[tuple, RequestState]] = deque()

    def head(self) -> Tuple[tuple, int, "_RequestClass"]:
        """Heap entry: the head's policy key, then a unique tie-break."""
        return self.queue[0][0], self.order, self


class _Campaign:
    """One simulation run; see :func:`simulate_serving`."""

    def __init__(self, spec: ServeSpec, mode: str, cost_model,
                 trace: Optional[Sequence[Request]]) -> None:
        if mode not in MODES:
            raise ConfigError(f"unknown serving mode {mode!r}; known: {MODES}")
        self.spec = spec
        self.mode = mode
        self.cost = cost_model if cost_model is not None else StepCostModel(
            spec.model, spec.core, dtype=spec.dtype)
        self.capacity = KvCapacity.for_design_point(
            spec.model, spec.core, spec.soc, spec.kv_fraction, spec.dtype)
        self.ledger = KvLedger(self.capacity, spec.tenants)
        self.trace = list(trace) if trace is not None else generate_trace(
            spec.tenants, spec.seed, spec.core.frequency_hz)
        self.bpt = self.capacity.bytes_per_token
        self.clock = 0
        self.running: List[RequestState] = []
        self.finished: List[RequestState] = []
        self.rejected: List[RequestState] = []
        self.static_width = 0
        self.iterations = 0
        self.prefill_steps = 0
        self.decode_steps = 0
        self._sort_key = _policy_key(spec.policy)
        # The admission queue: one FIFO per request class, the number of
        # queued requests, and each tenant's queued KV bytes (the QoS
        # demand), all kept current on arrival, admission and rejection.
        self._classes: Dict[Tuple[str, int, int], _RequestClass] = {}
        self._queued = 0
        self._demand: Dict[str, int] = {
            name: 0 for name in sorted(t.name for t in spec.tenants)}
        # The cost model may be shared across campaigns (so continuous
        # and static price from the same compiled buckets); invocation
        # accounting in the report must still be per-campaign.
        self._invocations_baseline = (dict(self.cost.invocations())
                                      if hasattr(self.cost, "invocations")
                                      else {})

    # -- admission ------------------------------------------------------------

    def _enqueue(self, request: Request) -> None:
        need = request.kv_bytes(self.bpt)
        feasible = self.ledger.feasible_ever(request.tenant, need)
        key = (request.tenant, request.prefill_tokens,
               request.decode_tokens)
        cls = self._classes.get(key)
        if cls is None:
            cls = _RequestClass(len(self._classes), request.tenant, need,
                                feasible)
            self._classes[key] = cls
        st = RequestState(request)
        cls.queue.append((self._sort_key(st), st))
        self._queued += 1
        self._demand[request.tenant] += need

    def _dequeue(self, cls: _RequestClass) -> RequestState:
        st = cls.queue.popleft()[1]
        self._queued -= 1
        self._demand[cls.tenant] -= cls.need
        return st

    def _start(self, cls: _RequestClass) -> None:
        """Admit the head of ``cls``; its KV is already reserved."""
        st = self._dequeue(cls)
        st.admitted_cycles = self.clock
        st.kv_reserved_bytes = cls.need
        self.running.append(st)

    def _qos_budgets(self) -> Optional[Dict[str, float]]:
        """Per-tenant byte budgets for this admission round.

        With two or more tenants contending, the round's budgets come
        from one MPAM arbitration over the KV capacity: floors first,
        then priority-weighted proportional shares up to each ceiling —
        soc.qos semantics, applied to cache bytes instead of DRAM
        bandwidth.  A single demanding tenant needs no arbitration.
        """
        demands = {name: float(queued)
                   for name, queued in self._demand.items() if queued}
        if len(demands) < 2:
            return None
        return dict(self.ledger.arbiter.arbitrate(demands).granted)

    def _admit(self) -> None:
        """One admission round over the queued requests in policy order.

        The round heap-merges the class heads, so it costs
        O(classes · log classes + requests admitted or rejected), not
        O(queue).  That is exact because within a round a tenant's room
        (ledger availability and QoS budget) only shrinks: once it
        misses at need *n*, every queued need >= *n* of that tenant
        misses too, so those classes drop out of the round unvisited.
        An infeasible request is rejected when the merge reaches it
        while slots remain — the same moment a full scan would.
        """
        slots = self.spec.max_batch - len(self.running)
        if slots <= 0 or not self._queued:
            return
        budgets = self._qos_budgets()
        heads = [cls.head() for cls in self._classes.values() if cls.queue]
        heapq.heapify(heads)
        missed: Dict[str, int] = {}
        while heads:
            cls = heads[0][2]
            tenant, need = cls.tenant, cls.need
            if not cls.feasible:
                # Can never fit, not even on an idle system inside its
                # tenant's MPAM envelope.
                st = self._dequeue(cls)
                st.rejected_cycles = self.clock
                self.ledger.note_rejected()
                self.rejected.append(st)
            elif (need >= missed.get(tenant, need + 1)
                  or (budgets is not None
                      and need > budgets.get(tenant, 0.0))
                  or not self.ledger.try_reserve(tenant, need)):
                missed[tenant] = min(need, missed.get(tenant, need))
                heapq.heappop(heads)
                continue
            else:
                self._start(cls)
                slots -= 1
                if budgets is not None:
                    budgets[tenant] = budgets.get(tenant, 0.0) - need
                if slots <= 0:
                    break
            if cls.queue:
                heapq.heapreplace(heads, cls.head())
            else:
                heapq.heappop(heads)
        # Progress guarantee: an idle engine must never spin on QoS
        # round budgets alone — force the first class head, in policy
        # order, that the ledger (which still enforces floors/ceilings)
        # accepts.
        if not self.running and self._queued:
            for _, _, cls in sorted(c.head() for c in self._classes.values()
                                    if c.queue):
                if self.ledger.try_reserve(cls.tenant, cls.need):
                    self._start(cls)
                    break

    # -- the engine loop ------------------------------------------------------

    def run(self) -> None:
        # Arrival ties enter in (tenant, index) order, so each class
        # queue stays in policy order.
        arrivals = sorted(self.trace, key=lambda r: (r.arrival_cycles,
                                                     r.tenant, r.index))
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
                self._enqueue(arrivals[cursor])
                cursor += 1
            if not self.running and not self._queued:
                # Idle: jump to the next arrival.
                self.clock = max(self.clock, arrivals[cursor].arrival_cycles)
                continue
            if self.mode == "continuous" or not self.running:
                self._admit()
                if self.mode == "static":
                    self.static_width = len(self.running)
            if not self.running:
                # Everything queued was rejected this round; loop.
                continue
            self._step()

    def _step(self) -> None:
        self.iterations += 1
        # Admission appends to ``running`` and every step prefills all
        # it admitted, so the requests still to prefill are its suffix.
        prefilling: List[RequestState] = []
        decoding: List[RequestState] = []
        for st in self.running:
            (decoding if st.prefilled else prefilling).append(st)
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
        for st in decoding:
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
        self.running = still_running + prefilling
        if self.mode == "static" and not self.running:
            self.static_width = 0

    # -- reporting ------------------------------------------------------------

    def report(self, with_manifest: bool = True,
               with_counters: bool = True) -> ServeReport:
        freq = self.spec.core.frequency_hz
        makespan_cycles = self.clock
        makespan_s = makespan_cycles / freq

        def _tenant_block(name: str) -> dict:
            spec = next(t for t in self.spec.tenants if t.name == name)
            done = [st for st in self.finished if st.request.tenant == name]
            rej = [st for st in self.rejected if st.request.tenant == name]
            latencies = [st.latency_cycles() for st in done]
            ttfts = [st.ttft_cycles() for st in done]
            slo = spec.slo_cycles(freq)
            met = sum(1 for lat in latencies if lat <= slo)
            terminal = len(done) + len(rej)
            tokens = sum(st.request.decode_tokens for st in done)
            return {
                "offered": sum(1 for r in self.trace if r.tenant == name),
                "completed": len(done),
                "rejected": len(rej),
                "slo_cycles": slo,
                "slo_met": met,
                "slo_attainment": (met / terminal) if terminal else 0.0,
                "latency": latency_summary(latencies),
                "ttft": latency_summary(ttfts),
                "goodput_rps": met / makespan_s if makespan_s else 0.0,
                "throughput_rps": (len(done) / makespan_s
                                   if makespan_s else 0.0),
                "generated_tokens": tokens,
                "tokens_per_s": tokens / makespan_s if makespan_s else 0.0,
            }

        names = sorted(t.name for t in self.spec.tenants)
        tenants = {name: _tenant_block(name) for name in names}
        all_lat = [st.latency_cycles() for st in self.finished]
        all_ttft = [st.ttft_cycles() for st in self.finished]
        total_met = sum(t["slo_met"] for t in tenants.values())
        total_tokens = sum(t["generated_tokens"] for t in tenants.values())
        terminal = len(self.finished) + len(self.rejected)
        aggregate = {
            "offered": len(self.trace),
            "completed": len(self.finished),
            "rejected": len(self.rejected),
            "slo_met": total_met,
            "slo_attainment": (total_met / terminal) if terminal else 0.0,
            "latency": latency_summary(all_lat),
            "ttft": latency_summary(all_ttft),
            "goodput_rps": total_met / makespan_s if makespan_s else 0.0,
            "throughput_rps": (len(self.finished) / makespan_s
                               if makespan_s else 0.0),
            "generated_tokens": total_tokens,
            "tokens_per_s": total_tokens / makespan_s if makespan_s else 0.0,
        }
        steps = {
            "iterations": self.iterations,
            "prefill_steps": self.prefill_steps,
            "decode_steps": self.decode_steps,
        }
        if hasattr(self.cost, "invocations"):
            baseline = self._invocations_baseline
            used = {label: count - baseline.get(label, 0)
                    for label, count in self.cost.invocations().items()
                    if count - baseline.get(label, 0) > 0}
            steps["distinct_buckets"] = len(used)
            steps["invocations"] = used
        payload: Dict[str, object] = {
            "schema": 1,
            "mode": self.mode,
            "policy": self.spec.policy,
            "seed": self.spec.seed,
            "model": self.spec.model.name,
            "core": self.spec.core.name,
            "soc": self.spec.soc.name,
            "max_batch": self.spec.max_batch,
            "cost_tier": ("predicted"
                          if getattr(self.cost, "use_predictor", False)
                          else "simulated"),
            "makespan_cycles": makespan_cycles,
            "makespan_s": makespan_s,
            "kv": {
                "bytes_per_token": self.capacity.bytes_per_token,
                "onchip_bytes": self.capacity.onchip_bytes,
                "gm_bytes": self.capacity.gm_bytes,
                "weight_bytes": self.capacity.weight_bytes,
                "total_bytes": self.capacity.total_bytes,
                "token_capacity": self.capacity.token_capacity,
                "peak_reserved_bytes": self.ledger.peak_reserved,
                "peak_resident_bytes": self.ledger.peak_resident,
            },
            "steps": steps,
            "tenants": tenants,
            "aggregate": aggregate,
        }
        counters = None
        if with_counters and hasattr(self.cost, "aggregate_counters"):
            if hasattr(self.cost, "invocations"):
                counters = self.cost.aggregate_counters(
                    self._invocations_baseline)
            else:
                counters = self.cost.aggregate_counters()
        manifest = None
        if with_manifest:
            manifest = RunManifest.collect(
                model=self.spec.model.name,
                config=f"{self.spec.core.name}/{self.spec.soc.name}",
                extras={"mode": self.mode, "policy": self.spec.policy,
                        "seed": self.spec.seed,
                        "tenants": names,
                        "offered": len(self.trace)},
            )
        return ServeReport(payload=payload, counters=counters,
                           manifest=manifest)


def simulate_serving(spec: ServeSpec, mode: str = "continuous",
                     cost_model=None,
                     trace: Optional[Sequence[Request]] = None,
                     with_manifest: bool = True,
                     with_counters: bool = True) -> ServeReport:
    """Run one serving campaign and return its report.

    ``cost_model`` defaults to a fresh :class:`StepCostModel` for the
    spec's (model, core); tests inject duck-typed stand-ins, and
    benchmark sweeps share one instance across modes so both schedulers
    price steps from the same compiled buckets.  ``trace`` overrides the
    generated arrival trace; requests enter in (arrival, tenant, index)
    order whatever its order.
    """
    campaign = _Campaign(spec, mode, cost_model, trace)
    campaign.run()
    return campaign.report(with_manifest=with_manifest,
                           with_counters=with_counters)
