"""Class-queue admission against the flat pending-list reference.

Production admission (``scheduler.py``) heap-merges per-class queue
heads; ``reference_scheduler.py`` keeps the flat list it replaced.  For
any tenant mix, policy, batch ceiling, mode and seed the two must
produce byte-identical reports.  The mixes deliberately include classes
too large for their tenant's MPAM envelope, so the rule for *when* an
infeasible request is rejected — only while a round still has free
slots — shows up in the digest through the QoS demand it holds while
queued.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.core_configs import core_config_by_name
from repro.config.soc_configs import soc_config_by_name
from repro.models.gpt import GPT_TINY
from repro.serving import ServeSpec, TenantSpec, simulate_serving
from repro.serving.cli import default_tenants, smoke_spec
from repro.serving.traffic import generate_trace

from .reference_scheduler import simulate_reference

CORE = core_config_by_name("ascend-mini")
SOC = soc_config_by_name("ascend-310")


class ShapedCost:
    """Arithmetic step costs that grow with batch width and context, so
    admission decisions move the clock the way compiled buckets do."""

    def prefill_cycles(self, tokens):
        return 2_000 + 90 * tokens

    def decode_cycles(self, batch, max_context):
        return 30_000 + 4_000 * batch + 20 * max_context


def _both(spec, mode, trace=None):
    fast = simulate_serving(spec, mode=mode, cost_model=ShapedCost(),
                            trace=trace, with_manifest=False,
                            with_counters=False)
    ref = simulate_reference(spec, mode=mode, cost_model=ShapedCost(),
                             trace=trace)
    return fast, ref


# gpt-tiny on ascend-310 with on-chip KV holds 2,688 tokens.  A 5%
# ceiling (134 tokens) makes the long classes infeasible while the short
# ones still fit; another tenant's 25% floor alone (room 2,016 tokens)
# does the same to 2,048-token prompts, whose queued bytes then weigh
# heavily in the QoS arbitration until they are rejected.
_envelope = st.sampled_from([(0.0, 1.0), (0.0, 0.05), (0.0, 0.3),
                             (0.1, 0.3), (0.25, 1.0), (0.25, 0.5)])


@st.composite
def _tenant(draw, name):
    floor, ceiling = draw(_envelope)
    return TenantSpec(
        name=name,
        rate_rps=draw(st.floats(min_value=200.0, max_value=40_000.0)),
        requests=draw(st.integers(min_value=1, max_value=30)),
        prefill_choices=draw(st.sampled_from(
            [(16,), (32, 64), (16, 512), (64, 128, 1024), (32, 2048)])),
        decode_choices=draw(st.sampled_from([(2,), (4, 8), (8, 64)])),
        slo_ms=draw(st.floats(min_value=0.1, max_value=50.0)),
        priority=draw(st.integers(min_value=0, max_value=2)),
        critical=draw(st.booleans()),
        kv_floor=floor, kv_ceiling=ceiling)


@st.composite
def _mix(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    return tuple(draw(_tenant(f"t{i}")) for i in range(count))


@given(tenants=_mix(),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       mode=st.sampled_from(["continuous", "static"]),
       policy=st.sampled_from(["fcfs", "spf"]),
       max_batch=st.integers(min_value=1, max_value=16))
@settings(max_examples=150, deadline=None)
def test_digest_matches_reference(tenants, seed, mode, policy, max_batch):
    spec = ServeSpec(model=GPT_TINY, core=CORE, soc=SOC, tenants=tenants,
                     seed=seed, policy=policy, max_batch=max_batch,
                     kv_fraction=0.0)
    fast, ref = _both(spec, mode)
    assert fast.payload == ref.payload
    assert fast.digest() == ref.digest()


@pytest.mark.parametrize("policy", ["fcfs", "spf"])
@pytest.mark.parametrize("max_batch", [1, 4, 16])
@pytest.mark.parametrize("mode", ["continuous", "static"])
@pytest.mark.parametrize("rate_scale", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_smoke_mix_matches_reference(policy, max_batch, mode, rate_scale,
                                     seed):
    """The serve-smoke tenant mix (chat floor, batch ceiling, unequal
    priorities) from an idle queue to a deep one."""
    spec = replace(smoke_spec(), tenants=default_tenants(60, rate_scale),
                   seed=seed, policy=policy, max_batch=max_batch)
    fast, ref = _both(spec, mode)
    assert fast.digest() == ref.digest()


def test_rejection_waits_for_a_round_with_free_slots():
    """A flood fills the one slot; the infeasible requests queued behind
    it are rejected only when a round reaches them with a slot free, and
    until then their bytes count in the QoS demand that sets the other
    tenants' budgets."""
    flood = TenantSpec(name="flood", rate_rps=20_000.0, requests=20,
                       prefill_choices=(64,), decode_choices=(8,),
                       kv_ceiling=0.3)
    capped = TenantSpec(name="capped", rate_rps=20_000.0, requests=20,
                        prefill_choices=(16, 512), decode_choices=(8,),
                        kv_ceiling=0.05)
    big = TenantSpec(name="big", rate_rps=10_000.0, requests=20,
                     prefill_choices=(64, 2048), decode_choices=(8,))
    vip = TenantSpec(name="vip", rate_rps=10_000.0, requests=20,
                     prefill_choices=(32, 128), decode_choices=(8, 64),
                     priority=2, kv_floor=0.25)
    for max_batch in (1, 2, 3):
        spec = ServeSpec(model=GPT_TINY, core=CORE, soc=SOC,
                         tenants=(flood, capped, big, vip), seed=5,
                         policy="fcfs", max_batch=max_batch,
                         kv_fraction=0.0)
        for mode in ("continuous", "static"):
            fast, ref = _both(spec, mode)
            assert fast.tenants["capped"]["rejected"] > 0
            assert fast.tenants["big"]["rejected"] > 0
            assert fast.digest() == ref.digest(), (max_batch, mode)


def test_unsorted_trace_ties_enter_in_policy_order():
    """Same-cycle arrivals of one class listed out of index order still
    join their class queue in policy order."""
    spec = ServeSpec(model=GPT_TINY, core=CORE, soc=SOC,
                     tenants=default_tenants(40, 4.0), seed=3,
                     policy="spf", max_batch=4, kv_fraction=0.0)
    trace = generate_trace(spec.tenants, spec.seed, CORE.frequency_hz)
    tied = [replace(r, arrival_cycles=r.arrival_cycles // 10**7 * 10**7)
            for r in reversed(trace)]
    tied.sort(key=lambda r: r.arrival_cycles)
    fast, ref = _both(spec, "continuous", trace=tied)
    assert fast.digest() == ref.digest()
