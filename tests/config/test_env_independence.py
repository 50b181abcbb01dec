"""Run parameters live in specs and signatures, not the environment.

A search's population, a serving campaign's admission policy and a
triage shortlist's size are parameters of the result: they are spec
fields, CLI flags or function arguments with plain defaults.  Setting
``REPRO_*`` variables with the same names as those parameters, to other
values or to garbage, must change nothing.
"""

import argparse

import pytest

from repro.bench import triage_sweep
from repro.config.core_configs import core_config_by_name
from repro.config.soc_configs import soc_config_by_name
from repro.dse.cli import _add_search_args
from repro.models.gpt import GPT_TINY
from repro.serving import ServeSpec, TenantSpec, simulate_serving

NAMES = (
    "REPRO_DSE_POPULATION", "REPRO_DSE_GENERATIONS", "REPRO_DSE_TOPK",
    "REPRO_DSE_EPSILON", "REPRO_DSE_MAX_PROMOTE", "REPRO_DSE_STRATEGY",
    "REPRO_SERVE_POLICY", "REPRO_SERVE_MAX_BATCH", "REPRO_SERVE_KV_FRACTION",
    "REPRO_PREDICT_TOPK", "REPRO_PREDICT_EPSILON",
)
DIFFERING = ("7", "2", "1", "0.5", "3", "beam",
             "spf", "2", "0.9", "2", "0")
GARBAGE = ("lots", "-1", "zero", "nan%", "4x", "gradient-descent",
           "round-robin", "eight", "1.5", "0", "-0.5")


class _StubCost:
    """Arithmetic step costs: the digest pins scheduling, not compiling."""

    def prefill_cycles(self, tokens):
        return 100 * tokens

    def decode_cycles(self, batch, max_context):
        return 50_000


def _serve_digest():
    spec = ServeSpec(
        model=GPT_TINY, core=core_config_by_name("ascend-mini"),
        soc=soc_config_by_name("ascend-310"),
        tenants=(TenantSpec(name="a", rate_rps=4000.0, requests=40,
                            prefill_choices=(16, 64), decode_choices=(4, 8),
                            slo_ms=1.0),))
    return simulate_serving(spec, cost_model=_StubCost(),
                            with_manifest=False,
                            with_counters=False).digest()


def _shortlist():
    jobs = list(range(12))
    return triage_sweep(jobs, int, predicted=[float(j) for j in jobs],
                        max_workers=1).shortlist


def _dse_defaults():
    parser = argparse.ArgumentParser()
    _add_search_args(parser)
    return vars(parser.parse_args([]))


def _results():
    return _serve_digest(), _shortlist(), _dse_defaults()


@pytest.mark.parametrize("values", [DIFFERING, GARBAGE],
                         ids=["differing", "garbage"])
def test_environment_is_not_an_input(monkeypatch, values):
    for name in NAMES:
        monkeypatch.delenv(name, raising=False)
    expected = _results()
    assert expected[1] == list(range(8))  # the top-8 shortlist default
    for name, value in zip(NAMES, values):
        monkeypatch.setenv(name, value)
    assert _results() == expected
