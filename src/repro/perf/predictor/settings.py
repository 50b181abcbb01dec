"""The ``REPRO_PREDICT*`` environment knobs.

* ``REPRO_PREDICT`` — ``1`` enables the predictor fast tier in sweeps
  and benchmarks that support triage.  Off by default: published
  figure/table numbers are always simulated, and with the switch off
  not a single code path consults the predictor.
* ``REPRO_PREDICT_MODEL`` — path to the trained artifact JSON
  (default ``benchmarks/results/predictor_model.json``).

The shortlist size (``top_k``) and widening (``epsilon``) are arguments
of the triage functions (defaults in :mod:`repro.bench.triage`), not
environment knobs.  Parsing is strict (:mod:`repro.config.env`): garbage
values raise :class:`~repro.errors.ConfigError` instead of silently
changing what a sweep simulates.
"""

from __future__ import annotations

from ...config.env import env_flag

__all__ = ["predict_enabled"]


def predict_enabled() -> bool:
    """Whether the predictor fast tier is switched on (off by default)."""
    return env_flag("REPRO_PREDICT", default=False)
