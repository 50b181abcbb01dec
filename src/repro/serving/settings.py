"""The ``REPRO_SERVE_PREDICT`` environment switch.

``1`` prices engine steps with the learned cycle predictor
(:mod:`repro.perf.predictor`) instead of compiling + scheduling each
(phase, batch, context) bucket.  Off by default: reported numbers are
simulated unless explicitly opted in.  The campaign's parameters
(policy, batch ceiling, KV fraction) are :class:`ServeSpec` fields, not
environment knobs.

Parsing is strict (:mod:`repro.config.env`): a garbage value raises
:class:`~repro.errors.ConfigError` naming the variable instead of
silently changing what a campaign measures.
"""

from __future__ import annotations

from ..config.env import env_flag

__all__ = ["serve_predict"]


def serve_predict() -> bool:
    """Whether step costs come from the predictor fast tier (default off)."""
    return env_flag("REPRO_SERVE_PREDICT", default=False)
