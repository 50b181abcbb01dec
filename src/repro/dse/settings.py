"""The ``REPRO_DSE_*`` environment knobs: where a search writes, and a
test-only kill switch.

``REPRO_DSE_DIR`` moves the checkpoint/artifact directory.
``REPRO_DSE_KILL_AT`` is a fault-injection knob for the resume test
suite: the engine calls ``os._exit(137)`` mid-generation when the search
reaches that generation index, simulating a hard kill between two
checkpoints.  Unset or empty means the default; anything else must parse
exactly or the run dies with a :class:`~repro.errors.ConfigError` naming
the variable.  What a search explores (strategy, population,
generations, promotion window) is a :class:`~repro.dse.engine.SearchSpec`
field, never an environment knob.
"""

from __future__ import annotations

import os
from typing import Optional

from ..config.env import env_int

__all__ = ["dse_dir", "dse_kill_at"]

_ENV_DIR = "REPRO_DSE_DIR"
_DEFAULT_DIR = os.path.join("benchmarks", "results", "dse")


def dse_dir() -> str:
    """Checkpoint/artifact directory (``REPRO_DSE_DIR`` overrides)."""
    raw = os.environ.get(_ENV_DIR)
    return raw if raw and raw.strip() else _DEFAULT_DIR


def dse_kill_at() -> Optional[int]:
    """Test-only fault knob: hard-exit mid-generation at this index."""
    return env_int("REPRO_DSE_KILL_AT", default=None, minimum=0)
