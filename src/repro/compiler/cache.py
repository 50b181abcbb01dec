"""Persistent compile cache: content-addressed CompiledLayer summaries.

Compiling a layer group (lower + schedule) is pure: the resulting
statistics depend only on the workload, the core design point, and the
cost-model schema.  This module caches those statistics on disk keyed by
a content hash of exactly those inputs, so benchmark processes and the
test suite skip redundant lowering + scheduling across *process*
boundaries (the in-memory ``GraphEngine._GLOBAL_CACHE`` already handles
repeats within one process).

Layout: ``<cache dir>/v<SCHEMA_VERSION>/<sha256>.json``.  The cache dir
comes from ``REPRO_CACHE_DIR`` (default ``.repro_cache/``); setting
``REPRO_CACHE=0`` disables the persistent tier entirely.

Invalidation is versioned twice over: the schema version is part of both
the directory name and the hashed content, so any change to the cost
model, lowering, or payload shape is a clean miss — bump
``SCHEMA_VERSION`` whenever compiled statistics can change.  Corrupt or
unreadable entries are treated as misses, never errors: the cache must
lose races gracefully when parallel sweep workers share a directory.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, MutableMapping, Optional

__all__ = ["SCHEMA_VERSION", "enabled", "cache_dir", "content_key",
           "load", "store", "model_content_key", "load_model", "store_model",
           "quarantine_model",
           "note_memory_hit", "note_model_memory_hit", "stats", "reset_stats",
           "snapshot", "merge_stats",
           "LruCache", "memory_max_entries", "quarantine_dir",
           "timing_stats_bypassed"]

# Bump when lowering, the cost model, or the payload shape changes.
SCHEMA_VERSION = 1

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLE = "REPRO_CACHE"
_ENV_MAX_ENTRIES = "REPRO_CACHE_MAX_ENTRIES"
_DEFAULT_DIR = ".repro_cache"

_STATS = {"hits": 0, "misses": 0, "stores": 0, "errors": 0,
          "memory_hits": 0, "model_hits": 0, "model_stores": 0,
          "model_memory_hits": 0, "evictions": 0, "quarantined": 0,
          "fault_bypasses": 0}


def timing_stats_bypassed() -> bool:
    """Whether compiled-timing caches are suspended for fault injection.

    Stall and sync faults perturb schedules, so while such a campaign
    is active every stats tier (memory and persistent, layer and model)
    is bypassed in both directions: a cached clean schedule would mask
    the injected faults, and a faulted schedule must never be served to
    a later clean run.
    """
    from ..reliability.injector import active_injector

    inj = active_injector()
    if inj is None:
        return False
    if inj.has_stall_faults() or inj.has_sync_faults():
        _STATS["fault_bypasses"] += 1
        return True
    return False


def enabled() -> bool:
    """Whether the persistent tier is active (``REPRO_CACHE=0`` disables)."""
    from ..config.env import env_flag

    return env_flag(_ENV_ENABLE, default=True)


def cache_dir() -> Path:
    """Versioned cache directory (``REPRO_CACHE_DIR``/v<SCHEMA_VERSION>)."""
    base = os.environ.get(_ENV_DIR, _DEFAULT_DIR)
    return Path(base) / f"v{SCHEMA_VERSION}"


def memory_max_entries() -> Optional[int]:
    """Entry cap for the in-memory tiers (``REPRO_CACHE_MAX_ENTRIES``).

    None (the default) means unbounded — the historical behavior; ``0``
    requests unbounded explicitly.  A cap matters for long-lived sweep
    processes that compile thousands of distinct (design point,
    workload) pairs: each CompiledLayer is small, but whole-model
    entries hold full layer lists.  Invalid values (non-integers,
    negatives) raise :class:`~repro.errors.ConfigError` naming the
    variable instead of silently running unbounded.
    """
    from ..config.env import env_int

    cap = env_int(_ENV_MAX_ENTRIES, default=None, minimum=0)
    return cap if cap else None


def quarantine_dir() -> Path:
    """Where corrupt artifacts are moved for post-mortem inspection."""
    return cache_dir() / "quarantine"


def _quarantine(path: Path) -> None:
    """Move a corrupt artifact aside so the next lookup recompiles.

    Retry-with-quarantine: a truncated or garbled entry (torn write from
    a crashed worker, disk corruption, an injected cache fault) must
    never crash compilation *or* keep poisoning every subsequent read.
    Failures here degrade to the plain miss path.
    """
    try:
        directory = quarantine_dir()
        directory.mkdir(parents=True, exist_ok=True)
        os.replace(path, directory / path.name)
        _STATS["quarantined"] += 1
    except OSError:
        _STATS["errors"] += 1


class LruCache(MutableMapping):
    """A dict with least-recently-used eviction for the in-memory tiers.

    The cap is re-read from the environment on every insertion so tests
    (and long-lived processes) can tighten it at runtime; evictions are
    counted in :func:`stats`.  With no cap configured this is an ordinary
    dict with access-order bookkeeping.
    """

    def __init__(self) -> None:
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    def __getitem__(self, key: Any) -> Any:
        value = self._data[key]
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        cap = memory_max_entries()
        if cap is not None:
            while len(data) > cap:
                data.popitem(last=False)
                _STATS["evictions"] += 1

    def __delitem__(self, key: Any) -> None:
        del self._data[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default


def _canonical(obj: Any) -> Any:
    """JSON-stable form of the hashed inputs.

    Dataclasses become ``{type name: {field: value}}`` so renaming a type
    or field invalidates; enums hash by name; anything else non-JSON
    (e.g. ``np.dtype``) by ``str()``.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.name
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {type(obj).__name__: fields}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    return str(obj)


def _workload_canonical(work: Any) -> Any:
    """Canonical workload form with the top-level ``name`` dropped.

    Compiled statistics depend only on a workload's *structure* (gemms,
    vector work, byte counts) — never on what the layer is called: every
    hit path reattaches the caller's name via ``GraphEngine._relabel``.
    Hashing structure only dedupes identically-shaped layers (the 12/24
    transformer blocks of BERT compile once, not per layer).
    """
    canon = _canonical(work)
    if isinstance(canon, dict):
        for fields in canon.values():
            if isinstance(fields, dict):
                fields.pop("name", None)
    return canon


def content_key(config: Any, work: Any, a_bytes_scale: float = 1.0,
                weight_density: Optional[float] = None) -> str:
    """sha256 over (schema, core design point, workload structure,
    lowering knobs).  The workload's name is deliberately excluded — see
    :func:`_workload_canonical`."""
    blob = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "config": _canonical(config),
            "workload": _workload_canonical(work),
            "a_bytes_scale": a_bytes_scale,
            "weight_density": weight_density,
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def load(key: str) -> Optional[Dict[str, Any]]:
    """Payload for ``key``, or None on miss/corruption/schema mismatch."""
    if not enabled():
        return None
    path = cache_dir() / f"{key}.json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        _STATS["misses"] += 1
        return None
    except ValueError:
        # Corrupt artifact: quarantine it and recompile instead of
        # crashing (or re-reading the same garbage forever).
        _STATS["errors"] += 1
        _quarantine(path)
        return None
    except OSError:
        _STATS["errors"] += 1
        return None
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
        _STATS["misses"] += 1
        return None
    _STATS["hits"] += 1
    return payload


def store(key: str, payload: Dict[str, Any]) -> None:
    """Atomically persist ``payload`` (write-to-temp + rename).

    Atomic replace keeps concurrent sweep workers from ever observing a
    torn entry; failures are counted but never raised — a read-only or
    full cache dir must not break compilation.
    """
    if not enabled():
        return
    directory = cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({**payload, "schema": SCHEMA_VERSION}, fh)
            os.replace(tmp, directory / f"{key}.json")
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        _STATS["errors"] += 1
        return
    _STATS["stores"] += 1
    _maybe_corrupt(directory / f"{key}.json")


def _maybe_corrupt(path: Path) -> None:
    """Injected cache fault: garble a just-stored artifact.

    Exercises the retry-with-quarantine path end to end — the next
    :func:`load` of this key must quarantine the entry and report a
    miss, never crash.  One ``None`` check when no fault plan is active.
    """
    from ..reliability.injector import active_injector

    inj = active_injector()
    if inj is None or not inj.should_corrupt_cache():
        return
    try:
        with open(path, "r+b") as fh:
            fh.seek(0)
            fh.write(b"\x00CORRUPT")
    except OSError:
        pass


def model_content_key(config: Any, pairs: Any,
                      scales: Optional[Dict[str, float]] = None) -> str:
    """sha256 over a whole model's compile inputs.

    ``pairs`` is the ordered ``(group name, OpWorkload)`` sequence that
    :meth:`GraphEngine.compile_graph` lowers; ``scales`` the per-group
    im2col GM-fetch scales.  Hashing the ordered sequence (rather than
    the graph object) makes the key independent of graph construction
    details that do not reach the compiler.
    """
    scales = scales or {}
    blob = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "config": _canonical(config),
            "layers": [
                {
                    "group": group,
                    "workload": _canonical(work),
                    "a_bytes_scale": scales.get(group, 1.0),
                }
                for group, work in pairs
            ],
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def load_model(key: str) -> Optional[Dict[str, Any]]:
    """Whole-model payload for ``key`` (same miss semantics as
    :func:`load`; model entries live under a ``model-`` filename prefix
    in the same versioned directory).

    Corrupt JSON is quarantined by :func:`load`; a *structurally*
    corrupt entry — valid JSON whose ``layers`` field is not the list
    :func:`store_model` writes (a truncated or hand-edited artifact) —
    is quarantined here, so it reports a clean miss instead of
    re-poisoning every later load.  Deeper per-layer validation lives in
    the compiler, which calls :func:`quarantine_model` on rejection.
    """
    payload = load(f"model-{key}")
    if payload is None:
        return None
    if not isinstance(payload.get("layers"), list):
        _STATS["errors"] += 1
        _quarantine(cache_dir() / f"model-{key}.json")
        return None
    _STATS["model_hits"] += 1
    return payload


def quarantine_model(key: str) -> None:
    """Move a rejected whole-model entry aside (next lookup recompiles).

    The compiler calls this when a loaded model payload fails its
    per-layer validation — the entry is intact JSON but unusable, and
    leaving it in place would make every later process re-load and
    re-reject the same garbage.
    """
    path = cache_dir() / f"model-{key}.json"
    if path.is_file():
        _STATS["errors"] += 1
        _quarantine(path)


def store_model(key: str, payload: Dict[str, Any]) -> None:
    """Persist a whole-model artifact (atomic, failure-tolerant)."""
    before = _STATS["stores"]
    store(f"model-{key}", payload)
    if _STATS["stores"] > before:  # not disabled, not an I/O error
        _STATS["model_stores"] += 1


def note_memory_hit() -> None:
    """Record an in-memory (process-local) cache hit for :func:`stats`."""
    _STATS["memory_hits"] += 1


def note_model_memory_hit() -> None:
    """Record an in-memory whole-model cache hit for :func:`stats`."""
    _STATS["model_memory_hits"] += 1


def stats() -> Dict[str, Any]:
    """Counters for this process plus the active configuration."""
    return {**_STATS, "enabled": enabled(), "dir": str(cache_dir()),
            "schema": SCHEMA_VERSION, "max_entries": memory_max_entries()}


def reset_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


def snapshot() -> Dict[str, int]:
    """Copy of the raw counters, suitable for delta arithmetic.

    Fork-based worker pools use this to make cache statistics
    fork-aware: each worker snapshots before a job, computes the delta
    after it, and ships the delta back for :func:`merge_stats` in the
    parent — otherwise counts accumulated in workers die with them and
    sweep reports under-report misses and stores.
    """
    return dict(_STATS)


def merge_stats(delta: Dict[str, int]) -> None:
    """Fold a worker's counter delta into this process's counters.

    Unknown keys are ignored (a newer worker schema never corrupts the
    parent); values must be ints — deltas come straight from
    :func:`snapshot` subtraction.
    """
    for key, value in delta.items():
        if key in _STATS:
            _STATS[key] += int(value)
