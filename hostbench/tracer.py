"""In-memory host-span recorder for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Recorder.wrap`
replaces a public function or method with a wrapper that opens a span
around the call.  Each span has a name, a start, an end, a parent span
and the id of the op it belongs to.  Spans are stored column-wise in
``array`` buffers (a serving op makes millions of ledger calls, and one
Python object per span would dominate the traced process's memory) and
written out once, when the run ends.

Self time is a span's duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so children never
overlap and that difference is exactly the uncovered part of the span.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

import numpy as np

__all__ = ["Recorder"]

OP_SPAN = "op"


class Recorder:
    """Span columns plus the patches that feed them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._op_id = -1
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def op_scope(self, op_id: int):
        """Everything recorded inside belongs to op ``op_id``; calls
        outside any op (set-up, warm-up) are not recorded."""
        self._op_id = op_id
        try:
            with self.span(OP_SPAN):
                yield
        finally:
            self._op_id = -1

    def count(self, key: str, amount: int = 1) -> None:
        if self._op_id >= 0:
            self.counts[key] += amount

    # -- patching ---------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(args, kwargs, result)`` runs after the span closes,
        so whatever it counts is not charged to the wrapped layer.
        """
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        nid = self._name_id(name)
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder._op_id < 0:
                return original(*args, **kwargs)
            idx = recorder._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, owned))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:  # inherited: drop the shadowing wrapper
                delattr(owner, attr)

    # -- analysis ---------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        child = np.zeros(len(name), dtype=np.float64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {"name": name, "start": start, "end": end, "parent": parent,
                "op": np.frombuffer(self.op, dtype=np.int32),
                "duration": duration, "self": duration - child}

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, total seconds ``s`` and ``self_s``."""
        cols = self.columns()
        out: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = cols["name"] == nid
            out[name] = {"calls": int(mask.sum()),
                         "s": float(cols["duration"][mask].sum()),
                         "self_s": float(cols["self"][mask].sum())}
        return out

    def op_accounting(self) -> List[Dict[str, float]]:
        """Per op: its wall time and the summed self time of every span
        under it (the op span itself excluded)."""
        cols = self.columns()
        op_nid = self._name_ids.get(OP_SPAN)
        rows = []
        for idx in np.flatnonzero(cols["name"] == op_nid):
            op_id = cols["op"][idx]
            inside = (cols["op"] == op_id) & (cols["name"] != op_nid)
            rows.append({"op": int(op_id),
                         "wall_s": float(cols["duration"][idx]),
                         "children_self_s":
                             float(cols["self"][inside].sum())})
        return rows

    def save(self, path) -> None:
        cols = self.columns()
        np.savez(path, names=np.asarray(self.names),
                 **{k: cols[k] for k in ("name", "start", "end", "parent",
                                         "op")})
