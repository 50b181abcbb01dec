"""Predictor-triaged sweeps: simulate only a shortlist of candidates.

:func:`triage_sweep` is the fast-tier counterpart of
:func:`~repro.bench.runner.run_sweep`: given per-job *predicted* scores
(lower is better — cycles, latency), it keeps the top-K plus everything
within ``(1 + epsilon)`` of the predicted best, runs the real worker on
that shortlist only (through :func:`~repro.bench.supervisor.supervise`,
so the warm-cache seeding, fork-aware stats plumbing, and the
retry/timeout/quarantine policy knobs apply unchanged), and returns
results aligned with the original job order — ``None`` where a
candidate was triaged away or quarantined.

The triage contract: predicted scores only ever *rank*; any number that
leaves a sweep (a published table row, a chosen design point) comes
from the event engine via the shortlist.  Callers verify that with the
``predicted_vs_simulated`` report the predictor sweeps emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, TypeVar, Union

import numpy as np

from .supervisor import JobFailureReport, SweepPolicy, supervise

__all__ = ["TriageResult", "triage_sweep", "shortlist_indices",
           "DEFAULT_TOP_K", "DEFAULT_EPSILON"]

# The shortlist keeps the DEFAULT_TOP_K predicted best, widened to every
# candidate within (1 + DEFAULT_EPSILON) of the best so that near-ties
# are never decided by the model alone.
DEFAULT_TOP_K = 8
DEFAULT_EPSILON = 0.05

_J = TypeVar("_J")
_R = TypeVar("_R")


@dataclass
class TriageResult:
    """Outcome of one triaged sweep, aligned with the input job order."""

    predicted: List[float]
    shortlist: List[int]               # indices simulated, ascending
    results: List[Optional[object]]    # worker result, or None if skipped
    # Shortlisted jobs the supervisor quarantined (reports carry the
    # original job-list index).  Empty unless retries were exhausted;
    # their ``results`` slots stay None like triaged-away candidates.
    failures: List[JobFailureReport] = field(default_factory=list)

    @property
    def simulated(self) -> int:
        return len(self.shortlist)

    @property
    def skipped(self) -> int:
        return len(self.predicted) - len(self.shortlist)


def shortlist_indices(predicted: Sequence[float], top_k: int,
                      epsilon: float) -> List[int]:
    """Top-K by predicted score plus the (1 + epsilon) near-tie window.

    Deterministic, with exact-tie semantics pinned by regression tests:

    * the top-K slots resolve ties by job index (stable argsort), so
      equal predicted scores shortlist in stable index order and the
      lowest indices win the last slots;
    * the epsilon window is a single value-based comparison against one
      cutoff computed **in float64** regardless of the input container's
      dtype, so two candidates with exactly equal predicted scores at
      the window boundary always receive the identical in/out decision
      (a float32 prediction array used to evaluate ``best * (1 + eps)``
      in float32, which could split exact boundary ties depending on
      rounding direction);
    * the returned indices are ascending.

    Accepts any 1-D sequence or ndarray; scores are read as float64.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    scores = np.asarray(predicted, dtype=np.float64).reshape(-1)
    if scores.size == 0:
        return []
    order = np.argsort(scores, kind="stable")
    keep = np.zeros(scores.size, dtype=bool)
    keep[order[:top_k]] = True
    cutoff = float(scores[order[0]]) * (1.0 + epsilon)
    keep |= scores <= cutoff
    return [int(i) for i in np.flatnonzero(keep)]


def triage_sweep(jobs: Sequence[_J], worker: Callable[[_J], _R],
                 predicted: Union[Sequence[float], Callable[[_J], float]],
                 top_k: int = DEFAULT_TOP_K,
                 epsilon: float = DEFAULT_EPSILON,
                 max_workers: Optional[int] = None,
                 warm: Optional[Callable[[], object]] = None) -> TriageResult:
    """Run ``worker`` on the predicted-best shortlist of ``jobs`` only.

    ``predicted`` is either one score per job (lower is better) or a
    callable evaluated per job; ``top_k`` / ``epsilon`` set the
    shortlist (see :func:`shortlist_indices`).
    """
    job_list = list(jobs)
    scores = ([float(predicted(job)) for job in job_list]
              if callable(predicted)
              else [float(s) for s in predicted])
    if len(scores) != len(job_list):
        raise ValueError(
            f"{len(scores)} predictions for {len(job_list)} jobs")
    keep = shortlist_indices(scores, top_k, epsilon)
    outcome = supervise([job_list[i] for i in keep], worker,
                        max_workers=max_workers, warm=warm,
                        policy=SweepPolicy.from_env())
    results: List[Optional[object]] = [None] * len(job_list)
    for index, result in zip(keep, outcome.results):
        results[index] = result
    failures = []
    for report in outcome.failures:
        # Re-anchor the report at the caller's job-list index.
        report.index = keep[report.index]
        results[report.index] = None
        failures.append(report)
    return TriageResult(predicted=scores, shortlist=keep, results=results,
                        failures=failures)
