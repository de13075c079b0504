"""Numerical primitives shared by every bound, and the forked worker pool
(``_forked_map``) that the bootstrap and the Monte Carlo share.

Tie handling follows the estimator definitions literally: the lower tail keeps
values <= the empirical quantile, the upper tail keeps values strictly above
it, so under ties the retained mass may differ from the trim share. No
fractional-weight trimming.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import PanelDataset
from .errors import (
    EmptyCell,
    EmptyTrimSet,
    NonFiniteEstimate,
    OutOfRange,
    PZero,
    QOutOfRange,
    ValidationError,
)


@dataclass(frozen=True)
class ProbEstimate:
    value: float
    numerator_count: int
    denominator_count: int


@dataclass(frozen=True)
class FrechetInterval:
    lo: float
    hi: float


def cond_prob_s1(data: PanelDataset, d: int, s0: int) -> ProbEstimate:
    """P[S1=1 | D=d, S0=s0] as an exact count ratio."""
    denom = data.cells.count(d, s0)
    if denom == 0:
        raise EmptyCell(f"no units with d={d}, s0={s0}", d=d, s0=s0)
    num = data.cells.count(d, s0, 1)
    return ProbEstimate(num / denom, num, denom)


def frechet_interval(p_a: float, p_b: float) -> FrechetInterval:
    """Sharp bounds on a joint probability from its two marginals.

    ``p_a + p_b - 1`` can round above ``min(p_a, p_b)`` (e.g. 1.0 + 0.6 - 1
    gives 0.6000000000000001), so the lower bound is clamped to the upper.
    """
    for name, p in (("pA", p_a), ("pB", p_b)):
        if not (0.0 <= p <= 1.0):
            raise OutOfRange(f"{name} must be in [0,1], got {p}", value=p)
    hi = min(p_a, p_b)
    return FrechetInterval(min(max(p_a + p_b - 1.0, 0.0), hi), hi)


class Sample:
    """A cell's values in row order, and their sort once it is first needed.

    Trimmed means of both tails of one cell share the sort: pass the same
    ``Sample`` to ``trimmed_mean_lower`` and ``trimmed_mean_upper``.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    @cached_property
    def sorted(self) -> np.ndarray:
        return np.sort(self.values)


def mean(arr: np.ndarray) -> float:
    """``float(np.mean(arr))`` of a non-empty float64 array, bit for bit.

    ``np.mean`` sums with the same ``np.add.reduce`` and divides by the size;
    calling the reduction directly skips its dispatch, which dominates at
    small n.
    """
    return float(np.add.reduce(arr)) / arr.size


def _sorted_quantile(arr, q: float) -> float:
    """``empirical_quantile`` of a sorted, non-empty sample; q in (0,1]."""
    n = arr.size
    # first k with (k+1)/n >= q, using the same float comparison as the
    # definition's indicator sums, else n - 1; ceil(q * n) - 1 is within a
    # step of it, since (k+1)/n rises with k
    k = min(max(math.ceil(q * n) - 1, 0), n - 1)
    while k > 0 and k / n >= q:
        k -= 1
    while k < n - 1 and (k + 1) / n < q:
        k += 1
    return float(arr[k])


def empirical_quantile(values, q: float) -> float:
    """Smallest sample value whose empirical CDF weakly exceeds q.

    Type-1 / left-continuous inverse restricted to sample points; q in (0,1].
    """
    if not (0.0 < q <= 1.0) or math.isnan(q):
        raise QOutOfRange(f"q must be in (0,1], got {q}", q=q)
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise EmptyCell("empirical_quantile of empty sample")
    return _sorted_quantile(arr, q)


def _check_p(p: float) -> None:
    if p <= 0.0 or math.isnan(p):
        raise PZero(f"trim share must be positive, got {p}", p=p)
    if p > 1.0:
        raise OutOfRange(f"trim share must be <= 1, got {p}", p=p)


def _sample(values, p: float, name: str) -> Sample:
    _check_p(p)
    sample = values if isinstance(values, Sample) else Sample(values)
    if sample.values.size == 0:
        raise EmptyCell(f"{name} of empty sample")
    return sample


def trimmed_mean_lower(values, p: float) -> float:
    """Mean over {v : v <= empirical_quantile(values, p)}.

    Selection is by mask in original order, so p=1 reproduces the plain mean
    bit-for-bit (same reduction order). ``values`` is an array or a ``Sample``.
    """
    sample = _sample(values, p, "trimmed_mean_lower")
    arr = sample.values
    return mean(arr[arr <= _sorted_quantile(sample.sorted, p)])


def trimmed_mean_upper(values, p: float) -> float:
    """Mean over {v : v > empirical_quantile(values, 1-p)}; full mean at p=1.

    The p=1 case is the analytic limit (the quantile domain excludes q=0).
    With heavy ties the strict tail can be empty; that is an estimation error.
    ``values`` is an array or a ``Sample``.
    """
    sample = _sample(values, p, "trimmed_mean_upper")
    arr = sample.values
    if p == 1.0:
        return mean(arr)
    mask = arr > _sorted_quantile(sample.sorted, 1.0 - p)
    if not mask.any():
        raise EmptyTrimSet(
            f"upper tail beyond quantile({1.0 - p}) is empty (ties at maximum)", p=p
        )
    return mean(arr[mask])


def require_seed(seed) -> None:
    """``ValidationError`` for a negative integer seed, or one in a seed list.

    ``np.random.default_rng`` refuses them with a ``ValueError``; checking when
    a seed is set turns that into a flag error.
    """
    for part in seed if isinstance(seed, (list, tuple)) else (seed,):
        if isinstance(part, (int, np.integer)) and part < 0:
            raise ValidationError(f"seed must be non-negative, got {part}", seed=int(part))


def require_finite(name: str, value: float) -> float:
    """An estimate, or ``NonFiniteEstimate`` if it overflowed to inf or NaN."""
    if not math.isfinite(value):
        raise NonFiniteEstimate(f"{name} is not finite ({value})", estimate=name)
    return value


def _worker_count() -> int:
    """Worker processes for ``_forked_map``: one per CPU this process may use."""
    return len(os.sched_getaffinity(0))


# ``(fn, state)`` of the ``_forked_map`` call that a pool worker serves; set
# in each worker by the pool's initializer, never in the calling process
_worker_job = None


def _start_worker(fn, state) -> None:
    global _worker_job
    _worker_job = (fn, state)


def _run_task(task) -> tuple:
    """``(False, fn(state, task))``, or ``(True, exc)`` where it raised ``exc``:
    returned, not raised, so that the parent raises the first exception in task
    order rather than in the order tasks finish."""
    fn, state = _worker_job
    try:
        return False, fn(state, task)
    except Exception as exc:
        return True, exc


def _forked_map(fn, tasks: list, state) -> list:
    """``[fn(state, task) for task in tasks]``, on a pool of forked workers.

    ``min(CPUs, len(tasks))`` workers start with the package already imported
    and inherit ``fn`` and ``state`` at fork, so neither is pickled and a
    closure will do; each task and its result are. Results come back in task
    order, and where tasks raised, the first exception in task order is raised
    as soon as the tasks before it are done, and the workers are stopped. With
    one worker, or in a process that is itself a pool worker (which may not
    start children), the tasks run here, in order.
    """
    workers = min(_worker_count(), len(tasks))
    if workers > 1:
        # imported here so that importing the package does not pay for it
        import multiprocessing

        if not multiprocessing.current_process().daemon:
            results = []
            with multiprocessing.get_context("fork").Pool(
                    workers, _start_worker, (fn, state)) as pool:
                for failed, value in pool.imap(_run_task, tasks):
                    if failed:
                        raise value
                    results.append(value)
            return results
    return [fn(state, task) for task in tasks]
