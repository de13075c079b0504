"""Numerical primitives shared by every bound, and the forked-worker runner
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
    WorkerDied,
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
    A sample holding NaN is a ``ValidationError``.
    """
    if not (0.0 < q <= 1.0) or math.isnan(q):
        raise QOutOfRange(f"q must be in (0,1], got {q}", q=q)
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise EmptyCell("empirical_quantile of empty sample")
    if math.isnan(arr[-1]):  # np.sort puts NaN last
        raise ValidationError("empirical_quantile of a sample holding NaN")
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
    if p < 1.0 and math.isnan(sample.sorted[-1]):  # np.sort puts NaN last
        raise ValidationError(f"{name} of a sample holding NaN")
    return sample


def _full_mean(arr: np.ndarray, name: str) -> float:
    """The plain mean; a NaN one from a NaN value is a ``ValidationError``."""
    value = mean(arr)
    if math.isnan(value) and np.isnan(arr).any():
        raise ValidationError(f"{name} of a sample holding NaN")
    return value


def trimmed_mean_lower(values, p: float) -> float:
    """Mean over {v : v <= empirical_quantile(values, p)}; full mean at p=1.

    Selection is by mask in original order, so the kept values reduce in the
    same order as in the plain mean. At p=1 the quantile is the maximum and
    every value is kept, so the plain mean is returned without a sort.
    ``values`` is an array or a ``Sample``; one holding NaN is a
    ``ValidationError``.
    """
    sample = _sample(values, p, "trimmed_mean_lower")
    arr = sample.values
    if p == 1.0:
        return _full_mean(arr, "trimmed_mean_lower")
    return mean(arr.compress(arr <= _sorted_quantile(sample.sorted, p)))


def trimmed_mean_upper(values, p: float) -> float:
    """Mean over {v : v > empirical_quantile(values, 1-p)}; full mean at p=1.

    The p=1 case is the analytic limit (the quantile domain excludes q=0).
    With heavy ties the strict tail can be empty; that is an estimation error.
    ``values`` is an array or a ``Sample``; one holding NaN is a
    ``ValidationError``.
    """
    sample = _sample(values, p, "trimmed_mean_upper")
    arr = sample.values
    if p == 1.0:
        return _full_mean(arr, "trimmed_mean_upper")
    kept = arr.compress(arr > _sorted_quantile(sample.sorted, 1.0 - p))
    if kept.size == 0:
        raise EmptyTrimSet(
            f"upper tail beyond quantile({1.0 - p}) is empty (ties at maximum)", p=p
        )
    return mean(kept)


def require_seed(seed) -> None:
    """``ValidationError`` for a seed that is not an integer or a list of
    integers, or that is or holds a negative one.

    ``np.random.default_rng`` refuses them with a ``TypeError`` or ``ValueError``;
    checking when a seed is set turns that into a flag error.
    """
    for part in seed if isinstance(seed, (list, tuple)) else (seed,):
        if not isinstance(part, (int, np.integer)):
            raise ValidationError(f"seed must be an integer or a list of integers, got {seed!r}")
        if part < 0:
            raise ValidationError(f"seed must be non-negative, got {part}", seed=int(part))


def require_finite(name: str, value: float) -> float:
    """An estimate, or ``NonFiniteEstimate`` if it overflowed to inf or NaN."""
    if not math.isfinite(value):
        raise NonFiniteEstimate(f"{name} is not finite ({value})", estimate=name)
    return value


def _worker_count() -> int:
    """Worker processes for ``_forked_map``: one per CPU this process may use."""
    return len(os.sched_getaffinity(0))


def _serve(tasks: list, conn) -> None:
    """A forked worker: answer each task index with ``(raised, result or exception)``."""
    while True:
        i = conn.recv()
        try:
            reply = False, tasks[i]()
        except Exception as exc:
            reply = True, exc
        conn.send(reply)


def _forked_map(tasks: list) -> list:
    """``[task() for task in tasks]`` of zero-argument callables, on forked workers.

    ``min(CPUs, len(tasks))`` workers inherit ``tasks`` at fork, so no task is
    pickled, and get one task index at a time. Results come back in task order;
    the first exception in task order, or ``WorkerDied`` for a task whose worker
    ended, is raised once the tasks before it are done, and every worker is
    killed and joined. With one worker, or in a daemonic process, they run here.
    """
    workers = min(_worker_count(), len(tasks))
    if workers > 1:
        # imported here so that importing the package does not pay for it
        import multiprocessing.connection
    if workers < 2 or multiprocessing.current_process().daemon:
        return [task() for task in tasks]
    context = multiprocessing.get_context("fork")
    procs, idle, running, done, results, sent = [], [], {}, {}, [], 0
    try:
        for _ in range(workers):
            conn, end = context.Pipe()
            (proc := context.Process(target=_serve, args=(tasks, end), daemon=True)).start()
            procs.append((proc, conn))
            end.close()  # before the next fork, so that EOF on conn means this worker died
            idle.append(conn)
        while len(results) < len(tasks):
            while idle and sent < len(tasks):
                running[idle[0]] = sent
                idle.pop(0).send(sent)
                sent += 1
            for conn in multiprocessing.connection.wait(list(running)):
                i = running.pop(conn)
                try:
                    done[i] = conn.recv()
                    idle.append(conn)
                except EOFError:
                    done[i] = True, WorkerDied(f"a worker died running task {i}", task=i)
            while len(results) in done:
                failed, value = done.pop(len(results))
                if failed:
                    raise value
                results.append(value)
        return results
    finally:
        for proc, conn in procs:
            proc.kill()
            proc.join()
            conn.close()
