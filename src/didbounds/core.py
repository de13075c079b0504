"""Numerical primitives shared by every bound, and the forked-worker runner
(``_forked_map``) that the bootstrap and the Monte Carlo share. Its workers are
started by ``os.fork`` and pickle their replies to the parent over pipes, so
no run imports ``multiprocessing``.

A trimmed tail is a slice of its cell's sorted values, and its mean reduces
in sorted order; a plain mean reduces in the values' given order. Tie handling
follows the estimator definitions literally: the lower tail keeps values <= the
empirical quantile, the upper tail keeps values strictly above it, so under
ties the retained mass may differ from the trim share. No fractional-weight
trimming.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
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
    """A cell's values as one array, which the first trimmed tail sorts in place.

    The plain mean in the given order, ``row_mean`` (NaN if empty), is taken
    first. Both tails of one cell share the sort: pass the same ``Sample`` to
    ``trimmed_mean_lower`` and ``trimmed_mean_upper``.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)  # taken over, not copied
        self.row_mean = mean(self.values) if self.values.size else math.nan

    @cached_property
    def sorted(self) -> np.ndarray:
        self.values.sort()
        return self.values


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


def _tail_mean(values, p: float, upper: bool) -> float:
    """The mean of the slice of the sorted sample beyond the literal quantile
    cut, or at p=1 the plain mean in the given order, without a sort. An array
    is copied, so that the caller's keeps its order."""
    name = f"trimmed_mean_{'upper' if upper else 'lower'}"
    if p <= 0.0 or math.isnan(p):
        raise PZero(f"trim share must be positive, got {p}", p=p)
    if p > 1.0:
        raise OutOfRange(f"trim share must be <= 1, got {p}", p=p)
    sample = values if isinstance(values, Sample) else Sample(np.array(values, dtype=np.float64))
    if sample.values.size == 0:
        raise EmptyCell(f"{name} of empty sample")
    # a NaN-free mean is NaN only from inf - inf
    if math.isnan(sample.row_mean) and np.isnan(sample.values).any():
        raise ValidationError(f"{name} of a sample holding NaN")
    if p == 1.0:
        return sample.row_mean
    arr = sample.sorted
    end = arr.searchsorted(_sorted_quantile(arr, 1.0 - p if upper else p), "right")
    kept = arr[end:] if upper else arr[:end]
    if kept.size == 0:  # only an upper tail, under ties at the maximum
        raise EmptyTrimSet(f"upper tail beyond quantile({1.0 - p}) is empty "
                           "(ties at maximum)", p=p)
    return mean(kept)


def trimmed_mean_lower(values, p: float) -> float:
    """Mean over {v : v <= empirical_quantile(values, p)}; full mean at p=1.

    The kept values are a slice of the sorted sample and reduce in sorted
    order. At p=1 the quantile is the maximum and every value is kept, so the
    plain mean in the given order is returned. ``values`` is an array, which is
    not changed, or a ``Sample``; one holding NaN is a ``ValidationError``.
    """
    return _tail_mean(values, p, upper=False)


def trimmed_mean_upper(values, p: float) -> float:
    """Mean over {v : v > empirical_quantile(values, 1-p)}; full mean at p=1.

    A slice of the sorted sample, as in ``trimmed_mean_lower``. The p=1 case is
    the analytic limit (the quantile domain excludes q=0). With heavy ties the
    strict tail can be empty; that is an estimation error (``EmptyTrimSet``).
    """
    return _tail_mean(values, p, upper=True)


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


# set in a worker of ``_forked_map`` after it is forked, so that a call made
# there runs in-process
_in_worker = False


def _serve(tasks: list, tasks_in: int, replies_out: int) -> None:
    """A forked worker: answer each task index read from ``tasks_in`` with a
    pickle of ``(raised, result or exception)``, flushed to ``replies_out``,
    until EOF. Both pipes are read and written as buffered files."""
    global _in_worker
    _in_worker = True
    with open(tasks_in, "rb") as indices, open(replies_out, "wb") as replies:
        while index := indices.read(8):
            try:
                reply = False, tasks[int.from_bytes(index, "little")]()
            except Exception as exc:
                reply = True, exc
            pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
            replies.flush()


def _forked_map(tasks: list) -> list:
    """``[task() for task in tasks]`` of zero-argument callables, on forked workers.

    ``min(CPUs, len(tasks))`` workers are started by ``os.fork``, so they
    inherit ``tasks`` and no task is pickled. Each reads task indices, one at a
    time, from one pipe and pickles its replies to another. Results come back
    in task order; the first exception in task order, or ``WorkerDied`` for a
    task whose reply pipe reached EOF before its pickle was whole, is raised
    once the tasks before it are done, and every worker is killed and reaped.
    The parent closes a worker's ends of its pipes before the next fork, so
    that EOF means that worker died. It waits on the reply ends with ``poll``,
    which, unlike ``select``, takes descriptors above 1023, and loads each
    reply from a buffered reader; a worker has at most one reply in flight, so
    no reader holds bytes that ``poll`` is not told of. With one worker, or
    inside a worker of this map or a daemonic ``multiprocessing`` process, the
    tasks run here. A worker leaves only by ``os._exit``.
    """
    workers = min(_worker_count(), len(tasks))
    mp = sys.modules.get("multiprocessing")   # looked up, so that it is never imported
    if workers < 2 or _in_worker or (mp is not None and mp.current_process().daemon):
        return [task() for task in tasks]
    # imported here so that importing the package does not pay for them
    import select
    import signal

    pids, pipes, readers, idle, running, done, results, sent = [], {}, {}, [], {}, {}, [], 0
    poller = select.poll()
    try:
        for _ in range(workers):
            tasks_in, tasks_out = os.pipe()
            replies_in, replies_out = os.pipe()
            pipes[replies_in] = tasks_out
            if (pid := os.fork()) == 0:
                try:
                    for fd in (*pipes, *pipes.values()):   # the parent's ends
                        os.close(fd)
                    _serve(tasks, tasks_in, replies_out)
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(tasks_in)   # before the next fork, so that EOF on
            os.close(replies_out)   # replies_in means this worker died
            # closefd=False: the finally closes each descriptor once
            readers[replies_in] = open(replies_in, "rb", closefd=False)
            idle.append(replies_in)
        while len(results) < len(tasks):
            while idle and sent < len(tasks):
                replies_in = idle.pop(0)
                running[replies_in] = sent
                poller.register(replies_in, select.POLLIN)
                os.write(pipes[replies_in], sent.to_bytes(8, "little"))
                sent += 1
            for replies_in, _ in poller.poll():
                poller.unregister(replies_in)
                i = running.pop(replies_in)
                try:
                    done[i] = pickle.load(readers[replies_in])
                except (EOFError, pickle.UnpicklingError):   # died before or while replying
                    done[i] = True, WorkerDied(f"a worker died running task {i}", task=i)
                else:
                    idle.append(replies_in)
            while len(results) in done:
                failed, value = done.pop(len(results))
                if failed:
                    raise value
                results.append(value)
        return results
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in (*pipes, *pipes.values()):
            os.close(fd)
