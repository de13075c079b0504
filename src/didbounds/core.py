"""Numerical primitives shared by every bound.

Tie handling follows the estimator definitions literally: the lower tail keeps
values <= the empirical quantile, the upper tail keeps values strictly above
it, so under ties the retained mass may differ from the trim share. No
fractional-weight trimming.
"""

from __future__ import annotations

import math
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


def _sorted_quantile(arr, q: float) -> float:
    """``empirical_quantile`` of a sorted, non-empty sample; q in (0,1]."""
    n = arr.size
    # first k with (k+1)/n >= q, using the same float comparison as the
    # definition's indicator sums
    cdf = np.arange(1, n + 1) / n
    k = int(np.searchsorted(cdf, q, side="left"))
    if k >= n:
        k = n - 1
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
    return float(np.mean(arr[arr <= _sorted_quantile(sample.sorted, p)]))


def trimmed_mean_upper(values, p: float) -> float:
    """Mean over {v : v > empirical_quantile(values, 1-p)}; full mean at p=1.

    The p=1 case is the analytic limit (the quantile domain excludes q=0).
    With heavy ties the strict tail can be empty; that is an estimation error.
    ``values`` is an array or a ``Sample``.
    """
    sample = _sample(values, p, "trimmed_mean_upper")
    arr = sample.values
    if p == 1.0:
        return float(np.mean(arr))
    mask = arr > _sorted_quantile(sample.sorted, 1.0 - p)
    if not mask.any():
        raise EmptyTrimSet(
            f"upper tail beyond quantile({1.0 - p}) is empty (ties at maximum)", p=p
        )
    return float(np.mean(arr[mask]))


def require_finite(name: str, value: float) -> float:
    """An estimate, or ``NonFiniteEstimate`` if it overflowed to inf or NaN."""
    if not math.isfinite(value):
        raise NonFiniteEstimate(f"{name} is not finite ({value})", estimate=name)
    return value
