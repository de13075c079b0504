"""Bootstrap standard errors and the two 95% confidence intervals.

The bootstrap sd of a bound estimate is already O(n^{-1/2}), so it is used
as-is in both intervals, with no further division by sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import require_finite, require_seed
from .errors import EstimationError, RootNotBracketed, TooManyFailedReps, ValidationError

SQRT2 = math.sqrt(2.0)
Z_975 = 1.959963984540054  # Phi^{-1}(0.975)
Z_95 = 1.6448536269514722  # Phi^{-1}(0.95)


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erf (abs error < 1e-12)."""
    return 0.5 * (1.0 + math.erf(x / SQRT2))


@dataclass(frozen=True)
class BootstrapSpec:
    reps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.reps < 2:
            raise ValidationError("bootstrap reps must be >= 2")
        require_seed(self.seed)


@dataclass
class BootstrapResult:
    se_lb: float
    se_ub: float
    replicates: list   # list of (lb, ub) pairs from successful replicates
    reps_used: int
    failed_reps: int


@dataclass
class ConfidenceInterval:
    method: str
    level: float
    lo: float
    hi: float
    se_lb: float
    se_ub: float
    c_n: float | None = None
    reps_used: int = 0
    failed_reps: int = 0
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        require_finite(f"{self.method} CI lo", self.lo)
        require_finite(f"{self.method} CI hi", self.hi)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "level": self.level,
            "lo": self.lo,
            "hi": self.hi,
            "se_lb": self.se_lb,
            "se_ub": self.se_ub,
            "c_n": self.c_n,
            "reps_used": self.reps_used,
            "failed_reps": self.failed_reps,
        }


def bootstrap_ses(data, bound_fn, spec: BootstrapSpec) -> BootstrapResult:
    """Unit-level resampling with per-replicate counter-seeded streams.

    ``bound_fn`` maps a dataset to anything exposing (lb, ub) — a BoundsResult
    or a 2-tuple. Each replicate it receives is ``data.take(indices)``, whose
    ``cells`` re-index the parent's and whose columns are gathered only when
    read. Replicates where ``bound_fn`` raises an estimation error (e.g. an
    empty resampled cell, an overflow) are dropped and counted. A standard
    error that overflows raises ``NonFiniteEstimate``.
    """
    n = data.n
    replicates = []
    failed = 0
    for rep in range(spec.reps):
        rng = np.random.default_rng([spec.seed, rep])
        sample = data.take(rng.integers(0, n, size=n))
        try:
            res = bound_fn(sample)
        except EstimationError:
            failed += 1
            continue
        lb, ub = (res.lb, res.ub) if hasattr(res, "lb") else (res[0], res[1])
        replicates.append((float(lb), float(ub)))
    if failed > 0.2 * spec.reps:
        raise TooManyFailedReps(
            f"{failed}/{spec.reps} bootstrap replicates failed", failed=failed,
            reps=spec.reps,
        )
    arr = np.asarray(replicates, dtype=np.float64)
    return BootstrapResult(
        se_lb=require_finite("bootstrap se_lb", float(np.std(arr[:, 0], ddof=1))),
        se_ub=require_finite("bootstrap se_ub", float(np.std(arr[:, 1], ddof=1))),
        replicates=replicates,
        reps_used=len(replicates),
        failed_reps=failed,
    )


def ci_union(lb: float, ub: float, se_lb: float, se_ub: float) -> ConfidenceInterval:
    """[lb - 1.96 se_lb, ub + 1.96 se_ub]: covers the whole identified set."""
    if se_lb < 0 or se_ub < 0:
        raise ValidationError("standard errors must be non-negative")
    return ConfidenceInterval(
        method="union",
        level=0.95,
        lo=lb - 1.96 * se_lb,
        hi=ub + 1.96 * se_ub,
        se_lb=se_lb,
        se_ub=se_ub,
    )


def solve_c_n(delta: float, tol: float = 1e-10) -> float:
    """Solve Phi(C + delta) - Phi(-C) = 0.95 by bisection on [1, 3]."""
    def g(c: float) -> float:
        return norm_cdf(c + delta) - norm_cdf(-c) - 0.95

    lo, hi = 1.0, 3.0
    if g(lo) > 0.0 or g(hi) < 0.0:
        raise RootNotBracketed(f"no root in [1,3] for delta={delta}", delta=delta)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ci_imbens_manski(lb: float, ub: float, se_lb: float, se_ub: float) -> ConfidenceInterval:
    """Interval targeting the parameter rather than the identified set."""
    if se_lb < 0 or se_ub < 0:
        raise ValidationError("standard errors must be non-negative")
    if ub < lb:
        raise ValidationError("ub must be >= lb")
    max_se = max(se_lb, se_ub)
    if ub == lb:
        c_n = Z_975
    elif max_se == 0.0:
        c_n = Z_95
    else:
        # bootstrap sd is already estimator-scale; the sqrt(n) factors cancel
        c_n = solve_c_n((ub - lb) / max_se)
    return ConfidenceInterval(
        method="imbens_manski",
        level=0.95,
        lo=lb - c_n * se_lb,
        hi=ub + c_n * se_ub,
        se_lb=se_lb,
        se_ub=se_ub,
        c_n=c_n,
    )
