"""Bootstrap standard errors and the two 95% confidence intervals.

The bootstrap sd of a bound estimate is already O(n^{-1/2}), so it is used
as-is in both intervals, with no further division by sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .core import _forked_map, require_finite, require_seed
from .errors import EstimationError, RootNotBracketed, TooManyFailedReps, ValidationError

SQRT2 = math.sqrt(2.0)
Z_975 = 1.959963984540054  # Phi^{-1}(0.975)
Z_95 = 1.6448536269514722  # Phi^{-1}(0.95)

# unit draws per worker task of ``bootstrap_ses``; results do not depend on
# it. Forking and stopping two workers costs about 5 ms, so a bootstrap of
# fewer draws than this in all is one task and runs in-process: on a 2-core
# host, 20 replicates of 3,000 units took 3-4 ms in-process against 12 ms
# forked, and 200 of 20,000 units 0.08-0.10 s against 0.06-0.08 s
_BOOT_DRAWS = 2**20


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

    def __post_init__(self):
        require_finite(f"{self.method} CI lo", self.lo)
        require_finite(f"{self.method} CI hi", self.hi)

    def to_dict(self) -> dict:
        return asdict(self)


def _replicate_block(state: tuple, block: tuple) -> list:
    """Replicates ``block[0]``..``block[1] - 1`` of ``bootstrap_ses``: each
    ``(lb, ub)``, or None where ``bound_fn`` raised an estimation error."""
    data, bound_fn, seed = state
    n = data.n
    out = []
    for rep in range(*block):
        rng = np.random.default_rng([seed, rep])
        try:
            # the replicate is freed before the next one is drawn, so that the
            # heap does not grow and shrink by a replicate's arrays each time
            res = bound_fn(data.take(rng.integers(0, n, size=n)))
        except EstimationError:
            out.append(None)
            continue
        lb, ub = (res.lb, res.ub) if hasattr(res, "lb") else (res[0], res[1])
        out.append((float(lb), float(ub)))
    return out


def bootstrap_ses(data, bound_fn, spec: BootstrapSpec) -> BootstrapResult:
    """Unit-level resampling with per-replicate counter-seeded streams.

    ``bound_fn`` maps a dataset to anything exposing (lb, ub) — a BoundsResult
    or a 2-tuple. Each replicate it receives is ``data.take(indices)``, whose
    ``cells`` re-index the parent's and whose columns are gathered only when
    read. Replicates where ``bound_fn`` raises an estimation error (e.g. an
    empty resampled cell, an overflow) are dropped and counted. A standard
    error that overflows raises ``NonFiniteEstimate``.

    Blocks of about ``_BOOT_DRAWS`` unit draws are ``core._forked_map`` tasks,
    run on forked workers, one per CPU, that inherit ``data`` and ``bound_fn``;
    a smaller bootstrap runs in-process. Replicate ``rep`` draws from ``[seed,
    rep]`` wherever it runs and the replicates are folded in order, so the
    result does not depend on the layout, and any other error is that of the
    first replicate that raises one.
    """
    per_block = -(-_BOOT_DRAWS // max(data.n, 1))
    blocks = [(a, min(a + per_block, spec.reps)) for a in range(0, spec.reps, per_block)]
    data.cells  # built once here, not once per worker
    state = data, bound_fn, spec.seed
    done = _forked_map([partial(_replicate_block, state, block) for block in blocks])
    replicates = [rep for block in done for rep in block if rep is not None]
    failed = spec.reps - len(replicates)
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


def solve_c_n(delta: float) -> float:
    """Solve Phi(C + delta) - Phi(-C) = 0.95 by bisection on [1, 3], to 1e-10."""
    def g(c: float) -> float:
        return norm_cdf(c + delta) - norm_cdf(-c) - 0.95

    lo, hi = 1.0, 3.0
    if g(lo) > 0.0 or g(hi) < 0.0:
        raise RootNotBracketed(f"no root in [1,3] for delta={delta}", delta=delta)
    while hi - lo > 1e-10:
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
