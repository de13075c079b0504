"""The four two-period panel bounds and the repeated cross-section bound
written out one function each: the reference the table of bound formulas in
``didbounds.bounds`` is checked against.

Each function checks its assumptions, computes its weights and shares, reads
its cells and support minima, and sums its terms in the order the bound's
display prints them.

``trimmed_mean_lower_mask`` and ``trimmed_mean_upper_mask`` take a trimmed
tail by mask: the values on the tail's side of the literal quantile cut,
summed in their given order. They are the reference that ``didbounds.core``'s
tails, slices of the sorted cell summed in sorted order, are checked against.
"""

import math

import numpy as np

from didbounds.bounds import (
    BoundsResult,
    MixingProportions,
    _cell_y,
    _p_nno1,
    _p_ono0,
    _rcs_cell,
    _require_positive,
    _support_minima,
    mixing_mono,
    mixing_no_mono,
)
from didbounds.core import (
    Sample,
    _sorted_quantile,
    mean,
    trimmed_mean_lower,
    trimmed_mean_upper,
)
from didbounds.errors import (
    EmptyCell,
    EmptyTrimSet,
    InvalidAssumptions,
    OutOfRange,
    PZero,
    ValidationError,
)
from didbounds.extensions import rcs_weights


def _mask_tail(values, p, upper):
    name = f"trimmed_mean_{'upper' if upper else 'lower'}"
    if p <= 0.0 or math.isnan(p):
        raise PZero(f"trim share must be positive, got {p}", p=p)
    if p > 1.0:
        raise OutOfRange(f"trim share must be <= 1, got {p}", p=p)
    arr = np.array(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyCell(f"{name} of empty sample")
    if p == 1.0:
        value = mean(arr)
        if math.isnan(value) and np.isnan(arr).any():
            raise ValidationError(f"{name} of a sample holding NaN")
        return value
    ordered = np.sort(arr)
    if math.isnan(ordered[-1]):
        raise ValidationError(f"{name} of a sample holding NaN")
    if not upper:
        return mean(arr.compress(arr <= _sorted_quantile(ordered, p)))
    kept = arr.compress(arr > _sorted_quantile(ordered, 1.0 - p))
    if kept.size == 0:
        raise EmptyTrimSet(f"upper tail beyond quantile({1.0 - p}) is empty "
                           "(ties at maximum)", p=p)
    return mean(kept)


def trimmed_mean_lower_mask(values, p):
    """Mean of the values <= empirical_quantile(values, p), in their order."""
    return _mask_tail(values, p, upper=False)


def trimmed_mean_upper_mask(values, p):
    """Mean of the values > empirical_quantile(values, 1 - p), in their order."""
    return _mask_tail(values, p, upper=True)


def _delta_y(data, d):
    """Arm d's Delta Y subtracted from its two period columns, row by row."""
    return _cell_y(data, d, 1, 1, period=1) - _cell_y(data, d, 1, 1, period=0)


def bounds_tau_ooo(data, assumptions):
    treated = Sample(_delta_y(data, 1))
    control = Sample(_delta_y(data, 0))
    if assumptions.monotone:
        mix = mixing_mono(data, assumptions.direction)
    else:
        mix = mixing_no_mono(data)
    p1 = _require_positive("p_ooo1", mix.p_ooo1)
    p0 = _require_positive("p_ooo0", mix.p_ooo0)
    lb = trimmed_mean_lower(treated, p1) - trimmed_mean_upper(control, p0)
    ub = trimmed_mean_upper(treated, p1) - trimmed_mean_lower(control, p0)
    return BoundsResult(
        parameter="tau_OOO",
        assumptions=assumptions,
        lb=lb,
        ub=ub,
        proportions=mix,
        warnings=list(mix.warnings),
    )


def _other_group_mono(data, assumptions, parameter, dominance, joint_independence=True):
    if not (
        assumptions.monotone
        and assumptions.direction == "positive"
        and assumptions.mean_dominance == dominance
    ):
        raise InvalidAssumptions(
            f"this bound requires with_monotonicity(positive) and mean "
            f"dominance {dominance}"
        )
    if joint_independence and not assumptions.joint_independence:
        raise InvalidAssumptions(f"{parameter} requires joint_independence")
    mono = mixing_mono(data, "positive")
    return mono, list(mono.warnings)


def _other_group_result(
    parameter, assumptions, lb, ub, mono, warns, minima, p_ono0=None, p_nno1=None
):
    mix = MixingProportions(
        p_ooo1=mono.p_ooo1,
        p_ooo0=1.0,
        source="Joint",
        p_ono0=p_ono0,
        p_nno1=p_nno1,
        warnings=warns,
    )
    return BoundsResult(
        parameter=parameter,
        assumptions=assumptions,
        lb=lb,
        ub=ub,
        proportions=mix,
        support_minima=minima,
        warnings=list(warns),
    )


def bounds_tau_ono(data, assumptions, support_overrides=None):
    mono, warns = _other_group_mono(data, assumptions, "tau_ONO", "5a")
    trim = _require_positive("1 - p_ooo1", 1.0 - mono.p_ooo1)
    p_ono0 = _require_positive("p_ono0", _p_ono0(data, warns))
    treated = Sample(_delta_y(data, 1))
    control_post = _cell_y(data, d=0, s0=1, s1=1, period=1)
    attrit_pre = Sample(_cell_y(data, d=0, s0=1, s1=0, period=0))
    minima = _support_minima(data, ("y01_lb",), support_overrides)
    lb = (
        trimmed_mean_lower(treated, trim)
        - float(np.mean(control_post))
        + trimmed_mean_lower(attrit_pre, p_ono0)
    )
    ub = (
        trimmed_mean_upper(treated, trim)
        - minima["y01_lb"]
        + trimmed_mean_upper(attrit_pre, p_ono0)
    )
    return _other_group_result(
        "tau_ONO", assumptions, lb, ub, mono, warns, minima, p_ono0=p_ono0
    )


def bounds_tau_nno(data, assumptions, support_overrides=None):
    mono, warns = _other_group_mono(data, assumptions, "tau_NNO", "5b")
    trim_ooo = _require_positive("1 - p_ooo1", 1.0 - mono.p_ooo1)
    p_nno1 = _require_positive("p_nno1", _p_nno1(data, warns))
    p_ono0 = _require_positive("p_ono0", _p_ono0(data, warns))
    joiner_post = Sample(_cell_y(data, d=1, s0=0, s1=1, period=1))
    both_pre = _cell_y(data, d=1, s0=1, s1=1, period=0)
    control_joiner_post = _cell_y(data, d=0, s0=0, s1=1, period=1)
    attrit_pre = _cell_y(data, d=0, s0=1, s1=0, period=0)
    minima = _support_minima(data, ("y00_lb", "y01_lb", "y10_lb"), support_overrides)
    lb = (
        trimmed_mean_lower(joiner_post, p_nno1)
        - trimmed_mean_lower(both_pre, trim_ooo)
        - float(np.mean(control_joiner_post))
        + minima["y00_lb"]
    )
    ub = (
        trimmed_mean_upper(joiner_post, p_nno1)
        - minima["y10_lb"]
        - minima["y01_lb"]
        + trimmed_mean_lower(attrit_pre, p_ono0)
    )
    return _other_group_result(
        "tau_NNO", assumptions, lb, ub, mono, warns, minima, p_ono0=p_ono0, p_nno1=p_nno1
    )


def bounds_tau_noo(data, assumptions, support_overrides=None):
    mono, warns = _other_group_mono(
        data, assumptions, "tau_NOO", "5c", joint_independence=False
    )
    p_ooo1 = _require_positive("p_ooo1", mono.p_ooo1)
    p_nno1 = _p_nno1(data, warns)
    trim = _require_positive("1 - p_nno1", 1.0 - p_nno1)
    joiner_post = Sample(_cell_y(data, d=1, s0=0, s1=1, period=1))
    both_pre = _cell_y(data, d=1, s0=1, s1=1, period=0)
    control_joiner_post = _cell_y(data, d=0, s0=0, s1=1, period=1)
    control_both_pre = _cell_y(data, d=0, s0=1, s1=1, period=0)
    minima = _support_minima(data, ("y00_lb", "y10_lb"), support_overrides)
    lb = (
        trimmed_mean_lower(joiner_post, trim)
        - trimmed_mean_lower(both_pre, p_ooo1)
        - float(np.mean(control_joiner_post))
        + minima["y00_lb"]
    )
    ub = (
        trimmed_mean_upper(joiner_post, trim)
        - minima["y10_lb"]
        - float(np.mean(control_joiner_post))
        + float(np.mean(control_both_pre))
    )
    return _other_group_result(
        "tau_NOO", assumptions, lb, ub, mono, warns, minima, p_nno1=p_nno1
    )


def bounds_tau_oo_rcs(data, variant, assumptions):
    """Both endpoints subtract the lower-trimmed control post-period mean,
    exactly as the theorem display is printed; under monotonicity its share
    is 1, and a mean trimmed at share 1 is the plain mean bit for bit.
    Pre-period cell means enter untrimmed, added as one group.
    """
    if assumptions.monotone and assumptions.direction != "positive":
        raise InvalidAssumptions("RCS bounds support positive monotonicity only")
    weights = rcs_weights(data, variant, mono=assumptions.monotone)
    treated_post = Sample(_rcs_cell(data, 1, 1))
    control_post = _rcs_cell(data, 0, 1)
    pre_terms = -mean(_rcs_cell(data, 1, 0)) + mean(_rcs_cell(data, 0, 0))
    q11 = _require_positive("p_ooo1", weights.p_ooo1)
    q01 = _require_positive("p_ooo0", weights.p_ooo0)
    control_term = trimmed_mean_lower(control_post, q01)
    lb = trimmed_mean_lower(treated_post, q11) - control_term + pre_terms
    ub = trimmed_mean_upper(treated_post, q11) - control_term + pre_terms
    return BoundsResult(
        parameter="tau_OO_rcs",
        assumptions=assumptions,
        lb=lb,
        ub=ub,
        proportions=weights,
        warnings=list(weights.warnings),
        extras={"variant": variant},
    )
