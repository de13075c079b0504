"""The four two-period panel bounds written out one function each: the
reference the table of bound formulas in ``didbounds.bounds`` is checked
against.

Each function checks its assumptions, computes its weights and shares, reads
its cells and support minima, and sums its terms in the order the bound's
display prints them.
"""

import numpy as np

from didbounds.bounds import (
    BoundsResult,
    MixingProportions,
    _cell_y,
    _p_nno1,
    _p_ono0,
    _require_positive,
    _support_minima,
    mixing_mono,
    mixing_no_mono,
)
from didbounds.core import Sample, trimmed_mean_lower, trimmed_mean_upper
from didbounds.errors import InvalidAssumptions


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
    minima = _support_minima(data, support_overrides)
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
    minima = _support_minima(data, support_overrides)
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
    minima = _support_minima(data, support_overrides)
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
