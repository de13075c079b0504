"""Naive DiD, mixing-proportion identification, and the two-period panel
bounds for the four latent target groups.

Estimated proportions outside [0,1] are clamped to the nearest endpoint and a
named warning is attached to the result; clamps are never silent. A trim share
of zero (vacuous identification) is an error, not an infinite bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    FrechetInterval,
    Sample,
    cond_prob_s1,
    frechet_interval,
    require_finite,
    trimmed_mean_lower,
    trimmed_mean_upper,
)
from .data import AssumptionSet, PanelDataset
from .errors import EmptyCell, InvalidAssumptions, VacuousIdentification


@dataclass
class MixingProportions:
    """Point (or interval) estimates of the mixing weights and, optionally,
    the twelve strata proportions pi_gd."""

    p_ooo1: float
    p_ooo0: float
    source: str
    p_ooo1_interval: FrechetInterval | None = None
    p_ooo0_interval: FrechetInterval | None = None
    p_ono0: float | None = None
    p_nno1: float | None = None
    strata: dict | None = None
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "p_ooo1": self.p_ooo1,
            "p_ooo0": self.p_ooo0,
            "source": self.source,
        }
        if self.p_ooo1_interval is not None:
            out["p_ooo1_interval"] = [self.p_ooo1_interval.lo, self.p_ooo1_interval.hi]
        if self.p_ooo0_interval is not None:
            out["p_ooo0_interval"] = [self.p_ooo0_interval.lo, self.p_ooo0_interval.hi]
        if self.p_ono0 is not None:
            out["p_ono0"] = self.p_ono0
        if self.p_nno1 is not None:
            out["p_nno1"] = self.p_nno1
        if self.strata is not None:
            out["strata"] = {f"{g}{d}": v for (g, d), v in self.strata.items()}
        return out


@dataclass
class BoundsResult:
    parameter: str
    assumptions: AssumptionSet
    lb: float
    ub: float
    proportions: MixingProportions
    support_minima: dict | None = None
    warnings: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        # an overflowed endpoint is an estimation error, so that a bootstrap
        # replicate that overflows counts as failed
        require_finite(f"{self.parameter} lb", self.lb)
        require_finite(f"{self.parameter} ub", self.ub)

    def to_dict(self) -> dict:
        out = {
            "parameter": self.parameter,
            "assumptions": self.assumptions.to_dict(),
            "lb": self.lb,
            "ub": self.ub,
            "proportions": self.proportions.to_dict(),
            "support_minima": self.support_minima,
            "warnings": list(self.warnings),
        }
        out.update(self.extras)
        return out


def _cell_y(data: PanelDataset, d: int, s0: int, s1: int, period: int) -> np.ndarray:
    if data.cells.count(d, s0, s1) == 0:
        raise EmptyCell(f"no units with d={d}, s0={s0}, s1={s1}", d=d, s0=s0, s1=s1)
    return data.cells.values(period, d, s0, s1)


def _delta_y(data: PanelDataset, d: int) -> np.ndarray:
    """Delta Y for units observed in both periods within arm d, row order."""
    return _cell_y(data, d, 1, 1, period=1) - _cell_y(data, d, 1, 1, period=0)


def naive_did(data: PanelDataset) -> float:
    """DiD contrast on units observed in both periods, ignoring selection."""
    value = float(np.mean(_delta_y(data, 1))) - float(np.mean(_delta_y(data, 0)))
    return require_finite("naive_did", value)


def mixing_no_mono(data: PanelDataset) -> MixingProportions:
    """Least-favorable Frechet weights plus full intervals for reporting."""
    p0 = cond_prob_s1(data, d=0, s0=1)
    p1 = cond_prob_s1(data, d=1, s0=1)
    if p1.value == 0.0:
        raise EmptyCell("no treated units observed in both periods", d=1, s0=1, s1=1)
    if p0.value == 0.0:
        raise EmptyCell("no control units observed in both periods", d=0, s0=1, s1=1)
    joint = frechet_interval(p0.value, p1.value)
    warns = []
    if joint.lo == 0.0:
        warns.append("VacuousIdentification")
    # weights are shares of a cell, so at most 1 whatever rounding, and exactly
    # 1 when the other arm keeps every unit (its two counts are equal)
    kept0, kept1 = (p.numerator_count == p.denominator_count for p in (p0, p1))
    p_ooo1 = 1.0 if kept0 else min(joint.lo / p1.value, 1.0)
    p_ooo0 = 1.0 if kept1 else min(joint.lo / p0.value, 1.0)
    return MixingProportions(
        p_ooo1=p_ooo1,
        p_ooo0=p_ooo0,
        source="Frechet",
        p_ooo1_interval=FrechetInterval(p_ooo1, joint.hi / p1.value),
        p_ooo0_interval=FrechetInterval(p_ooo0, joint.hi / p0.value),
        warnings=warns,
    )


def mixing_mono(data: PanelDataset, direction: str = "positive") -> MixingProportions:
    """Point-identified weights under monotone sample selection + PTS(a)."""
    p0 = cond_prob_s1(data, d=0, s0=1)
    p1 = cond_prob_s1(data, d=1, s0=1)
    if direction == "positive":
        if p1.value == 0.0:
            raise EmptyCell("no treated units observed in both periods", d=1, s0=1, s1=1)
        raw = p0.value / p1.value
    elif direction == "negative":
        if p0.value == 0.0:
            raise EmptyCell("no control units observed in both periods", d=0, s0=1, s1=1)
        raw = p1.value / p0.value
    else:
        raise InvalidAssumptions(f"unknown direction {direction!r}")
    # the arm whose retention the treatment raises is trimmed, to at most 1
    warns = ["MonotonicityViolatedInSample"] if raw > 1.0 else []
    trimmed = min(raw, 1.0)
    p_ooo1, p_ooo0 = (trimmed, 1.0) if direction == "positive" else (1.0, trimmed)
    return MixingProportions(
        p_ooo1=p_ooo1, p_ooo0=p_ooo0, source="Monotone+PTSa", warnings=warns
    )


def _p_ono0(data: PanelDataset, warns: list) -> float:
    """1 - P[S1=0|S0=1,D=1] / P[S1=0|S0=1,D=0], clamped to [0,1]."""
    stay1 = cond_prob_s1(data, d=1, s0=1)
    stay0 = cond_prob_s1(data, d=0, s0=1)
    drop1 = 1.0 - stay1.value
    drop0 = 1.0 - stay0.value
    if drop0 == 0.0:
        raise EmptyCell("no control attriters (d=0, s0=1, s1=0)", d=0, s0=1, s1=0)
    raw = 1.0 - drop1 / drop0
    if raw < 0.0:
        warns.append("NegativeProportionClamped")
        return 0.0
    return raw


def _p_nno1(data: PanelDataset, warns: list) -> float:
    """1 - P[S1=1|S0=0,D=0] / P[S1=1|S0=0,D=1], clamped to [0,1]."""
    join0 = cond_prob_s1(data, d=0, s0=0)
    join1 = cond_prob_s1(data, d=1, s0=0)
    if join1.value == 0.0:
        raise EmptyCell("no treated joiners (d=1, s0=0, s1=1)", d=1, s0=0, s1=1)
    raw = 1.0 - join0.value / join1.value
    if raw < 0.0:
        warns.append("NegativeProportionClamped")
        return 0.0
    return raw


def strata_proportions(data: PanelDataset) -> MixingProportions:
    """All twelve pi_gd under positive monotonicity + joint independence.

    Difference formulas can go slightly negative in sample; those are clamped
    to 0 with a warning. Pre-clamp arm totals equal P[D=d] by construction.
    """
    n = data.n
    cells = data.cells
    warns: list = []

    def cellp(s0, s1, d):
        return cells.count(d, s0, s1) / n

    def armp(s0, d):
        return cells.count(d, s0) / n

    stay_c = cond_prob_s1(data, d=0, s0=1).value      # P[S1=1|S0=1,D=0]
    drop_t = 1.0 - cond_prob_s1(data, d=1, s0=1).value  # P[S1=0|S0=1,D=1]
    join_c = cond_prob_s1(data, d=0, s0=0).value      # P[S1=1|S0=0,D=0]
    noin_t = 1.0 - cond_prob_s1(data, d=1, s0=0).value  # P[S1=0|S0=0,D=1]

    raw = {
        ("OOO", 0): cellp(1, 1, 0),
        ("OOO", 1): stay_c * armp(1, 1),
        ("ONO", 0): cellp(1, 0, 0) - drop_t * armp(1, 0),
        ("ONO", 1): cellp(1, 1, 1) - stay_c * armp(1, 1),
        ("ONN", 0): drop_t * armp(1, 0),
        ("ONN", 1): cellp(1, 0, 1),
        ("NOO", 0): cellp(0, 1, 0),
        ("NOO", 1): join_c * armp(0, 1),
        ("NNO", 0): cellp(0, 0, 0) - noin_t * armp(0, 0),
        ("NNO", 1): cellp(0, 1, 1) - join_c * armp(0, 1),
        ("NNN", 0): noin_t * armp(0, 0),
        ("NNN", 1): cellp(0, 0, 1),
    }
    strata = {}
    for key, value in raw.items():
        if value < 0.0:
            warns.append(f"NegativeProportionClamped:{key[0]}{key[1]}")
            value = 0.0
        strata[key] = value

    mono = mixing_mono(data, "positive")
    warns.extend(mono.warnings)
    return MixingProportions(
        p_ooo1=mono.p_ooo1,
        p_ooo0=1.0,
        source="Joint",
        p_ono0=_p_ono0(data, warns),
        p_nno1=_p_nno1(data, warns),
        strata=strata,
        warnings=warns,
    )


def group_proportion(mix: MixingProportions, group: str) -> float:
    """Population share of a latent group: pi_g0 + pi_g1."""
    if mix.strata is None:
        raise InvalidAssumptions("strata proportions not computed")
    return mix.strata[(group, 0)] + mix.strata[(group, 1)]


def _support_minima(data: PanelDataset, overrides: dict | None = None) -> dict:
    """Observed support minima for the pre/post outcome distributions."""
    out = {}
    # key -> (period, the (d, s0, s1) cells whose outcomes it ranges over)
    specs = {
        "y00_lb": (0, ((0, 1, 0), (0, 1, 1))),
        "y01_lb": (1, ((0, 0, 1), (0, 1, 1))),
        "y10_lb": (0, ((1, 1, 0), (1, 1, 1))),
    }
    for key, (period, members) in specs.items():
        if overrides and key in overrides and overrides[key] is not None:
            out[key] = float(overrides[key])
            continue
        values = np.concatenate([data.cells.values(period, *c) for c in members])
        if values.size == 0:
            raise EmptyCell(f"no observations available for {key}", field=key)
        out[key] = float(np.min(values))
    return out


def _require_positive(name: str, value: float) -> float:
    if value <= 0.0:
        raise VacuousIdentification(f"{name} is zero")
    return value


def bounds_tau_ooo(data: PanelDataset, assumptions: AssumptionSet) -> BoundsResult:
    """Trimming bounds for the always-observed group.

    Under monotonicity one of the weights is 1, and a mean trimmed at share 1
    is the plain mean bit for bit, so one formula serves every assumption set.
    """
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


def _other_group_mono(
    data: PanelDataset,
    assumptions: AssumptionSet,
    parameter: str,
    dominance: str,
    joint_independence: bool = True,
) -> tuple:
    """Check an other-group bound's assumptions; return its mono weights and warnings."""
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
) -> BoundsResult:
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


def bounds_tau_ono(
    data: PanelDataset,
    assumptions: AssumptionSet,
    support_overrides: dict | None = None,
) -> BoundsResult:
    """Bounds for units observed only when untreated (ONO)."""
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


def bounds_tau_nno(
    data: PanelDataset,
    assumptions: AssumptionSet,
    support_overrides: dict | None = None,
) -> BoundsResult:
    """Bounds for units unobserved at baseline, observed only when treated (NNO)."""
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


def bounds_tau_noo(
    data: PanelDataset,
    assumptions: AssumptionSet,
    support_overrides: dict | None = None,
) -> BoundsResult:
    """Bounds for units unobserved at baseline, observed either way after (NOO)."""
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
