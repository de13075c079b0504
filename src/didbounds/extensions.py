"""Repeated cross-section bounds and the staggered 2x2 adapter."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundsResult, MixingProportions, bounds_tau_ooo
from .core import trimmed_mean_lower, trimmed_mean_upper
from .data import AssumptionSet, MultiPeriodPanel, PanelDataset, RcsDataset
from .errors import (
    EmptyCell,
    EmptyGroup,
    InvalidAssumptions,
    MalformedRow,
    MissingPeriod,
    VacuousIdentification,
)

RCS_VARIANTS = ("LevelEquality", "TrendEquality")


@dataclass(frozen=True)
class StaggeredTarget:
    gamma: int
    t: int

    def __post_init__(self):
        if self.gamma < 1:
            raise InvalidAssumptions("gamma must be >= 1")
        if self.t < self.gamma:
            raise InvalidAssumptions("evaluation period t must satisfy t >= gamma")


def _rcs_cell(data: RcsDataset, d: int, t: int) -> np.ndarray:
    """Observed outcomes in the (d, t) cell, row order."""
    mask = (data.d == d) & (data.t == t) & (data.s == 1)
    if not mask.any():
        raise EmptyCell(f"no selected rows with d={d}, t={t}", d=d, t=t)
    return data.y[mask]


def _rcs_select_rate(data: RcsDataset, d: int, t: int) -> float:
    mask = (data.d == d) & (data.t == t)
    if not mask.any():
        raise EmptyCell(f"no rows with d={d}, t={t}", d=d, t=t)
    return float(np.mean(data.s[mask]))


def naive_did_rcs(data: RcsDataset) -> float:
    """Four-mean DiD contrast on selected rows."""
    return (
        float(np.mean(_rcs_cell(data, 1, 1)))
        - float(np.mean(_rcs_cell(data, 1, 0)))
        - float(np.mean(_rcs_cell(data, 0, 1)))
        + float(np.mean(_rcs_cell(data, 0, 0)))
    )


def rcs_weights(data: RcsDataset, variant: str, mono: bool) -> MixingProportions:
    """Mixing weights q_OO11 / q_OO01 for the post-period observed cells.

    LevelEquality uses post-period selection rates only; TrendEquality adds the
    pre-period correction terms. Under positive monotonicity q_OO01 = 1 and
    q_OO11 is the point-identified ratio. Everything clamped to [0,1] with
    warnings.
    """
    if variant not in RCS_VARIANTS:
        raise InvalidAssumptions(f"unknown RCS variant {variant!r}")
    s01 = _rcs_select_rate(data, 0, 1)
    s11 = _rcs_select_rate(data, 1, 1)
    if s11 == 0.0:
        raise EmptyCell("no selected rows with d=1, t=1", d=1, t=1)
    if s01 == 0.0:
        raise EmptyCell("no selected rows with d=0, t=1", d=0, t=1)
    warns: list = []
    if variant == "TrendEquality":
        s00 = _rcs_select_rate(data, 0, 0)
        s10 = _rcs_select_rate(data, 1, 0)
        trend_correction = -s00 + s10
    else:
        trend_correction = 0.0

    def clamp(name, value):
        if value > 1.0:
            warns.append(f"Clamped:{name}")
            return 1.0
        if value < 0.0:
            warns.append(f"Clamped:{name}")
            return 0.0
        return value

    if mono:
        q11 = clamp("q_oo11", (s01 + trend_correction) / s11)
        q01 = 1.0
    else:
        num11 = max(s01 + trend_correction + s11 - 1.0, 0.0)
        num01 = max(s01 + s11 - trend_correction - 1.0, 0.0)
        if num11 == 0.0 or num01 == 0.0:
            warns.append("VacuousIdentification")
        q11 = clamp("q_oo11", num11 / s11)
        q01 = clamp("q_oo01", num01 / s01)
    return MixingProportions(p_ooo1=q11, p_ooo0=q01, source=variant, warnings=warns)


def bounds_tau_oo_rcs(
    data: RcsDataset, variant: str, assumptions: AssumptionSet
) -> BoundsResult:
    """Bounds for the post-period always-observed group in repeated
    cross-sections.

    Without monotonicity both endpoints subtract the lower-trimmed control
    post-period mean, exactly as the theorem display is printed; pre-period
    cell means enter untrimmed.
    """
    if assumptions.monotone and assumptions.direction != "positive":
        raise InvalidAssumptions("RCS bounds support positive monotonicity only")
    weights = rcs_weights(data, variant, mono=assumptions.monotone)
    treated_post = _rcs_cell(data, 1, 1)
    control_post = _rcs_cell(data, 0, 1)
    pre_terms = -float(np.mean(_rcs_cell(data, 1, 0))) + float(
        np.mean(_rcs_cell(data, 0, 0))
    )
    q11, q01 = weights.p_ooo1, weights.p_ooo0
    if q11 <= 0.0 or q01 <= 0.0:
        raise VacuousIdentification("RCS trim weight is zero")
    if assumptions.monotone:
        control_term = float(np.mean(control_post))
        lb = trimmed_mean_lower(treated_post, q11) - control_term + pre_terms
        ub = trimmed_mean_upper(treated_post, q11) - control_term + pre_terms
    else:
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


def panel_from_staggered(
    data: MultiPeriodPanel, target: StaggeredTarget
) -> PanelDataset:
    """Build the 2x2 comparison: cohort gamma vs never-treated, period 0 vs t."""
    treated_units = {u for u, g in zip(data.ids, data.gvar) if g == target.gamma}
    control_units = {u for u, g in zip(data.ids, data.gvar) if g == 0}
    if not treated_units:
        raise EmptyGroup(f"no units first treated in period {target.gamma}", gamma=target.gamma)
    if not control_units:
        raise EmptyGroup("no never-treated units", gamma=0)

    keep = treated_units | control_units
    pre: dict = {}
    post: dict = {}
    for uid, per, s, y in zip(data.ids, data.t, data.s, data.y):
        if uid not in keep or per not in (0, target.t):
            continue
        have = pre if per == 0 else post
        if uid in have:
            raise MalformedRow(f"id {uid} has more than one row for t={per}", id=uid)
        have[uid] = (int(s), float(y))
    for period, have in ((0, pre), (target.t, post)):
        missing = [u for u in data.unit_ids if u in keep and u not in have]
        if missing:
            raise MissingPeriod(
                f"period {period} missing for ids {missing[:5]}", t=period, ids=missing
            )
    ids, d, s0, s1, y0, y1 = [], [], [], [], [], []
    for uid in data.unit_ids:
        if uid not in keep:
            continue
        ids.append(uid)
        d.append(1 if uid in treated_units else 0)
        s0.append(pre[uid][0])
        y0.append(pre[uid][1])
        s1.append(post[uid][0])
        y1.append(post[uid][1])
    return PanelDataset.from_records(ids, d, s0, s1, y0, y1)


def bounds_staggered(
    data: MultiPeriodPanel, target: StaggeredTarget, assumptions: AssumptionSet
) -> BoundsResult:
    """Group-time bound: delegate the constructed 2x2 panel to the panel bound."""
    panel = panel_from_staggered(data, target)
    result = bounds_tau_ooo(panel, assumptions)
    result.parameter = "tau_OOO_staggered"
    result.extras = {"gamma": target.gamma, "t": target.t}
    return result
