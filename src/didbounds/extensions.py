"""Repeated cross-section bounds and the staggered 2x2 adapter."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundsResult, MixingProportions, _bound, _rcs_cell, bounds_tau_ooo
from .core import mean, require_finite
from .data import (
    AssumptionSet,
    MultiPeriodPanel,
    PanelDataset,
    RcsDataset,
    _UnitIds,
)
from .errors import (
    EmptyCell,
    EmptyGroup,
    InvalidAssumptions,
    MissingPeriod,
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


def _rcs_select_rate(data: RcsDataset, d: int, t: int) -> float:
    rows = data.cells.count(d, t)
    if rows == 0:
        raise EmptyCell(f"no rows with d={d}, t={t}", d=d, t=t)
    return data.cells.count(d, t, 1) / rows


def naive_did_rcs(data: RcsDataset) -> float:
    """Four-mean DiD contrast on selected rows."""
    value = (
        mean(_rcs_cell(data, 1, 1))
        - mean(_rcs_cell(data, 1, 0))
        - mean(_rcs_cell(data, 0, 1))
        + mean(_rcs_cell(data, 0, 0))
    )
    return require_finite("naive_did", value)


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
        if not 0.0 <= value <= 1.0:
            warns.append(f"Clamped:{name}")
        return min(max(value, 0.0), 1.0)

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


def bounds_tau_oo_rcs(data: RcsDataset, variant: str, assumptions: AssumptionSet) -> BoundsResult:
    """Bounds for the post-period always-observed group in repeated
    cross-sections: row tau_OO_rcs of ``bounds._FORMULAS`` at the weights of
    ``rcs_weights``, which are computed before the cells are read.

    Under monotonicity the control share is 1, and a mean trimmed at share 1
    is the plain mean bit for bit.
    """
    if assumptions.monotone and assumptions.direction != "positive":
        raise InvalidAssumptions("RCS bounds support positive monotonicity only")
    weights = rcs_weights(data, variant, mono=assumptions.monotone)
    result = _bound("tau_OO_rcs", data, assumptions, mix=weights)
    result.extras = {"variant": variant}
    return result


def panel_from_staggered(
    data: MultiPeriodPanel, target: StaggeredTarget
) -> PanelDataset:
    """Build the 2x2 comparison: cohort gamma vs never-treated, period 0 vs t.

    Units keep the panel's codes (``MultiPeriodPanel._units``), in first-seen
    order, so a cell's outcomes keep the rows' order; ``data`` has at most
    one row a (unit, t), which its constructor or loader checks. Each
    period's rows are pivoted in turn, period 0 and then t: those of kept
    units give each unit's row in that period, so that only the period's
    mask is as long as ``data``. The panel's ids are its units'
    (``_UnitIds``), built only if they are read.
    """
    unit_ids, unit = data._units
    treated = np.zeros(unit_ids.size, dtype=bool)
    treated[unit[data.gvar == target.gamma]] = True
    control = np.zeros(unit_ids.size, dtype=bool)
    control[unit[data.gvar == 0]] = True
    if not treated.any():
        raise EmptyGroup(f"no units first treated in period {target.gamma}", gamma=target.gamma)
    if not control.any():
        raise EmptyGroup("no never-treated units", gamma=0)
    keep = treated | control

    at = np.full((2, unit_ids.size), -1)   # [pre/post, unit] -> row
    for have, period in zip(at, (0, target.t)):
        rows = np.flatnonzero(data.t == period)
        rows = rows[keep[unit[rows]]]
        have[unit[rows]] = rows
        missing = unit_ids[keep & (have < 0)].tolist()
        if missing:
            raise MissingPeriod(
                f"period {period} missing for ids {missing[:5]}", t=period, ids=missing
            )
    units = np.flatnonzero(keep)
    pre, post = at[:, units]
    return PanelDataset.from_records(_UnitIds(unit_ids, units), treated[units],
                                     data.s[pre], data.s[post], data.y[pre], data.y[post])


def bounds_staggered(
    data: MultiPeriodPanel, target: StaggeredTarget, assumptions: AssumptionSet
) -> BoundsResult:
    """Group-time bound: delegate the constructed 2x2 panel to the panel bound."""
    panel = panel_from_staggered(data, target)
    result = bounds_tau_ooo(panel, assumptions)
    result.parameter = "tau_OOO_staggered"
    result.extras = {"gamma": target.gamma, "t": target.t}
    return result
