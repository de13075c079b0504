"""Naive DiD, mixing-proportion identification, and the two-period bounds (a
panel's four latent target groups, a repeated cross-section's always-observed
group): rows of one table of signed cell terms (``_FORMULAS``), one evaluator.

Estimated proportions outside [0,1] are clamped to the nearest endpoint and a
named warning is attached to the result; clamps are never silent. A trim share
of zero (vacuous identification) is an error, not an infinite bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    FrechetInterval,
    Sample,
    cond_prob_s1,
    frechet_interval,
    mean,
    require_finite,
    trimmed_mean_lower,
    trimmed_mean_upper,
)
from .data import AssumptionSet, PanelDataset, RcsDataset
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
    """Cell (d, s0, s1)'s outcomes in ``period``; ``period`` 2 reads its Delta Y."""
    if data.cells.count(d, s0, s1) == 0:
        raise EmptyCell(f"no units with d={d}, s0={s0}, s1={s1}", d=d, s0=s0, s1=s1)
    return data.cells.values(period, d, s0, s1)


def _rcs_cell(data: RcsDataset, d: int, t: int) -> np.ndarray:
    """Observed outcomes in the (d, t) cell, row order."""
    if data.cells.count(d, t, 1) == 0:
        raise EmptyCell(f"no selected rows with d={d}, t={t}", d=d, t=t)
    return data.cells.values(0, d, t, 1)


def _delta_y(data: PanelDataset, d: int) -> np.ndarray:
    """Delta Y for units observed in both periods within arm d, row order:
    one gather from the panel's shared Delta Y column."""
    return _cell_y(data, d, 1, 1, period=2)


def naive_did(data: PanelDataset) -> float:
    """DiD contrast on units observed in both periods, ignoring selection."""
    value = mean(_delta_y(data, 1)) - mean(_delta_y(data, 0))
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


def _clamp_share(raw: float, warns: list) -> float:
    """A share 1 - a/b (at most 1), clamped up to 0 with a warning."""
    if raw < 0.0:
        warns.append("NegativeProportionClamped")
    return max(raw, 0.0)


def _p_ono0(data: PanelDataset, warns: list) -> float:
    """1 - P[S1=0|S0=1,D=1] / P[S1=0|S0=1,D=0], clamped to [0,1]."""
    drop1 = 1.0 - cond_prob_s1(data, d=1, s0=1).value
    drop0 = 1.0 - cond_prob_s1(data, d=0, s0=1).value
    if drop0 == 0.0:
        raise EmptyCell("no control attriters (d=0, s0=1, s1=0)", d=0, s0=1, s1=0)
    return _clamp_share(1.0 - drop1 / drop0, warns)


def _p_nno1(data: PanelDataset, warns: list) -> float:
    """1 - P[S1=1|S0=0,D=0] / P[S1=1|S0=0,D=1], clamped to [0,1]."""
    join0 = cond_prob_s1(data, d=0, s0=0).value
    join1 = cond_prob_s1(data, d=1, s0=0).value
    if join1 == 0.0:
        raise EmptyCell("no treated joiners (d=1, s0=0, s1=1)", d=1, s0=0, s1=1)
    return _clamp_share(1.0 - join0 / join1, warns)


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


def _support_minima(data: PanelDataset, keys, overrides: dict | None = None) -> dict:
    """The support minima ``keys`` of the pre/post outcome distributions, in
    sorted order (y00, y01, y10), observed or set by ``overrides``."""
    out = {}
    # key -> (period, the (d, s0, s1) cells whose outcomes it ranges over)
    specs = {
        "y00_lb": (0, ((0, 1, 0), (0, 1, 1))),
        "y01_lb": (1, ((0, 0, 1), (0, 1, 1))),
        "y10_lb": (0, ((1, 1, 0), (1, 1, 1))),
    }
    for key in sorted(keys):
        period, members = specs[key]
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


# The table of bound formulas: one row per two-period bound. A row names the
# mean dominance and the joint independence the bound requires (tau_OOO and
# tau_OO_rcs require neither); its shares, in the order they are checked, each
# marked True where it must be positive; and its lb and ub as terms (sign,
# statistic, sample, share) or groups of terms, each summed on its own, then
# added. A share is a weight (p_ooo1, p_ooo0: for RCS, q_OO11 and q_OO01),
# p_ono0 or p_nno1, or 1 minus one of those. A statistic is "mean", "lower" or
# "upper" (the trimmed tail means of ``core`` at the share) of a sample: a
# panel cell (d, s0, s1, period), an arm's Delta Y ("dY", d) or an RCS cell's
# observed rows ("y", d, t); or it is "min", a support minimum, whose sample
# is its key in ``_support_minima``.


@dataclass(frozen=True)
class _Formula:
    dominance: str | None
    joint_independence: bool
    shares: tuple
    lb: tuple
    ub: tuple

    @cached_property
    def terms(self) -> tuple:
        """The terms of lb and then ub, each group's members in its place."""
        return tuple(t for term in self.lb + self.ub
                     for t in (term if isinstance(term[0], tuple) else (term,)))

    @cached_property
    def samples(self) -> tuple:
        """The cells the terms read, each once, in term order."""
        return tuple(dict.fromkeys(sample for _, statistic, sample, _ in self.terms
                                   if statistic != "min"))

    @cached_property
    def support_minima(self) -> frozenset:
        """The keys of the support minima the terms use, which overrides may set."""
        return frozenset(sample for _, statistic, sample, _ in self.terms
                         if statistic == "min")


_FORMULAS = {
    "tau_OOO": _Formula(
        None, False, (("p_ooo1", True), ("p_ooo0", True)),
        lb=((1, "lower", ("dY", 1), "p_ooo1"), (-1, "upper", ("dY", 0), "p_ooo0")),
        ub=((1, "upper", ("dY", 1), "p_ooo1"), (-1, "lower", ("dY", 0), "p_ooo0")),
    ),
    "tau_ONO": _Formula(
        "5a", True, (("1 - p_ooo1", True), ("p_ono0", True)),
        lb=((1, "lower", ("dY", 1), "1 - p_ooo1"), (-1, "mean", (0, 1, 1, 1), None),
            (1, "lower", (0, 1, 0, 0), "p_ono0")),
        ub=((1, "upper", ("dY", 1), "1 - p_ooo1"), (-1, "min", "y01_lb", None),
            (1, "upper", (0, 1, 0, 0), "p_ono0")),
    ),
    "tau_NNO": _Formula(
        "5b", True, (("1 - p_ooo1", True), ("p_nno1", True), ("p_ono0", True)),
        lb=((1, "lower", (1, 0, 1, 1), "p_nno1"), (-1, "lower", (1, 1, 1, 0), "1 - p_ooo1"),
            (-1, "mean", (0, 0, 1, 1), None), (1, "min", "y00_lb", None)),
        ub=((1, "upper", (1, 0, 1, 1), "p_nno1"), (-1, "min", "y10_lb", None),
            (-1, "min", "y01_lb", None), (1, "lower", (0, 1, 0, 0), "p_ono0")),
    ),
    "tau_NOO": _Formula(
        "5c", False, (("p_ooo1", True), ("p_nno1", False), ("1 - p_nno1", True)),
        lb=((1, "lower", (1, 0, 1, 1), "1 - p_nno1"), (-1, "lower", (1, 1, 1, 0), "p_ooo1"),
            (-1, "mean", (0, 0, 1, 1), None), (1, "min", "y00_lb", None)),
        ub=((1, "upper", (1, 0, 1, 1), "1 - p_nno1"), (-1, "min", "y10_lb", None),
            (-1, "mean", (0, 0, 1, 1), None), (1, "mean", (0, 1, 1, 0), None)),
    ),
    # both endpoints lower-trim the control post-period mean, as the theorem prints it
    "tau_OO_rcs": _Formula(
        None, False, (("p_ooo1", True), ("p_ooo0", True)),
        lb=((1, "lower", ("y", 1, 1), "p_ooo1"), (-1, "lower", ("y", 0, 1), "p_ooo0"),
            ((-1, "mean", ("y", 1, 0), None), (1, "mean", ("y", 0, 0), None))),
        ub=((1, "upper", ("y", 1, 1), "p_ooo1"), (-1, "lower", ("y", 0, 1), "p_ooo0"),
            ((-1, "mean", ("y", 1, 0), None), (1, "mean", ("y", 0, 0), None))),
    ),
}


def _samples(data, row: _Formula, memo: dict) -> dict:
    """``memo`` with each cell ``row`` reads added, as a ``Sample``, keyed as
    ``_Formula.samples`` keys it; an empty one raises ``EmptyCell``. Bounds
    on one dataset that share a memo gather and sort each cell once."""
    for sample in row.samples:
        if sample not in memo:
            memo[sample] = Sample(_delta_y(data, sample[1]) if sample[0] == "dY"
                                  else _rcs_cell(data, *sample[1:]) if sample[0] == "y"
                                  else _cell_y(data, *sample))
    return memo


def _endpoint(terms: tuple, samples: dict, shares: dict, minima: dict | None) -> float:
    """The sum of ``terms``, left to right from the first, so that a -0.0 stays
    -0.0; a group is summed on its own the same way, then added."""
    total = None
    for term in terms:
        if isinstance(term[0], tuple):
            sign, value = 1, _endpoint(term, samples, shares, minima)
        else:
            sign, statistic, sample, share = term
            if statistic == "min":
                value = minima[sample]
            elif statistic == "mean":
                value = samples[sample].row_mean
            elif statistic == "lower":
                value = trimmed_mean_lower(samples[sample], shares[share])
            else:
                value = trimmed_mean_upper(samples[sample], shares[share])
        total = sign * value if total is None else total + sign * value
    return total


def _bound(parameter, data, assumptions, support_overrides=None, mix=None,
           memo=None) -> BoundsResult:
    """The bound of row ``parameter`` of ``_FORMULAS``.

    tau_OOO and tau_OO_rcs read their cells, then take the weights ``mix``
    their caller computed (tau_OO_rcs) or compute the panel's, then check
    their shares; the other rows check their assumptions, compute their
    weights and shares, and then read their cells and support minima. A
    caller that bounds one dataset more than once may pass one ``memo`` dict
    to every call, which then share each cell's ``Sample`` (``_samples``).
    """
    row = _FORMULAS[parameter]
    if row.dominance is None:
        samples = _samples(data, row, {} if memo is None else memo)
        if mix is None:
            mix = (mixing_mono(data, assumptions.direction) if assumptions.monotone
                   else mixing_no_mono(data))
    else:
        wanted = ("with_monotonicity", "positive", row.dominance)
        if (assumptions.variant, assumptions.direction, assumptions.mean_dominance) != wanted:
            raise InvalidAssumptions("this bound requires with_monotonicity(positive) and "
                                     f"mean dominance {row.dominance}")
        if row.joint_independence and not assumptions.joint_independence:
            raise InvalidAssumptions(f"{parameter} requires joint_independence")
        mix = mixing_mono(data, "positive")
    warns = list(mix.warnings)
    shares = {"p_ooo1": mix.p_ooo1, "p_ooo0": mix.p_ooo0}
    for name, positive in row.shares:
        if name.startswith("1 - "):
            shares[name] = 1.0 - shares[name[4:]]
        elif name not in shares:
            shares[name] = (_p_ono0 if name == "p_ono0" else _p_nno1)(data, warns)
        if positive:
            _require_positive(name, shares[name])
    if row.dominance is not None:
        samples = _samples(data, row, {} if memo is None else memo)
        mix = MixingProportions(mix.p_ooo1, 1.0, "Joint", p_ono0=shares.get("p_ono0"),
                                p_nno1=shares.get("p_nno1"), warnings=warns)
    minima = (_support_minima(data, row.support_minima, support_overrides)
              if row.support_minima else None)
    lb = _endpoint(row.lb, samples, shares, minima)
    ub = _endpoint(row.ub, samples, shares, minima)
    return BoundsResult(parameter, assumptions, lb, ub, mix, support_minima=minima,
                        warnings=list(warns))


def bounds_tau_ooo(data: PanelDataset, assumptions: AssumptionSet) -> BoundsResult:
    """Trimming bounds for the always-observed group.

    Under monotonicity one of the weights is 1, and a mean trimmed at share 1
    is the plain mean bit for bit, so one formula serves every assumption set.
    """
    return _bound("tau_OOO", data, assumptions)


def bounds_tau_ono(data: PanelDataset, assumptions: AssumptionSet,
                   support_overrides: dict | None = None) -> BoundsResult:
    """Bounds for units observed only when untreated (ONO)."""
    return _bound("tau_ONO", data, assumptions, support_overrides)


def bounds_tau_nno(data: PanelDataset, assumptions: AssumptionSet,
                   support_overrides: dict | None = None) -> BoundsResult:
    """Bounds for units unobserved at baseline, observed only when treated (NNO)."""
    return _bound("tau_NNO", data, assumptions, support_overrides)


def bounds_tau_noo(data: PanelDataset, assumptions: AssumptionSet,
                   support_overrides: dict | None = None) -> BoundsResult:
    """Bounds for units unobserved at baseline, observed either way after (NOO)."""
    return _bound("tau_NOO", data, assumptions, support_overrides)
