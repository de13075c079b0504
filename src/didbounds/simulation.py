"""Synthetic DGP generator, Monte Carlo replication harness, and the
independent numerical oracle for the true mixing proportion and bounds.

The latent draws per unit are (c,a) and (u0,v0), (u1,v1) bivariate normal
pairs plus independent b and w. One (u1,v1) pair is shared across the two
counterfactual treatment states; this makes positive monotonicity of selection
hold exactly unit by unit and induces the degenerate covariance pattern
(var 2 / cov 2) between the two counterfactual post-period selection indices.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from . import bounds as _bounds
from .core import _forked_map, mean, require_finite, require_seed
from .data import MONO_POSITIVE, WITHOUT_MONOTONICITY, PanelDataset, _PackedIds, _SELECTED
from .errors import EmptyCell, EstimationError, ValidationError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# antithetic pairs the oracle draws at once; its memory grows with this, not
# with mc_draws, and its results do not depend on it. At 4,096 pairs a
# block's latents take 256 KB and a 2,000,000-draw call's traced scratch
# peaks at 0.65 MiB, against 1.30 MiB at 8,192; of 2,048 to 62,500 on a
# 2-core host, 4,096 and 8,192 ran fastest and 62,500 about 30% slower
_ORACLE_BLOCK = 4_096

# Monte Carlo replicates per worker task; results do not depend on it
_MC_BLOCK = 25


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _norm_ppf(p: float) -> float:
    """Standard normal quantile, with p = 0 and p = 1 mapped to -inf and inf."""
    if p <= 0.0 or p >= 1.0:
        return -math.inf if p <= 0.0 else math.inf
    # imported here so that importing the package does not pay for
    # ``statistics``, which imports ``fractions`` and ``decimal``
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class DgpConfig:
    """The DGP's parameters: ``n`` units (at least 2), the correlations
    ``rho_ca`` and ``rho_uv`` (each in (-1, 1)), the finite
    ``outcome_intercept``, ``att`` and ``selection_shift``, and the seed of
    the draws (an int or a list of ints, none negative; numpy integers too).
    Any other value is a ``ValidationError`` when the config is built."""

    n: int = 1000
    rho_ca: float = 0.7
    # 0.6 reproduces the reference true bounds / conditional moments exactly;
    # see the docs for why this is the internally consistent value.
    rho_uv: float = 0.6
    outcome_intercept: float = 5.0
    att: float = 4.0
    selection_shift: float = 1.5
    seed: object = 0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ValidationError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValidationError("n must be >= 2")
        for name in ("rho_ca", "rho_uv"):
            rho = getattr(self, name)
            if not (-1.0 < rho < 1.0):
                raise ValidationError(f"{name} must be in (-1,1), got {rho}")
        for name in ("outcome_intercept", "att", "selection_shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        require_seed(self.seed)


def _latents(rng: np.random.Generator, n: int, config: DgpConfig) -> dict:
    x = rng.standard_normal((n, 8))
    ca = math.sqrt(1.0 - config.rho_ca**2)
    uv = math.sqrt(1.0 - config.rho_uv**2)
    return {
        "c": x[:, 0],
        "a": config.rho_ca * x[:, 0] + ca * x[:, 1],
        "u0": x[:, 2],
        "v0": config.rho_uv * x[:, 2] + uv * x[:, 3],
        "u1": x[:, 4],
        "v1": config.rho_uv * x[:, 4] + uv * x[:, 5],
        "b": x[:, 6],
        "w": x[:, 7],
    }


@lru_cache(maxsize=4)
def _unit_ids(n: int) -> _PackedIds:
    """The ids "1".."n", packed (``data._PackedIds``) once per ``n`` and shared
    by every panel drawn at that size, none of which builds them unless read."""
    names = list(map(str, range(1, n + 1)))
    ids = _PackedIds()
    ids.extend(np.frombuffer("".join(names).encode(), np.uint8), np.cumsum(list(map(len, names))))
    return ids


def generate_panel(config: DgpConfig) -> PanelDataset:
    """Draw a two-period panel from the DGP.

    Each 0/1 column is one comparison: ``s1`` is ``(shift * d + b) + v1 > 0``,
    which for a finite shift is ``(shift + b) + v1 > 0`` where treated and
    ``b + v1 > 0`` where not. An outcome is NaN where it is not selected.
    """
    lat = _latents(np.random.default_rng(config.seed), config.n, config)
    # floats, since an int parameter times the int8 ``d`` would stay int8
    att, shift = float(config.att), float(config.selection_shift)
    d = (lat["a"] + lat["w"] > 0).astype(np.int8)
    s0 = (lat["b"] + lat["v0"] > 0).astype(np.int8)
    s1 = (shift * d + lat["b"] + lat["v1"] > 0).astype(np.int8)
    y0 = (lat["c"] + lat["u0"]) * _SELECTED.take(s0)
    y1 = (config.outcome_intercept + att * d + lat["c"] + lat["u1"]) * _SELECTED.take(s1)
    return PanelDataset.from_records(_unit_ids(config.n), d, s0, s1, y0, y1)


@dataclass
class OracleResult:
    p_true: float
    lb_true: float
    ub_true: float
    mu1: float
    mu2: float
    mu3: float
    mc_draws: int
    se_mc: float
    p_true_alt: float = 0.0  # consistency check: ratio without the D condition

    def to_dict(self) -> dict:
        return {
            "p_true": self.p_true,
            "lb_true": self.lb_true,
            "ub_true": self.ub_true,
            "mu1": self.mu1,
            "mu2": self.mu2,
            "mu3": self.mu3,
            "mc_draws": self.mc_draws,
            "se": self.se_mc,
        }


def oracle_true_values(
    config: DgpConfig, mc_draws: int, seed: int = 123456789
) -> OracleResult:
    """True mixing proportion, conditional moments, and bounds by Monte Carlo
    integration over the exact joint normal latent structure, with antithetic
    variates. The trimmed tail means use closed-form truncated-normal moments.

    Every statistic of a draw needs its period-0 index ``z1 = b + v0`` to be
    positive, and the antithetic draw negates every latent, so at most one
    draw of a pair counts: a pair's average is half the statistics of its
    draw with ``z1 > 0``. Each pair is folded onto that draw by negating its
    ``z2``, ``z4`` and ``du`` where ``z1 < 0``, which is exact.
    """
    if mc_draws < 10**5:
        raise ValidationError("mc_draws must be >= 1e5")
    require_seed(seed)
    rng = np.random.default_rng(seed)
    half = (mc_draws + 1) // 2
    # pairs per partial sum of the du columns; it fixes their summation order
    reduction = 1_000_000
    shift = config.selection_shift

    # sums over antithetic pair-averages of the eight statistics. The
    # indicator columns (0 OOO1, 1 ONO1, 2 treated and 5 control observed in
    # both periods, 7 both) are halves of pair counts, exact in any order. The
    # du columns (3, 4, 6) are summed row after row within each reduction
    # block: a block drawn in pieces carries its running sum into the first row
    # of the next piece, as a sum over the whole block would add it.
    counts = np.zeros(5, np.int64)   # pairs in columns 0, 1, 2, 5 and 7
    sums = np.zeros(8)
    pairs = 0
    size = min(_ORACLE_BLOCK, half)
    folded = np.empty((3, size))   # z2, z4 and du of each pair's counting draw
    acc = np.empty((3, size))      # the pairs' du columns, one a row
    while pairs < half:
        end = min(pairs + reduction, half)
        part = None
        while pairs < end:
            m = min(_ORACLE_BLOCK, end - pairs)
            lat = _latents(rng, m, config)
            z1 = lat["b"] + lat["v0"]
            zs = folded[:, :m]
            z2, z4, du = zs
            np.add(lat["b"], lat["v1"], out=z2)   # both counterfactual post indices
            np.add(lat["a"], lat["w"], out=z4)
            np.subtract(lat["u1"], lat["u0"], out=du)
            del lat   # its 256 KB are free before the columns are built
            zs *= np.sign(z1)   # a pair whose z1 is 0 counts nowhere
            obs = z1 != 0
            at = z2 > -shift   # treated observed in both periods
            at &= obs
            ac = z2 > 0        # control observed in both periods
            ac &= obs
            treated = z4 > 0
            both = ac & at
            ono = z2 < 0       # observed at baseline and only if treated
            ono &= at
            ono &= treated
            counts += (np.count_nonzero(both & treated), np.count_nonzero(ono),
                       np.count_nonzero(at), np.count_nonzero(ac), np.count_nonzero(both))
            block = acc[:, :m]
            np.multiply(du, at, out=block[0])
            np.multiply(du * du, at, out=block[1])
            np.multiply(du, ac, out=block[2])
            block += 0.0   # a zero as a pair's two draws add up to it, never -0.0
            block *= 0.5
            if part is not None:
                block[:, 0] += part
            # running sums, row after row; the last are the sums so far
            part = np.add.accumulate(block, axis=1, out=block)[:, -1].copy()
            pairs += m
        sums[[3, 4, 6]] += part
    sums[[0, 1, 2, 5, 7]] = 0.5 * counts
    sq = 0.25 * counts[:2]   # for the delta-method se of p_true
    # an arm with no draw observed in both periods leaves its ratios 0/0:
    # p_true, mu1 and mu2 for the treated, mu3 for the control
    for d, count in ((1, counts[0] + counts[1]), (0, counts[3])):
        if count == 0:
            raise EmptyCell(f"no oracle draw with d={d} is observed in both periods",
                            d=d, s0=1, s1=1)

    pi_ooo1 = sums[0] / pairs
    pi_ono1 = sums[1] / pairs
    p_true = pi_ooo1 / (pi_ooo1 + pi_ono1)
    mu1 = sums[3] / sums[2]
    mu2 = sums[4] / sums[2]
    mu3 = sums[6] / sums[5]
    p_true_alt = sums[7] / sums[2]

    # delta-method MC standard error for p_true over antithetic pair-averages
    var1 = sq[0] / pairs - pi_ooo1**2
    var2 = sq[1] / pairs - pi_ono1**2
    # no draw is in both OOO1 (z2 > 0) and ONO1 (z2 < 0): their cross moment is 0
    cov12 = 0.0 - pi_ooo1 * pi_ono1
    tot = pi_ooo1 + pi_ono1
    d1 = pi_ono1 / tot**2
    d2 = -pi_ooo1 / tot**2
    se_mc = math.sqrt(
        max(d1 * d1 * var1 + 2 * d1 * d2 * cov12 + d2 * d2 * var2, 0.0) / pairs
    )

    sigma_w = math.sqrt(mu2 - mu1**2)
    mu_w = config.outcome_intercept + config.att + mu1
    control_mean = config.outcome_intercept + mu3
    lb_true = mu_w - sigma_w * _norm_pdf(_norm_ppf(p_true)) / p_true - control_mean
    ub_true = mu_w + sigma_w * _norm_pdf(_norm_ppf(1.0 - p_true)) / p_true - control_mean
    return OracleResult(
        p_true=p_true,
        lb_true=lb_true,
        ub_true=ub_true,
        mu1=mu1,
        mu2=mu2,
        mu3=mu3,
        mc_draws=2 * pairs,
        se_mc=se_mc,
        p_true_alt=p_true_alt,
    )


ASSUMPTION_SET_NAMES = {
    "nomono": WITHOUT_MONOTONICITY,
    "mono-pos": MONO_POSITIVE,
}

MC_COLUMNS = [
    "n",
    "reps",
    "assumption_set",
    "mean_lb",
    "mean_ub",
    "mean_naive",
    "mean_p_ooo1",
    "coverage",
]


@dataclass
class MonteCarloRow:
    n: int
    reps: int
    assumption_set: str
    mean_lb: float
    mean_ub: float
    mean_naive: float
    mean_p_ooo1: float
    coverage: float
    failed_reps: int = 0
    lbs: list = field(default_factory=list)
    ubs: list = field(default_factory=list)

    def to_record(self) -> list:
        return [getattr(self, name) for name in MC_COLUMNS]


def _usual_did(panel: PanelDataset) -> float:
    """Usual four-mean DiD on every observed outcome in each period:
    E[Y1|D=1,S1=1] - E[Y0|D=1,S0=1] - E[Y1|D=0,S1=1] + E[Y0|D=0,S0=1].

    This is the estimand whose selection bias the Monte Carlo study reports.
    It differs from ``bounds.naive_did``, the balanced-panel contrast on units
    observed in both periods. One that overflows raises ``NonFiniteEstimate``.
    """

    cells = panel.cells
    # arm d's rows observed in period t, in row order: those whose code
    # 4d + 2s0 + s1 without the other period's bit is 4d plus s_t's bit, which
    # is 2 for t = 0 and 1 for t = 1
    bits = (cells.code & 6, cells.code & 5)

    def cell_mean(d: int, period: int) -> float:
        rows = cells.count(d, 1) if period == 0 else cells.count(d, 0, 1) + cells.count(d, 1, 1)
        if rows == 0:
            raise EmptyCell(
                f"no observed outcomes with d={d}, t={period}", d=d, t=period
            )
        y = panel.y0 if period == 0 else panel.y1
        return mean(y.compress(bits[period] == 4 * d + 2 - period))

    return require_finite(
        "usual_did", cell_mean(1, 1) - cell_mean(1, 0) - cell_mean(0, 1) + cell_mean(0, 0))


def _mean(values: list) -> float:
    """``np.mean`` of a list of finite values, NaN if it is empty; where their
    sum overflows, the sum of each over the count, within the values' range."""
    with np.errstate(over="ignore"):
        value = float(np.mean(values)) if values else math.nan
        if math.isinf(value):
            value = float(np.clip(np.sum(np.divide(values, len(values))), min(values), max(values)))
    return value


def _estimate(fn, *args):
    """``fn(*args)``, or None where it raises an estimation error."""
    try:
        return fn(*args)
    except EstimationError:
        return None


def _replicates(config: DgpConfig, asets: list, start: int, stop: int) -> list:
    """Replicates ``start``..``stop - 1``: per replicate the usual DiD and, per
    assumption set, ``(lb, ub, p_ooo1)``, each None where it failed. A failed
    usual DiD fails every set: its empty cell empties ``tau_OOO``'s (1,1,1)
    or (0,1,1) cell. Each set's bound is ``bounds_tau_ooo``'s, evaluated by
    ``bounds._bound`` on one memo of the panel's samples, so that the sets
    gather and sort each cell once."""
    seed = config.seed if isinstance(config.seed, (list, tuple)) else [config.seed]
    out = []
    for rep in range(start, stop):
        panel = generate_panel(replace(config, seed=[*seed, rep]))
        naive = _estimate(_usual_did, panel)
        bound = partial(_bounds._bound, "tau_OOO", panel, memo={})
        results = [None if naive is None else _estimate(bound, aset) for aset in asets]
        out.append((naive, [None if res is None else (res.lb, res.ub, res.proportions.p_ooo1)
                            for res in results]))
    return out


def run_monte_carlo(
    config: DgpConfig,
    reps: int,
    assumption_sets: list,
    coverage: str = "att",
    oracle_draws: int = 2_000_000,
) -> list:
    """Replication study over fresh DGP draws, one row per name in
    ``assumption_sets`` ("mono-pos" or "nomono").

    ``coverage`` selects what the estimated interval must contain per
    replicate: "att" (the true treatment effect; default — the definition
    consistent with the reported coverage columns) or "interval" (the entire
    true bound interval). ``mean_naive`` averages the usual four-mean DiD
    (``_usual_did``), not the balanced-panel ``naive_did``, over the
    replicates where it exists (NaN if none). A replicate whose bound raises
    an estimation error counts in that row's ``failed_reps``, and one whose
    usual DiD raises one in every row's. The true bounds for "interval" come
    from ``oracle_true_values`` with ``oracle_draws``.

    The oracle when it is needed, and blocks of ``_MC_BLOCK`` replicates, are
    tasks of ``core._forked_map`` on forked workers, one per CPU. Replicate
    ``rep`` draws from ``[seed, rep]``, or ``[*seed, rep]`` for a seed list,
    wherever it runs, and the results are folded in replicate order, so the
    rows do not depend on the number of workers. Any other error is raised as
    a serial run would raise it: the oracle's first, then that of the first
    replicate that raises one.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if coverage not in ("att", "interval"):
        raise ValidationError(f"unknown coverage definition {coverage!r}")
    if not assumption_sets:
        raise ValidationError("no assumption set given: name mono-pos, nomono or both")
    for name in assumption_sets:
        if name not in ASSUMPTION_SET_NAMES:
            raise ValidationError(f"unknown assumption set {name!r}")
    asets = [ASSUMPTION_SET_NAMES[name] for name in assumption_sets]

    tasks = [partial(oracle_true_values, config, oracle_draws)] if coverage == "interval" else []
    tasks += [partial(_replicates, config, asets, a, min(a + _MC_BLOCK, reps))
              for a in range(0, reps, _MC_BLOCK)]
    results = _forked_map(tasks)
    # what an interval must contain to cover: the ATT, or the whole true interval
    if coverage == "interval":
        oracle = results.pop(0)
        lo, hi = oracle.lb_true, oracle.ub_true
    else:
        lo = hi = config.att

    replicates = [rep for block in results for rep in block]
    mean_naive = _mean([naive for naive, _ in replicates if naive is not None])
    rows = []
    for j, name in enumerate(assumption_sets):
        ok = [bounds[j] for _, bounds in replicates if bounds[j] is not None]
        covered = sum(lb <= lo and ub >= hi for lb, ub, _ in ok)
        lbs, ubs, ps = ([bound[k] for bound in ok] for k in range(3))
        rows.append(MonteCarloRow(
            n=config.n, reps=reps, assumption_set=name, mean_lb=_mean(lbs),
            mean_ub=_mean(ubs), mean_naive=mean_naive, mean_p_ooo1=_mean(ps),
            coverage=covered / len(ok) if ok else math.nan,
            failed_reps=reps - len(ok), lbs=lbs, ubs=ubs,
        ))
    return rows


def monte_carlo_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MC_COLUMNS)
    for row in rows:
        writer.writerow(row.to_record())
    return buf.getvalue()
