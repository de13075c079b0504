"""Output checks for the benchmark, computed apart from the program.

Every bound a workload prints is recomputed here with numpy from the arrays
``gen.py`` drew, following the definitions in the docstrings of
``didbounds/core.py``: the type-1 empirical quantile (the smallest sample
value whose empirical CDF reaches q), a lower trimmed mean over the values at
or below the p-quantile, and an upper trimmed mean over the values strictly
above the (1 - p)-quantile (the plain mean at p = 1). Nothing here imports
``didbounds``.

Run ``python3 perfbench/check.py --workload W --seed S OUT...`` with the
stdout files of the workload's CLI calls, in order; it exits 1 and names the
failed check when an output is wrong.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from statistics import NormalDist

import numpy as np

import gen
import workloads

# lb/ub must match to this relative tolerance; the program and the checker
# sum the same values in different orders.
REL_TOL = 1e-9
# Two independent 200-draw bootstraps of the same sd differ by about 7% (one
# sd, log scale); 1.5x is beyond five of those sds.
SE_BAND = 1.5
IM_LEVEL = 0.95

# The paper's Monte Carlo table (n = 2000, 1000 replications) and the
# tolerances the repository's acceptance criteria 2 and 4 use for it.
MC_REFERENCE = {
    ("mono-pos", "mean_lb"): (3.0794, 0.03),
    ("mono-pos", "mean_ub"): (4.3932, 0.03),
    ("nomono", "mean_lb"): (2.7483, 0.05),
    ("nomono", "mean_ub"): (4.7250, 0.05),
    ("mono-pos", "mean_naive"): (3.7727, 0.03),
    ("mono-pos", "mean_p_ooo1"): (0.7052, 0.01),
}


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---- trimming, as core.py defines it ------------------------------------

def _quantile_index(n: int, q: float) -> int:
    """Index in the sorted sample of the type-1 q-quantile: the first k whose
    empirical CDF (k + 1) / n reaches q."""
    return int(np.argmax(np.arange(1, n + 1) / n >= q))


def trim_lower(values: np.ndarray, p: float) -> float:
    v = np.sort(values)
    thr = v[_quantile_index(v.size, p)]
    return float(v[v <= thr].mean())


def trim_upper(values: np.ndarray, p: float) -> float:
    if p == 1.0:
        return float(values.mean())
    v = np.sort(values)
    thr = v[_quantile_index(v.size, 1.0 - p)]
    return float(v[v > thr].mean())


def _share(num_mask: np.ndarray, den_mask: np.ndarray) -> float:
    return int(np.count_nonzero(num_mask)) / int(np.count_nonzero(den_mask))


# ---- expected bounds -----------------------------------------------------

def _both(a: dict, d: int) -> np.ndarray:
    mask = (a["d"] == d) & (a["s0"] == 1) & (a["s1"] == 1)
    return a["y1"][mask] - a["y0"][mask]


def _stay(a: dict, d: int, s0: int) -> float:
    """P[S1 = 1 | D = d, S0 = s0]."""
    den = (a["d"] == d) & (a["s0"] == s0)
    return _share(den & (a["s1"] == 1), den)


def frechet_weights(p0: float, p1: float) -> tuple:
    """Least-favourable weights (p_ooo1, p_ooo0) without monotonicity: the
    Frechet lower bound of the joint retention over each marginal."""
    joint = min(max(p0 + p1 - 1.0, 0.0), min(p0, p1))
    return min(joint / p1, 1.0), min(joint / p0, 1.0)


def panel_ooo_nomono(a: dict) -> tuple:
    w1, w0 = frechet_weights(_stay(a, 0, 1), _stay(a, 1, 1))
    treated, control = _both(a, 1), _both(a, 0)
    return (trim_lower(treated, w1) - trim_upper(control, w0),
            trim_upper(treated, w1) - trim_lower(control, w0))


def panel_ono_mono(a: dict) -> tuple:
    """tau_ONO under positive monotonicity, joint independence and mean
    dominance: trim the treated changes at 1 - p_ooo1 and the control
    attriters' baseline outcomes at p_ono0."""
    stay0, stay1 = _stay(a, 0, 1), _stay(a, 1, 1)
    trim = 1.0 - min(stay0 / stay1, 1.0)
    p_ono0 = max(1.0 - (1.0 - stay1) / (1.0 - stay0), 0.0)
    treated = _both(a, 1)
    control = (a["d"] == 0) & (a["s0"] == 1)
    control_post = a["y1"][control & (a["s1"] == 1)]
    attrit_pre = a["y0"][control & (a["s1"] == 0)]
    y01_min = float(a["y1"][(a["d"] == 0) & (a["s1"] == 1)].min())
    lb = trim_lower(treated, trim) - float(control_post.mean()) + trim_lower(attrit_pre, p_ono0)
    ub = trim_upper(treated, trim) - y01_min + trim_upper(attrit_pre, p_ono0)
    return lb, ub


def rcs_trend_nomono(a: dict) -> tuple:
    """Repeated cross-sections, trend equality, no monotonicity."""
    def rate(d, t):
        cell = (a["d"] == d) & (a["t"] == t)
        return _share(cell & (a["s"] == 1), cell)

    def cell(d, t):
        return a["y"][(a["d"] == d) & (a["t"] == t) & (a["s"] == 1)]

    s00, s01, s10, s11 = rate(0, 0), rate(0, 1), rate(1, 0), rate(1, 1)
    trend = s10 - s00
    q11 = min(max(s01 + trend + s11 - 1.0, 0.0) / s11, 1.0)
    q01 = min(max(s01 + s11 - trend - 1.0, 0.0) / s01, 1.0)
    pre = -float(cell(1, 0).mean()) + float(cell(0, 0).mean())
    control = trim_lower(cell(0, 1), q01)
    return (trim_lower(cell(1, 1), q11) - control + pre,
            trim_upper(cell(1, 1), q11) - control + pre)


def staggered_2x2(a: dict, gamma: int, t: int) -> dict:
    """The two-period panel of cohort ``gamma`` against never-treated units,
    period 0 against period ``t``."""
    periods = int(a["t"].max()) + 1
    keep = (a["gvar"][::periods] == gamma) | (a["gvar"][::periods] == 0)
    s = a["s"].reshape(-1, periods)[keep]
    y = a["y"].reshape(-1, periods)[keep]
    return {"d": (a["gvar"][::periods][keep] == gamma).astype(np.int8),
            "s0": s[:, 0], "s1": s[:, t], "y0": y[:, 0], "y1": y[:, t]}


def panel_ooo_mono(a: dict) -> tuple:
    """tau_OOO under positive monotonicity: trim treated changes at
    p_ooo1 = P[S1|D=0,S0=1] / P[S1|D=1,S0=1]."""
    w1 = min(_stay(a, 0, 1) / _stay(a, 1, 1), 1.0)
    treated, control_mean = _both(a, 1), float(_both(a, 0).mean())
    return trim_lower(treated, w1) - control_mean, trim_upper(treated, w1) - control_mean


# ---- an independent bootstrap --------------------------------------------

def _weighted_trims(values, weights, p):
    """(lower, upper) trimmed means of a sample given as sorted distinct
    values with integer multiplicities."""
    cum = np.cumsum(weights)
    cumwv = np.cumsum(weights * values)
    total, total_wv = cum[-1], cumwv[-1]
    j = int(np.searchsorted(cum, p * total, side="left"))
    lower = cumwv[j] / cum[j]
    if p == 1.0:
        return lower, total_wv / total
    k = int(np.searchsorted(cum, (1.0 - p) * total, side="left"))
    return lower, (total_wv - cumwv[k]) / (total - cum[k])


def bootstrap_ooo_nomono(a: dict, reps: int, seed: int) -> tuple:
    """Bootstrap sds of (lb, ub) for tau_OOO without monotonicity, by drawing
    unit multiplicities and trimming weighted, pre-sorted cells."""
    rng = np.random.default_rng([seed, 7919])
    n = a["d"].size
    base = {d: (a["d"] == d) & (a["s0"] == 1) for d in (0, 1)}
    cells = {}
    for d in (0, 1):
        idx = np.flatnonzero(base[d] & (a["s1"] == 1))
        dy = a["y1"][idx] - a["y0"][idx]
        order = np.argsort(dy, kind="stable")
        cells[d] = (idx[order], dy[order])
    out = np.empty((reps, 2))
    for r in range(reps):
        w = np.bincount(rng.integers(0, n, size=n), minlength=n)
        kept = {d: w[idx].astype(np.float64) for d, (idx, _) in cells.items()}
        w1, w0 = frechet_weights(*(kept[d].sum() / w[base[d]].sum() for d in (0, 1)))
        t_lo, t_hi = _weighted_trims(cells[1][1], kept[1], w1)
        c_lo, c_hi = _weighted_trims(cells[0][1], kept[0], w0)
        out[r] = (t_lo - c_hi, t_hi - c_lo)
    return float(out[:, 0].std(ddof=1)), float(out[:, 1].std(ddof=1))


# ---- checks on the printed outputs ---------------------------------------

def check_bounds(out: dict, expected: tuple, label: str) -> None:
    for key, want in zip(("lb", "ub"), expected):
        _require(key in out, f"{label}: no {key!r} in output")
        got = out[key]
        _require(isinstance(got, (int, float)), f"{label}: {key} {got!r} is not a number")
        _require(abs(got - want) <= REL_TOL * max(1.0, abs(want)),
                 f"{label}: {key} {got!r} != independent {want!r}")
    _require(out["lb"] <= out["ub"], f"{label}: lb {out['lb']} > ub {out['ub']}")


def check_im_ci(out: dict, reps: int, ses: tuple) -> None:
    """The Imbens-Manski interval: ordering, critical value, replicate
    bookkeeping, and SEs within a band of an independent bootstrap."""
    _require("ci" in out, "panel-boot: no 'ci' in output")
    ci = out["ci"]
    lb, ub = out["lb"], out["ub"]
    _require(ci["method"] == "imbens_manski", f"ci method {ci['method']!r}")
    _require(ci["lo"] <= lb <= ub <= ci["hi"],
             f"ci not ordered: {ci['lo']} <= {lb} <= {ub} <= {ci['hi']}")
    _require(ci["reps_used"] + ci["failed_reps"] == reps,
             f"reps_used {ci['reps_used']} + failed_reps {ci['failed_reps']} != {reps}")
    phi = NormalDist().cdf
    c = ci["c_n"]
    delta = (ub - lb) / max(ci["se_lb"], ci["se_ub"])
    _require(abs(phi(c + delta) - phi(-c) - IM_LEVEL) <= 1e-8,
             f"c_n {c} does not solve Phi(c+D)-Phi(-c)={IM_LEVEL} at D={delta}")
    for key, got, lim in (("lo", ci["lo"], lb - c * ci["se_lb"]),
                          ("hi", ci["hi"], ub + c * ci["se_ub"])):
        _require(abs(got - lim) <= REL_TOL * max(1.0, abs(lim)),
                 f"ci.{key} {got} != bound -/+ c_n * se = {lim}")
    for key, mine in zip(("se_lb", "se_ub"), ses):
        got = ci[key]
        _require(mine / SE_BAND <= got <= mine * SE_BAND,
                 f"ci.{key} {got} outside [{mine / SE_BAND}, {mine * SE_BAND}] "
                 f"around an independent bootstrap")


def check_mc(text: str) -> None:
    rows = {r["assumption_set"]: r for r in csv.DictReader(io.StringIO(text))}
    _require(set(rows) == {"mono-pos", "nomono"}, f"simulate rows {sorted(rows)}")
    for row in rows.values():
        _require(int(row["n"]) == workloads.MC_N and int(row["reps"]) == workloads.MC_REPS,
                 f"simulate n/reps {row['n']}/{row['reps']}")
    for (aset, col), (ref, tol) in MC_REFERENCE.items():
        got = float(rows[aset][col])
        _require(abs(got - ref) <= tol, f"simulate {aset} {col} {got} not within {ref}±{tol}")
    mono, nomono = rows["mono-pos"], rows["nomono"]
    _require(float(nomono["mean_lb"]) <= float(mono["mean_lb"])
             and float(mono["mean_ub"]) <= float(nomono["mean_ub"]),
             "simulate: no-monotonicity mean interval does not contain the monotone one")
    _require(float(nomono["coverage"]) >= float(mono["coverage"]),
             f"simulate: nomono coverage {nomono['coverage']} < mono {mono['coverage']}")


def check_outputs(workload: str, seed: int, texts: list) -> None:
    """Raise CheckError unless ``texts``, the stdout of each CLI call of the
    workload in order, are right for ``seed``. A None text is a call that
    failed; it has nothing to check."""
    data = [gen.arrays(kind, seed, size) for kind, size in workloads.WORKLOADS[workload]["inputs"]]
    if workload == "mc-sim":
        checks = [check_mc]
    elif workload == "panel-boot":
        def boot(text):
            out = json.loads(text)
            check_bounds(out, panel_ooo_nomono(data[0]), "panel-boot")
            ses = bootstrap_ooo_nomono(data[0], workloads.BOOT_REPS, seed)
            check_im_ci(out, workloads.BOOT_REPS, ses)
        checks = [boot]
    else:
        checks = [
            lambda text: check_bounds(json.loads(text), panel_ono_mono(data[0]),
                                      "ingest bounds --param ono"),
            lambda text: check_bounds(json.loads(text), rcs_trend_nomono(data[1]),
                                      "ingest bounds-rcs"),
            lambda text: check_bounds(json.loads(text),
                                      panel_ooo_mono(staggered_2x2(data[2], 2, 3)),
                                      "ingest bounds-staggered"),
        ]
    _require(len(texts) == len(checks), f"{workload}: {len(texts)} outputs for {len(checks)} calls")
    for check, text in zip(checks, texts):
        if text is not None:
            check(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("outputs", nargs="+",
                        help="stdout file of each CLI call, in order; - for a call that failed")
    args = parser.parse_args(argv)
    texts = []
    for path in args.outputs:
        if path == "-":
            texts.append(None)
            continue
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    try:
        check_outputs(args.workload, args.seed, texts)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
