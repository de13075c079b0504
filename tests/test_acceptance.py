"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (visible with `pytest -v -s` or on failure).

Two "naive" contrasts appear below. Criterion 2's reference 3.7727 is the
usual four-mean DiD on every observed outcome in each period, whose population
value for this design is 3.7742; `run_monte_carlo` reports it as `mean_naive`.
Criteria 3 and 5 check `naive_did`, the balanced-panel contrast on units
observed in both periods (population value 3.7363, the midpoint of the true
bounds).
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from didbounds import (
    MONO_POSITIVE,
    WITHOUT_MONOTONICITY,
    DgpConfig,
    PanelDataset,
    bounds_tau_ooo,
    ci_imbens_manski,
    ci_union,
    empirical_quantile,
    generate_panel,
    naive_did,
    oracle_true_values,
    run_monte_carlo,
    solve_c_n,
    trimmed_mean_lower,
    trimmed_mean_upper,
)
from didbounds.errors import EmptyTrimSet
from didbounds.inference import Z_95, Z_975, norm_cdf

SEED = 1


def _report(num, name, checks):
    """checks: list of (label, ok) pairs; prints one line, then asserts."""
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else f"FAIL ({'; '.join(failed)})"
    print(f"[criterion {num}] {name}: {status}")
    assert not failed, f"criterion {num} ({name}): failed sub-checks: {failed}"


def test_criterion_1_oracle_reproduction():
    start = time.time()
    oracle = oracle_true_values(DgpConfig(n=2), 10_000_000)
    elapsed = time.time() - start
    _report(1, "oracle reproduction", [
        (f"p_true {oracle.p_true:.4f} within 0.7052±0.005",
         abs(oracle.p_true - 0.7052) <= 0.005),
        (f"lb_true {oracle.lb_true:.4f} within 3.0792±0.02",
         abs(oracle.lb_true - 3.0792) <= 0.02),
        (f"ub_true {oracle.ub_true:.4f} within 4.3940±0.02",
         abs(oracle.ub_true - 4.3940) <= 0.02),
        (f"runtime {elapsed:.1f}s <= 60s", elapsed <= 60.0),
    ])


def test_criterion_2_monte_carlo_reproduction():
    start = time.time()
    rows = run_monte_carlo(
        DgpConfig(n=2000, seed=SEED), 1000, ["mono-pos", "nomono"], coverage="att"
    )
    mono, nomono = rows
    small = run_monte_carlo(
        DgpConfig(n=500, seed=SEED), 1000, ["mono-pos"], coverage="att"
    )[0]
    elapsed = time.time() - start
    _report(2, "Monte Carlo reproduction", [
        (f"mono mean lb {mono.mean_lb:.4f} within 3.0794±0.03",
         abs(mono.mean_lb - 3.0794) <= 0.03),
        (f"mono mean ub {mono.mean_ub:.4f} within 4.3932±0.03",
         abs(mono.mean_ub - 4.3932) <= 0.03),
        (f"no-mono mean lb {nomono.mean_lb:.4f} within 2.7483±0.05",
         abs(nomono.mean_lb - 2.7483) <= 0.05),
        (f"no-mono mean ub {nomono.mean_ub:.4f} within 4.7250±0.05",
         abs(nomono.mean_ub - 4.7250) <= 0.05),
        (f"mean naive {mono.mean_naive:.4f} within 3.7727±0.03",
         abs(mono.mean_naive - 3.7727) <= 0.03),
        (f"mono coverage {mono.coverage:.3f} >= 0.99 at n=2000",
         mono.coverage >= 0.99),
        (f"mono coverage {small.coverage:.3f} >= 0.95 at n=500",
         small.coverage >= 0.95),
        (f"runtime {elapsed:.1f}s <= 600s", elapsed <= 600.0),
    ])


def test_criterion_3_naive_did_bias():
    data = generate_panel(DgpConfig(n=1_000_000, seed=SEED))
    naive = naive_did(data)
    oracle = oracle_true_values(DgpConfig(n=2), 2_000_000)
    target = 4.0 + oracle.mu1 - oracle.mu3
    bias = (naive - 4.0) / 4.0
    _report(3, "naive DiD bias", [
        (f"relative bias {bias:.4f} in [-0.08, -0.04]", -0.08 <= bias <= -0.04),
        (f"naive {naive:.4f} within ±0.02 of 4+mu1-mu3 = {target:.4f}",
         abs(naive - target) <= 0.02),
    ])


def test_criterion_4_mixing_proportion_centering():
    row = run_monte_carlo(
        DgpConfig(n=1000, seed=SEED), 1000, ["mono-pos"], coverage="att"
    )[0]
    _report(4, "mixing proportion centering", [
        (f"mean p_ooo1 {row.mean_p_ooo1:.4f} within 0.7052±0.01",
         abs(row.mean_p_ooo1 - 0.7052) <= 0.01),
    ])


def test_criterion_5_collapse_property():
    rng = np.random.default_rng(SEED)
    bad = []
    for i in range(100):
        n = int(rng.integers(10, 200))
        d = rng.integers(0, 2, n)
        if d.min() == d.max():  # both arms must exist
            d[0], d[1] = 0, 1
        data = PanelDataset.from_records(
            [str(j) for j in range(n)], d, np.ones(n), np.ones(n),
            rng.standard_normal(n), rng.standard_normal(n),
        )
        target = naive_did(data)
        for aset in (WITHOUT_MONOTONICITY, MONO_POSITIVE):
            res = bounds_tau_ooo(data, aset)
            if not (res.lb == target and res.ub == target):
                bad.append(i)
    _report(5, "collapse property", [
        (f"lb = ub = naive exactly on all 100 datasets (violations: {bad})",
         not bad),
    ])


def _brute_lower(vals, p):
    srt = sorted(vals)
    n = len(srt)
    k = next(i for i in range(n) if (i + 1) / n >= p)
    kept = [v for v in vals if v <= srt[k]]
    return sum(kept) / len(kept)


def _brute_upper(vals, p):
    if p == 1.0:
        return sum(vals) / len(vals)
    srt = sorted(vals)
    n = len(srt)
    k = next(i for i in range(n) if (i + 1) / n >= 1.0 - p)
    kept = [v for v in vals if v > srt[k]]
    if not kept:
        return None  # empty strict tail
    return sum(kept) / len(kept)


def test_criterion_6_trimming_oracle_equivalence():
    grid = [0.0, 1.0, 2.0, 3.0]
    shares = [round(0.1 * k, 1) for k in range(1, 11)]
    mismatches = 0
    total = 0
    for size in range(1, 9):
        for sample in itertools.combinations_with_replacement(grid, size):
            vals = list(sample)
            for p in shares:
                total += 1
                if trimmed_mean_lower(vals, p) != _brute_lower(vals, p):
                    mismatches += 1
                expected = _brute_upper(vals, p)
                if expected is None:
                    try:
                        trimmed_mean_upper(vals, p)
                        mismatches += 1
                    except EmptyTrimSet:
                        pass
                elif trimmed_mean_upper(vals, p) != expected:
                    mismatches += 1
    _report(6, "trimming oracle equivalence", [
        (f"{mismatches} mismatches over {total} (sample, share) cases",
         mismatches == 0),
    ])


def test_criterion_7_nesting_property():
    violations = 0
    skipped = 0
    for rep in range(500):
        data = generate_panel(DgpConfig(n=500, seed=[SEED, 7, rep]))
        wide = bounds_tau_ooo(data, WITHOUT_MONOTONICITY)
        tight = bounds_tau_ooo(data, MONO_POSITIVE)
        if wide.warnings or tight.warnings:
            skipped += 1
            continue
        if not (wide.lb <= tight.lb + 1e-12 and tight.ub <= wide.ub + 1e-12):
            violations += 1
    _report(7, "nesting property", [
        (f"{violations} violations over {500 - skipped} clamp-free draws",
         violations == 0),
    ])


def test_criterion_8_imbens_manski_solver():
    deltas = np.linspace(0.0, 10.0, 10_000)
    tol = 5e-5
    c_values = np.array([solve_c_n(float(d)) for d in deltas])
    residuals = np.array([
        abs(norm_cdf(c + d) - norm_cdf(-c) - 0.95)
        for c, d in zip(c_values, deltas)
    ])
    inside_union = True
    for c, d in zip(c_values[::200], deltas[::200]):
        un = ci_union(0.0, float(d), 1.0, 1.0)
        im = ci_imbens_manski(0.0, float(d), 1.0, 1.0)
        if im.lo < un.lo - 1e-12 or im.hi > un.hi + 1e-12:
            inside_union = False
    _report(8, "Imbens-Manski solver", [
        (f"c_n range [{c_values.min():.6f}, {c_values.max():.6f}] within "
         f"[{Z_95:.6f}, {Z_975:.6f}] ± {tol}",
         c_values.min() >= Z_95 - tol and c_values.max() <= Z_975 + tol),
        (f"c_n at delta=0 is {c_values[0]:.6f} (two-sided critical value)",
         abs(c_values[0] - Z_975) <= tol),
        (f"max residual {residuals.max():.2e} < 1e-9", residuals.max() < 1e-9),
        ("IM CI inside union CI on the grid", inside_union),
    ])


def test_criterion_9_quantile_contract():
    rng = np.random.default_rng(SEED)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 60))
        if rng.random() < 0.5:
            vals = rng.standard_normal(n)
        else:
            vals = rng.integers(0, 4, n).astype(float)  # force ties
        q = float(rng.uniform(1e-9, 1.0))
        v = empirical_quantile(vals, q)
        ok = v in set(vals.tolist())
        ok = ok and np.sum(vals <= v) / n >= q
        smaller = vals[vals < v]
        if smaller.size:
            ok = ok and np.sum(vals <= smaller.max()) / n < q
        if not ok:
            violations += 1
    _report(9, "quantile contract", [
        (f"{violations} violations over 10000 random samples", violations == 0),
    ])


REFERENCE_DATA_DIR = Path(__file__).parent / "reference_data"

# Archived empirical results for the two external datasets. Not reproducible
# without the original microdata; the regression below activates only when the
# user places the panel CSVs (standard id,d,s0,s1,y0,y1 layout) in
# tests/reference_data/.
REFERENCE_VALUES = {
    "job_training.csv": {"p_ooo1": 0.9962, "OOO": 0.1651, "ONO": 0.0006},
    "remote_work.csv": {"p_ooo1": 0.7771, "ONO": 0.1872},
}


@pytest.mark.parametrize("filename", sorted(REFERENCE_VALUES))
def test_reference_data_regression(filename):
    path = REFERENCE_DATA_DIR / filename
    if not path.exists():
        pytest.skip(f"reference dataset {filename} not supplied")
    from didbounds import group_proportion, load_panel_csv, strata_proportions

    data = load_panel_csv(path)
    mix = strata_proportions(data)
    expected = REFERENCE_VALUES[filename]
    assert mix.p_ooo1 == pytest.approx(expected["p_ooo1"], abs=5e-4)
    for group in ("OOO", "ONO"):
        if group in expected:
            assert group_proportion(mix, group) == pytest.approx(
                expected[group], abs=5e-4
            )
