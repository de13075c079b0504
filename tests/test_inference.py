import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

from didbounds import (
    MONO_POSITIVE,
    BootstrapSpec,
    bootstrap_ses,
    bounds_tau_ooo,
    ci_imbens_manski,
    ci_union,
    naive_did,
    solve_c_n,
)
from didbounds.errors import (
    EmptyCell,
    NonFiniteEstimate,
    TooManyFailedReps,
    ValidationError,
)
from didbounds.inference import Z_95, Z_975, norm_cdf

from conftest import make_panel


class TestNormCdf:
    def test_against_scipy(self):
        for x in np.linspace(-6, 6, 41):
            assert norm_cdf(float(x)) == pytest.approx(norm.cdf(x), abs=1e-12)


class TestCriticalValueSolver:
    def test_independent_root_at_delta_one(self):
        expected = brentq(
            lambda c: norm.cdf(c + 1.0) - norm.cdf(-c) - 0.95, 1.0, 3.0, xtol=1e-12
        )
        assert solve_c_n(1.0) == pytest.approx(expected, abs=1e-8)

    def test_limits(self):
        assert solve_c_n(0.0) == pytest.approx(Z_975, abs=1e-9)
        assert solve_c_n(50.0) == pytest.approx(Z_95, abs=1e-9)

    def test_monotone_decreasing_in_delta(self):
        values = [solve_c_n(d) for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)

    def test_residual(self):
        for delta in (0.0, 0.3, 1.7, 6.0):
            c = solve_c_n(delta)
            assert abs(norm_cdf(c + delta) - norm_cdf(-c) - 0.95) < 1e-9


class TestConfidenceIntervals:
    def test_union_formula(self):
        ci = ci_union(1.0, 2.0, 0.1, 0.2)
        assert ci.lo == pytest.approx(1.0 - 1.96 * 0.1)
        assert ci.hi == pytest.approx(2.0 + 1.96 * 0.2)
        assert ci.method == "union"

    def test_union_legacy_scaling(self):
        ci = ci_union(1.0, 2.0, 0.1, 0.2, n=100, legacy_se_scaling=True)
        assert ci.lo == pytest.approx(1.0 - 1.96 * 0.1 / 10)
        with pytest.raises(ValidationError):
            ci_union(1.0, 2.0, 0.1, 0.2, legacy_se_scaling=True)

    def test_im_inside_union(self):
        un = ci_union(1.0, 2.0, 0.1, 0.2)
        im = ci_imbens_manski(1.0, 2.0, 0.1, 0.2, n=100)
        assert im.lo >= un.lo - 1e-12
        assert im.hi <= un.hi + 1e-12
        assert Z_95 - 1e-9 <= im.c_n <= Z_975 + 1e-9

    def test_point_identified_uses_two_sided_critical_value(self):
        ci = ci_imbens_manski(1.5, 1.5, 0.1, 0.1, n=50)
        assert ci.c_n == Z_975

    def test_zero_se_uses_one_sided_critical_value(self):
        ci = ci_imbens_manski(1.0, 2.0, 0.0, 0.0, n=50)
        assert ci.c_n == Z_95
        assert ci.lo == 1.0 and ci.hi == 2.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            ci_imbens_manski(2.0, 1.0, 0.1, 0.1, n=50)
        with pytest.raises(ValidationError):
            ci_union(1.0, 2.0, -0.1, 0.1)

    def test_legacy_scaling_shrinks_interval(self):
        plain = ci_imbens_manski(1.0, 2.0, 0.1, 0.2, n=400)
        legacy = ci_imbens_manski(1.0, 2.0, 0.1, 0.2, n=400, legacy_se_scaling=True)
        assert legacy.hi - legacy.lo < plain.hi - plain.lo


def _bootstrap_panel(n=80, seed=5):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        d = int(rng.integers(0, 2))
        s0 = 1
        s1 = int(rng.random() < (0.9 if d else 0.7))
        y0 = float(rng.standard_normal())
        y1 = float(rng.standard_normal() + 2 * d) if s1 else None
        rows.append((d, s0, s1, y0, y1 if s1 else None))
    return make_panel(rows)


class TestBootstrap:
    def test_deterministic_given_seed(self):
        data = _bootstrap_panel()
        fn = lambda d: bounds_tau_ooo(d, MONO_POSITIVE)
        a = bootstrap_ses(data, fn, BootstrapSpec(reps=50, seed=11))
        b = bootstrap_ses(data, fn, BootstrapSpec(reps=50, seed=11))
        assert a.se_lb == b.se_lb and a.se_ub == b.se_ub
        assert a.replicates == b.replicates

    def test_seed_changes_replicates(self):
        data = _bootstrap_panel()
        fn = lambda d: bounds_tau_ooo(d, MONO_POSITIVE)
        a = bootstrap_ses(data, fn, BootstrapSpec(reps=50, seed=11))
        b = bootstrap_ses(data, fn, BootstrapSpec(reps=50, seed=12))
        assert a.replicates != b.replicates

    def test_positive_ses(self):
        data = _bootstrap_panel()
        res = bootstrap_ses(
            data, lambda d: bounds_tau_ooo(d, MONO_POSITIVE), BootstrapSpec(40, 3)
        )
        assert res.se_lb > 0 and res.se_ub > 0
        assert res.reps_used == 40 and res.failed_reps == 0

    def test_too_many_failures(self):
        data = _bootstrap_panel()

        def always_fails(_):
            raise EmptyCell("boom")

        with pytest.raises(TooManyFailedReps):
            bootstrap_ses(data, always_fails, BootstrapSpec(reps=10, seed=0))

    def test_tuple_bound_fn_supported(self):
        data = _bootstrap_panel()
        res = bootstrap_ses(data, lambda d: (0.0, 1.0), BootstrapSpec(5, 0))
        assert res.se_lb == 0.0 and res.se_ub == 0.0

    def test_overflowing_replicate_counts_as_failed(self):
        # a treated dY of 0.6e308 drawn three times or more overflows the sum
        rows = [(1, 1, 1, 0.0, 0.6e308)] + [(1, 1, 1, 0.0, 1.0)] * 19
        rows += [(0, 1, 1, 0.0, 2.0)] * 20
        data = make_panel(rows)
        with np.errstate(over="ignore"):
            # scaled down, so that the replicates that do not overflow have a
            # finite spread
            res = bootstrap_ses(data, lambda d: (naive_did(d) / 1e300, 0.0),
                                BootstrapSpec(50, 1))
        assert 0 < res.failed_reps and res.reps_used + res.failed_reps == 50
        assert all(math.isfinite(lb) for lb, _ in res.replicates)
        # finite replicates whose spread overflows the variance
        with np.errstate(over="ignore"), pytest.raises(NonFiniteEstimate):
            bootstrap_ses(data, lambda d: (d.cells.count(1, 1, 1) * 1e306, 0.0),
                          BootstrapSpec(50, 1))

    def test_non_finite_interval_is_an_estimation_error(self):
        with pytest.raises(NonFiniteEstimate):
            ci_union(-1e308, 1e308, 1e308, 0.0)
        with pytest.raises(NonFiniteEstimate):
            ci_imbens_manski(0.0, 1.0, float("inf"), 0.0, n=10)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            BootstrapSpec(reps=1)
