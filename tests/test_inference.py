import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

from didbounds import (
    MONO_POSITIVE,
    WITHOUT_MONOTONICITY,
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
from didbounds import core, inference
from didbounds.inference import Z_95, Z_975, norm_cdf

from conftest import make_panel, random_panel


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

    def test_im_inside_union(self):
        un = ci_union(1.0, 2.0, 0.1, 0.2)
        im = ci_imbens_manski(1.0, 2.0, 0.1, 0.2)
        assert im.lo >= un.lo - 1e-12
        assert im.hi <= un.hi + 1e-12
        assert Z_95 - 1e-9 <= im.c_n <= Z_975 + 1e-9

    def test_point_identified_uses_two_sided_critical_value(self):
        ci = ci_imbens_manski(1.5, 1.5, 0.1, 0.1)
        assert ci.c_n == Z_975

    def test_zero_se_uses_one_sided_critical_value(self):
        ci = ci_imbens_manski(1.0, 2.0, 0.0, 0.0)
        assert ci.c_n == Z_95
        assert ci.lo == 1.0 and ci.hi == 2.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            ci_imbens_manski(2.0, 1.0, 0.1, 0.1)
        with pytest.raises(ValidationError):
            ci_union(1.0, 2.0, -0.1, 0.1)


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
            ci_imbens_manski(0.0, 1.0, float("inf"), 0.0)

    def test_a_replicate_is_freed_before_the_next_is_drawn(self):
        # a block of replicates at n = 100,000 peaks at about 15 traced bytes
        # a row; keeping the previous replicate alive across the next draw
        # adds its 8-byte index, its cell code and its cell rows (about 21)
        n = 100_000
        data = random_panel(n, 5)
        state = (data, lambda sample: bounds_tau_ooo(sample, WITHOUT_MONOTONICITY), 1)
        inference._replicate_block(state, (0, 2))  # the parent's cells, built untraced
        tracemalloc.start()
        try:
            inference._replicate_block(state, (0, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * n

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            BootstrapSpec(reps=1)
        for seed in (-1, [3, -1]):
            with pytest.raises(ValidationError, match="seed must be non-negative"):
                BootstrapSpec(reps=5, seed=seed)
        BootstrapSpec(reps=5, seed=[0, 3])


# the layout tests' panel, seed and replicates: a resample's count in cell
# (1, 1, 1) is 0 mod 4 in replicates 6, 11, 12 and 17 (4 of 23, within the
# 20% that may fail), 2 mod 5 in replicates 8 (37) and 19 (42), and other
# than 1 mod 3 in 16
LAYOUT_DATA = _bootstrap_panel()
LAYOUT_SPEC = BootstrapSpec(reps=23, seed=11)


def _treated(sample) -> int:
    return sample.cells.count(1, 1, 1)


def _drops_some(sample):
    if _treated(sample) % 4 == 0:
        raise EmptyCell("dropped")
    return bounds_tau_ooo(sample, MONO_POSITIVE)


def _raises_some(sample):
    if _treated(sample) % 5 == 2:
        raise RuntimeError(f"resample with {_treated(sample)} treated")
    return _drops_some(sample)


def _drops_most(sample):
    if _treated(sample) % 3 != 1:
        raise EmptyCell("dropped")
    return bounds_tau_ooo(sample, MONO_POSITIVE)


def _serial(bound_fn):
    """Each replicate's ``bound_fn`` result in replicate order, or None where
    it raised an estimation error: the bootstrap run one replicate at a time."""
    out = []
    for rep in range(LAYOUT_SPEC.reps):
        rng = np.random.default_rng([LAYOUT_SPEC.seed, rep])
        sample = LAYOUT_DATA.take(rng.integers(0, LAYOUT_DATA.n, size=LAYOUT_DATA.n))
        try:
            out.append(bound_fn(sample))
        except EmptyCell:
            out.append(None)
    return out


def _result_bits(res) -> list:
    return [[(lb.hex(), ub.hex()) for lb, ub in res.replicates], res.se_lb.hex(),
            res.se_ub.hex(), res.reps_used, res.failed_reps]


class TestBootstrapWorkerLayout:
    """``bootstrap_ses`` gives the same result, and raises the same error,
    whatever the number of workers and the replicates per task."""

    @pytest.fixture(params=[(1, 1), (2, 7), (3, 1), (2, 100), (3, 7), (1, 100)],
                    ids=lambda p: f"workers{p[0]}-block{p[1]}")
    def layout(self, request, monkeypatch):
        workers, block = request.param
        monkeypatch.setattr(core, "_worker_count", lambda: workers)
        # a task holds ceil(_BOOT_DRAWS / n) replicates
        monkeypatch.setattr(inference, "_BOOT_DRAWS", block * LAYOUT_DATA.n)
        yield
        assert multiprocessing.active_children() == []

    def test_result_does_not_depend_on_layout(self, layout):
        res = bootstrap_ses(LAYOUT_DATA, _drops_some, LAYOUT_SPEC)
        kept = [(r.lb, r.ub) for r in _serial(_drops_some) if r is not None]
        arr = np.asarray(kept)
        assert res.failed_reps == 4 and res.reps_used == 19
        assert _result_bits(res) == _result_bits(inference.BootstrapResult(
            float(np.std(arr[:, 0], ddof=1)), float(np.std(arr[:, 1], ddof=1)), kept, 19, 4))

    def test_first_failing_replicate_raises(self, layout):
        # replicates 8 and 19 raise an error that is not an estimation error;
        # replicate 8's ends the bootstrap whatever the layout
        with pytest.raises(RuntimeError, match="^resample with 37 treated$"):
            bootstrap_ses(LAYOUT_DATA, _raises_some, LAYOUT_SPEC)

    def test_too_many_failed_reps_counts(self, layout):
        failed = _serial(_drops_most).count(None)
        assert failed == 16
        with pytest.raises(TooManyFailedReps) as exc:
            bootstrap_ses(LAYOUT_DATA, _drops_most, LAYOUT_SPEC)
        assert exc.value.context == {"failed": failed, "reps": 23}


def _bootstrap_in_worker(_):
    return bootstrap_ses(LAYOUT_DATA, _drops_some, LAYOUT_SPEC)


def test_bootstrap_in_a_pool_worker_runs_in_process(monkeypatch):
    # a size that forks two workers, one replicate per task, in the parent; a
    # pool worker may not start children, so there it runs in-process
    monkeypatch.setattr(core, "_worker_count", lambda: 2)
    monkeypatch.setattr(inference, "_BOOT_DRAWS", LAYOUT_DATA.n)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.map(_bootstrap_in_worker, [None])[0]
    assert multiprocessing.active_children() == []
    assert _result_bits(inside) == _result_bits(_bootstrap_in_worker(None))
