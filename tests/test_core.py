import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from didbounds import (
    WITHOUT_MONOTONICITY,
    FrechetInterval,
    bounds_tau_ooo,
    cond_prob_s1,
    empirical_quantile,
    frechet_interval,
    trimmed_mean_lower,
    trimmed_mean_upper,
)
from didbounds.errors import (
    DidBoundsError,
    EmptyCell,
    EmptyTrimSet,
    EstimationError,
    OutOfRange,
    PZero,
    QOutOfRange,
    ValidationError,
    WorkerDied,
)
from didbounds import bounds, core
from didbounds.core import Sample, _forked_map, _sorted_quantile, mean

import reference_bounds
from conftest import assert_no_children, make_panel


class TestEmpiricalQuantile:
    def test_simple_values(self):
        vals = [3.0, 1.0, 2.0, 4.0, 5.0]
        assert empirical_quantile(vals, 0.2) == 1.0
        assert empirical_quantile(vals, 0.4) == 2.0
        assert empirical_quantile(vals, 0.5) == 3.0
        assert empirical_quantile(vals, 1.0) == 5.0

    def test_singleton(self):
        assert empirical_quantile([7.5], 0.3) == 7.5

    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_a_nan_value_is_a_validation_error(self, q):
        # np.sort puts the NaN last, where q = 0.5 read 2.0 and q = 1 read NaN
        with pytest.raises(ValidationError, match="empirical_quantile of a sample holding NaN"):
            empirical_quantile([1.0, 2.0, np.nan], q)

    def test_ties(self):
        assert empirical_quantile([1.0, 1.0, 2.0], 0.5) == 1.0
        assert empirical_quantile([1.0, 1.0, 2.0], 0.9) == 2.0

    def test_q_validation(self):
        with pytest.raises(QOutOfRange):
            empirical_quantile([1.0], 0.0)
        with pytest.raises(QOutOfRange):
            empirical_quantile([1.0], 1.5)
        with pytest.raises(QOutOfRange):
            empirical_quantile([1.0], float("nan"))

    def test_empty(self):
        with pytest.raises(EmptyCell):
            empirical_quantile([], 0.5)

    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40
        ),
        q=st.floats(1e-9, 1.0),
    )
    def test_contract_property(self, values, q):
        v = empirical_quantile(values, q)
        arr = np.asarray(values)
        n = arr.size
        assert v in values
        assert np.sum(arr <= v) / n >= q
        smaller = arr[arr < v]
        if smaller.size:
            assert np.sum(arr <= smaller.max()) / n < q


def _searchsorted_index(n: int, q: float) -> int:
    """The quantile's index as the definition spells it: the first k with
    (k+1)/n >= q in an n-element CDF grid, else n - 1."""
    return min(int(np.searchsorted(np.arange(1, n + 1) / n, q, side="left")), n - 1)


@st.composite
def _size_and_share(draw):
    # a share anywhere in (0, 1], or on a grid point j/n or next to one, where
    # q * n rounds to either side of an integer
    n = draw(st.integers(1, 50_000))
    grid = draw(st.integers(0, n)) / n
    q = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from([grid, np.nextafter(grid, 0.0), np.nextafter(grid, 2.0)]),
    ).filter(lambda q: 0.0 < q <= 1.0))
    return n, float(q)


@settings(max_examples=500)
@given(_size_and_share())
@example((3, 2 / 3))
@example((10, 0.7))
@example((49, 1.0))
@example((1, 5e-324))
def test_quantile_index_matches_searchsorted_reference(size_and_share):
    n, q = size_and_share
    assert _sorted_quantile(np.arange(n, dtype=np.float64), q) == _searchsorted_index(n, q)


@settings(max_examples=300)
@given(
    values=hnp.arrays(np.float64, st.integers(1, 600),
                      elements=st.floats(allow_subnormal=True, width=64)),
    step=st.integers(1, 3),
)
@example(values=np.array([1e308, 1e308, -np.inf]), step=1)
@example(values=np.full(257, 0.1), step=2)
def test_mean_is_np_mean_bit_for_bit(values, step):
    # 8 and 128 are where numpy's pairwise summation changes its blocking;
    # a strided view reduces through the same loop as np.mean does
    view = values[::step]
    with np.errstate(all="ignore"):
        expected = np.float64(np.mean(view))
        got = np.float64(mean(view))
    assert got.view(np.uint64) == expected.view(np.uint64)


class TestTrimmedMeans:
    def test_lower_keeps_small_tail(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert trimmed_mean_lower(vals, 0.6) == pytest.approx(2.0)
        assert trimmed_mean_lower(vals, 0.2) == 1.0

    def test_upper_keeps_large_tail(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert trimmed_mean_upper(vals, 0.6) == pytest.approx(4.0)
        assert trimmed_mean_upper(vals, 0.2) == 5.0

    def test_full_share_is_plain_mean_bitwise(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(101)
        assert trimmed_mean_lower(vals, 1.0) == float(np.mean(vals))
        assert trimmed_mean_upper(vals, 1.0) == float(np.mean(vals))

    def test_share_validation(self):
        with pytest.raises(PZero):
            trimmed_mean_lower([1.0], 0.0)
        with pytest.raises(PZero):
            trimmed_mean_upper([1.0], -0.1)
        with pytest.raises(OutOfRange):
            trimmed_mean_lower([1.0], 1.2)

    def test_empty_sample(self):
        with pytest.raises(EmptyCell):
            trimmed_mean_lower([], 0.5)

    @pytest.mark.parametrize("p", [0.5, 1.0])
    @pytest.mark.parametrize("fn", [trimmed_mean_lower, trimmed_mean_upper])
    @pytest.mark.parametrize("values", [[1.0, 2.0, np.nan], [np.nan], [np.nan, 3.0, -1.0]])
    def test_a_nan_value_is_a_validation_error(self, fn, p, values):
        # on [1, 2, nan] at p = 0.5 the lower tail dropped the NaN (1.5) and
        # the upper raised EmptyTrimSet; at p = 1 both returned NaN
        for arg in (values, Sample(values)):
            with pytest.raises(ValidationError, match=f"{fn.__name__} of a sample holding NaN"):
                fn(arg, p)

    def test_a_nan_full_mean_of_values_without_nan_is_returned(self):
        # inf and -inf sum to NaN: only a NaN value is a validation error
        for fn in (trimmed_mean_lower, trimmed_mean_upper):
            with np.errstate(invalid="ignore"):
                assert np.isnan(fn([np.inf, -np.inf, 1.0], 1.0))

    def test_upper_empty_strict_tail_on_constant_sample(self):
        with pytest.raises(EmptyTrimSet):
            trimmed_mean_upper([2.0, 2.0, 2.0], 0.5)

    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=40
        ),
        p=st.floats(0.05, 1.0),
    )
    def test_tail_means_bracket_full_mean(self, values, p):
        lower = trimmed_mean_lower(values, p)
        mean = float(np.mean(values))
        assert lower <= mean + 1e-9
        try:
            upper = trimmed_mean_upper(values, p)
        except EmptyTrimSet:
            return
        assert upper >= mean - 1e-9
        assert lower <= upper + 1e-9

    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=30
        ),
        p1=st.floats(0.05, 1.0),
        p2=st.floats(0.05, 1.0),
    )
    def test_lower_tail_mean_monotone_in_share(self, values, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        assert trimmed_mean_lower(values, lo) <= trimmed_mean_lower(values, hi) + 1e-9


    @given(
        values=st.lists(
            st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6)),
            max_size=30,
        ),
        p=st.one_of(st.floats(0.0, 1.0), st.sampled_from([1.0, 1.5, float("nan")])),
    )
    def test_sample_gives_the_array_results_bitwise(self, values, p):
        # one Sample serves both tails; each result or error code is that of
        # the plain array
        sample = Sample(values)
        for fn in (trimmed_mean_lower, trimmed_mean_upper):
            want, got = [], []
            for arg, out in ((values, want), (sample, got)):
                try:
                    out.append(fn(arg, p))
                except (EmptyCell, EmptyTrimSet, OutOfRange, PZero) as exc:
                    out.append(exc.code)
            assert got == want, fn.__name__

    def test_bound_sorts_each_cell_once(self, mixed_panel, monkeypatch):
        # both tails of the treated and the control dY share one sort each,
        # made in place on the cell's one array
        sorts = []

        class CountingArray(np.ndarray):
            def sort(self, *args, **kwargs):
                sorts.append(len(self))
                super().sort(*args, **kwargs)

        class CountingSample(Sample):
            def __init__(self, values):
                super().__init__(values)
                self.values = self.values.view(CountingArray)

        monkeypatch.setattr(bounds, "Sample", CountingSample)
        monkeypatch.setattr(np, "sort", lambda *args, **kwargs: pytest.fail("a copy was sorted"))
        res = bounds_tau_ooo(mixed_panel, WITHOUT_MONOTONICITY)
        assert res.proportions.p_ooo1 < 1.0 and res.proportions.p_ooo0 < 1.0
        assert sorted(sorts) == [3, 5]


@st.composite
def _cells(draw):
    """A cell of up to 100 values, ties common, and a share: a quarter of the
    cells rounded to integers small enough to sum exactly, and one in twenty
    holding a NaN."""
    rounded = draw(st.integers(0, 3)) == 0
    element = st.floats(-1e6, 1e6)
    if not rounded:
        element = st.one_of(element, st.floats(-1e300, 1e300),
                            st.sampled_from([-2.0, -0.0, 0.0, 1.5, 3.0]))
    values = draw(st.lists(element, max_size=100))
    if rounded:
        values = [float(v) for v in np.round(values)]
    if draw(st.integers(0, 19)) == 0:
        values.insert(draw(st.integers(0, len(values))), math.nan)
    n = max(len(values), 1)
    p = draw(st.one_of(st.floats(0.0, 1.0), st.integers(1, n).map(lambda k: k / n),
                       st.sampled_from([1.0, 1.5, math.nan, 5e-324])))
    return values, p, rounded


def _value_or_code(fn, *args):
    try:
        return fn(*args)
    except DidBoundsError as exc:
        return exc.code


@settings(max_examples=500)
@given(cell=_cells(), data=st.data())
@example(cell=([2.0, 2.0, 2.0], 0.5, True), data=None)
@example(cell=([1.0, -0.0, 0.0, -0.0], 0.75, False), data=None)
def test_slice_tails_match_the_mask_rule(cell, data):
    # a tail is a slice of the sorted cell; the mask rule keeps the same
    # values in their given order, so only the summation order differs
    values, p, rounded = cell
    bits = lambda x: np.float64(x).view(np.uint64)
    for fn, mask_fn, upper in ((trimmed_mean_lower, reference_bounds.trimmed_mean_lower_mask,
                                False),
                               (trimmed_mean_upper, reference_bounds.trimmed_mean_upper_mask,
                                True)):
        got, want = _value_or_code(fn, values, p), _value_or_code(mask_fn, values, p)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want, fn.__name__
            continue
        if rounded:
            assert bits(got) == bits(want), fn.__name__
        arr = np.array(values)
        if p < 1.0:
            cut = empirical_quantile(arr, 1.0 - p if upper else p)
            arr = arr[arr > cut] if upper else arr[arr <= cut]
            permuted = values if data is None else data.draw(st.permutations(values))
            assert bits(fn(permuted, p)) == bits(got), fn.__name__
        assert abs(got - want) <= 64 * np.finfo(np.float64).eps * np.abs(arr).max(), fn.__name__


def test_trimmed_means_leave_the_callers_array_unchanged():
    values = np.random.default_rng(3).standard_normal(101)
    before = values.copy()
    sample = Sample(values.copy())
    for fn in (trimmed_mean_lower, trimmed_mean_upper):
        for p in (0.3, 1.0):
            fn(values, p)
            fn(sample, p)
    assert values.tobytes() == before.tobytes()
    # a Sample holds its own array, sorted in place by its first tail
    assert sample.sorted.tobytes() == np.sort(before).tobytes()


class TestFrechet:
    def test_known_values(self):
        iv = frechet_interval(0.7, 0.8)
        assert iv == FrechetInterval(pytest.approx(0.5), 0.7)

    def test_disjoint_possible(self):
        assert frechet_interval(0.3, 0.4).lo == 0.0

    def test_validation(self):
        with pytest.raises(OutOfRange):
            frechet_interval(-0.1, 0.5)
        with pytest.raises(OutOfRange):
            frechet_interval(0.5, 1.1)

    @given(p_a=st.floats(0, 1), p_b=st.floats(0, 1))
    @example(p_a=1.0, p_b=0.6)
    @example(p_a=1.0, p_b=0.44298751903275)
    def test_interval_ordered_and_within_marginals(self, p_a, p_b):
        iv = frechet_interval(p_a, p_b)
        assert 0.0 <= iv.lo <= iv.hi <= min(p_a, p_b)


class TestCondProb:
    def test_counts(self, mixed_panel):
        est = cond_prob_s1(mixed_panel, d=1, s0=1)
        assert est.numerator_count == 5
        assert est.denominator_count == 6
        assert est.value == pytest.approx(5 / 6)
        est = cond_prob_s1(mixed_panel, d=0, s0=1)
        assert est.value == pytest.approx(3 / 5)

    def test_empty_cell(self):
        data = make_panel([(1, 1, 1, 1.0, 2.0)])
        with pytest.raises(EmptyCell):
            cond_prob_s1(data, d=0, s0=1)


def _fail_first(path, task):
    """Task 0 raises at once; every other task marks ``path`` after 2 s."""
    if task == 0:
        raise RuntimeError("task 0")
    time.sleep(2.0)
    (path / f"done{task}").touch()


def test_forked_map_stops_the_workers_at_the_first_failure(tmp_path, monkeypatch):
    # task 0's error is raised without waiting for the tasks after it, and
    # their workers are stopped before they finish
    monkeypatch.setattr(core, "_worker_count", lambda: 2)
    with pytest.raises(RuntimeError, match="task 0"):
        _forked_map([partial(_fail_first, tmp_path, i) for i in range(4)])
    assert_no_children()
    assert list(tmp_path.iterdir()) == []


def _dies_at(dead, path, task):
    """Task ``dead`` ends its process at once; every other task marks ``path``
    after ``task / 2`` s and returns its number."""
    if task == dead:
        os._exit(1)
    time.sleep(task / 2)
    (path / f"done{task}").touch()
    return task


@pytest.fixture
def two_workers(monkeypatch):
    """Two workers, and an alarm that fails a test that would hang."""
    monkeypatch.setattr(core, "_worker_count", lambda: 2)

    def hung(signum, frame):
        raise TimeoutError("forked map still waiting after 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    assert_no_children()


def test_dead_first_worker_fails_the_call(tmp_path, two_workers):
    # the first-forked worker runs task 0 and dies; its pipe reaches EOF only
    # if the worker forked after it does not hold a copy of its end
    with pytest.raises(WorkerDied) as exc:
        _forked_map([partial(_dies_at, 0, tmp_path, i) for i in range(4)])
    assert exc.value.context == {"task": 0}
    assert not isinstance(exc.value, (ValidationError, EstimationError))


def test_dead_worker_fails_the_call_in_task_order(tmp_path, two_workers):
    # task 0 is done at once and task 2, next on its worker, dies while task 1
    # still runs on the other: the death is raised once task 1 is done, and
    # task 3, which follows task 1, never finishes
    with pytest.raises(WorkerDied) as exc:
        _forked_map([partial(_dies_at, 2, tmp_path, i) for i in range(5)])
    assert exc.value.context == {"task": 2}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["done0", "done1"]


def test_forked_map_returns_replies_larger_than_a_pipe_whole_and_in_order(two_workers):
    # the first reply is far larger than a pipe's buffer, so it reaches the
    # parent in many reads while the other worker answers too
    sizes = [3_000_000, 10, 200_000]
    assert _forked_map([partial(bytes, size) for size in sizes]) == list(map(bytes, sizes))


def test_a_reply_that_fails_to_pickle_part_way_is_a_dead_worker(two_workers):
    # the reply's 300 KB of bytes are written before its lambda fails to
    # pickle: the parent reads a truncated pickle, then EOF
    with pytest.raises(WorkerDied) as exc:
        _forked_map([partial(int, 0), lambda: [bytes(300_000), lambda: 0], partial(int, 2)])
    assert exc.value.context == {"task": 1}


def _raise(exc):
    raise exc


@pytest.mark.parametrize("tasks, error", [
    ([partial(int, i) for i in range(5)], None),
    ([partial(int, 0), partial(_raise, KeyError("task 1")), partial(int, 2)], KeyError),
    ([partial(int, 0), partial(os._exit, 1), partial(int, 2)], WorkerDied),
], ids=["results", "task-exception", "worker-died"])
def test_forked_map_leaves_nothing_running(monkeypatch, tasks, error):
    monkeypatch.setattr(core, "_worker_count", lambda: 2)
    threads = threading.active_count()
    if error is None:
        assert _forked_map(tasks) == list(range(5))
    else:
        with pytest.raises(error):
            _forked_map(tasks)
    assert_no_children()
    assert threading.active_count() == threads


def test_forked_map_takes_pipes_above_descriptor_1023(two_workers):
    # select() refuses a descriptor above 1023; hold the low ones open so
    # that every pipe of the map lands above it
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard != resource.RLIM_INFINITY and hard < 1100:
        pytest.skip(f"this process may open only {hard} descriptors")
    if soft != resource.RLIM_INFINITY and soft < 1100:
        resource.setrlimit(resource.RLIMIT_NOFILE, (1100, hard))
    held = []
    try:
        while (fd := os.open(os.devnull, os.O_RDONLY)) < 1024:
            held.append(fd)
        held.append(fd)
        assert _forked_map([partial(pow, 2, i) for i in range(6)]) == [1, 2, 4, 8, 16, 32]
    finally:
        for fd in held:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def _pids():
    """This process's id, and those of a two-task ``_forked_map`` run from here."""
    return os.getpid(), _forked_map([os.getpid, os.getpid])


def test_forked_map_in_one_of_its_workers_runs_in_process(two_workers):
    outer = _forked_map([_pids, _pids])
    assert len({pid for pid, _ in outer} | {os.getpid()}) == 3
    for pid, inner in outer:
        assert inner == [pid, pid]


def test_a_run_on_workers_does_not_import_multiprocessing():
    # a 2-worker bootstrap and a Monte Carlo run with its oracle fork (the
    # fork count proves it) and leave multiprocessing out of sys.modules
    src = str(Path(core.__file__).parents[1])
    code = """if True:
        import os, sys
        from didbounds import (MONO_POSITIVE, BootstrapSpec, DgpConfig, bootstrap_ses,
                               bounds_tau_ooo, generate_panel, run_monte_carlo)
        from didbounds import core, inference
        forks = []
        os.register_at_fork(after_in_parent=lambda: forks.append(1))
        core._worker_count = lambda: 2
        data = generate_panel(DgpConfig(n=300, seed=7))
        inference._BOOT_DRAWS = data.n
        bootstrap_ses(data, lambda d: bounds_tau_ooo(d, MONO_POSITIVE), BootstrapSpec(reps=20, seed=1))
        run_monte_carlo(DgpConfig(n=50, seed=1), 30, ["mono-pos"], coverage="interval",
                        oracle_draws=100_000)
        print(len(forks), 'multiprocessing' in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout == "4 False\n"
