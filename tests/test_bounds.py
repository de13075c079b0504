import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from didbounds import (
    MONO_NEGATIVE,
    MONO_POSITIVE,
    WITHOUT_MONOTONICITY,
    AssumptionSet,
    DgpConfig,
    MultiPeriodPanel,
    PanelDataset,
    StaggeredTarget,
    bounds_tau_nno,
    bounds_tau_noo,
    bounds_tau_ono,
    bounds_tau_ooo,
    bounds_tau_oo_rcs,
    bounds_staggered,
    generate_panel,
    group_proportion,
    mixing_mono,
    mixing_no_mono,
    naive_did,
    strata_proportions,
)
from didbounds.errors import (
    DidBoundsError,
    EmptyCell,
    InvalidAssumptions,
    VacuousIdentification,
)
from didbounds.bounds import _FORMULAS
from didbounds.extensions import RCS_VARIANTS

import reference_bounds
from conftest import (
    copy_rows,
    make_panel,
    make_rcs,
    outcomes,
    panel_rows,
    random_panel,
    rcs_rows,
)

DOMINANCE = {
    "ono": AssumptionSet("with_monotonicity", "positive",
                         joint_independence=True, mean_dominance="5a"),
    "nno": AssumptionSet("with_monotonicity", "positive",
                         joint_independence=True, mean_dominance="5b"),
    "noo": AssumptionSet("with_monotonicity", "positive",
                         joint_independence=True, mean_dominance="5c"),
}


def _scale(data: PanelDataset, a: float) -> PanelDataset:
    return PanelDataset.from_records(
        data.ids, data.d, data.s0, data.s1, data.y0 * a, data.y1 * a
    )


class TestNaive:
    def test_hand_value(self, mixed_panel):
        # treated delta-Y mean = 3, control delta-Y mean = 2
        assert naive_did(mixed_panel) == pytest.approx(1.0)

    def test_requires_both_arms(self):
        data = make_panel([(1, 1, 1, 0.0, 1.0)])
        with pytest.raises(EmptyCell):
            naive_did(data)


class TestMixing:
    def test_no_mono_hand_values(self, mixed_panel):
        # P0 = 3/5, P1 = 5/6; joint lower = 13/30
        mix = mixing_no_mono(mixed_panel)
        assert mix.p_ooo1 == pytest.approx(13 / 25)
        assert mix.p_ooo0 == pytest.approx(13 / 18)
        assert mix.p_ooo1_interval.hi == pytest.approx((3 / 5) / (5 / 6))
        assert mix.p_ooo0_interval.hi == pytest.approx(1.0)

    def test_mono_positive_hand_values(self, mixed_panel):
        mix = mixing_mono(mixed_panel, "positive")
        assert mix.p_ooo1 == pytest.approx(0.72)
        assert mix.p_ooo0 == 1.0
        assert mix.warnings == []

    def test_mono_negative_clamps_with_warning(self, mixed_panel):
        # P1/P0 = 25/18 > 1: sample violates negative monotone selection
        mix = mixing_mono(mixed_panel, "negative")
        assert mix.p_ooo0 == 1.0
        assert "MonotonicityViolatedInSample" in mix.warnings

    def test_vacuous_warning_when_marginals_disjoint(self):
        rows = (
            [(1, 1, 1, 0.0, 1.0)] + [(1, 1, 0, 0.0, None)] * 9
            + [(0, 1, 1, 0.0, 1.0)] * 2 + [(0, 1, 0, 0.0, None)] * 8
        )
        mix = mixing_no_mono(make_panel(rows))
        assert mix.p_ooo1 == 0.0
        assert "VacuousIdentification" in mix.warnings


class TestAlwaysObservedBounds:
    def test_mono_positive_hand_values(self, mixed_panel):
        res = bounds_tau_ooo(mixed_panel, MONO_POSITIVE)
        # trim 0.72 of treated [1..5]: tail means 2.5 / 4.0; control mean 2
        assert res.lb == pytest.approx(0.5)
        assert res.ub == pytest.approx(2.0)
        assert res.parameter == "tau_OOO"

    def test_no_mono_hand_values(self, mixed_panel):
        res = bounds_tau_ooo(mixed_panel, WITHOUT_MONOTONICITY)
        # trim shares 0.52 / (13/18): treated tails 2.0 / 4.5,
        # control [0,2,4] tails 2.0 / 3.0
        assert res.lb == pytest.approx(-1.0)
        assert res.ub == pytest.approx(2.5)

    def test_mono_negative_mirrors_arms(self, mixed_panel):
        res = bounds_tau_ooo(mixed_panel, MONO_NEGATIVE)
        # clamped p_ooo0 = 1 collapses both control tails to the plain mean
        assert res.lb == res.ub == pytest.approx(1.0)
        assert "MonotonicityViolatedInSample" in res.warnings

    def test_nesting_on_fixture(self, mixed_panel):
        no_mono = bounds_tau_ooo(mixed_panel, WITHOUT_MONOTONICITY)
        mono = bounds_tau_ooo(mixed_panel, MONO_POSITIVE)
        assert no_mono.lb <= mono.lb <= mono.ub <= no_mono.ub

    def test_scale_equivariance(self, mixed_panel):
        base = bounds_tau_ooo(mixed_panel, MONO_POSITIVE)
        scaled = bounds_tau_ooo(_scale(mixed_panel, 2.0), MONO_POSITIVE)
        assert scaled.lb == 2.0 * base.lb
        assert scaled.ub == 2.0 * base.ub

    def test_collapse_when_fully_observed(self):
        rng = np.random.default_rng(3)
        n = 60
        data = PanelDataset.from_records(
            [str(i) for i in range(n)],
            rng.integers(0, 2, n),
            np.ones(n), np.ones(n),
            rng.standard_normal(n), rng.standard_normal(n),
        )
        target = naive_did(data)
        for aset in (WITHOUT_MONOTONICITY, MONO_POSITIVE, MONO_NEGATIVE):
            res = bounds_tau_ooo(data, aset)
            assert res.lb == target and res.ub == target

    def test_no_mono_full_control_retention(self):
        # P0 = 1, P1 = 3/5: the Frechet lower bound 1 + 0.6 - 1 rounds to
        # 0.6000000000000001, which once made p_ooo1 exceed 1 (OutOfRange)
        rows = (
            [(1, 1, 1, 0.0, float(k)) for k in (1, 2, 3)]
            + [(1, 1, 0, 0.0, None)] * 2
            + [(0, 1, 1, 0.0, float(k)) for k in (0, 1, 2, 3, 4)]
        )
        res = bounds_tau_ooo(make_panel(rows), WITHOUT_MONOTONICITY)
        assert res.proportions.p_ooo1 == 1.0
        assert np.isfinite(res.lb) and np.isfinite(res.ub)

    def test_vacuous_is_error(self):
        rows = (
            [(1, 1, 1, 0.0, 1.0)] + [(1, 1, 0, 0.0, None)] * 9
            + [(0, 1, 1, 0.0, 1.0)] * 2 + [(0, 1, 0, 0.0, None)] * 8
        )
        with pytest.raises(VacuousIdentification):
            bounds_tau_ooo(make_panel(rows), WITHOUT_MONOTONICITY)


class TestOtherGroupBounds:
    def test_ono_hand_values(self, mixed_panel):
        res = bounds_tau_ono(mixed_panel, DOMINANCE["ono"])
        # trim 0.28 of treated [1..5] -> 1.5 / 5.0; control post mean 12;
        # attriter pre [7,8] at p_ono0=7/12 -> 7.5 / 8; min control post = 10
        assert res.proportions.p_ono0 == pytest.approx(7 / 12)
        assert res.lb == pytest.approx(1.5 - 12.0 + 7.5)
        assert res.ub == pytest.approx(5.0 - 10.0 + 8.0)

    def test_nno_hand_values(self, mixed_panel):
        res = bounds_tau_nno(mixed_panel, DOMINANCE["nno"])
        # p_nno1 = 5/9: joiner post [20,22,24] tails 21 / 24;
        # treated pre both-observed all 10; control joiner post mean 18;
        # support minima: y00=7, y10=9, y01=10; attriter pre lower tail 7.5
        assert res.proportions.p_nno1 == pytest.approx(5 / 9)
        assert res.lb == pytest.approx(21.0 - 10.0 - 18.0 + 7.0)
        assert res.ub == pytest.approx(24.0 - 9.0 - 10.0 + 7.5)

    def test_noo_hand_values(self, mixed_panel):
        res = bounds_tau_noo(mixed_panel, DOMINANCE["noo"])
        # trim 4/9 of joiner post [20,22,24] -> 21 / 24; treated pre trimmed at
        # p_ooo1=0.72 -> 10; control joiner post 18; control pre both 10; y00=7
        assert res.lb == pytest.approx(21.0 - 10.0 - 18.0 + 7.0)
        assert res.ub == pytest.approx(24.0 - 9.0 - 18.0 + 10.0)

    def test_support_overrides_enter_endpoints(self, mixed_panel):
        res = bounds_tau_nno(
            mixed_panel, DOMINANCE["nno"],
            support_overrides={"y00_lb": 5.0, "y10_lb": 8.0, "y01_lb": 9.0},
        )
        assert res.lb == pytest.approx(21.0 - 10.0 - 18.0 + 5.0)
        assert res.ub == pytest.approx(24.0 - 8.0 - 9.0 + 7.5)
        assert res.support_minima == {"y00_lb": 5.0, "y01_lb": 9.0, "y10_lb": 8.0}

    @pytest.mark.parametrize("param", ["ono", "nno", "noo"])
    def test_requires_mono_positive_and_dominance(self, mixed_panel, param):
        fn = {"ono": bounds_tau_ono, "nno": bounds_tau_nno, "noo": bounds_tau_noo}[param]
        with pytest.raises(InvalidAssumptions):
            fn(mixed_panel, MONO_POSITIVE)  # no dominance flag
        with pytest.raises(InvalidAssumptions):
            fn(mixed_panel, WITHOUT_MONOTONICITY)

    def test_ono_requires_joint_independence(self, mixed_panel):
        aset = AssumptionSet("with_monotonicity", "positive", mean_dominance="5a")
        with pytest.raises(InvalidAssumptions):
            bounds_tau_ono(mixed_panel, aset)

    def test_scale_equivariance_levels(self, mixed_panel):
        base = bounds_tau_ono(mixed_panel, DOMINANCE["ono"])
        scaled = bounds_tau_ono(_scale(mixed_panel, 2.0), DOMINANCE["ono"])
        assert scaled.lb == 2.0 * base.lb
        assert scaled.ub == 2.0 * base.ub


class TestStrataProportions:
    def test_hand_values(self, mixed_panel):
        mix = strata_proportions(mixed_panel)
        s = mix.strata
        assert s[("OOO", 0)] == pytest.approx(3 / 18)
        assert s[("OOO", 1)] == pytest.approx(1 / 5)
        assert s[("ONO", 0)] == pytest.approx(7 / 108)
        assert s[("ONO", 1)] == pytest.approx(7 / 90)
        assert s[("ONN", 0)] == pytest.approx(5 / 108)
        assert s[("ONN", 1)] == pytest.approx(1 / 18)
        assert s[("NOO", 0)] == pytest.approx(1 / 18)
        assert s[("NOO", 1)] == pytest.approx(2 / 27)
        assert s[("NNO", 0)] == pytest.approx(5 / 72)
        assert s[("NNO", 1)] == pytest.approx(5 / 54)
        assert s[("NNN", 0)] == pytest.approx(1 / 24)
        assert s[("NNN", 1)] == pytest.approx(1 / 18)
        assert mix.warnings == []

    def test_sums_to_one_without_clamping(self, mixed_panel):
        mix = strata_proportions(mixed_panel)
        assert sum(mix.strata.values()) == pytest.approx(1.0)

    def test_group_proportion(self, mixed_panel):
        mix = strata_proportions(mixed_panel)
        assert group_proportion(mix, "OOO") == pytest.approx(3 / 18 + 1 / 5)
        assert group_proportion(mix, "ONO") == pytest.approx(7 / 108 + 7 / 90)

    def test_mixing_weights_match_pairwise_estimators(self, mixed_panel):
        mix = strata_proportions(mixed_panel)
        assert mix.p_ooo1 == pytest.approx(0.72)
        assert mix.p_ono0 == pytest.approx(7 / 12)
        assert mix.p_nno1 == pytest.approx(5 / 9)

    def test_group_proportion_requires_strata(self, mixed_panel):
        mix = mixing_mono(mixed_panel, "positive")
        with pytest.raises(InvalidAssumptions):
            group_proportion(mix, "OOO")


ALL_BOUNDS = {
    "ooo-nomono": lambda d: bounds_tau_ooo(d, WITHOUT_MONOTONICITY),
    "ooo-mono-pos": lambda d: bounds_tau_ooo(d, MONO_POSITIVE),
    "ooo-mono-neg": lambda d: bounds_tau_ooo(d, MONO_NEGATIVE),
    "ono": lambda d: bounds_tau_ono(d, DOMINANCE["ono"]),
    "nno": lambda d: bounds_tau_nno(d, DOMINANCE["nno"]),
    "noo": lambda d: bounds_tau_noo(d, DOMINANCE["noo"]),
}


def _outcome(fn, data):
    try:
        return fn(data)
    except DidBoundsError as exc:
        return exc.code


def _order_free(terms, mix) -> bool:
    """Whether every one of ``terms`` is a support minimum or a trimmed tail
    at a share below 1, a slice of a sorted cell: no term reduces in row order."""
    shares = {"p_ooo1": mix.p_ooo1, "p_ooo0": mix.p_ooo0, "p_ono0": mix.p_ono0,
              "p_nno1": mix.p_nno1}
    shares.update({f"1 - {k}": 1.0 - v for k, v in shares.items() if v is not None})
    return all(statistic == "min" or statistic in ("lower", "upper") and shares[share] < 1.0
               for _, statistic, _, share in terms)


@given(rows=panel_rows, data=st.data())
def test_bounds_invariant_to_row_order(rows, data):
    order = data.draw(st.permutations(range(len(rows))))
    panel = make_panel(rows)
    shuffled = make_panel([rows[i] for i in order])
    # a plain mean's summation order moves the last ulp, which is relative to
    # the outcomes' size, not to a bound that may sit near 0; an endpoint
    # without one is the same bit for bit
    scale = 1.0 + max((abs(v) for r in rows for v in r[3:] if v is not None), default=0.0)
    bits = lambda x: np.float64(x).view(np.uint64)
    for name, fn in ALL_BOUNDS.items():
        ref, got = _outcome(fn, panel), _outcome(fn, shuffled)
        if isinstance(ref, str):
            assert got == ref, name
            continue
        row = _FORMULAS[ref.parameter]
        for end, terms in (("lb", row.lb), ("ub", row.ub)):
            want, value = getattr(ref, end), getattr(got, end)
            if _order_free(terms, ref.proportions):
                assert bits(value) == bits(want), (name, end)
            else:
                assert value == pytest.approx(want, rel=1e-12, abs=1e-12 * scale), (name, end)
        # weights and support minima are count ratios and minima: exact
        assert got.proportions.to_dict() == ref.proportions.to_dict(), name
        assert got.support_minima == ref.support_minima, name
        assert got.warnings == ref.warnings, name


def _relabel(ids, labels):
    """Rename ids so that the k-th id in lexical order becomes labels[k]."""
    rank = {uid: k for k, uid in enumerate(sorted(ids))}
    return [labels[rank[uid]] for uid in ids]


def _same_outcome(ref, got, name):
    if isinstance(ref, str):
        assert got == ref, name
        return
    assert (got.lb, got.ub) == (ref.lb, ref.ub), name
    assert got.proportions.to_dict() == ref.proportions.to_dict(), name
    assert got.support_minima == ref.support_minima, name
    assert got.warnings == ref.warnings, name


@given(rows=panel_rows, data=st.data())
def test_bounds_invariant_to_id_relabeling(rows, data):
    panel = make_panel(rows)
    ids = list(panel.ids)
    labels = [f"u{k:04d}" for k in range(len(ids))]
    renamings = {
        "reversed": _relabel(ids, labels[::-1]),
        "shuffled": _relabel(ids, data.draw(st.permutations(labels))),
    }
    # the staggered file: cohort 2 against never-treated, periods 0 and 2,
    # period-2 rows first and period-0 rows in reverse, so units are first
    # seen neither in id order nor in lexical order
    def staggered(unit_ids):
        long = [(u, 2 * r[0], 2, r[2], r[4]) for u, r in zip(unit_ids, rows)]
        long += [(u, 2 * r[0], 0, r[1], r[3]) for u, r in zip(unit_ids, rows)][::-1]
        cols = list(zip(*long))
        return MultiPeriodPanel(
            ids=np.array(cols[0], dtype=object), gvar=np.array(cols[1]),
            t=np.array(cols[2]), s=np.array(cols[3], dtype=np.int8),
            y=np.array([np.nan if v is None else v for v in cols[4]]),
        )

    target = StaggeredTarget(2, 2)
    for how, new_ids in renamings.items():
        renamed = PanelDataset.from_records(
            new_ids, panel.d, panel.s0, panel.s1, panel.y0, panel.y1
        )
        for name, fn in ALL_BOUNDS.items():
            _same_outcome(_outcome(fn, panel), _outcome(fn, renamed), f"{how} {name}")
        for aset in (WITHOUT_MONOTONICITY, MONO_POSITIVE, MONO_NEGATIVE):
            fn = lambda d: bounds_staggered(d, target, aset)
            _same_outcome(
                _outcome(fn, staggered(ids)), _outcome(fn, staggered(new_ids)),
                f"{how} staggered {aset.variant} {aset.direction}",
            )


@given(data=st.data())
def test_weights_are_one_exactly_when_their_rational_value_is(data):
    # (kept, attriters) per arm, each arm under 200 rows, at least one kept
    num0, num1 = data.draw(st.integers(1, 199)), data.draw(st.integers(1, 199))
    den0 = data.draw(st.integers(num0, 199))
    den1 = data.draw(st.integers(num1, 199))
    rows = [(1, 1, 1, 0.0, 0.0)] * num1 + [(1, 1, 0, 0.0, None)] * (den1 - num1)
    rows += [(0, 1, 1, 0.0, 0.0)] * num0 + [(0, 1, 0, 0.0, None)] * (den0 - num0)
    panel = make_panel(rows)
    p0, p1 = Fraction(num0, den0), Fraction(num1, den1)
    joint = max(p0 + p1 - 1, Fraction(0))
    exact = {
        "nomono": (mixing_no_mono(panel), joint / p1, joint / p0),
        "mono-pos": (mixing_mono(panel, "positive"), min(p0 / p1, Fraction(1)), 1),
        "mono-neg": (mixing_mono(panel, "negative"), 1, min(p1 / p0, Fraction(1))),
    }
    for name, (mix, w1, w0) in exact.items():
        for got, want in ((mix.p_ooo1, w1), (mix.p_ooo0, w0)):
            assert 0.0 <= got <= 1.0, name
            assert (got == 1.0) == (want == 1), (name, got, want)


RCS_BOUNDS = {
    f"rcs-{variant}-{aset.variant}": (
        lambda d, variant=variant, aset=aset: bounds_tau_oo_rcs(d, variant, aset)
    )
    for variant in RCS_VARIANTS
    for aset in (WITHOUT_MONOTONICITY, MONO_POSITIVE)
}


@given(rows=panel_rows, seed=st.integers(0, 2**32 - 1))
def test_panel_take_matches_copied_rows(rows, seed):
    # a bootstrap replicate (data.take) re-indexes the parent's cells; every
    # bound on it must equal, bit for bit, the bound on a copy of its rows
    panel = make_panel(rows)
    idx = np.random.default_rng(seed).integers(0, panel.n, size=panel.n)
    bounds = {**ALL_BOUNDS, "naive": naive_did}
    for name, fn in bounds.items():
        ref, got = _outcome(fn, copy_rows(panel, idx)), _outcome(fn, panel.take(idx))
        if isinstance(ref, float):
            assert got == ref, name
            continue
        _same_outcome(ref, got, name)


@given(rows=rcs_rows, seed=st.integers(0, 2**32 - 1))
def test_rcs_take_matches_copied_rows(rows, seed):
    data = make_rcs(rows)
    idx = np.random.default_rng(seed).integers(0, data.n, size=data.n)
    for name, fn in RCS_BOUNDS.items():
        _same_outcome(_outcome(fn, copy_rows(data, idx)), _outcome(fn, data.take(idx)), name)


def _kept_arm(d):
    """Rows of arm d observed at baseline: one to eight kept, fewer attriters
    than kept, so retention exceeds 1/2 and the Frechet shares are positive."""
    return st.lists(st.tuples(outcomes, outcomes), min_size=1, max_size=8).flatmap(
        lambda kept: st.integers(0, len(kept) - 1).map(
            lambda gone: [(d, 1, 1, y0, y1) for y0, y1 in kept]
            + [(d, 1, 0, y0, None) for y0, _ in kept[:gone]]
        )
    )


@given(treated=_kept_arm(1), control=_kept_arm(0))
def test_mono_pos_nested_in_nomono_on_random_panels(treated, control):
    # swap the arms where needed so that positive monotonicity holds in the
    # sample: treated retention at least control retention, compared exactly
    kept1, kept0 = (sum(r[2] for r in arm) for arm in (treated, control))
    if kept1 * len(control) < kept0 * len(treated):
        treated, control = ([(1 - r[0], *r[1:]) for r in arm] for arm in (control, treated))
    rows = treated + control
    panel = make_panel(rows)
    mono = _outcome(ALL_BOUNDS["ooo-mono-pos"], panel)
    nomono = _outcome(ALL_BOUNDS["ooo-nomono"], panel)
    # ties can empty an upper tail (EmptyTrimSet) under either assumption set
    assume(not isinstance(mono, str) and not isinstance(nomono, str))
    # the Frechet shares are at most the monotone ones, and trimmed means are
    # monotone in the share; but a mean over a tail plus larger values can
    # still round an ulp lower (five 0.1 and one 0.1 + ulp average to
    # 0.09999999999999999, five 0.1 to 0.1), relative to the outcomes' size
    scale = 1.0 + max((abs(v) for r in rows for v in r[3:] if v is not None), default=0.0)
    slack = 1e-12 * scale
    assert mono.proportions.p_ooo1 >= nomono.proportions.p_ooo1
    assert nomono.lb <= mono.lb + slack
    assert mono.ub <= nomono.ub + slack


# --- the table of bound formulas against the four bounds written out ---

# one to five rows in each of the eight cells but those drawn to be empty;
# outcomes from {-1, 0, 1} as often as not, so ties are frequent
_tied = st.one_of(st.integers(-1, 1).map(float), outcomes)
CELLS = [(d, s0, s1) for d in (0, 1) for s0 in (0, 1) for s1 in (0, 1)]


@st.composite
def sparse_panel_rows(draw):
    empty = draw(st.sets(st.sampled_from(CELLS), max_size=2))
    sizes = [0 if cell in empty else draw(st.sampled_from(range(1, 6))) for cell in CELLS]
    return [
        (d, s0, s1, y0 if s0 else None, y1 if s1 else None)
        for (d, s0, s1), size in zip(CELLS, sizes)
        for y0, y1 in draw(st.lists(st.tuples(_tied, _tied), min_size=size, max_size=size))
    ]


# every variant and direction, with and without joint independence, under
# each mean dominance: the right one for each row and every wrong one
ASSUMPTION_SETS = [
    AssumptionSet(variant, direction, joint_independence=joint, mean_dominance=dominance)
    for variant, direction in (("without_monotonicity", None),
                               ("with_monotonicity", "positive"),
                               ("with_monotonicity", "negative"))
    for joint in (False, True)
    for dominance in (None, "5a", "5b", "5c")
]
SUPPORT_KEYS = ("y00_lb", "y01_lb", "y10_lb")


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared with the reference's, whatever it is
        return exc


def _assert_matches_reference(reference_fn, fn, *args):
    """``fn(*args)`` gives the reference's result bit for bit, or its error."""
    ref, got = _result_or_error(reference_fn, *args), _result_or_error(fn, *args)
    assert type(got) is type(ref), (args, ref, got)
    if isinstance(ref, Exception):
        assert str(got) == str(ref), args
        assert getattr(got, "context", None) == getattr(ref, "context", None), args
        return
    bits = lambda r: np.float64([r.lb, r.ub]).tobytes()
    assert bits(got) == bits(ref), args
    assert got.to_dict() == ref.to_dict(), args
    assert got.proportions.warnings == ref.proportions.warnings, args


@settings(max_examples=150, deadline=None)
@given(rows=sparse_panel_rows(),
       overrides=st.fixed_dictionaries({k: st.one_of(st.none(), outcomes) for k in SUPPORT_KEYS}))
def test_formula_table_matches_written_out_bounds(rows, overrides):
    panel = make_panel(rows)
    calls = [("ooo", (aset,)) for aset in ASSUMPTION_SETS]
    calls += [(param, (aset, support)) for param in ("ono", "nno", "noo")
              for aset in ASSUMPTION_SETS for support in (None, overrides)]
    for param, args in calls:
        name = f"bounds_tau_{param}"
        _assert_matches_reference(getattr(reference_bounds, name), globals()[name], panel, *args)


# one to five rows in each of the eight (d, t, s) cells but those drawn to be
# empty; outcomes tied as often as not
RCS_CELLS = [(d, t, s) for d in (0, 1) for t in (0, 1) for s in (0, 1)]


@st.composite
def sparse_rcs_rows(draw):
    empty = draw(st.sets(st.sampled_from(RCS_CELLS), max_size=2))
    sizes = [0 if cell in empty else draw(st.sampled_from(range(1, 6))) for cell in RCS_CELLS]
    return [
        (t, d, s, y if s else None)
        for (d, t, s), size in zip(RCS_CELLS, sizes)
        for y in draw(st.lists(_tied, min_size=size, max_size=size))
    ]


@settings(max_examples=300, deadline=None)
@given(rows=sparse_rcs_rows())
def test_formula_table_matches_written_out_rcs_bound(rows):
    data = make_rcs(rows)
    for variant in RCS_VARIANTS:
        for aset in (WITHOUT_MONOTONICITY, MONO_POSITIVE, MONO_NEGATIVE):
            _assert_matches_reference(reference_bounds.bounds_tau_oo_rcs, bounds_tau_oo_rcs,
                                      data, variant, aset)


def test_formula_table_reads_observed_cells_and_its_own_shares():
    assert sorted(_FORMULAS) == ["tau_NNO", "tau_NOO", "tau_ONO", "tau_OOO", "tau_OO_rcs"]
    for parameter, row in _FORMULAS.items():
        shares = [name for name, _ in row.shares]
        assert len(set(shares)) == len(shares), parameter
        rcs = parameter.endswith("_rcs")
        for sign, statistic, sample, share in row.terms:
            assert sign in (1, -1), parameter
            if statistic == "min":
                assert not rcs and sample in SUPPORT_KEYS and share is None, parameter
                continue
            # a repeated cross-section reads the observed rows of (d, t)
            # cells, and nothing else; a panel never does
            assert (sample[0] == "y") == rcs, (parameter, sample)
            if rcs:
                assert len(sample) == 3 and set(sample[1:]) <= {0, 1}, (parameter, sample)
            else:
                # a cell's outcome is observed in period 0 where s0 = 1, in
                # period 1 where s1 = 1; an arm's Delta Y needs both
                d, s0, s1, periods = ((sample[1], 1, 1, (0, 1)) if sample[0] == "dY"
                                      else (*sample[:3], sample[3:]))
                assert d in (0, 1) and all((s0, s1)[t] == 1 for t in periods), (parameter,
                                                                                 sample)
            if statistic == "mean":
                assert share is None, parameter
            else:
                assert statistic in ("lower", "upper") and share in shares, (parameter, share)
    # the support minima each row's terms use: the overrides the CLI accepts
    assert {p: sorted(row.support_minima) for p, row in _FORMULAS.items()} == {
        "tau_OOO": [], "tau_ONO": ["y01_lb"], "tau_NNO": ["y00_lb", "y01_lb", "y10_lb"],
        "tau_NOO": ["y00_lb", "y10_lb"], "tau_OO_rcs": []}
    # the one group: the RCS pre-period means, -mean(y10) + mean(y00), last
    # in both endpoints
    pre_means = ((-1, "mean", ("y", 1, 0), None), (1, "mean", ("y", 0, 0), None))
    groups = {p: [(end, k) for end, terms in (("lb", row.lb), ("ub", row.ub))
                  for k, term in enumerate(terms) if isinstance(term[0], tuple)]
              for p, row in _FORMULAS.items()}
    assert groups == {**{p: [] for p in _FORMULAS}, "tau_OO_rcs": [("lb", 2), ("ub", 2)]}
    rcs = _FORMULAS["tau_OO_rcs"]
    assert rcs.lb[2] == rcs.ub[2] == pre_means
    assert rcs.terms[2:4] == rcs.terms[-2:] == pre_means


def _columns(data) -> list:
    """The bytes of a dataset's columns but its ids, and of its cells' code
    and outcome columns (a panel's shared Delta Y among them)."""
    return ([getattr(data, f.name).tobytes() for f in fields(data) if f.name != "ids"]
            + [data.cells.code.tobytes()] + [y.tobytes() for y in data.cells._outcomes])


def test_bounds_leave_their_datasets_columns_unchanged():
    # each cell the tails sort in place is a fresh gather of its rows; the
    # cross-section samples unit i in period i % 2
    rng = np.random.default_rng(5)
    panel = generate_panel(DgpConfig(n=600, seed=7))
    by_period = ((panel.s0, panel.y0), (panel.s1, panel.y1))
    rcs = make_rcs([(i % 2, panel.d[i], by_period[i % 2][0][i],
                     by_period[i % 2][1][i] if by_period[i % 2][0][i] else None)
                    for i in range(panel.n)])
    before = [_columns(panel), _columns(rcs)]
    for data in (panel, panel.take(rng.integers(0, 600, 600))):
        for fn in ALL_BOUNDS.values():
            assert not isinstance(_outcome(fn, data), str)
    for data in (rcs, rcs.take(rng.integers(0, 600, 600))):
        for variant in RCS_VARIANTS:
            for aset in (WITHOUT_MONOTONICITY, MONO_POSITIVE):
                bounds_tau_oo_rcs(data, variant, aset)
    assert [_columns(panel), _columns(rcs)] == before


def test_a_bound_on_a_take_holds_one_array_per_cell():
    # a nomono tau_OOO bound on a take of 100,000 rows holds its two Delta Y
    # cells, each one gather sorted in place, and their transient masks and
    # row indices: about 5.5 traced bytes a row. A sorted copy beside each
    # cell would add about 3.5
    n = 100_000
    panel = generate_panel(DgpConfig(n=n, seed=7))
    panel.cells  # built untraced, as a bootstrap's parent has them
    take = panel.take(np.random.default_rng(0).integers(0, n, n))
    tracemalloc.start()
    try:
        res = bounds_tau_ooo(take, WITHOUT_MONOTONICITY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.proportions.p_ooo1 < 1.0 and res.proportions.p_ooo0 < 1.0
    assert peak < 8 * n
