import numpy as np
import pytest

from didbounds import (
    MONO_NEGATIVE,
    MONO_POSITIVE,
    WITHOUT_MONOTONICITY,
    MultiPeriodPanel,
    StaggeredTarget,
    bounds_staggered,
    bounds_tau_ooo,
    bounds_tau_oo_rcs,
    naive_did_rcs,
    rcs_weights,
)
from didbounds.errors import (
    EmptyCell,
    EmptyGroup,
    InvalidAssumptions,
    MalformedRow,
    MissingPeriod,
)
from didbounds.extensions import panel_from_staggered

from conftest import make_rcs


def rcs_fixture():
    """Selection rates: s00 = s10 = 1, s01 = 3/4, s11 = 1 (post gap by arm)."""
    rows = [
        # pre period, both arms fully selected
        (0, 0, 1, 1.0), (0, 0, 1, 3.0),
        (0, 1, 1, 2.0), (0, 1, 1, 4.0),
        # post period, control: 3 of 4 selected
        (1, 0, 1, 5.0), (1, 0, 1, 6.0), (1, 0, 1, 7.0), (1, 0, 0, None),
        # post period, treated: all 4 selected
        (1, 1, 1, 10.0), (1, 1, 1, 11.0), (1, 1, 1, 12.0), (1, 1, 1, 13.0),
    ]
    return make_rcs(rows)


class TestRcsWeights:
    def test_level_equality_mono(self):
        w = rcs_weights(rcs_fixture(), "LevelEquality", mono=True)
        assert w.p_ooo1 == pytest.approx(3 / 4)  # s01 / s11
        assert w.p_ooo0 == 1.0

    def test_level_equality_no_mono(self):
        w = rcs_weights(rcs_fixture(), "LevelEquality", mono=False)
        # q11 = max(s01 + s11 - 1, 0)/s11 = 3/4; q01 = same / s01 = 1
        assert w.p_ooo1 == pytest.approx(3 / 4)
        assert w.p_ooo0 == pytest.approx(1.0)

    def test_trend_equals_level_when_pre_rates_match(self):
        data = rcs_fixture()
        for mono in (True, False):
            level = rcs_weights(data, "LevelEquality", mono=mono)
            trend = rcs_weights(data, "TrendEquality", mono=mono)
            assert trend.p_ooo1 == level.p_ooo1
            assert trend.p_ooo0 == level.p_ooo0

    def test_trend_correction_shifts_weights(self):
        # add unselected pre-period control rows: s00 drops to 1/2
        rows = [(0, 0, 0, None), (0, 0, 0, None)]
        data = make_rcs(
            [(int(t), int(d), int(s), None if np.isnan(y) else float(y))
             for t, d, s, y in zip(rcs_fixture().t, rcs_fixture().d,
                                   rcs_fixture().s, rcs_fixture().y)] + rows
        )
        w = rcs_weights(data, "TrendEquality", mono=True)
        # q11 = (s01 - s00 + s10)/s11 = (3/4 - 1/2 + 1)/1 = 5/4 -> clamped
        assert w.p_ooo1 == 1.0
        assert "Clamped:q_oo11" in w.warnings

    def test_unknown_variant(self):
        with pytest.raises(InvalidAssumptions):
            rcs_weights(rcs_fixture(), "Quadratic", mono=True)


class TestRcsBounds:
    def test_mono_hand_values(self):
        res = bounds_tau_oo_rcs(rcs_fixture(), "LevelEquality", MONO_POSITIVE)
        # treated post [10..13] at share 3/4: lower tail mean 11, upper 12;
        # control post mean 6; pre terms -3 + 2
        assert res.lb == pytest.approx(11.0 - 6.0 - 3.0 + 2.0)
        assert res.ub == pytest.approx(12.0 - 6.0 - 3.0 + 2.0)
        assert res.parameter == "tau_OO_rcs"

    def test_no_mono_subtracts_trimmed_control_in_both_endpoints(self):
        res = bounds_tau_oo_rcs(rcs_fixture(), "LevelEquality", WITHOUT_MONOTONICITY)
        # q01 = 1: control lower-trimmed tail equals the plain mean here
        assert res.lb == pytest.approx(11.0 - 6.0 - 3.0 + 2.0)
        assert res.ub == pytest.approx(12.0 - 6.0 - 3.0 + 2.0)

    def test_collapse_when_fully_selected(self):
        rows = [
            (0, 0, 1, 1.0), (0, 1, 1, 2.0), (0, 0, 1, 2.0), (0, 1, 1, 5.0),
            (1, 0, 1, 3.0), (1, 1, 1, 9.0), (1, 0, 1, 4.0), (1, 1, 1, 6.0),
        ]
        data = make_rcs(rows)
        target = naive_did_rcs(data)
        res = bounds_tau_oo_rcs(data, "LevelEquality", MONO_POSITIVE)
        assert res.lb == pytest.approx(target, abs=1e-12)
        assert res.ub == pytest.approx(target, abs=1e-12)

    def test_negative_monotonicity_rejected(self):
        with pytest.raises(InvalidAssumptions):
            bounds_tau_oo_rcs(rcs_fixture(), "LevelEquality", MONO_NEGATIVE)

    def test_empty_cell(self):
        rows = [(0, 0, 1, 1.0), (1, 0, 1, 2.0), (1, 1, 1, 3.0)]
        with pytest.raises(EmptyCell):
            bounds_tau_oo_rcs(make_rcs(rows), "LevelEquality", MONO_POSITIVE)


def multi_fixture():
    """Three periods; cohort 1 treated from period 1, gvar=0 never treated."""
    ids, gvar, t, s, y = [], [], [], [], []

    def add(uid, g, rows):
        for per, sel, val in rows:
            ids.append(uid)
            gvar.append(g)
            t.append(per)
            s.append(sel)
            y.append(np.nan if val is None else val)

    add("t1", 1, [(0, 1, 10.0), (1, 1, 13.0), (2, 1, 15.0)])
    add("t2", 1, [(0, 1, 11.0), (1, 1, 12.0), (2, 1, 14.0)])
    add("t3", 1, [(0, 1, 9.0), (1, 0, None), (2, 1, 16.0)])
    add("c1", 0, [(0, 1, 10.0), (1, 1, 11.0), (2, 1, 11.5)])
    add("c2", 0, [(0, 1, 12.0), (1, 1, 12.5), (2, 1, 13.0)])
    add("c3", 0, [(0, 0, None), (1, 1, 12.0), (2, 0, None)])
    arr = lambda v, dt: np.asarray(v, dtype=dt)
    return MultiPeriodPanel(
        ids=tuple(ids), gvar=arr(gvar, np.int64), t=arr(t, np.int64),
        s=arr(s, np.int8), y=arr(y, np.float64), unit_ids=("t1", "t2", "t3", "c1", "c2", "c3"),
    )


class TestStaggered:
    def test_target_validation(self):
        with pytest.raises(InvalidAssumptions):
            StaggeredTarget(0, 1)
        with pytest.raises(InvalidAssumptions):
            StaggeredTarget(2, 1)

    def test_panel_construction(self):
        panel = panel_from_staggered(multi_fixture(), StaggeredTarget(1, 2))
        assert panel.n == 6
        assert sorted(panel.ids) == ["c1", "c2", "c3", "t1", "t2", "t3"]
        by_id = dict(zip(panel.ids, zip(panel.d, panel.s0, panel.s1)))
        assert by_id["t1"] == (1, 1, 1)
        assert by_id["c3"] == (0, 0, 0)

    def test_delegates_to_panel_bound_bitwise(self):
        data = multi_fixture()
        target = StaggeredTarget(1, 2)
        res = bounds_staggered(data, target, MONO_POSITIVE)
        direct = bounds_tau_ooo(panel_from_staggered(data, target), MONO_POSITIVE)
        assert res.lb == direct.lb
        assert res.ub == direct.ub
        assert res.parameter == "tau_OOO_staggered"
        assert res.extras == {"gamma": 1, "t": 2}

    def test_missing_cohort(self):
        with pytest.raises(EmptyGroup):
            panel_from_staggered(multi_fixture(), StaggeredTarget(5, 5))

    def test_missing_period(self):
        with pytest.raises(MissingPeriod):
            panel_from_staggered(multi_fixture(), StaggeredTarget(1, 3))

    def test_duplicate_id_period_row(self):
        # a second period-2 row for t1, built in code rather than read from a file
        data = multi_fixture()
        dup = MultiPeriodPanel(
            ids=data.ids + ("t1",),
            gvar=np.append(data.gvar, 1),
            t=np.append(data.t, 2),
            s=np.append(data.s, np.int8(1)),
            y=np.append(data.y, 50.0),
            unit_ids=data.unit_ids,
        )
        with pytest.raises(MalformedRow) as exc:
            panel_from_staggered(dup, StaggeredTarget(1, 2))
        assert exc.value.context == {"id": "t1"}
        # a duplicate in a period the target does not read is left alone
        assert panel_from_staggered(dup, StaggeredTarget(1, 1)).n == 6
