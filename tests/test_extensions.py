from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from didbounds import (
    MONO_NEGATIVE,
    MONO_POSITIVE,
    WITHOUT_MONOTONICITY,
    MultiPeriodPanel,
    StaggeredTarget,
    bounds_staggered,
    bounds_tau_ooo,
    bounds_tau_oo_rcs,
    load_multi_csv,
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
from didbounds import data as data_module
from didbounds.extensions import _rcs_select_rate, panel_from_staggered

from conftest import make_rcs, rcs_rows


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


@given(rows=rcs_rows)
def test_select_rate_from_counts_is_the_mean_of_s(rows):
    # a count ratio from the cell summary is the mask mean it replaced, bit for bit
    data = make_rcs(rows)
    for d in (0, 1):
        for t in (0, 1):
            mask = (data.d == d) & (data.t == t)
            assert _rcs_select_rate(data, d, t) == float(np.mean(data.s[mask]))


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
        s=arr(s, np.int8), y=arr(y, np.float64),
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

    def test_units_derived_from_rows(self):
        # built in code, with no unit list beside the rows: every unit is kept,
        # in the order its id first appears
        data = multi_fixture()
        assert data.unit_ids == ("t1", "t2", "t3", "c1", "c2", "c3")
        panel = panel_from_staggered(data, StaggeredTarget(1, 2))
        assert tuple(panel.ids) == data.unit_ids

    def test_panel_builds_its_ids_only_when_read(self):
        data = multi_fixture()
        target = StaggeredTarget(1, 2)
        panel = panel_from_staggered(data, target)
        assert "ids" not in vars(panel)
        # the bound reads no id of the 2x2 panel it builds
        panels = []
        pivot = lambda *args: panels.append(panel_from_staggered(*args)) or panels[-1]
        with mock.patch("didbounds.extensions.panel_from_staggered", pivot), \
                mock.patch.object(data_module._UnitIds, "unpack", side_effect=AssertionError):
            bounds_staggered(data, target, MONO_POSITIVE)
        assert len(panels) == 1 and "ids" not in vars(panels[0])
        ids = panels[0].ids
        assert ids.tolist() == ["t1", "t2", "t3", "c1", "c2", "c3"]
        assert not ids.flags.writeable and panels[0].ids is ids
        assert "_packed_ids" not in vars(panels[0])

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
        # a second period-2 row for t1, built in code rather than read from a
        # file, is rejected when the panel is built, as the loader rejects it
        data = multi_fixture()
        with pytest.raises(MalformedRow) as exc:
            MultiPeriodPanel(
                ids=(*data.ids, "t1"),
                gvar=np.append(data.gvar, 1),
                t=np.append(data.t, 2),
                s=np.append(data.s, np.int8(1)),
                y=np.append(data.y, 50.0),
            )
        assert exc.value.context == {"row": 18, "id": "t1"}
        assert str(exc.value) == "MultiPeriodPanel row 18: id t1 already has a row for t=2"


def _pivot_by_rows(data, target):
    """The row-by-row pivot, kept as the reference: (ids, d, s0, s1, y0, y1)."""
    unit_ids = list(dict.fromkeys(data.ids))
    treated = {u for u, g in zip(data.ids, data.gvar) if g == target.gamma}
    control = {u for u, g in zip(data.ids, data.gvar) if g == 0}
    if not treated:
        raise EmptyGroup("no treated units", gamma=target.gamma)
    if not control:
        raise EmptyGroup("no never-treated units", gamma=0)
    keep = treated | control
    pre, post = {}, {}
    for uid, per, s, y in zip(data.ids, data.t, data.s, data.y):
        if uid in keep and per in (0, target.t):
            (pre if per == 0 else post)[uid] = (int(s), float(y))
    for period, have in ((0, pre), (target.t, post)):
        missing = [u for u in unit_ids if u in keep and u not in have]
        if missing:
            raise MissingPeriod("missing period", t=period, ids=missing)
    units = [u for u in unit_ids if u in keep]
    return (
        units, [int(u in treated) for u in units],
        [pre[u][0] for u in units], [post[u][0] for u in units],
        [pre[u][1] for u in units], [post[u][1] for u in units],
    )


# per unit: an id, a cohort (0 = never treated), (s, y) in periods 0-2, and
# two draws in 0-29 that below 3 name a period to leave out and one to repeat,
# so a panel's repeated row and every error of the pivot are drawn as well as
# valid panels
_unit = st.tuples(
    st.text("abc", min_size=1, max_size=3),
    st.sampled_from([0, 1, 2]),
    st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3).map(float)),
             min_size=3, max_size=3),
    st.integers(0, 29),
    st.integers(0, 29),
)


@given(units=st.lists(_unit, min_size=2, max_size=8, unique_by=lambda u: u[0]),
       data=st.data())
def test_pivot_matches_row_by_row_reference(units, data):
    rows = []
    for uid, g, obs, drop, repeat in units:
        rows += [(uid, g, t, s, y if s else np.nan)
                 for t, (s, y) in enumerate(obs) if t != drop]
        rows += [(uid, g, repeat, 1, 9.0)] if repeat < 3 else []
    rows = data.draw(st.permutations(rows))
    gamma = data.draw(st.sampled_from(sorted({u[1] for u in units} - {0}) or [1]))
    target = StaggeredTarget(gamma, data.draw(st.integers(gamma, 2)))
    cols = list(zip(*rows))
    columns = dict(
        ids=np.array(cols[0], dtype=object), gvar=np.array(cols[1]), t=np.array(cols[2]),
        s=np.array(cols[3], dtype=np.int8), y=np.array(cols[4], dtype=np.float64),
    )
    # a second row of one (id, t) is rejected when the panel is built, at
    # the first such row
    repeats = [i for i, row in enumerate(rows) if row[:3:2] in {r[:3:2] for r in rows[:i]}]
    if repeats:
        with pytest.raises(MalformedRow) as exc:
            MultiPeriodPanel(**columns)
        assert exc.value.context == {"row": repeats[0], "id": rows[repeats[0]][0]}
        return
    panel = MultiPeriodPanel(**columns)
    try:
        want = _pivot_by_rows(panel, target)
    except (EmptyGroup, MissingPeriod) as exc:
        with pytest.raises(type(exc)) as got:
            panel_from_staggered(panel, target)
        assert got.value.context == exc.context
        return
    got = panel_from_staggered(panel, target)
    assert list(got.ids) == want[0]
    assert [list(col) for col in (got.d, got.s0, got.s1)] == list(want[1:4])
    for col, ref in ((got.y0, want[4]), (got.y1, want[5])):
        assert np.array_equal(col, np.array(ref), equal_nan=True)


def _panel_bits(panel) -> list:
    """Every column of a ``PanelDataset``: the ids, and each array's dtype and bytes."""
    return [list(panel.ids)] + [(col.dtype, col.tobytes())
                                for col in (panel.d, panel.s0, panel.s1, panel.y0, panel.y1)]


@given(units=st.lists(_unit, min_size=2, max_size=8, unique_by=lambda u: u[0]),
       data=st.data())
def test_loaded_unit_codes_match_codes_built_in_code(units, data, tmp_path_factory):
    # _unit's rows without its repeated row, and with period 0 always kept,
    # so that the file loads
    rows = [(uid, g, t, s, y if s else np.nan)
            for uid, g, obs, drop, _ in units for t, (s, y) in enumerate(obs)
            if t == 0 or t != drop]
    rows = data.draw(st.permutations(rows))
    path = tmp_path_factory.mktemp("multi") / "multi.csv"
    path.write_text("id,gvar,t,s,y\n" + "".join(
        f"{uid},{g},{t},{s},{'' if np.isnan(y) else repr(y)}\n" for uid, g, t, s, y in rows))
    loaded = load_multi_csv(path)
    assert "_units" in vars(loaded)  # kept from the load, not coded again
    cols = list(zip(*rows))
    built = MultiPeriodPanel(
        ids=np.array(cols[0], dtype=object), gvar=np.array(cols[1], dtype=np.int64),
        t=np.array(cols[2], dtype=np.int64), s=np.array(cols[3], dtype=np.int8),
        y=np.array(cols[4], dtype=np.float64),
    )
    (names, code), (built_names, built_code) = loaded._units, built._units
    assert names.tolist() == built_names.tolist() == list(dict.fromkeys(cols[0]))
    assert code.dtype == built_code.dtype and np.array_equal(code, built_code)
    for array in (names, built_names, code, built_code):
        assert not array.flags.writeable
    assert all(type(name) is str for name in (*names, *built_names))

    gamma = data.draw(st.sampled_from(sorted({u[1] for u in units} - {0}) or [1]))
    target = StaggeredTarget(gamma, data.draw(st.integers(gamma, 2)))
    try:
        want = panel_from_staggered(built, target)
    except (EmptyGroup, MissingPeriod) as exc:
        with pytest.raises(type(exc)) as got:
            panel_from_staggered(loaded, target)
        assert got.value.context == exc.context
        return
    # the loaded panel's pivot codes no unit, and its 2x2 panel keeps its
    # ids unbuilt, as the units' names and its units' codes
    with mock.patch.object(data_module, "_first_rows", side_effect=AssertionError):
        got = panel_from_staggered(loaded, target)
    packed = vars(got)["_packed_ids"]
    assert "ids" not in vars(got) and type(packed) is data_module._UnitIds
    assert packed.names is names and packed.codes.size == got.n
    assert _panel_bits(got) == _panel_bits(want)
