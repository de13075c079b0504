import codecs
import csv
import io
import os
import pickle
import sys
import threading
import tracemalloc
import warnings
from collections import deque
from dataclasses import fields
from functools import partial
from itertools import pairwise
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from didbounds import (
    MONO_NEGATIVE,
    MONO_POSITIVE,
    WITHOUT_MONOTONICITY,
    AssumptionSet,
    MultiPeriodPanel,
    PanelDataset,
    RcsDataset,
    BootstrapSpec,
    StaggeredTarget,
    bootstrap_ses,
    bounds_staggered,
    bounds_tau_oo_rcs,
    bounds_tau_ooo,
    load_multi_csv,
    load_panel_csv,
    load_rcs_csv,
    write_panel_csv,
)
from didbounds import core
from didbounds import data as data_module
from didbounds import inference
from didbounds.data import MULTI_HEADER, PANEL_HEADER, RCS_HEADER
from didbounds.errors import (
    DataWarning,
    DegenerateSampling,
    EmptyFile,
    InconsistentGvar,
    InvalidAssumptions,
    MalformedRow,
    MissingBaseline,
    MissingOutcome,
    ValidationError,
)

import reference_loaders
from conftest import copy_rows, make_panel, panel_rows, random_panel

PANEL_CSV = """id,d,s0,s1,y0,y1
a,1,1,1,1.5,2.5
b,0,1,0,0.25,
c,0,0,1,,3.0
d,1,0,0,,
"""


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestPanelLoader:
    def test_round_values(self, tmp_path):
        data = load_panel_csv(_write(tmp_path, PANEL_CSV))
        assert data.n == 4
        assert tuple(data.ids) == ("a", "b", "c", "d")
        assert list(data.d) == [1, 0, 0, 1]
        assert data.y0[0] == 1.5
        assert np.isnan(data.y1[1]) and np.isnan(data.y0[2])
        assert data.y1[2] == 3.0

    def test_arrays_immutable(self, tmp_path):
        data = load_panel_csv(_write(tmp_path, PANEL_CSV))
        with pytest.raises(ValueError):
            data.d[0] = 0

    def test_header_mismatch(self, tmp_path):
        path = _write(tmp_path, "id,d,s0,s1,y1,y0\na,1,1,1,1,1\n")
        with pytest.raises(MalformedRow):
            load_panel_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_panel_csv(_write(tmp_path, ""))
        with pytest.raises(EmptyFile):
            load_panel_csv(_write(tmp_path, "id,d,s0,s1,y0,y1\n"))

    def test_field_count(self, tmp_path):
        path = _write(tmp_path, "id,d,s0,s1,y0,y1\na,1,1,1,1\n")
        with pytest.raises(MalformedRow):
            load_panel_csv(path)

    def test_non_binary_selection(self, tmp_path):
        path = _write(tmp_path, "id,d,s0,s1,y0,y1\na,1,2,1,1,1\n")
        with pytest.raises(MalformedRow):
            load_panel_csv(path)

    def test_blank_outcome_for_selected_unit(self, tmp_path):
        path = _write(tmp_path, "id,d,s0,s1,y0,y1\na,1,1,1,,2.0\n")
        with pytest.raises(MissingOutcome):
            load_panel_csv(path)

    def test_outcome_for_unselected_unit_dropped_with_warning(self, tmp_path):
        path = _write(tmp_path, "id,d,s0,s1,y0,y1\na,1,0,1,9.0,2.0\n")
        with pytest.warns(DataWarning):
            data = load_panel_csv(path)
        assert np.isnan(data.y0[0])

    def test_non_numeric_outcome(self, tmp_path):
        path = _write(tmp_path, "id,d,s0,s1,y0,y1\na,1,1,1,xyz,2.0\n")
        with pytest.raises(MalformedRow):
            load_panel_csv(path)

    @pytest.mark.parametrize(
        "load, text",
        [
            (load_panel_csv, "id,d,s0,s1,y0,y1\na,1,1,1,nan,2.0\n"),
            (load_panel_csv, "id,d,s0,s1,y0,y1\na,1,1,0,1.0,inf\n"),
            (load_rcs_csv, "id,t,d,s,y\na,0,1,1,-inf\nb,1,1,1,2.0\n"),
            (load_multi_csv, "id,gvar,t,s,y\na,1,0,1,NaN\n"),
        ],
        ids=["panel-nan", "panel-inf-unselected", "rcs-minus-inf", "multi-nan"],
    )
    def test_non_finite_outcome(self, tmp_path, load, text):
        # even where the unit is not selected: a missing outcome is a blank field
        with pytest.raises(MalformedRow) as exc:
            load(_write(tmp_path, text))
        assert exc.value.context == {"line": 2}

    def test_write_then_load_round_trip(self, tmp_path):
        data = load_panel_csv(_write(tmp_path, PANEL_CSV))
        out = tmp_path / "out.csv"
        write_panel_csv(data, out)
        again = load_panel_csv(out)
        assert tuple(again.ids) == tuple(data.ids)
        assert np.array_equal(again.d, data.d)
        np.testing.assert_array_equal(again.y0, data.y0)
        np.testing.assert_array_equal(again.y1, data.y1)


class TestRcsLoader:
    def test_basic(self, tmp_path):
        path = _write(tmp_path, "id,t,d,s,y\na,0,0,1,1.0\nb,1,1,1,2.0\nc,1,0,0,\n")
        data = load_rcs_csv(path)
        assert data.n == 3
        assert data.lam == pytest.approx(2 / 3)

    def test_degenerate_sampling(self, tmp_path):
        path = _write(tmp_path, "id,t,d,s,y\na,1,0,1,1.0\nb,1,1,1,2.0\n")
        with pytest.raises(DegenerateSampling):
            load_rcs_csv(path)


class TestMultiLoader:
    GOOD = (
        "id,gvar,t,s,y\n"
        "a,1,0,1,1.0\na,1,1,1,2.0\n"
        "b,0,0,1,1.5\nb,0,1,1,1.8\n"
    )

    def test_basic(self, tmp_path):
        data = load_multi_csv(_write(tmp_path, self.GOOD))
        assert data.unit_ids == ("a", "b")
        assert data.t.tolist() == [0, 1, 0, 1]

    def test_inconsistent_gvar(self, tmp_path):
        text = self.GOOD + "a,2,2,1,3.0\n"
        with pytest.raises(InconsistentGvar):
            load_multi_csv(_write(tmp_path, text))
        # the fault names its line, as every other fault of a record does,
        # and comes before the record's repeated (id, t)
        with pytest.raises(InconsistentGvar) as exc:
            load_multi_csv(_write(tmp_path, "id,gvar,t,s,y\na,0,0,1,1\na,1,0,1,2"))
        assert exc.value.context == {"line": 3, "id": "a"}
        assert str(exc.value) == "line 3: id a has gvar 1 but earlier gvar 0"

    def test_missing_baseline(self, tmp_path):
        text = "id,gvar,t,s,y\na,1,1,1,2.0\n"
        with pytest.raises(MissingBaseline):
            load_multi_csv(_write(tmp_path, text))

    def test_negative_period(self, tmp_path):
        text = "id,gvar,t,s,y\na,1,-1,1,2.0\n"
        with pytest.raises(MalformedRow):
            load_multi_csv(_write(tmp_path, text))


class TestDatasetsBuiltInCode:
    # the dtypes the README gives each column
    DTYPES = {
        RcsDataset: {"ids": object, "t": np.int8, "d": np.int8, "s": np.int8, "y": np.float64},
        MultiPeriodPanel: {"ids": object, "gvar": np.int64, "t": np.int64, "s": np.int8,
                           "y": np.float64},
    }

    def _check_columns(self, data):
        for name, dtype in self.DTYPES[type(data)].items():
            column = getattr(data, name)
            assert isinstance(column, np.ndarray) and column.dtype == dtype, name
            assert not column.flags.writeable, name
        assert all(type(i) is str for i in data.ids)

    def test_columns_are_typed_and_read_only(self):
        rcs = RcsDataset(ids=(1, 2, 3, 4), t=[0, 0, 1, 1], d=(0, 1, 0, 1),
                         s=np.array([1, 1, 0, 1]), y=[1, 2.5, np.nan, 4])
        self._check_columns(rcs)
        assert rcs.ids.tolist() == ["1", "2", "3", "4"]
        assert rcs.y.tolist()[:2] == [1.0, 2.5] and rcs.lam == 0.5

        # a writable int64 array is frozen in place; other inputs are copied
        gvar, t = np.array([1, 1, 0, 0]), np.array([0, 1, 0, 1])
        ids = np.array(["a", "a", "b", "b"], dtype=object)
        multi = MultiPeriodPanel(ids=ids, gvar=gvar, t=t, s=[1, 1, 1, 1],
                                 y=(1.0, 2.0, 1.5, 1.8))
        self._check_columns(multi)
        assert multi.gvar is gvar and multi.t is t and not gvar.flags.writeable
        assert multi.ids is not ids and ids.flags.writeable

        # the unit codes are kept after their first use, and stay true
        assert multi.unit_ids == ("a", "b")
        ids[2:] = "c"
        with pytest.raises(ValueError):
            multi.ids[2:] = "c"
        assert multi.ids.tolist() == ["a", "a", "b", "b"]
        assert multi.unit_ids == ("a", "b")

    def test_a_view_is_copied_not_frozen_in_place(self):
        # freezing a view would leave its base writable, and writing the base
        # would change the dataset under its cached cells
        base = np.array([0, 0, 1, 1], dtype=np.int8)
        rcs = RcsDataset(ids=("1", "2", "3", "4"), t=base[:], d=(0, 1, 0, 1),
                         s=(1, 1, 1, 1), y=(1.0, 2.0, 3.0, 4.0))
        assert rcs.cells.count(0, 1) == 1
        base[:] = 1
        assert rcs.t.tolist() == [0, 0, 1, 1] and rcs.lam == 0.5
        assert rcs.cells.count(0, 1) == np.sum((rcs.d == 0) & (rcs.t == 1)) == 1
        assert not rcs.t.flags.writeable and base.flags.writeable

        # so is a read-only view of writable ids
        names = np.array(["a", "b", "c", "d"], dtype=object)
        view = names[:]
        view.setflags(write=False)
        rcs = RcsDataset(ids=view, t=base, d=(0, 1, 0, 1), s=(1, 1, 1, 1),
                         y=(1.0, 2.0, 3.0, 4.0))
        names[0] = "z"
        assert rcs.ids is not view and rcs.ids.tolist() == ["a", "b", "c", "d"]

    def test_read_only_ids_that_are_not_str_become_str(self, tmp_path):
        ids = np.array([3, 1, 2], dtype=object)
        ids.setflags(write=False)
        columns = ([0, 1, 1], [1, 1, 1], [1, 1, 1], [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        data = PanelDataset.from_records(ids, *columns)
        assert data.ids is not ids and data.ids.tolist() == ["3", "1", "2"]
        assert all(type(i) is str for i in data.ids)
        # an id array the package built, a dataset's own or a loader's, is
        # converted like any other: a new read-only array of the same strs
        again = PanelDataset.from_records(data.ids, *columns).ids
        assert again is not data.ids and again.tolist() == ["3", "1", "2"]
        assert not again.flags.writeable and all(type(i) is str for i in again)
        loaded = load_panel_csv(_write(tmp_path, "id,d,s0,s1,y0,y1\na,1,1,1,1.0,2.0\n"))
        converted = data_module._id_array(loaded.ids)
        assert converted is not loaded.ids and converted.tolist() == loaded.ids.tolist() == ["a"]
        assert not converted.flags.writeable

    def test_unequal_lengths_are_a_validation_error(self):
        with pytest.raises(ValidationError) as exc:
            PanelDataset.from_records(["1", "2"], [0, 1, 1], [1, 1, 1], [1, 1, 1],
                                      [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert exc.value.context == {"ids": 2, "d": 3, "s0": 3, "s1": 3, "y0": 3, "y1": 3}
        with pytest.raises(ValidationError) as exc:
            bounds_staggered(
                MultiPeriodPanel(ids=("a", "a", "b"), gvar=[1, 1, 0, 0], t=[0, 1, 0, 1],
                                 s=[1, 1, 1, 1], y=[1.0, 2.0, 1.5, 1.8]),
                StaggeredTarget(1, 1), MONO_POSITIVE)
        assert exc.value.context == {"ids": 3, "gvar": 4, "t": 4, "s": 4, "y": 4}

    @pytest.mark.parametrize("kind, columns, error, context", [
        # a d of 2 was dropped from every cell, and a bound printed
        ("panel", dict(d=[0, 0, 1, 1, 2, 1]), ValidationError, {"row": 4, "column": "d"}),
        ("panel", dict(s0=[1, 1, 1, -1, 1, 1]), ValidationError, {"row": 3, "column": "s0"}),
        # a selected NaN outcome made the bound's mean divide by zero
        ("panel", dict(y0=[1.0, 2.0, 3.0, np.nan, 5.0, 6.0]), MissingOutcome,
         {"row": 3, "column": "y0"}),
        # in column order: s1 before y0, y0 before y1
        ("panel", dict(s1=[1, 1, 1, 1, 1, 3], y0=[np.nan] * 6), ValidationError,
         {"row": 5, "column": "s1"}),
        ("panel", dict(y0=[1, 1, 1, 1, np.nan, 1], y1=[np.nan] * 6), MissingOutcome,
         {"row": 4, "column": "y0"}),
        ("rcs", dict(t=[0, 1, 0, 1, 0, 2]), ValidationError, {"row": 5, "column": "t"}),
        ("rcs", dict(y=[1, 1, np.nan, 1, 1, 1]), MissingOutcome, {"row": 2, "column": "y"}),
        ("multi", dict(s=[1, 1, 1, 1, 1, 2]), ValidationError, {"row": 5, "column": "s"}),
        ("multi", dict(y=[np.nan, 1, 1, 1, 1, 1]), MissingOutcome, {"row": 0, "column": "y"}),
        # a negative gvar dropped its unit from both groups, and a bound printed
        ("multi", dict(gvar=[0, 0, 1, 1, -1, -1]), ValidationError, {"row": 4, "column": "gvar"}),
        ("multi", dict(t=[0, 1, 0, -1, 0, 1]), ValidationError, {"row": 3, "column": "t"}),
        # a unit whose gvar changed across its rows was counted as treated
        ("multi", dict(gvar=[0, 0, 1, 0, 0, 0]), InconsistentGvar, {"row": 3, "id": "b"}),
        # a second row of one (id, t) was kept until a pivot read its period
        ("multi", dict(t=[0, 1, 0, 0, 0, 1]), MalformedRow, {"row": 3, "id": "b"}),
    ])
    def test_values_the_loaders_reject_are_rejected(self, kind, columns, error, context):
        cls, valid = {
            "panel": (PanelDataset, dict(ids="abcdef", d=[0, 0, 0, 1, 1, 1], s0=[1] * 6,
                                         s1=[1] * 6, y0=[1.0] * 6, y1=[2.0] * 6)),
            "rcs": (RcsDataset, dict(ids="abcdef", t=[0, 1, 0, 1, 0, 1], d=[0, 0, 0, 1, 1, 1],
                                     s=[1] * 6, y=[1.0] * 6)),
            "multi": (MultiPeriodPanel, dict(ids="aabbcc", gvar=[0, 0, 1, 1, 0, 0],
                                             t=[0, 1] * 3, s=[1] * 6, y=[1.0] * 6)),
        }[kind]
        cls(**valid)
        with pytest.raises(error) as exc:
            cls(**{**valid, **columns})
        assert type(exc.value) is error and exc.value.context == context

    @pytest.mark.parametrize("gvar, t, error, context", [
        ([1, 1, 0, 0, -1, -1], [0, 1] * 3, ValidationError, {"row": 4, "column": "gvar"}),
        ([1, 0, 0, 0, 1, 1], [0, 1] * 3, InconsistentGvar, {"row": 1, "id": "a"}),
        ([1, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0], MalformedRow, {"row": 5, "id": "c"}),
    ])
    def test_staggered_panels_get_the_loaders_gvar_checks(self, gvar, t, error, context,
                                                           tmp_path):
        # bounds_staggered printed lb = ub = 0.5 on the first, and counted
        # unit a as treated on the second; the pivot caught the third only
        # when it read the repeated period; load_multi_csv rejects all three files
        with pytest.raises(error) as exc:
            bounds_staggered(MultiPeriodPanel(ids=["a", "a", "b", "b", "c", "c"], gvar=gvar,
                                              t=t, s=[1] * 6, y=[1.0, 2, 1, 1.5, 1, 1]),
                             StaggeredTarget(1, 1), MONO_POSITIVE)
        assert type(exc.value) is error and exc.value.context == context
        lines = ["id,gvar,t,s,y"] + [f"{i},{g},{p},1,1.0" for i, g, p in zip("aabbcc", gvar, t)]
        path = _write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises((MalformedRow, InconsistentGvar)):
            load_multi_csv(path)

    def test_periods_up_to_int64_keep_their_units_apart(self, tmp_path):
        # a (unit, t) key of unit c at period 0 is 2 * 2**63, which int64
        # wraps to unit a's; the periods are ranked first, and no row repeats
        ids, t = ["a", "b", "b", "c"], [0, 0, 2**63 - 1, 0]
        built = MultiPeriodPanel(ids=ids, gvar=[0] * 4, t=t, s=[1] * 4, y=[1.0] * 4)
        path = _write(tmp_path, "id,gvar,t,s,y\n" + "".join(f"{i},0,{p},1,1.0\n"
                                                            for i, p in zip(ids, t)))
        assert load_multi_csv(path).t.tolist() == built.t.tolist() == t
        with pytest.raises(MalformedRow) as exc:
            MultiPeriodPanel(ids=ids + ["b"], gvar=[0] * 5, t=t + [2**63 - 1], s=[1] * 5,
                             y=[1.0] * 5)
        assert exc.value.context == {"row": 4, "id": "b"}

    def test_a_loaded_staggered_panel_codes_no_row_again(self, tmp_path):
        path = tmp_path / "multi.csv"
        path.write_bytes(_valid_csv("multi", 400, "\n").encode("ascii"))
        loaded = load_multi_csv(path)
        names, code = loaded._units
        # the loader's unit codes are checked and kept as they are: no id is hashed again
        with mock.patch.object(data_module, "_first_rows", side_effect=AssertionError):
            again = MultiPeriodPanel(data_module._UnitIds(names, code), loaded.gvar, loaded.t,
                                     loaded.s, loaded.y)
            bad = loaded.gvar.copy()
            bad[-1] = 9 - bad[-1]
            with pytest.raises(InconsistentGvar) as exc:
                MultiPeriodPanel(data_module._UnitIds(names, code), bad, loaded.t, loaded.s,
                                 loaded.y)
        assert again._units[0] is names and again._units[1] is code
        assert exc.value.context == {"row": 399, "id": names[code[-1]]}

    def test_unselected_nan_outcomes_and_bool_columns_are_valid(self):
        data = PanelDataset.from_records("ab", np.array([False, True]), [True, False],
                                         [0, 1], [1.0, np.nan], [np.nan, 2.0])
        assert data.d.dtype == data.s0.dtype == np.int8
        assert data.d.tolist() == [0, 1] and data.s0.tolist() == [1, 0]


class TestAssumptionSet:
    def test_constants(self):
        assert not WITHOUT_MONOTONICITY.monotone
        assert MONO_POSITIVE.monotone and MONO_POSITIVE.direction == "positive"
        assert MONO_NEGATIVE.direction == "negative"

    def test_validation(self):
        with pytest.raises(InvalidAssumptions):
            AssumptionSet("with_monotonicity")
        with pytest.raises(InvalidAssumptions):
            AssumptionSet("without_monotonicity", "positive")
        with pytest.raises(InvalidAssumptions):
            AssumptionSet("nonsense")
        with pytest.raises(InvalidAssumptions):
            AssumptionSet("with_monotonicity", "positive", mean_dominance="5z")


class TestCellCounts:
    def test_partition(self, mixed_panel):
        cells = mixed_panel.cells
        assert sum(cells.count(*key) for key in np.ndindex(2, 2, 2)) == mixed_panel.n
        assert cells.count(1, 1, 1) == 5
        assert cells.count(1, 1, 0) == 1
        assert cells.count(1, 0, 1) == 3


def test_take_resamples_rows(mixed_panel):
    sub = mixed_panel.take([0, 0, 2])
    assert sub.n == 3
    assert tuple(sub.ids) == ("1", "1", "3")
    assert list(sub.d) == [1, 1, 1]


def test_one_row_take_for_panels_and_cross_sections(tmp_path):
    assert vars(PanelDataset)["take"] is vars(RcsDataset)["take"]
    data = load_rcs_csv(_write(tmp_path, "id,t,d,s,y\na,0,1,1,1.0\nb,1,0,0,\nc,1,1,1,3.0\n"))
    sub = data.take([2, 2, 1])
    assert sub.n == 3 and tuple(sub.ids) == ("c", "c", "b")
    assert list(sub.t) == [1, 1, 1] and list(sub.s) == [1, 1, 0]
    for name in ("ids", "t", "d", "s", "y"):
        col = getattr(sub, name)
        assert isinstance(col, np.ndarray) and not col.flags.writeable
        assert col.dtype == getattr(data, name).dtype


def test_take_gathers_columns_only_when_read(mixed_panel, tmp_path):
    idx = [3, 3, 0, 7]
    sample = mixed_panel.take(idx)
    assert set(vars(sample)) == {"_rows", "cells"}
    ref = copy_rows(mixed_panel, idx)
    assert tuple(sample.ids) == tuple(ref.ids) == ("4", "4", "1", "8")
    assert set(vars(sample)) == {"_rows", "cells", "ids"}
    for name in ("d", "s0", "s1", "y0", "y1"):
        col = getattr(sample, name)
        np.testing.assert_array_equal(col, getattr(ref, name))
        assert not col.flags.writeable
    np.testing.assert_array_equal(sample.cells.counts, ref.cells.counts)
    assert sample.n == 4 and tuple(sample.take([1, 2]).ids) == ("4", "1")
    rcs = load_rcs_csv(_write(tmp_path, "id,t,d,s,y\na,0,1,1,1.0\nb,1,0,0,\nc,1,1,1,3.0\n"))
    assert rcs.take([1, 2, 2, 0]).lam == 0.75
    # a name that is not a column raises without gathering anything
    fresh = mixed_panel.take(idx)
    for obj in (fresh, mixed_panel):
        with pytest.raises(AttributeError):
            obj.no_such_column
    assert set(vars(fresh)) == {"_rows", "cells"}
    with pytest.raises(IndexError):
        mixed_panel.take([mixed_panel.n])


def test_taken_cells_reindex_the_parent(mixed_panel):
    # nested takes map each row back to the first parent's outcome columns
    first, second = [5, 0, 0, 9, 12], [4, 1, 1, 0]
    ref = copy_rows(copy_rows(mixed_panel, first), second).cells
    for cells in (mixed_panel.cells.take(first).take(second),
                  mixed_panel.take(first).take(second).cells):
        np.testing.assert_array_equal(cells.code, ref.code)
        for key in np.ndindex(2, 2, 2):
            assert cells.count(*key) == ref.count(*key)
            for period in (0, 1):
                np.testing.assert_array_equal(cells.values(period, *key),
                                              ref.values(period, *key))


@given(rows=panel_rows, seed=st.integers(0, 2**32 - 1))
def test_delta_y_column_is_y1_minus_y0_and_shared_by_takes(rows, seed):
    data = make_panel(rows)
    rng = np.random.default_rng(seed)
    first = data.take(rng.integers(0, data.n, size=data.n))
    second = first.take(rng.integers(0, data.n, size=data.n))
    column = data.cells._outcomes[2]
    for sample in (data, first, second):
        cells = sample.cells
        assert cells._outcomes[2] is column  # shared with the parent, not recomputed
        for key in np.ndindex(2, 2, 2):
            got = cells.values(2, *key)
            if key[1:] == (1, 1):
                want = cells.values(1, *key) - cells.values(0, *key)
                assert got.tobytes() == want.tobytes()
            else:
                assert np.isnan(got).all()


def test_delta_y_warns_only_where_both_periods_are_observed():
    # outcomes stored where their selection is 0 would overflow or be invalid
    # if subtracted; only the rows observed in both periods are
    big = [1e308, -1e308, np.inf, np.inf]
    data = PanelDataset.from_records(["a", "b", "c", "d"], [1, 1, 0, 0], [1, 0, 1, 0],
                                     [0, 1, 0, 0], big, [-v for v in big])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(data.cells.values(2, 1, 1, 0)).all()
    panel = make_panel([(1, 1, 1, -1e308, 1e308), (0, 1, 1, 0.0, 1.0)])
    with pytest.warns(RuntimeWarning, match="overflow"):
        panel.cells


def test_taken_cells_make_no_array_wider_than_the_code():
    # a replicate's cells are one int8 gather and eight counts, each over a
    # one-byte comparison; casting the code to intp would take 8 bytes a row
    n = 100_000
    data = random_panel(n, 5)
    data.cells  # the parent's, built before tracing
    idx = np.random.default_rng(6).integers(0, n, size=n)
    tracemalloc.start()
    try:
        counts = data.take(idx).cells.counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == n
    assert peak < 3 * n


@given(rows=panel_rows)
def test_cell_counts_match_rows_and_sum_to_n(rows):
    data = make_panel(rows)
    assert sum(data.cells.count(*key) for key in np.ndindex(2, 2, 2)) == data.n
    for key in np.ndindex(2, 2, 2):
        assert data.cells.count(*key) == sum(1 for r in rows if r[:3] == key)


# --- the columnar loaders against the row-by-row reference ---

LOADERS = {
    "panel": (PANEL_HEADER, load_panel_csv, reference_loaders.load_panel_csv),
    "rcs": (RCS_HEADER, load_rcs_csv, reference_loaders.load_rcs_csv),
    "multi": (MULTI_HEADER, load_multi_csv, reference_loaders.load_multi_csv),
}
# per format: binary columns, and (outcome column, its selection column)
BINARY_COLUMNS = {"panel": [1, 2, 3], "rcs": [1, 2, 3], "multi": [3]}
OUTCOME_COLUMNS = {"panel": [(4, 2), (5, 3)], "rcs": [(4, 3)], "multi": [(4, 3)]}

binary = st.sampled_from(["0", "1"])
outcome_text = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    # "2.5\n" is an outcome where it is quoted, and ends its line where it is not
    st.sampled_from(["0", "-0.0", "1e3", " 1.5", "1_0", "+3", "\t2 ", "\u0663", "2.5\n"]),
)
# ids of 1, 2 and 4 bytes a character, plain where no field is quoted
plain_ids = st.sampled_from(["a", "b", "7", "caf\u00e9", "\u0100", "\U0001f600"])


def _outcome(s, y):
    return y if s == "1" else ""


panel_records = st.lists(
    st.tuples(plain_ids, binary, binary, binary,
              outcome_text, outcome_text).map(
        lambda r: [r[0], r[1], r[2], r[3], _outcome(r[2], r[4]), _outcome(r[3], r[5])]),
    min_size=1, max_size=8)

rcs_records = st.lists(
    st.tuples(plain_ids, binary, binary, binary, outcome_text).map(
        lambda r: [r[0], r[1], r[2], r[3], _outcome(r[3], r[4])]),
    min_size=1, max_size=8)


@st.composite
def multi_records(draw):
    """Units with a gvar and periods that include 0; rows in any order. A
    gvar or period may be spelled with a sign, spaces, leading zeros (19
    digits and more go through ``int()``), underscores or other digits."""
    rows = []
    for uid in draw(st.lists(st.sampled_from(["1", "2", "u", " 1", "\u00e9", "\U0001f600"]),
                             min_size=1, max_size=3, unique=True)):
        gvar = draw(st.sampled_from(["0", "2", "3", " 2", "007", "+2", "1_0", "\u0663",
                                     "1" + "0" * 18]))
        periods = draw(st.sets(st.integers(1, 3), max_size=3)) | {0}
        for t in periods:
            s = draw(binary)
            # period 0 stays "0", so that the baseline fault below can drop it
            period = draw(st.sampled_from([str(t), f"+{t}", f"{t:019d}", chr(0x660 + t)])
                          if t else st.just("0"))
            rows.append([uid, gvar, period, s, _outcome(s, draw(outcome_text))])
    return draw(st.permutations(rows))


VALID_RECORDS = {"panel": panel_records, "rcs": rcs_records, "multi": multi_records()}


@st.composite
def faulty(draw, kind, records):
    """``records`` with one injected fault (or, for ``present``, a warning)."""
    rows = [list(r) for r in records]
    whole = [i for i, r in enumerate(rows) if len(r) == len(LOADERS[kind][0])]
    if not whole:  # an earlier fault left no record to change
        return rows
    i = draw(st.sampled_from(whole))
    row = rows[i]
    faults = ["binary", "blank", "numeric", "finite", "present", "width", "blank_line"]
    if kind == "multi":
        faults += ["gvar", "duplicate", "negative", "integer", "baseline"]
    fault = draw(st.sampled_from(faults))
    col, sel = draw(st.sampled_from(OUTCOME_COLUMNS[kind]))
    if fault == "binary":
        row[draw(st.sampled_from(BINARY_COLUMNS[kind]))] = draw(
            st.sampled_from(["2", "", " 1", "1.0", "x"]))
    elif fault == "blank":
        row[sel], row[col] = "1", ""
    elif fault == "numeric":
        row[col] = draw(st.sampled_from(["abc", "1.2.3", "--1", "1e", "0x10"]))
    elif fault == "finite":
        row[col] = draw(st.sampled_from(["nan", "inf", "-Infinity", " NaN"]))
    elif fault == "present":
        row[sel], row[col] = "0", "1.25"
    elif fault == "width":
        rows[i] = row[:-1] if draw(st.booleans()) else row + ["9"]
    elif fault == "blank_line":
        rows.insert(i, [])
    elif fault == "gvar":
        row[1] = "9"
    elif fault == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), list(row))
    elif fault == "negative":
        row[draw(st.sampled_from([1, 2]))] = "-1"
    elif fault == "integer":
        row[draw(st.sampled_from([1, 2]))] = draw(st.sampled_from(["x", "1.5", ""]))
    else:  # baseline: drop a unit's period-0 row
        rows = [r for r in rows if r[:1] + r[2:3] != [row[0], "0"]] or rows
    return rows


@st.composite
def csv_cases(draw):
    kind = draw(st.sampled_from(sorted(LOADERS)))
    records = draw(VALID_RECORDS[kind])
    for _ in range(draw(st.integers(0, 2))):
        records = draw(faulty(kind, records))
    return kind, records


def _texts(header, records):
    """The file written plain, with quoted fields, with CRLF line ends, with
    lone CR line ends, with line ends that cycle through LF, CR and CRLF, and
    without a trailing newline. A blank line stays blank in every one."""
    lines = [",".join(r) for r in [header] + records]
    plain = "\n".join(lines)
    yield plain + "\n"
    yield "\n".join(",".join(f'"{f}"' for f in r) for r in [header] + records) + "\n"
    yield "\r\n".join(lines) + "\r\n"
    yield "\r".join(lines) + "\r"
    # a CR is followed by a CRLF, so that it never ends a line before an LF
    yield "".join(line + ("\n", "\r", "\r\n")[k % 3] for k, line in enumerate(lines))
    yield plain


@settings(max_examples=200, deadline=None)
@given(raw=st.binary().map(lambda b: bytes(b"\r\na,"[k % 4] for k in b)),
       chunk=st.integers(1, 5))
def test_texts_cut_at_line_ends(raw, chunk):
    with mock.patch.object(data_module, "_CHUNK", chunk):
        pieces = list(data_module._texts(io.BytesIO(raw)))
    assert "".join(pieces) == raw.decode()
    assert all(piece.endswith(("\n", "\r")) for piece in pieces[:-1])
    # a \r\n is one line end, even when it spans two reads
    assert not any(a.endswith("\r") and b.startswith("\n") for a, b in pairwise(pieces))


def _split_records(text):
    """The records of plain text as ``str.split`` gives them: a line each,
    at ``\r\n``, ``\r`` or ``\n``, its fields split on ``,``."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.split(",") if line else [] for line in lines]


@settings(max_examples=200, deadline=None)
@given(raw=st.binary().map(lambda b: bytes(b"a1,\r\n"[k % 5] for k in b)),
       chunk=st.integers(1, 5))
def test_plain_pieces_split_as_str_split_splits_them(raw, chunk):
    want = _split_records(raw.decode())
    got = []
    with mock.patch.object(data_module, "_CHUNK", chunk):
        for piece in data_module._texts(io.BytesIO(raw)):
            fields, widths = data_module._plain_fields(piece.encode())
            assert widths.sum() == len(fields)
            strings = iter(fields.strings())
            got += [[next(strings) for _ in range(width)] for width in widths.tolist()]
    assert got == want
    # line numbers: the stream of blocks numbers its records from 1, the
    # header's, and the first with a field longer than the limit raises on its line
    long = [i for i, record in enumerate(want, 1) if any(len(f) > 1 for f in record)]
    limit = csv.field_size_limit(1)
    try:
        with mock.patch.object(data_module, "_CHUNK", chunk):
            blocks = data_module._blocks(data_module._texts(io.BytesIO(raw)))
            if long:
                with pytest.raises(MalformedRow) as exc:
                    deque(blocks, maxlen=0)
                assert exc.value.context == {"line": long[0]}
            else:
                deque(blocks, maxlen=0)
    finally:
        csv.field_size_limit(limit)


@st.composite
def staggered_rows(draw):
    """Rows (id, gvar, t) of a few units, each unit's gvar drawn once and
    changed on some rows, and (id, t) pairs drawn from few enough that some
    repeat."""
    gvars = draw(st.fixed_dictionaries({uid: st.integers(0, 2) for uid in "abc"}))
    rows = draw(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 2),
                                   st.integers(0, 4)), min_size=1, max_size=8))
    return [(uid, (gvars[uid] + (change == 0)) % 3, t) for uid, t, change in rows]


@settings(max_examples=200, deadline=None)
@given(rows=staggered_rows())
def test_staggered_unit_rules_have_one_home(rows, tmp_path_factory):
    # a file and the panel built in code from its columns break the same
    # unit rule (a gvar that changes, a repeated (id, t)) at the same
    # record, with the same message after its place, or neither breaks one
    path = tmp_path_factory.mktemp("multi") / "multi.csv"
    path.write_text("id,gvar,t,s,y\n" + "".join(f"{u},{g},{t},1,1.0\n" for u, g, t in rows))
    loaded = None
    try:
        load_multi_csv(path)
    except MissingBaseline:  # not a unit rule; a panel built in code needs no period 0
        pass
    except (InconsistentGvar, MalformedRow) as exc:
        loaded = exc
    ids, gvar, t = zip(*rows)
    build = partial(MultiPeriodPanel, ids=ids, gvar=gvar, t=t, s=[1] * len(rows),
                    y=[1.0] * len(rows))
    if loaded is None:
        build()
        return
    with pytest.raises((InconsistentGvar, MalformedRow)) as built:
        build()
    assert type(built.value) is type(loaded)
    line = loaded.context.pop("line")
    assert built.value.context == {"row": line - 2, **loaded.context}
    assert str(built.value).split(": ", 1)[1] == str(loaded).split(": ", 1)[1]


def _load(load, path):
    """What loading gives: the dataset or the exception, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path)
        except Exception as exc:  # compared with the reference's, whatever it is
            result = exc
    return result, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=150, deadline=None)
@given(case=csv_cases())
@example(case=("panel", [["1", "1", "1", "1", " 1.5", "1_0"], ["2", "0", "1", "1", "+3", "-0.0"]]))
@example(case=("panel", [["1", " 1", "1", "1", "1.0", "2.0"]]))
@example(case=("rcs", [["1", "0", "1", "1", "1_0"], ["2", "1", " 1", "1", " 1.5"]]))
@example(case=("multi", [["1", "2", "0", "1", "+3"], ["1", "2", "1", " 1", "1.0"]]))
@example(case=("multi", [["1", "99999999999999999999", "0", "1", "1.0"], ["2", "x", "0", "0", ""]]))
@example(case=("multi", [["1", "99999999999999999999", "1", "1", "1.0"]]))
@example(case=("rcs", [["1", "0", "1", "1", "1\r5"], ["2", "1", "0", "0", ""]]))
@example(case=("panel", [["x" * 140_000, "1", "1", "1", "1.0", "2.0"]]))
@example(case=("panel", [["1", "1", "0", "1", "5.0", "abc"]]))
@example(case=("panel", [["1", "1", "1", "1", "1.0", "2.0"], [], ["2", "0", "0", "0", "", ""]]))
@example(case=("rcs", [["1", "0", "1", "1", "1.0"], ["2", "1", "0", "0", ""], ["3", "1", "1", "0", ""],
                       ["4", "0", "0", "1", "2.0"], ["5", "1", "0", "0"]]))
@example(case=("panel", [["1", "1"], ["2", "0", "0", "0", "", ""], ["3", "1", "0", "0", "", ""],
                         ["x" * 140_000, "1", "1", "1", "1.0", "2.0"]]))
# a field that ends in \r: its line ends in \r\n where the others end in \n
@example(case=("panel", [["1", "1", "1", "1", "1.0", "2.0\r"], ["2", "0", "0", "0", "", ""],
                         ["3", "1", "0", "1", "", "5.0\r"], ["4", "0", "1", "0", "1.0", ""]]))
# a lone \r (two records on one line) a block after a line that ends in \r\n
@example(case=("rcs", [["1", "0", "1", "1", "1.0\r"], ["2", "1", "0", "0", ""],
                       ["3", "1", "1", "0", ""], ["4", "0", "1", "1", "1\r5"]]))
# a header longer than the field limit: with a field over it, and without
@example(case=("panel", [["1", "1", "1", "1", "1.0", "2.0"]], ["x" * 140_000] + PANEL_HEADER[1:]))
@example(case=("rcs", [["1", "0", "1", "1", "1.0"]], RCS_HEADER + ["t"] * 70_000))
# a width error in the first block of 3, and a field over the limit two blocks later
@example(case=("panel", [["1", "1", "1", "1", "1.0", "2.0"], ["2", "0", "0"],
                         *[[str(i), "0", "0", "0", "", ""] for i in range(3, 8)],
                         ["x" * 140_000, "1", "1", "1", "1.0", "2.0"]]))
# one check fails in two blocks: the error quotes the first block's field
@example(case=("panel", [["1", "2", "1", "1", "1.0", "2.0"], ["2", "0", "0", "0", "", ""],
                         ["3", "0", "0", "0", "", ""], ["4", "x", "1", "1", "1.0", "2.0"]]))
# a '"' a few plain lines in, and a field over the limit after it
@example(case=("panel", [["1", "0", "0", "0", "", ""], ["2", "0", "0", "0", "", ""],
                         ["3", "0", "0", "0", "", ""], ['4"', "0", "0", "0", "", ""],
                         ["x" * 140_000, "1", "1", "1", "1.0", "2.0"]]))
# non-ASCII ids, and gvar and t spelled with other digits, leading zeros, a
# sign or 19 digits; then an outcome holding a \n, which only a quoted field keeps
@example(case=("multi", [["\u00e9", "\u0663", "0", "1", "2.5"], ["\u00e9", "\u0663", "+1", "1", "1.0"],
                         ["u", "007", "0000000000000000002", "0", ""], ["u", "007", "0", "1", "1_0"],
                         ["\U0001f600", "1" + "0" * 18, "\u0660", "1", "3"]]))
@example(case=("panel", [["caf\u00e9", "1", "1", "1", "1.0", "2.0"], ["\U0001f600", "0", "1", "1", "1", "2.5\n"]]))
def test_loaders_match_row_by_row_reference(case, tmp_path_factory):
    # blocks of 1 and 3 records put block boundaries inside these small files;
    # a case may give its own header as a third item
    kind, records = case[:2]
    header, load, reference = LOADERS[kind]
    header = case[2] if len(case) > 2 else header
    path = tmp_path_factory.getbasetemp() / "loader-case.csv"
    for text in _texts(header, records):
        path.write_bytes(text.encode("utf-8"))
        want, want_warnings = _load(reference, path)
        for block in (1, 3, data_module._BLOCK):
            # reads of as many bytes cut a file with lone CR line ends mid-line
            with mock.patch.multiple(data_module, _BLOCK=block, _CHUNK=block):
                got, got_warnings = _load(load, path)
            assert got_warnings == want_warnings
            assert type(got) is type(want)
            if isinstance(want, Exception):
                assert str(got) == str(want)
                assert getattr(got, "context", None) == getattr(want, "context", None)
                continue
            for field in fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert a.dtype == b.dtype and a.flags.writeable == b.flags.writeable
                if b.dtype == object:
                    assert a.tolist() == b.tolist()
                else:
                    assert a.tobytes() == b.tobytes(), field.name


# the faults the pinned examples above hold that once ended in an exception
# other than a ``DidBoundsError``, with the line each is now reported on
@pytest.mark.parametrize(
    "case, line",
    [
        # gvar beyond int64 (OverflowError), before a bad integer on line 3
        (("multi", [["1", "99999999999999999999", "0", "1", "1.0"], ["2", "x", "0", "0", ""]]), 2),
        # gvar beyond int64 (OverflowError), in a file that also lacks a baseline
        (("multi", [["1", "99999999999999999999", "1", "1", "1.0"]]), 2),
        # a field longer than csv.field_size_limit() (_csv.Error)
        (("panel", [["x" * 140_000, "1", "1", "1", "1.0", "2.0"]]), 2),
        # the same after a record of the wrong width: the reader stops first
        (("panel", [["1", "1"], ["2", "0", "0", "0", "", ""], ["3", "1", "0", "0", "", ""],
                    ["x" * 140_000, "1", "1", "1", "1.0", "2.0"]]), 5),
    ],
    ids=["gvar-overflow", "gvar-overflow-no-baseline", "field-limit", "field-limit-late"],
)
def test_pinned_faults_are_malformed_rows(case, line, tmp_path):
    kind, records = case
    header, load, reference = LOADERS[kind]
    path = tmp_path / "case.csv"
    for text in _texts(header, records):
        path.write_bytes(text.encode("utf-8"))
        for loader in (load, reference):
            with pytest.raises(MalformedRow) as exc:
                loader(path)
            assert exc.value.context == {"line": line}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize(
    "bom, newline, bad_line",
    [(b"", b"\n", 3), (codecs.BOM_UTF8, b"\r\n", 3), (b"", b"\r", 3), (b"", b"\n", 1)],
)
def test_text_that_is_not_utf8_is_a_malformed_row(kind, bom, newline, bad_line, tmp_path):
    # cp1252 writes e-acute as the one byte 0xe9, which is not UTF-8
    header, load, reference = LOADERS[kind]
    record = {"panel": "a,1,1,1,1.0,2.0", "rcs": "a,0,1,1,1.0", "multi": "a,0,0,1,1.0"}[kind]
    lines = [",".join(header), record, record.replace("a", "b", 1)]
    lines = [line.encode("ascii") for line in lines]
    lines[bad_line - 1] = b"\xe9" + lines[bad_line - 1]
    path = tmp_path / "cp1252.csv"
    path.write_bytes(bom + newline.join(lines) + newline)
    for loader in (load, reference):
        with pytest.raises(MalformedRow) as exc:
            loader(path)
        assert str(exc.value) == f"line {bad_line}: not UTF-8 text"
        assert exc.value.context == {"line": bad_line}


def _valid_csv(kind, n, newline):
    """A valid file of about ``n`` records, outcomes written as ``repr`` gives
    them and blank where the unit is not selected."""
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, (n, 3)).tolist()
    ys = [[repr(v) for v in row] for row in rng.normal(size=(n, 2)).tolist()]
    if kind == "panel":
        lines = [f"u{i},{d},{s0},{s1},{y[0] if s0 else ''},{y[1] if s1 else ''}"
                 for i, ((d, s0, s1), y) in enumerate(zip(bits, ys))]
    elif kind == "rcs":
        lines = [f"u{i},{t},{d},{s},{y[0] if s else ''}"
                 for i, ((t, d, s), y) in enumerate(zip(bits, ys))]
    else:  # four periods per unit
        lines = [f"u{i // 4},{2 * (i // 4 % 2)},{i % 4},{s},{y[0] if s else ''}"
                 for i, ((s, _, _), y) in enumerate(zip(bits, ys))]
    return newline.join([",".join(LOADERS[kind][0])] + lines) + newline


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", None], ids=["lf", "crlf", "cr", "mixed"])
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_load_memory_follows_the_dataset(kind, newline, tmp_path):
    # a load holds one block of field strings at a time and never the whole
    # text, so its scratch memory stays below twice the file; splitting all
    # 50,000 records at once takes 7 to 12 times the file
    text = _valid_csv(kind, 50_000, newline or "\r")
    if newline is None:  # the header ends in an LF, the records in a lone CR
        text = text.replace("\r", "\n", 1)
    path = tmp_path / "valid.csv"
    path.write_bytes(text.encode("ascii"))
    tracemalloc.start()
    try:
        data = LOADERS[kind][1](path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.ids.size == 50_000
    assert peak - retained < 2 * path.stat().st_size


@pytest.mark.parametrize("kind", ["panel", "rcs"])
def test_load_scratch_does_not_grow_with_the_file(kind, tmp_path):
    # each block is written into its columns as it is converted, so a load's
    # scratch memory is about one piece's field strings however long the
    # file; joining each column's blocks at the end of the file took a copy
    # of the column. (The staggered loader's dict of ids grows with its units.)
    scratch = {}
    for n in (50_000, 200_000):
        path = tmp_path / f"valid-{n}.csv"
        path.write_bytes(_valid_csv(kind, n, "\n").encode("ascii"))
        tracemalloc.start()
        try:
            data = LOADERS[kind][1](path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(vars(data)["_packed_ids"]) == n
        scratch[n] = peak - retained
        del data
    assert scratch[200_000] <= scratch[50_000] + data_module._CHUNK


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_load_from_a_pipe_equals_load_from_the_file(kind, tmp_path):
    # a pipe is read once, in order, and cannot seek
    path = tmp_path / "valid.csv"
    path.write_bytes(_valid_csv(kind, 20_000, "\n").encode("ascii"))
    fifo = tmp_path / "valid.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        got = LOADERS[kind][1](fifo)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    want = LOADERS[kind][1](path)
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and a.flags.writeable == b.flags.writeable
        assert a.tolist() == b.tolist() if b.dtype == object else a.tobytes() == b.tobytes()


def test_gvar_beyond_int64_after_int64_blocks_is_a_malformed_row(tmp_path):
    # blocks of 1 and 3 records: the gvar column is int64 for two blocks or
    # more, then one block's integers are objects (``_integers``), then int64
    # again; the later inconsistent gvar of u0 does not come first
    header, load, reference = LOADERS["multi"]
    records = [[f"u{i}", "0", "0", "1", "1.0"] for i in range(6)]
    records += [["u6", "99999999999999999999", "0", "1", "1.0"], ["u0", "2", "1", "0", ""],
                ["u7", "0", "0", "0", ""]]
    path = tmp_path / "overflow.csv"
    for text in _texts(header, records):
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(MalformedRow) as want:
            reference(path)
        assert str(want.value) == "line 8: gvar/t must be below 2**63"
        for block in (1, 3):
            with mock.patch.multiple(data_module, _BLOCK=block, _CHUNK=block):
                with pytest.raises(MalformedRow) as got:
                    load(path)
            assert str(got.value) == str(want.value)
            assert got.value.context == want.value.context == {"line": 8}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("fault", ["header", "field-limit", "width"])
def test_text_that_is_not_utf8_comes_before_every_other_fault(kind, fault, tmp_path):
    # the other fault is on an earlier line, and in an earlier block of 1 or 3
    header, load, reference = LOADERS[kind]
    record = {"panel": "a,1,1,1,1.0,2.0", "rcs": "a,0,1,1,1.0", "multi": "a,0,0,1,1.0"}[kind]
    lines = [",".join(header)] + [record.replace("a", str(i), 1) for i in range(6)]
    if fault == "header":
        lines[0] = lines[0].replace("id", "ID")
    elif fault == "field-limit":
        lines[1] = "x" * 140_000 + lines[1]
    else:
        lines[1] = lines[1].rsplit(",", 1)[0]
    lines = [line.encode("ascii") for line in lines]
    lines[5] = b"\xe9" + lines[5]
    path = tmp_path / "cp1252.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    for block in (1, 3, data_module._BLOCK):
        with mock.patch.multiple(data_module, _BLOCK=block, _CHUNK=block):
            for loader in (load, reference):
                with pytest.raises(MalformedRow) as exc:
                    loader(path)
                assert str(exc.value) == "line 6: not UTF-8 text"


@settings(max_examples=40, deadline=None)
@given(rows=panel_rows)
def test_written_panel_has_lf_line_ends_and_reloads_equal(rows, tmp_path_factory):
    data = make_panel(rows)
    path = tmp_path_factory.getbasetemp() / "written.csv"
    write_panel_csv(data, path)
    assert b"\r" not in path.read_bytes()
    again = load_panel_csv(path)
    order = sorted(range(data.n), key=data.ids.__getitem__)  # the writer sorts by id
    for field in fields(data):
        a, b = getattr(again, field.name), getattr(data, field.name)[order]
        assert a.dtype == b.dtype
        assert a.tolist() == b.tolist() if b.dtype == object else a.tobytes() == b.tobytes()


# --- a loaded dataset's ids, kept as one string until read ---

# per loader: a bound that reads no id
ID_FREE_BOUNDS = {
    "panel": lambda data: bounds_tau_ooo(data, MONO_POSITIVE),
    "rcs": lambda data: bounds_tau_oo_rcs(data, "TrendEquality", MONO_POSITIVE),
    "multi": lambda data: bounds_staggered(data, StaggeredTarget(2, 3), MONO_POSITIVE),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(ID_FREE_BOUNDS))
def test_loaded_ids_are_built_on_first_read(kind, workers, tmp_path, monkeypatch):
    path = tmp_path / "valid.csv"
    path.write_bytes(_valid_csv(kind, 300, "\n").encode("ascii"))
    data = LOADERS[kind][1](path)
    bound = ID_FREE_BOUNDS[kind]
    assert "ids" not in vars(data)
    bound(data)
    assert "ids" not in vars(data)
    if kind != "multi":  # a staggered panel has no take, so no bootstrap
        # in-process, and on two workers with one replicate per task
        monkeypatch.setattr(core, "_worker_count", lambda: workers)
        monkeypatch.setattr(inference, "_BOOT_DRAWS", 1)
        bootstrap_ses(data, bound, BootstrapSpec(reps=20, seed=3))
        assert "ids" not in vars(data)
    ids = data.ids
    assert ids.tolist() == LOADERS[kind][2](path).ids.tolist()
    assert not ids.flags.writeable and "_packed_ids" not in vars(data)
    assert data.ids is ids and vars(data)["ids"] is ids  # built once, then kept
    assert ids.dtype == object and all(type(i) is str for i in ids)


def test_ids_of_a_take_are_those_of_the_loaded_rows(tmp_path):
    path = tmp_path / "valid.csv"
    path.write_bytes(_valid_csv("panel", 300, "\n").encode("ascii"))
    data = load_panel_csv(path)
    idx = [7, 7, 0, 299, 3]
    sample = data.take(idx)
    ids = sample.ids  # gathered from the parent's, which this builds
    assert "ids" in vars(data) and ids.tolist() == data.ids[idx].tolist()
    assert sample.take([4, 0]).ids.tolist() == data.ids[[3, 7]].tolist()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("kind", sorted(ID_FREE_BOUNDS))
def test_loaded_ids_match_reference_loader(kind, newline, tmp_path):
    # 1-, 2- and 4-byte characters, in one id and across blocks; empty ids;
    # and quoted ids that hold the delimiter or a line end
    header, load, reference = LOADERS[kind]
    ids = ["a", "", "caf\u00e9", "\u0100x", "", "\U0001f600", "x,y", "two\nlines",
           "cr\rinside", 'q"uote', "\u00e9\u0100\U0001f600", "7", ""]
    row = {
        "panel": lambda k, i: [i, "1", "1", "1", "1.0", "2.0"],
        "rcs": lambda k, i: [i, str(k % 2), "1", "1", "1.0"],
        # a repeated id is one unit, in periods 0, 1, 2 in turn
        "multi": lambda k, i: [i, "0", str(ids[:k].count(i)), "1", "1.0"],
    }[kind]
    rows = [row(k, i) for k, i in enumerate(ids)]
    quote = lambda f: '"' + f.replace('"', '""') + '"' if set(f) & set(',"\r\n') else f
    text = newline.join(",".join(map(quote, r)) for r in [header] + rows) + newline
    path = tmp_path / "ids.csv"
    path.write_bytes(text.encode("utf-8"))
    want = reference(path).ids.tolist()
    assert want == ids
    for block in (1, 3, data_module._BLOCK):
        with mock.patch.multiple(data_module, _BLOCK=block, _CHUNK=block):
            data = load(path)
        assert data.ids.tolist() == want
        assert all(type(i) is str for i in data.ids)
    if kind == "panel":
        again = tmp_path / "again.csv"
        write_panel_csv(load(path), again)
        assert load_panel_csv(again).ids.tolist() == sorted(ids)


@pytest.mark.parametrize("kind", sorted(ID_FREE_BOUNDS))
def test_loaded_dataset_pickles_before_and_after_its_ids_are_read(kind, tmp_path):
    path = tmp_path / "valid.csv"
    path.write_bytes(_valid_csv(kind, 300, "\n").encode("ascii"))
    data = LOADERS[kind][1](path)
    before = pickle.loads(pickle.dumps(data))
    assert "ids" not in vars(before)
    data.ids  # read: the ids are an array from now on
    after = pickle.loads(pickle.dumps(data))
    assert "_packed_ids" not in vars(after)
    for copy in (before, after):
        for field in fields(data):
            a, b = getattr(copy, field.name), getattr(data, field.name)
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist() if b.dtype == object else a.tobytes() == b.tobytes()


def test_concurrent_first_reads_of_ids_get_one_array(tmp_path):
    path = tmp_path / "valid.csv"
    path.write_bytes(_valid_csv("panel", 20_000, "\n").encode("ascii"))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            data = load_panel_csv(path)
            start, got = threading.Barrier(8), []

            def read():
                start.wait(timeout=30)
                got.append(data.ids)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(got) == 8 and all(ids is data.ids for ids in got)
            assert "_packed_ids" not in vars(data) and data.ids.size == 20_000
    finally:
        sys.setswitchinterval(switch)


# a staggered panel keeps two int64 columns and its unit codes beside its 0/1
# and outcome columns, and one str per unit: about 49 bytes a row, ids unread
@pytest.mark.parametrize("kind", ["panel", "rcs"])
def test_loaded_dataset_keeps_its_ids_compact(kind, tmp_path):
    # ids "u0".."u99999" kept as one string and its offsets, beside the 0/1
    # and outcome columns, take about 33 bytes a row; a str object per id
    # would take about 78
    n = 100_000
    path = tmp_path / "valid.csv"
    path.write_bytes(_valid_csv(kind, n, "\n").encode("ascii"))
    tracemalloc.start()
    try:
        data = LOADERS[kind][1](path)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert data.n == n
    assert retained < 45 * n
