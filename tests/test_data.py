import numpy as np
import pytest
from hypothesis import given

from didbounds import (
    MONO_NEGATIVE,
    MONO_POSITIVE,
    WITHOUT_MONOTONICITY,
    AssumptionSet,
    LatentGroup,
    PanelDataset,
    RcsDataset,
    cell_counts,
    load_multi_csv,
    load_panel_csv,
    load_rcs_csv,
    write_panel_csv,
)
from didbounds.errors import (
    DataWarning,
    DegenerateSampling,
    EmptyFile,
    InconsistentGvar,
    InvalidAssumptions,
    MalformedRow,
    MissingBaseline,
    MissingOutcome,
)

from conftest import make_panel, panel_rows

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
        assert data.periods == (0, 1)

    def test_inconsistent_gvar(self, tmp_path):
        text = self.GOOD + "a,2,2,1,3.0\n"
        with pytest.raises(InconsistentGvar):
            load_multi_csv(_write(tmp_path, text))

    def test_missing_baseline(self, tmp_path):
        text = "id,gvar,t,s,y\na,1,1,1,2.0\n"
        with pytest.raises(MissingBaseline):
            load_multi_csv(_write(tmp_path, text))

    def test_negative_period(self, tmp_path):
        text = "id,gvar,t,s,y\na,1,-1,1,2.0\n"
        with pytest.raises(MalformedRow):
            load_multi_csv(_write(tmp_path, text))


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
        counts = cell_counts(mixed_panel)
        assert sum(counts.values()) == mixed_panel.n
        assert counts[(1, 1, 1)] == 5
        assert counts[(1, 0, 1)] == 1
        assert counts[(0, 1, 1)] == 3


def test_latent_group_enum_covers_all_selection_patterns():
    patterns = {g.value for g in LatentGroup}
    assert patterns == {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    assert str(LatentGroup.OOO) == "OOO"


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


@given(rows=panel_rows)
def test_cell_counts_match_rows_and_sum_to_n(rows):
    data = make_panel(rows)
    counts = cell_counts(data)
    assert sum(counts.values()) == data.n
    for (s0, s1, d), count in counts.items():
        assert count == sum(1 for r in rows if r[:3] == (d, s0, s1))
