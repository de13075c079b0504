from dataclasses import fields

import numpy as np
import pytest
from hypothesis import strategies as st

from didbounds import PanelDataset, RcsDataset


def make_panel(rows):
    """Build a PanelDataset from (d, s0, s1, y0, y1) tuples; ids auto-assigned.

    Pass None for an outcome that is unobserved (selection indicator 0).
    """
    d, s0, s1, y0, y1 = [], [], [], [], []
    for row in rows:
        d.append(row[0])
        s0.append(row[1])
        s1.append(row[2])
        y0.append(np.nan if row[3] is None else float(row[3]))
        y1.append(np.nan if row[4] is None else float(row[4]))
    ids = [str(i + 1) for i in range(len(rows))]
    return PanelDataset.from_records(ids, d, s0, s1, y0, y1)


def random_panel(n, seed):
    """A panel of ``n`` units with every 0/1 column a fair coin and standard
    normal outcomes where selected."""
    rng = np.random.default_rng(seed)
    d, s0, s1 = (rng.integers(0, 2, n) for _ in range(3))
    y0, y1 = (np.where(s, rng.standard_normal(n), np.nan) for s in (s0, s1))
    return PanelDataset.from_records(range(n), d, s0, s1, y0, y1)


# an outcome drawn from a small integer grid as often as not, so ties are common
outcomes = st.one_of(
    st.integers(-3, 3).map(float), st.floats(-10, 10, allow_nan=False)
)

# (d, s0, s1, y0, y1) rows for make_panel, one to eight in each of the eight
# cells, cell by cell; an outcome is present exactly when it is selected
panel_rows = st.tuples(
    *[
        st.lists(st.tuples(outcomes, outcomes), min_size=1, max_size=8).map(
            lambda ys, d=d, s0=s0, s1=s1: [
                (d, s0, s1, y0 if s0 else None, y1 if s1 else None) for y0, y1 in ys
            ]
        )
        for d in (0, 1)
        for s0 in (0, 1)
        for s1 in (0, 1)
    ]
).map(lambda cells: [row for cell in cells for row in cell])


def copy_rows(data, indices):
    """Rows ``indices`` of a dataset copied into a new one, whose cells are
    built from its own columns: the reference a ``take`` is checked against."""
    return type(data)(**{f.name: getattr(data, f.name)[np.asarray(indices)]
                         for f in fields(data)})


def make_rcs(rows):
    """Build an RcsDataset from (t, d, s, y) tuples."""
    t, d, s, y = [], [], [], []
    for row in rows:
        t.append(row[0])
        d.append(row[1])
        s.append(row[2])
        y.append(np.nan if row[3] is None else float(row[3]))
    ids = np.array([str(i + 1) for i in range(len(rows))], dtype=object)
    arr = lambda v, dt: np.asarray(v, dtype=dt)
    return RcsDataset(ids=ids, t=arr(t, np.int8), d=arr(d, np.int8),
                      s=arr(s, np.int8), y=arr(y, np.float64))


# (t, d, s, y) rows for make_rcs, one to eight in each of the eight (d, t, s)
# cells, cell by cell; an outcome is present exactly when it is selected
rcs_rows = st.tuples(
    *[
        st.lists(outcomes, min_size=1, max_size=8).map(
            lambda ys, d=d, t=t, s=s: [(t, d, s, y if s else None) for y in ys]
        )
        for d in (0, 1)
        for t in (0, 1)
        for s in (0, 1)
    ]
).map(lambda cells: [row for cell in cells for row in cell])


@pytest.fixture
def mixed_panel():
    """Small panel exercising every (d, s0, s1) cell with hand-checkable values.

    Treated both-observed delta-Y: [1..5]; control both-observed delta-Y:
    [0, 2, 4]. P[S1=1|S0=1,D=1] = 5/6, P[S1=1|S0=1,D=0] = 3/5. Cell counts
    are chosen so that no trim share lands exactly on an empirical-CDF grid
    point (expected values are then insensitive to float rounding of ratios).
    """
    rows = [
        # d=1, s0=1, s1=1: y1 - y0 = 1..5
        (1, 1, 1, 10.0, 11.0),
        (1, 1, 1, 10.0, 12.0),
        (1, 1, 1, 10.0, 13.0),
        (1, 1, 1, 10.0, 14.0),
        (1, 1, 1, 10.0, 15.0),
        # d=1, s0=1, s1=0 (attriter)
        (1, 1, 0, 9.0, None),
        # d=0, s0=1, s1=1: delta-Y = 0, 2, 4
        (0, 1, 1, 10.0, 10.0),
        (0, 1, 1, 10.0, 12.0),
        (0, 1, 1, 10.0, 14.0),
        # d=0, s0=1, s1=0 (attriters)
        (0, 1, 0, 7.0, None),
        (0, 1, 0, 8.0, None),
        # joiners (s0=0, s1=1) and never-observed
        (1, 0, 1, None, 20.0),
        (1, 0, 1, None, 22.0),
        (1, 0, 1, None, 24.0),
        (1, 0, 0, None, None),
        (0, 0, 1, None, 18.0),
        (0, 0, 0, None, None),
        (0, 0, 0, None, None),
    ]
    return make_panel(rows)
