"""Dataset types, latent-group taxonomy, assumption sets, and CSV ingestion.

Missing outcomes are blank CSV fields (never sentinel numbers) and are stored
as NaN internally; an outcome is defined exactly when the matching selection
indicator is 1. All dataset types are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DataWarning,
    DegenerateSampling,
    EmptyFile,
    InconsistentGvar,
    InvalidAssumptions,
    MalformedRow,
    MissingBaseline,
    MissingOutcome,
)

PANEL_HEADER = ["id", "d", "s0", "s1", "y0", "y1"]
RCS_HEADER = ["id", "t", "d", "s", "y"]
MULTI_HEADER = ["id", "gvar", "t", "s", "y"]


class LatentGroup(Enum):
    """The eight principal strata defined by (S0(0), S1(0), S1(1))."""

    NNN = (0, 0, 0)
    NNO = (0, 0, 1)
    NON = (0, 1, 0)
    NOO = (0, 1, 1)
    ONN = (1, 0, 0)
    ONO = (1, 0, 1)
    OON = (1, 1, 0)
    OOO = (1, 1, 1)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AssumptionSet:
    """Which identifying assumptions a bound is computed under.

    ``variant`` is "without_monotonicity" or "with_monotonicity"; in the latter
    case ``direction`` is "positive" or "negative". The other-group bounds
    additionally require joint independence of counterfactual selection and
    a mean-dominance flag ("5a" for tau_ONO, "5b" for tau_NNO, "5c" for
    tau_NOO).
    """

    variant: str = "without_monotonicity"
    direction: str | None = None
    joint_independence: bool = False
    mean_dominance: str | None = None

    def __post_init__(self):
        if self.variant not in ("without_monotonicity", "with_monotonicity"):
            raise InvalidAssumptions(f"unknown variant {self.variant!r}")
        if self.variant == "with_monotonicity":
            if self.direction not in ("positive", "negative"):
                raise InvalidAssumptions(
                    "with_monotonicity requires direction 'positive' or 'negative'"
                )
        elif self.direction is not None:
            raise InvalidAssumptions("direction only applies with monotonicity")
        if self.mean_dominance not in (None, "5a", "5b", "5c"):
            raise InvalidAssumptions(f"unknown mean_dominance {self.mean_dominance!r}")

    @property
    def monotone(self) -> bool:
        return self.variant == "with_monotonicity"

    def to_dict(self) -> dict:
        return asdict(self)


WITHOUT_MONOTONICITY = AssumptionSet("without_monotonicity")
MONO_POSITIVE = AssumptionSet("with_monotonicity", "positive")
MONO_NEGATIVE = AssumptionSet("with_monotonicity", "negative")


def _frozen_array(values, dtype=None) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _id_array(ids) -> np.ndarray:
    """Ids as a read-only object array of the ids' own ``str`` values."""
    return _frozen_array(np.fromiter(map(str, ids), dtype=object))


def _take_rows(self, indices):
    """Rows ``indices`` (a subset or a resample), as a dataset of the same type.

    No column is copied here: the result keeps its parent and the row indices,
    and gathers a column on its first read (``_gather_column``). Its ``cells``
    re-index the parent's (``Cells.take``), so a bootstrap replicate that reads
    only ``cells`` costs one int8 gather and one ``bincount``. A take of a take
    indexes the first parent directly.
    """
    idx = np.asarray(indices, dtype=np.intp)
    parent, rows = vars(self).get("_rows", (self, None))
    if rows is not None:
        idx = rows[idx]
    view = object.__new__(type(self))
    vars(view).update(_rows=(parent, idx), cells=parent.cells.take(idx))
    return view


def _gather_column(self, name):
    """A taken dataset's column ``name``, gathered from its parent and kept.

    Reached only for attributes the instance does not hold, so anything but
    a not-yet-read column of a taken dataset raises at once.
    """
    parent, rows = vars(self).get("_rows", (None, None))
    if rows is None or name not in self.__dataclass_fields__:
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
    value = _frozen_array(getattr(parent, name)[rows])
    vars(self)[name] = value
    return value


def _first_seen(ids) -> tuple:
    """Distinct ids in the order they first appear, and each row's index into them."""
    uniq, first, inverse = np.unique(np.asarray(ids, dtype=object),
                                     return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return uniq[order], rank[inverse]


class Cells:
    """Summary of a dataset over the eight cells of three binary columns.

    A panel's cells are (d, s0, s1) and its outcome columns (y0, y1); a
    repeated cross-section's cells are (d, t, s) and its one outcome column y.
    Every bound is a count ratio, a (trimmed) mean or a minimum over these
    cells. ``counts[a, b, c]`` are exact integers from one ``bincount`` of the
    code ``4*a + 2*b + c``. A cell's outcomes keep row order, so a mean over a
    cell reduces in the same order as one over a mask of the full arrays.

    ``take`` resamples the rows without copying the dataset: it keeps the
    parent's outcome columns and maps each row to its parent row. A cell's
    values then come out in the order the cells of the copied rows give them.
    """

    def __init__(self, code: np.ndarray, outcomes: tuple, parent_rows=None):
        self.code = code
        self.counts = np.bincount(code, minlength=8).reshape(2, 2, 2)
        self._outcomes = outcomes
        self._parent_rows = parent_rows
        self._cell_rows = {}  # code -> that cell's outcome-column rows

    def count(self, a: int, b: int, c=slice(None)) -> int:
        """Rows in cell (a, b, c); without ``c``, in both cells of (a, b)."""
        return int(self.counts[a, b, c].sum())

    def values(self, column: int, a: int, b: int, c: int) -> np.ndarray:
        """Outcome column ``column`` (a panel's period) of the rows in cell (a, b, c)."""
        key = 4 * a + 2 * b + c
        if key not in self._cell_rows:
            rows = np.flatnonzero(self.code == key)
            parent = self._parent_rows
            self._cell_rows[key] = rows if parent is None else parent[rows]
        return self._outcomes[column][self._cell_rows[key]]

    def take(self, indices) -> "Cells":
        """The cells of rows ``indices``, as ``take(indices).cells`` would give them."""
        idx = np.asarray(indices, dtype=np.intp)
        parent = idx if self._parent_rows is None else self._parent_rows[idx]
        return Cells(self.code[idx], self._outcomes, parent)


@dataclass(frozen=True)
class PanelDataset:
    """Two-period panel: per unit (id, D, S0, S1, Y0, Y1), one read-only array each."""

    ids: np.ndarray
    d: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    y0: np.ndarray
    y1: np.ndarray

    @classmethod
    def from_records(cls, ids, d, s0, s1, y0, y1) -> "PanelDataset":
        return cls(
            ids=_id_array(ids),
            d=_frozen_array(d, np.int8),
            s0=_frozen_array(s0, np.int8),
            s1=_frozen_array(s1, np.int8),
            y0=_frozen_array(y0, np.float64),
            y1=_frozen_array(y1, np.float64),
        )

    @property
    def n(self) -> int:
        return self.d.size

    @cached_property
    def cells(self) -> Cells:
        """The (d, s0, s1) cell summary, built on first use and kept with the dataset."""
        return Cells(4 * self.d + 2 * self.s0 + self.s1, (self.y0, self.y1))

    take = _take_rows
    __getattr__ = _gather_column


@dataclass(frozen=True)
class RcsDataset:
    """Repeated cross-sections: per row (id, T, D, S, Y), one read-only array each."""

    ids: np.ndarray
    t: np.ndarray
    d: np.ndarray
    s: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.d.size

    @property
    def lam(self) -> float:
        """Share of rows sampled in the post-treatment period."""
        return float(np.mean(self.t))

    @cached_property
    def cells(self) -> Cells:
        """The (d, t, s) cell summary, built on first use and kept with the dataset."""
        return Cells(4 * self.d + 2 * self.t + self.s, (self.y,))

    take = _take_rows
    __getattr__ = _gather_column


@dataclass(frozen=True)
class MultiPeriodPanel:
    """Long-format staggered panel, one row per (id, t); gvar=0 encodes never-treated."""

    ids: np.ndarray
    gvar: np.ndarray
    t: np.ndarray
    s: np.ndarray
    y: np.ndarray

    @property
    def unit_ids(self) -> tuple:
        """Distinct ids in the order they first appear in the rows."""
        return tuple(_first_seen(self.ids)[0])

    @property
    def periods(self) -> tuple:
        return tuple(sorted(set(int(v) for v in self.t)))


def _read_rows(path, header):
    """Yield (line number, fields) of each data row, header and width checked."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: empty file", path=str(path))
        if got != header:
            raise MalformedRow(
                f"{path}: expected header {','.join(header)}, got {','.join(got)}",
                line=1,
            )
        rows = list(reader)
    if not rows:
        raise EmptyFile(f"{path}: no data rows", path=str(path))
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise MalformedRow(
                f"line {line}: expected {len(header)} fields, got {len(row)}", line=line
            )
        yield line, row


def _parse_binary(raw, line, col):
    if raw not in ("0", "1"):
        raise MalformedRow(f"line {line}: {col} must be 0 or 1, got {raw!r}", line=line)
    return int(raw)


def _parse_outcome(raw, s, line, col):
    """Outcome field: blank iff the matching selection indicator allows it."""
    if raw == "":
        if s == 1:
            raise MissingOutcome(f"line {line}: {col} blank but selected", line=line)
        return np.nan
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(f"line {line}: {col} not numeric: {raw!r}", line=line)
    if not math.isfinite(value):
        raise MalformedRow(f"line {line}: {col} not finite: {raw!r}", line=line)
    if s == 0:
        warnings.warn(
            f"line {line}: {col} present but unit not selected; value dropped",
            DataWarning,
            stacklevel=3,
        )
        return np.nan
    return value


def load_panel_csv(path) -> PanelDataset:
    ids, d, s0, s1, y0, y1 = [], [], [], [], [], []
    for line, row in _read_rows(path, PANEL_HEADER):
        ids.append(row[0])
        d.append(_parse_binary(row[1], line, "d"))
        s0.append(_parse_binary(row[2], line, "s0"))
        s1.append(_parse_binary(row[3], line, "s1"))
        y0.append(_parse_outcome(row[4], s0[-1], line, "y0"))
        y1.append(_parse_outcome(row[5], s1[-1], line, "y1"))
    return PanelDataset.from_records(ids, d, s0, s1, y0, y1)


def load_rcs_csv(path) -> RcsDataset:
    ids, t, d, s, y = [], [], [], [], []
    for line, row in _read_rows(path, RCS_HEADER):
        ids.append(row[0])
        t.append(_parse_binary(row[1], line, "t"))
        d.append(_parse_binary(row[2], line, "d"))
        s.append(_parse_binary(row[3], line, "s"))
        y.append(_parse_outcome(row[4], s[-1], line, "y"))
    data = RcsDataset(
        ids=_id_array(ids),
        t=_frozen_array(t, np.int8),
        d=_frozen_array(d, np.int8),
        s=_frozen_array(s, np.int8),
        y=_frozen_array(y, np.float64),
    )
    if not 0.0 < data.lam < 1.0:
        raise DegenerateSampling(
            f"post-period sampling share must lie strictly in (0,1), got {data.lam}",
            lam=data.lam,
        )
    return data


def load_multi_csv(path) -> MultiPeriodPanel:
    ids, gvar, t, s, y = [], [], [], [], []
    seen: dict = {}  # id -> (its gvar, the periods it has a row for)
    for line, row in _read_rows(path, MULTI_HEADER):
        uid = row[0]
        try:
            g = int(row[1])
            per = int(row[2])
        except ValueError:
            raise MalformedRow(f"line {line}: gvar/t must be integers", line=line)
        if g < 0 or per < 0:
            raise MalformedRow(f"line {line}: gvar/t must be non-negative", line=line)
        if uid not in seen:
            seen[uid] = (g, set())
        first_g, periods = seen[uid]
        if first_g != g:
            raise InconsistentGvar(
                f"line {line}: id {uid} has gvar {g} but earlier gvar {first_g}", id=uid
            )
        if per in periods:
            raise MalformedRow(
                f"line {line}: id {uid} already has a row for t={per}", line=line, id=uid
            )
        periods.add(per)
        ids.append(uid)
        gvar.append(g)
        t.append(per)
        s.append(_parse_binary(row[3], line, "s"))
        y.append(_parse_outcome(row[4], s[-1], line, "y"))
    missing = [uid for uid, (_, periods) in seen.items() if 0 not in periods]
    if missing:
        raise MissingBaseline(f"ids without a period-0 row: {missing[:5]}", ids=missing)
    return MultiPeriodPanel(
        ids=_id_array(ids),
        gvar=_frozen_array(gvar, np.int64),
        t=_frozen_array(t, np.int64),
        s=_frozen_array(s, np.int8),
        y=_frozen_array(y, np.float64),
    )


def _format_outcome(v) -> str:
    if np.isnan(v):
        return ""
    return repr(float(v))


def write_panel_csv(data: PanelDataset, path) -> None:
    """Canonical writer: rows sorted by id, shortest round-trip floats."""
    order = sorted(range(data.n), key=data.ids.__getitem__)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PANEL_HEADER)
        for i in order:
            writer.writerow(
                [
                    data.ids[i],
                    int(data.d[i]),
                    int(data.s0[i]),
                    int(data.s1[i]),
                    _format_outcome(data.y0[i]),
                    _format_outcome(data.y1[i]),
                ]
            )


def cell_counts(data: PanelDataset) -> dict:
    """Counts by (s0, s1, d); the 8 cells always sum to n."""
    return {
        (s0, s1, d): data.cells.count(d, s0, s1)
        for s0 in (0, 1)
        for s1 in (0, 1)
        for d in (0, 1)
    }
