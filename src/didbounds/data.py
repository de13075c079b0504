"""Dataset types, assumption sets, and CSV ingestion.

Missing outcomes are blank CSV fields (never sentinel numbers) and are stored
as NaN internally; an outcome is defined exactly when the matching selection
indicator is 1. A dataset, loaded or built in code, holds each column as a
read-only numpy array of its class's ``_DTYPES`` (a numeric array of that
dtype that owns its data is frozen in place, not copied; a view is copied,
since its base could still be written) and passes the loaders' checks: equal
lengths, 0/1 ``int8`` columns, and no NaN outcome where it is selected; a
staggered panel also has no negative ``gvar`` or ``t``, one ``gvar`` a unit
and one row a (unit, ``t``) (``_unit_faults``, run once a panel: a loaded
panel's units come checked by its loader). No bound reads ids, so they
stay unbuilt until ``ids`` is first read, which builds the object array once
(``_gather_column``): a loaded or generated panel's or a cross-section's
from one text and offsets (``_PackedIds``), a staggered panel's and its 2x2
panel's from units' names and codes (``_UnitIds``). Datasets are immutable
and safe to share across threads.

A CSV file is read in pieces of about ``_CHUNK`` bytes, each cut at a line
end, ``\\r\\n``, ``\\r`` or ``\\n`` alike (``_texts``), and its records, the
header first, come in one stream of blocks (``_blocks``). A piece with no
``"`` is split into fields as bytes, in one numpy pass (``_plain_fields``);
from the first piece with one on, ``csv.reader`` reads the records, and
their fields are packed into one text the same way (``_packed_records``).
Either way a block is one text and each field's byte offsets in it
(``_Fields``). The header is taken off the first block (``_data_blocks``),
and one set of converters reads the rest: a 0/1 field and an integer of up
to 18 ASCII digits in numpy, any other integer by ``int()``, an outcome by
``float()`` of its own text, and ids as bytes. Each column of the file is
one array of its first block's dtype, grown as each piece's records are
converted (``_grown``), up to the first block with a faulty record.
"""

from __future__ import annotations

import codecs
import csv
import re
import warnings
from collections import deque
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from itertools import chain, count, islice, pairwise

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
    ValidationError,
)

PANEL_HEADER = ["id", "d", "s0", "s1", "y0", "y1"]
RCS_HEADER = ["id", "t", "d", "s", "y"]
MULTI_HEADER = ["id", "gvar", "t", "s", "y"]


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


# by selection indicator, the factor that makes an outcome NaN (0) or keeps it
# (1): a product with it is exact and, unlike np.where, takes no branch a row
_SELECTED = np.array([np.nan, 1.0])
_SELECTED.setflags(write=False)


def _frozen_array(values, dtype=None) -> np.ndarray:
    """``values`` as a read-only array. An array that owns its data is frozen in
    place; a view is copied, since its base could still be written."""
    arr = np.asarray(values, dtype=dtype)
    if not arr.flags.owndata:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _id_array(ids) -> np.ndarray:
    """Ids as a read-only object array of the ids' own ``str`` values,
    converted id by id."""
    return _frozen_array(np.fromiter(map(str, ids), dtype=object))


def _freeze_columns(self):
    """A dataset's columns as read-only arrays of its ``_DTYPES``, ``ids`` by
    ``_id_array``; an array that has its dtype and owns its data is frozen in
    place, not copied. Unbuilt ids (``_PackedIds``, ``_UnitIds``) are kept so,
    as ``_packed_ids``, until ``ids`` is read (``_gather_column``). Columns of
    unequal lengths are a ``ValidationError``; then, in column order, so is an
    ``int8`` column holding anything but 0 and 1, and an outcome ``y…`` that
    is not finite where its ``s…`` is 1 is, at its first such row, a
    ``MissingOutcome`` if NaN and a ``MalformedRow`` if infinite, as on
    loading."""
    ids = self.ids
    packed = isinstance(ids, (_PackedIds, _UnitIds))
    columns = {name: (ids if packed else _id_array(ids)) if dtype is object
               else _frozen_array(getattr(self, name), dtype)
               for name, dtype in self._DTYPES.items()}
    lengths = {name: len(column) for name, column in columns.items()}
    kind = type(self).__name__
    if len(set(lengths.values())) > 1:
        raise ValidationError(f"{kind} columns differ in length: {lengths}", **lengths)
    for name, column in columns.items():
        if self._DTYPES[name] is np.int8:
            # one pass: a value other than 0 and 1 sets a bit above the lowest
            if np.bitwise_or.reduce(column.view(np.uint8)) > 1:
                row = int((column.view(np.uint8) > 1).argmax())
                raise ValidationError(f"{kind} row {row}: {name} must be 0 or 1, "
                                      f"got {column[row]}", row=row, column=name)
        elif name[0] == "y":
            # selected (1) where not finite (0); the 0/1 selection is checked
            bad = np.less(np.isfinite(column).view(np.int8), columns["s" + name[1:]])
            if np.count_nonzero(bad):
                row = int(bad.argmax())
                if np.isnan(column[row]):
                    raise MissingOutcome(f"{kind} row {row}: {name} is NaN but selected",
                                         row=row, column=name)
                raise MalformedRow(f"{kind} row {row}: {name} is {column[row]} but selected",
                                   row=row, column=name)
    if packed:
        del vars(self)["ids"]
        columns["_packed_ids"] = columns.pop("ids")
    vars(self).update(columns)


class _PackedIds:
    """Ids, a file's or ``simulation``'s, as one UTF-8 text, each id's
    characters in turn, and each id's offsets in it, in characters: 1 to 4
    bytes a character and 8 bytes a row, against about 60 bytes a row as one
    ``str`` each. A loader adds each block's ids as it converts the block
    (``extend``), and both arrays grow in place (``_grown``)."""

    __slots__ = ("text", "bounds")

    def __init__(self):
        self.text = np.empty(0, np.uint8)
        self.bounds = np.zeros(1, np.intp)  # id i is text[bounds[i]:bounds[i+1]]

    def extend(self, text: np.ndarray, ends: np.ndarray) -> None:
        """Add the ids whose UTF-8 bytes are ``text``, one after another, each
        ending ``ends`` characters into it, after those held."""
        self.bounds = _grown(self.bounds, ends + self.bounds[-1])
        self.text = _grown(self.text, text)

    def __len__(self) -> int:
        return self.bounds.size - 1

    def unpack(self) -> np.ndarray:
        """The ids as a read-only object array of ``str``."""
        text = str(self.text, "utf-8")
        return _frozen_array([text[a:b] for a, b in pairwise(self.bounds.tolist())], object)


class _UnitIds:
    """A staggered panel's ids, or its 2x2 panel's, as the units' ids and
    each row's index into them: arrays of its ``_units``, kept anyway;
    ``checked`` marks the units ``load_multi_csv`` hands over, checked."""

    __slots__ = ("names", "codes", "checked")

    def __init__(self, names: np.ndarray, codes: np.ndarray, checked: bool = False):
        self.names, self.codes, self.checked = names, codes, checked

    def __len__(self) -> int:
        return self.codes.size

    def unpack(self) -> np.ndarray:
        """Each row's id, as a read-only object array in which every row of a
        unit holds the unit's one ``str``."""
        return _frozen_array(self.names[self.codes])


def _take_rows(self, indices):
    """Rows ``indices`` (a subset or a resample), as a dataset of the same type.

    No column is copied here: the result keeps its parent and the row indices,
    and gathers a column on its first read (``_gather_column``). Its ``cells``
    re-index the parent's (``Cells.take``), so a bootstrap replicate that reads
    only ``cells`` costs one int8 gather and eight counts over it, with no
    array wider than a byte a row. A take of a take indexes the first parent
    directly, by the rows its cells map to.
    """
    cells = self.cells.take(indices)
    view = object.__new__(type(self))
    parent = vars(self).get("_rows", (self,))[0]
    vars(view).update(_rows=(parent, cells._parent_rows), cells=cells)
    return view


def _gather_column(self, name):
    """A column built on its first read and kept: a dataset's unbuilt ``ids``
    unpacked from ``_packed_ids``, which is then dropped, or a taken dataset's
    column gathered from its parent.

    Reached only for attributes the instance does not hold, so anything but
    such a column raises at once.
    """
    state = vars(self)
    packed = state.get("_packed_ids") if name == "ids" else None
    if packed is not None:
        # the first thread to store its array wins, so every reader gets one array
        value = state.setdefault(name, packed.unpack())
        state.pop("_packed_ids", None)
        return value
    if name in state:  # another thread built it after this lookup missed it
        return state[name]
    parent, rows = state.get("_rows", (None, None))
    if rows is None or name not in self.__dataclass_fields__:
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
    value = _frozen_array(getattr(parent, name)[rows])
    state[name] = value
    return value


# rows up to which Cells counts its code with one bincount, whose intp copy
# of the code takes 8 bytes a row: faster than eight count_nonzero passes at
# 2,000 rows, slower at 100,000
_BINCOUNT_ROWS = 8192


class Cells:
    """Summary of a dataset over the eight cells of three binary columns.

    A panel's cells are (d, s0, s1) and its outcome columns (y0, y1, ΔY), ΔY
    being y1 − y0 where s0 = s1 = 1 and NaN elsewhere; a repeated
    cross-section's cells are (d, t, s) and its one outcome column y. Every
    bound is a count ratio, a (trimmed) mean or a minimum over these cells.
    ``counts[a, b, c]`` are exact integers, the rows whose int8 code
    ``4*a + 2*b + c`` is that cell's: one ``bincount`` up to
    ``_BINCOUNT_ROWS`` rows, and above that one ``count_nonzero`` a cell, so
    that counting a large code, such as a bootstrap replicate's, makes no
    array wider than the code. A cell's outcomes keep row order, so a mean
    over a cell reduces in the same order as one over a mask of the full
    arrays.

    ``take`` resamples the rows without copying the dataset: it keeps the
    parent's outcome columns and maps each row to its parent row. A cell's
    values then come out in the order the cells of the copied rows give them.
    No cell's rows are kept: a cell's values are gathered each time they
    are read, since most bounds read a cell once, and what a bootstrap
    replicate kept would stay in memory until the replicate is freed.
    """

    def __init__(self, code: np.ndarray, outcomes: tuple, parent_rows=None):
        self.code = code
        counts = (np.bincount(code, minlength=8) if code.size <= _BINCOUNT_ROWS
                  else np.array([np.count_nonzero(code == k) for k in range(8)], np.intp))
        self.counts = counts.reshape(2, 2, 2)
        self._count = self.counts.tolist()  # the same counts as Python ints
        self._outcomes = outcomes
        self._parent_rows = parent_rows

    def count(self, a: int, b: int, c: int | None = None) -> int:
        """Rows in cell (a, b, c); without ``c``, in both cells of (a, b)."""
        pair = self._count[a][b]
        return pair[0] + pair[1] if c is None else pair[c]

    def values(self, column: int, a: int, b: int, c: int) -> np.ndarray:
        """Outcome column ``column`` (a panel's period, or 2 for its ΔY) of the
        rows in cell (a, b, c)."""
        mask = self.code == 4 * a + 2 * b + c
        if self._parent_rows is None:
            return self._outcomes[column].compress(mask)
        return self._outcomes[column][self._parent_rows.compress(mask)]

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

    _DTYPES = dict(ids=object, d=np.int8, s0=np.int8, s1=np.int8, y0=np.float64, y1=np.float64)
    __post_init__ = _freeze_columns

    @classmethod
    def from_records(cls, ids, d, s0, s1, y0, y1) -> "PanelDataset":
        return cls(ids, d, s0, s1, y0, y1)

    @property
    def n(self) -> int:
        return self.d.size

    @cached_property
    def cells(self) -> Cells:
        """The (d, s0, s1) cell summary, built on first use and kept with the
        dataset; its ΔY column is computed here, once, and shared by every take."""
        code = 4 * self.d + 2 * self.s0 + self.s1
        # a row not observed in both periods has its y1 made NaN, so it gives
        # NaN and raises no floating-point warning, whatever its outcomes hold
        delta = self.y1 * _SELECTED.take(self.s0 & self.s1) - self.y0
        delta.setflags(write=False)
        return Cells(code, (self.y0, self.y1, delta))

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

    _DTYPES = dict(ids=object, t=np.int8, d=np.int8, s=np.int8, y=np.float64)
    __post_init__ = _freeze_columns

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

    _DTYPES = dict(ids=object, gvar=np.int64, t=np.int64, s=np.int8, y=np.float64)

    def __post_init__(self):
        """The columns frozen and checked (``_freeze_columns``), and the rows'
        units coded (``_units``): kept from a ``_UnitIds``, else by
        ``_unit_codes`` of ``str`` of the ids. Then, as on loading, a negative
        ``gvar`` or ``t`` is a ``ValidationError``, then a unit whose ``gvar``
        changes or a second row of one (id, t) is a fault (``_unit_faults``),
        each on the first such row, before anything reads a unit's rows;
        units that ``load_multi_csv`` checked are not checked again."""
        _freeze_columns(self)
        kind = type(self).__name__
        for name in ("gvar", "t"):
            bad = getattr(self, name) < 0
            if bad.any():
                row = int(bad.argmax())
                raise ValidationError(f"{kind} row {row}: {name} must be non-negative, "
                                      f"got {getattr(self, name)[row]}", row=row, column=name)
        packed = vars(self).get("_packed_ids")
        if isinstance(packed, _UnitIds):
            names, code = packed.names, packed.codes
        else:
            seen = {}
            names, code = _unit_codes(seen, _first_rows(seen, list(map(str, self.ids))))
        if not getattr(packed, "checked", False):
            _raise_first(_unit_faults(names, code, self.gvar, self.t,
                                      lambda i: (f"{kind} row {i}", {"row": i})))
        vars(self)["_units"] = (names, code)

    @property
    def unit_ids(self) -> tuple:
        """Distinct ids in the order they first appear in the rows."""
        return tuple(self._units[0])

    __getattr__ = _gather_column


# records converted at a time from a file that has a '"' (see _blocks), and
# rows coded or keys compared at a time (see _unit_codes, _unit_faults)
_BLOCK = 4096

# bytes read at a time (see _texts)
_CHUNK = 1 << 17

# a line as reading a file with newline="" gives it: up to \r\n, \r or \n
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")

_COMMA, _LF, _ZERO = b",\n0"

# the most digits a field converted in numpy has (see _integers): 10**18 < 2**63
_DIGITS = 18


def _line_breaks(raw: bytes) -> int:
    """The line ends in ``raw``: each ``\\n``, and each ``\\r`` not before a ``\\n``."""
    ends = raw.count(b"\n")
    if b"\r" in raw:
        ends += raw.count(b"\r") - raw.count(b"\r\n")
    return ends


def _texts(fh):
    """A binary file's text, in pieces of about ``_CHUNK`` bytes.

    Each read is cut after its last line end, ``\\n`` or ``\\r``; the rest
    waits for the next read, and so does a ``\\r`` that ends the read, so a
    ``\\r\\n`` is never split. A read is at least as long as what waits, so a
    line that spans many reads is copied in all about twice its length. Each
    piece ends with a line end (the last perhaps not) and is decoded on its
    own, which is how the whole text would decode: no UTF-8 sequence holds a
    ``\\n`` or ``\\r`` byte. A leading byte-order mark is dropped. A byte that
    is not UTF-8 raises ``MalformedRow`` on its line.
    """
    line, tail = 1, b""
    reads = iter(lambda: fh.read(max(_CHUNK, len(tail))), b"")
    for chunk in chain(reads, [b""]):  # b"": the file has ended, and what waits ends it
        raw = tail + chunk
        cut = max(raw.rfind(b"\n"), raw.rfind(b"\r", 0, -1)) + 1 if chunk else len(raw)
        piece, tail = raw[:cut], raw[cut:]
        if line == 1 and piece.startswith(codecs.BOM_UTF8):  # no earlier piece held a byte
            piece = piece[len(codecs.BOM_UTF8):]
        try:
            text = piece.decode()
        except UnicodeDecodeError as exc:
            line += _line_breaks(piece[:exc.start])
            raise MalformedRow(f"line {line}: not UTF-8 text", line=line) from None
        line += _line_breaks(piece)
        del chunk, raw, piece  # only the text is held while it is converted
        if text:
            yield text


def _gathered(text: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The bytes ``text[starts[i]:ends[i]]``, one span after another, for
    spans in order that do not overlap. Spans of at most a quarter of the
    text, such as a file's ids, are taken by an index per byte taken, 16
    bytes of scratch each; longer ones by a one-byte mask of the text made
    of the spans and the gaps between them. Either way a column of a piece
    needs at most about four times the piece's bytes of scratch."""
    sizes = ends - starts
    if 4 * sizes.sum() <= text.size:
        index = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        index += np.arange(index.size)
        return text[index]
    bounds = np.empty(2 * starts.size + 2, np.intp)
    bounds[0], bounds[-1] = 0, text.size
    bounds[1:-1:2], bounds[2:-1:2] = starts, ends
    inside = np.zeros(bounds.size - 1, bool)
    inside[1::2] = True
    return text[np.repeat(inside, np.diff(bounds))]


class _Fields:
    """Fields of a UTF-8 text, such as a block's or one of its columns: the
    text and each field's byte offsets in it. Field ``i`` is
    ``text[starts[i]:ends[i]]``, and a byte that is in no field, its ``,``,
    line end or ``\\n``, follows it at ``ends[i]``."""

    __slots__ = ("text", "starts", "ends")

    def __init__(self, text, starts, ends):
        self.text, self.starts, self.ends = text, starts, ends

    def __len__(self) -> int:
        return self.starts.size

    def __getitem__(self, rows) -> "_Fields":
        """The fields ``rows`` (a slice or a mask) selects, in order."""
        return _Fields(self.text, self.starts[rows], self.ends[rows])

    def lengths(self) -> np.ndarray:
        """Each field's length in bytes."""
        return self.ends - self.starts

    def field(self, i: int) -> str:
        return str(self.text[self.starts[i]:self.ends[i]], "utf-8")

    def first(self, mask: np.ndarray):
        """The first field ``mask`` marks, which its check's fault quotes, or None."""
        return self.field(int(mask.argmax())) if mask.any() else None

    def strings(self) -> list:
        """The fields as ``str``: their bytes, each with the byte after it
        made a ``\\n``, decoded at once and split. If a field holds a
        ``\\n``, as only a quoted one can, each is decoded on its own instead."""
        starts, ends = self.starts, self.ends
        text = _gathered(self.text, starts, ends + 1)
        text[np.cumsum(ends - starts + 1) - 1] = _LF
        fields = str(text, "utf-8").split("\n")
        fields.pop()  # after the last field's \n
        if len(fields) == starts.size:
            return fields
        return [str(self.text[a:b], "utf-8") for a, b in zip(starts.tolist(), ends.tolist())]

    def packed(self) -> tuple:
        """The fields' bytes, one after another, and where each field ends
        in characters: its end in bytes less the UTF-8 continuation bytes
        before it."""
        text = _gathered(self.text, self.starts, self.ends)
        ends = np.cumsum(self.lengths())
        ends -= np.searchsorted(np.flatnonzero((text & 0xC0) == 0x80), ends)
        return text, ends


def _plain_fields(raw: bytes) -> tuple:
    """The records of plain text, with no ``"``, as ``csv.reader``'s excel
    dialect reads them, one a line, split on ``,``: their fields
    (``_Fields``) and each record's number of fields, a blank line's none.
    A line ends at ``\\r\\n``, ``\\r`` or ``\\n``, each made a ``\\n`` first,
    the ``\\r\\n`` before the ``\\r`` as in ``_LINE``. None of these bytes,
    nor ``,``, is part of a longer UTF-8 character, so the text is split as
    bytes, in one numpy pass over them."""
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"  # the file's last line, which had no line end
    text = np.frombuffer(raw, np.uint8)
    sep = text == _LF
    sep |= text == _COMMA
    ends = np.flatnonzero(sep)
    del sep
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    last = np.flatnonzero(text[ends] != _COMMA)  # the last field of each line
    widths = np.empty_like(last)
    widths[0] = last[0] + 1
    np.subtract(last[1:], last[:-1], out=widths[1:])
    blank = np.flatnonzero(widths == 1)
    blank = blank[starts[last[blank]] == ends[last[blank]]]
    if blank.size:  # a blank line has no field
        widths[blank] = 0
        keep = np.ones(ends.size, bool)
        keep[last[blank]] = False
        starts, ends = starts[keep], ends[keep]
    return _Fields(text, starts, ends), widths


def _check_field_limit(fields: _Fields, widths: np.ndarray, line: int) -> None:
    """Raise ``csv.reader``'s error on the first of the plain records
    (``_plain_fields``), each a line numbered from ``line``, with a field
    longer than ``csv.field_size_limit()``. A field has at least as many
    bytes as characters, so only a line with a field that long in bytes is
    read again."""
    limit = csv.field_size_limit()
    if fields.text.size <= limit:  # no field is longer than the text
        return
    long = np.flatnonzero(fields.lengths() > limit)
    after = np.cumsum(widths)  # each record's fields end before this one
    for i in dict.fromkeys(np.searchsorted(after, long, side="right").tolist()):
        first, end = after[i] - widths[i], after[i] - 1
        text = str(fields.text[fields.starts[first]:fields.ends[end]], "utf-8")
        try:
            next(csv.reader([text]), None)
        except csv.Error as exc:
            raise MalformedRow(f"line {line + i}: {exc}", line=line + i) from None


def _packed_records(records: list) -> tuple:
    """Records as ``csv.reader`` gives them, as ``_plain_fields`` gives
    plain ones: their fields, packed in one text, each followed by a
    ``\\n``, and each record's number of fields."""
    fields = list(chain.from_iterable(records))
    text = "\n".join(fields) + "\n"
    sizes = np.fromiter(map(len, fields if text.isascii() else map(str.encode, fields)),
                        np.intp, len(fields)) + 1
    ends = np.cumsum(sizes) - 1
    return (_Fields(np.frombuffer(text.encode(), np.uint8), ends - sizes + 1, ends),
            np.fromiter(map(len, records), np.intp, len(records)))


def _blocks(texts):
    """The records of a file's texts, the header first, in blocks, each
    ``(fields, widths)`` (see ``_plain_fields``).

    Texts with no ``"`` are split at every line end and on ``,``, as bytes
    (``_plain_fields``), which is what ``csv.reader``'s excel dialect makes
    of them, a blank line included (a record with no fields). From the first
    text with a ``"`` on, the rest of the file goes through one
    ``csv.reader``, ``_BLOCK`` records at a time (``_packed_records``). A
    field longer than ``csv.field_size_limit()`` raises before its block.
    """
    line = 1  # the number of the text's first line
    for text in texts:
        if '"' in text:
            # the piece is held only until the reader is past it
            reader = csv.reader(chain.from_iterable(
                map(re.Match.group, _LINE.finditer(piece)) for piece in chain(iter([text]), texts)))
            del text
            try:
                for records in iter(lambda: list(islice(reader, _BLOCK)), []):
                    yield _packed_records(records)
            except csv.Error as exc:
                line += reader.line_num - 1
                raise MalformedRow(f"line {line}: {exc}", line=line) from None
            return
        fields, widths = _plain_fields(text.encode())
        _check_field_limit(fields, widths, line)
        line += widths.size
        yield fields, widths


def _data_blocks(blocks, header, path):
    """``blocks`` (``_blocks``) with the header, the first record, taken off
    and checked. The rest of the first block is dropped once it is given,
    before the next piece is split."""
    fields, widths = next(blocks, (None, None))
    if fields is None:
        raise EmptyFile(f"{path}: empty file", path=str(path))
    got = fields[:widths[0]].strings()
    if got != header:
        raise MalformedRow(f"{path}: expected header {','.join(header)}, got {','.join(got)}",
                           line=1)
    if widths.size > 1:
        yield fields[widths[0]:], widths[1:]
    del fields, widths
    yield from blocks


def _read_columns(path, header, convert):
    """A CSV file's data records, read and converted a block at a time.

    The file is read once, about ``_CHUNK`` bytes at a time (``_texts``), and
    each piece's records are split into fields (``_blocks``; ``_BLOCK``
    records at a time once a ``"`` is met), the header first
    (``_data_blocks``). A block's fields go to ``convert(columns, start)``,
    by column (``_Fields``), with the index of the block's first record;
    records are numbered from 2, after the header. ``convert`` returns the
    block's typed arrays and its record checks (see ``_raise_first``), whose
    faults quote no field but the first each check rejects. Each array is
    written at the end of its column of the file as soon as it is made, and
    each check's mask as its rows (``_grown``); the block is dropped, so
    that a load holds about one block at a time and each column once.

    Returns the columns, as writable arrays, and the checks, the last of
    them the width check: the first record not ``len(header)`` wide, up to
    which its block is converted. The first block that holds a fault is the
    last converted, so a fault's rows are that block's; the rest of the
    file is only split. So text that is not UTF-8, anywhere in the file,
    raises ``MalformedRow`` before any other fault, and so does a field
    longer than ``csv.field_size_limit()`` or a quoting error.
    """
    k = len(header)
    columns = checks = None
    start = 0
    with open(path, "rb") as fh:
        texts = _texts(fh)
        blocks = _data_blocks(_blocks(texts), header, path)
        try:
            for fields, widths in blocks:
                bad = np.flatnonzero(widths != k)[:1]
                size = int(bad[0]) if bad.size else widths.size
                # the records before the first not k wide, by column
                arrays, found = convert([fields[j:size * k:k] for j in range(k)], start)
                found = [(np.flatnonzero(mask), fault, warn) for mask, fault, warn in found]
                found.append((bad, lambda i, got=widths[bad].tolist(): MalformedRow(
                    f"line {i + 2}: expected {k} fields, got {got[0]}", line=i + 2), False))
                if columns is None:
                    columns = [np.empty(0, array.dtype) for array in arrays]
                    checks = [(np.empty(0, np.intp), fault, warn) for _, fault, warn in found]
                for j, array in enumerate(arrays):
                    columns[j] = _grown(columns[j], array)
                for j, (rows, fault, warn) in enumerate(found):
                    if rows.size:
                        checks[j] = (_grown(checks[j][0], rows + start), fault, warn)
                start += size
                del fields, arrays  # before the next block is read
                if any(rows.size and not warn for rows, _, warn in found):
                    deque(blocks, maxlen=0)  # only split, since csv.reader may still raise
                    break
        except MalformedRow:
            deque(texts, maxlen=0)  # a byte that is not UTF-8, anywhere, comes first
            raise
    if columns is None:
        raise EmptyFile(f"{path}: no data rows", path=str(path))
    return columns, checks


def _grown(column: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``column`` with ``values`` after its own, resized in place to the
    exact length (``ndarray.resize``, a ``realloc``): no block's part is kept
    and none is joined at the end of the file. Every block gives a column
    the dtype its first block gave it."""
    n = column.size
    column.resize(n + values.size, refcheck=False)  # the loader holds its only reference
    column[n:] = values
    return column


def _raise_first(checks, stacklevel=3):
    """Warn and raise as checking the records one by one, in file order, would.

    ``checks`` are the checks of one record in the order a record goes
    through them, each ``(rows, fault, warn)``: ``rows`` are the records
    that fail it, in file order, and ``fault(i)`` gives record ``i``'s error
    or, with ``warn``, its ``DataWarning`` text. The first failing
    (record, check) raises its error after the warnings that come before it,
    each issued at ``stacklevel`` (the loader's caller).
    """
    faults = [(int(rows[0]), k) for k, (rows, _, warn) in enumerate(checks)
              if not warn and rows.size]
    first = min(faults, default=None)
    warned = sorted((i, k) for k, (rows, _, warn) in enumerate(checks)
                    if warn for i in rows.tolist())
    for i, k in warned:
        if first is not None and (i, k) > first:
            break
        warnings.warn(checks[k][1](i), DataWarning, stacklevel=stacklevel)
    if first is not None:
        raise checks[first[1]][1](first[0])


def _parse(convert, fields, fill):
    """``convert`` of each field up to the first it rejects with a
    ``ValueError``, and the mask of that one; the values from it on are
    ``fill``, since no later field of the column can fault first."""
    values, rejected = [], np.zeros(len(fields), bool)
    try:
        values.extend(map(convert, fields))  # keeps the values before a rejected field
    except ValueError:
        rejected[len(values)] = True
        values += [fill] * (len(fields) - len(values))
    return values, rejected


def _integers(column: _Fields) -> tuple:
    """A column of integers as int64, the mask of the first field ``int()``
    rejects (``_parse``) and that of the values of 2**63 or more, all stored
    as 0; a value below -2**63 is stored as -1, which the sign check rejects.

    A field of 1 to ``_DIGITS`` ASCII digits is converted here, a digit at a
    time; any other goes through ``int()`` (``_parse``), as a sign, spaces,
    underscores, other digits or more digits need.
    """
    lengths = column.lengths()
    values = np.zeros(lengths.size, np.int64)
    fast = (lengths > 0) & (lengths <= _DIGITS)
    for p in range(min(int(lengths.max(initial=0)), _DIGITS)):
        more = lengths > p
        digit = column.text[np.where(more, column.starts + p, 0)] - np.uint8(_ZERO)
        fast &= ~more | (digit <= 9)
        values = np.where(more, values * 10 + digit, values)
    slow = ~fast
    rejected = np.zeros(lengths.size, bool)
    huge = np.zeros(lengths.size, bool)
    if slow.any():
        parsed, rejected[slow] = _parse(int, column[slow].strings(), 0)
        try:
            values[slow] = parsed
        except OverflowError:  # a value outside int64
            huge[slow] = [v >= 2**63 for v in parsed]
            values[slow] = [v if -2**63 <= v < 2**63 else -1 if v < 0 else 0 for v in parsed]
    return values, rejected, huge


def _binary(column: _Fields, col):
    """A 0/1 column as int8, and its check: a field other than "0" or "1" is malformed."""
    digit = column.text[column.starts] - np.uint8(_ZERO)  # the byte after an empty field
    bad = (column.lengths() != 1) | (digit > 1)
    values = ((digit == 1) & ~bad).view(np.int8)
    got = column.first(bad)
    return values, (bad, lambda i: MalformedRow(
        f"line {i + 2}: {col} must be 0 or 1, got {got!r}", line=i + 2), False)


def _outcome(column: _Fields, s, col):
    """An outcome column as float64, NaN where its selection ``s`` is 0, and its checks.

    Each non-blank field goes through ``float()`` at most once, as its own
    text. A selected outcome must not be blank; a present one must be numeric
    and finite, and is dropped with a warning where the unit is not selected.
    """
    n = len(column)
    blank = column.lengths() == 0
    values = np.full(n, np.nan)
    not_numeric = np.zeros(n, bool)
    values[~blank], not_numeric[~blank] = _parse(float, column[~blank].strings(), np.nan)
    finite = np.isfinite(values)
    selected = s == 1
    values[~selected] = np.nan
    not_finite = ~blank & ~finite & ~not_numeric
    got_numeric, got_finite = column.first(not_numeric), column.first(not_finite)
    return values, [
        (blank & selected,
         lambda i: MissingOutcome(f"line {i + 2}: {col} blank but selected", line=i + 2),
         False),
        (not_numeric,
         lambda i: MalformedRow(f"line {i + 2}: {col} not numeric: {got_numeric!r}", line=i + 2),
         False),
        (not_finite,
         lambda i: MalformedRow(f"line {i + 2}: {col} not finite: {got_finite!r}", line=i + 2),
         False),
        (finite & ~selected,
         lambda i: f"line {i + 2}: {col} present but unit not selected; value dropped",
         True),
    ]


def _header_block(header, ids, columns, start):
    """A block of a panel or cross-section file, converted column by column
    in header order: the ids' bytes added to ``ids`` (``_PackedIds``), each
    0/1 column by ``_binary`` and each outcome ``y…`` by ``_outcome`` with its
    selection column ``s…``."""
    arrays, checks = {}, []
    for col, column in zip(header, columns):
        if col == "id":
            ids.extend(*column.packed())
        elif col.startswith("y"):
            arrays[col], col_checks = _outcome(column, arrays["s" + col[1:]], col)
            checks += col_checks
        else:
            arrays[col], check = _binary(column, col)
            checks.append(check)
    return tuple(arrays.values()), checks


def _load_flat(path, header, build):
    """A panel or cross-section file, checked (``_raise_first``), as ``build(ids, *columns)``."""
    ids = _PackedIds()
    columns, checks = _read_columns(path, header, partial(_header_block, header, ids))
    _raise_first(checks, stacklevel=4)
    return build(ids, *columns)


def load_panel_csv(path) -> PanelDataset:
    # from_records is looked up on each call, so that a wrapper of it sees the load
    return _load_flat(path, PANEL_HEADER, PanelDataset.from_records)


def load_rcs_csv(path) -> RcsDataset:
    data = _load_flat(path, RCS_HEADER, RcsDataset)
    if not 0.0 < data.lam < 1.0:
        raise DegenerateSampling(
            f"post-period sampling share must lie strictly in (0,1), got {data.lam}",
            lam=data.lam,
        )
    return data


def _first_rows(seen: dict, ids: list, start: int = 0) -> np.ndarray:
    """The first row of each row's id, counted from ``start``; ``seen`` keeps it per id."""
    return np.fromiter(map(seen.setdefault, ids, count(start)), np.intp, len(ids))


def _unit_codes(seen: dict, first: np.ndarray) -> tuple:
    """The ids of ``seen`` in first-seen order, and each row's index into
    them, written over ``first`` (each row's first row, by ``_first_rows``)
    a block at a time, so that the rows are never coded twice over."""
    rows = np.fromiter(seen.values(), np.intp, len(seen))
    names = _frozen_array(np.fromiter(seen, object, len(seen)))
    for a in range(0, first.size, _BLOCK):
        first[a:a + _BLOCK] = np.searchsorted(rows, first[a:a + _BLOCK])
    return names, _frozen_array(first)


def _multi_block(seen, columns, start):
    """A block of a staggered panel, each row's unit given as its first row
    (``_first_rows``), which ``_unit_codes`` turns into the unit's code."""
    ids, gvar, t, s, y = columns
    unit = _first_rows(seen, ids.strings(), start)
    gvar, gvar_rejected, gvar_huge = _integers(gvar)
    t, t_rejected, t_huge = _integers(t)
    s, s_check = _binary(s, "s")
    y, y_checks = _outcome(y, s, "y")
    return (unit, gvar, t, s, y), [
        (gvar_rejected | t_rejected,
         lambda i: MalformedRow(f"line {i + 2}: gvar/t must be integers", line=i + 2),
         False),
        ((gvar < 0) | (t < 0),
         lambda i: MalformedRow(f"line {i + 2}: gvar/t must be non-negative", line=i + 2),
         False),
        (gvar_huge | t_huge,
         lambda i: MalformedRow(f"line {i + 2}: gvar/t must be below 2**63", line=i + 2),
         False),
        s_check,
        *y_checks,
    ]


def _unit_faults(names, code, gvar, t, at) -> list:
    """A staggered panel's unit rules, as checks of its rows (see
    ``_raise_first``): a row whose ``gvar`` is not its unit's first row's is
    an ``InconsistentGvar``, and a row that repeats an earlier row's (unit,
    ``t``) a ``MalformedRow``. ``code`` gives each row's unit in ``names``;
    ``at(i)`` gives how row ``i``'s fault begins and its context.

    Each row's (unit, ``t``) is one int64 key, ``t`` counted from its least
    value, or ranked if the keys would overflow. The keys are built in one
    array a row long and sorted in place, and a repeat is two equal
    neighbours; only then are they built again and stably ordered, which
    keeps the rows of one key in file order."""
    first = np.full(names.size, code.size)
    np.minimum.at(first, code, np.arange(code.size))  # each unit's first row
    earlier = gvar[first]
    key = earlier[code]
    key -= gvar
    changed = np.flatnonzero(key)
    period, low = t, int(t.min(initial=0))
    if names.size * (int(t.max(initial=0)) - low + 1) >= 2**63:
        period, low = np.unique(t, return_inverse=True)[1], 0
    scale = int(period.max(initial=0)) - low + 1
    np.multiply(code, scale, out=key)
    key += period
    key -= low
    key.sort()
    repeated = np.empty(0, np.intp)
    if not all(np.diff(key[a:a + _BLOCK + 1]).all() for a in range(0, key.size, _BLOCK)):
        order = np.argsort(code * scale + period - low, kind="stable")
        repeated = np.sort(order[1:][key[1:] == key[:-1]])

    def fault(error, i, message):
        place, context = at(i)
        unit = names[code[i]]
        return error(f"{place}: id {unit} {message}", **context, id=unit)

    return [
        (changed, lambda i: fault(InconsistentGvar, i,
                                  f"has gvar {gvar[i]} but earlier gvar {earlier[code[i]]}"),
         False),
        (repeated, lambda i: fault(MalformedRow, i, f"already has a row for t={t[i]}"), False),
    ]


def load_multi_csv(path) -> MultiPeriodPanel:
    """A staggered panel, its rows' units coded as the file is read
    (``_first_rows``, then ``_unit_codes``) and checked once
    (``_unit_faults``), and handed to the panel as checked; its ids are
    built from the units on their first read (``_UnitIds``)."""
    seen = {}
    (first, gvar, t, s, y), checks = _read_columns(path, MULTI_HEADER, partial(_multi_block, seen))
    names, code = _unit_codes(seen, first)  # the codes are written over first
    del seen  # its hash table is not kept
    _raise_first([
        *checks[:3],
        *_unit_faults(names, code, gvar, t, lambda i: (f"line {i + 2}", {"line": i + 2})),
        *checks[3:],
    ])
    has_baseline = np.zeros(names.size, bool)
    has_baseline[code[t == 0]] = True
    missing = names[~has_baseline].tolist()
    if missing:
        raise MissingBaseline(f"ids without a period-0 row: {missing[:5]}", ids=missing)
    return MultiPeriodPanel(_UnitIds(names, code, checked=True), gvar, t, s, y)


def _format_outcome(v) -> str:
    if np.isnan(v):
        return ""
    return repr(float(v))


def write_panel_csv(data: PanelDataset, path) -> None:
    """Canonical writer: rows sorted by id, shortest round-trip floats, LF line
    ends; every field of a row whose id holds a ``\\r`` is quoted."""
    order = sorted(range(data.n), key=data.ids.__getitem__)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # csv.writer quotes a field with a "\n", but not one with a lone "\r"
        quoting = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(PANEL_HEADER)
        for i in order:
            (quoting if "\r" in data.ids[i] else writer).writerow(
                [
                    data.ids[i],
                    int(data.d[i]),
                    int(data.s0[i]),
                    int(data.s1[i]),
                    _format_outcome(data.y0[i]),
                    _format_outcome(data.y1[i]),
                ]
            )
