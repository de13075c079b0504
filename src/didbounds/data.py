"""Dataset types, assumption sets, and CSV ingestion.

Missing outcomes are blank CSV fields (never sentinel numbers) and are stored
as NaN internally; an outcome is defined exactly when the matching selection
indicator is 1. A dataset, loaded or built in code, holds each column as a
read-only numpy array of its class's ``_DTYPES``: a numeric array that has
that dtype already and owns its data is frozen in place, not copied (a view is
copied, since its base could still be written), and columns of unequal
lengths are a ``ValidationError``. A loaded panel or cross-section keeps its
ids packed in one string until ``ids`` is first read, which builds the
object array once (``_PackedIds``, ``_gather_column``); no bound reads ids.
Datasets are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import codecs
import csv
import operator
import re
import warnings
import weakref
from collections import deque
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from itertools import chain, count, islice, pairwise, repeat

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


def _frozen_array(values, dtype=None) -> np.ndarray:
    """``values`` as a read-only array. An array that owns its data is frozen in
    place; a view is copied, since its base could still be written."""
    arr = np.asarray(values, dtype=dtype)
    if not arr.flags.owndata:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


# the read-only id arrays the package built from ``str`` ids (the loaders,
# the staggered pivot and ``_id_array``), by ``id``; an array leaves when it is
# freed
_STR_IDS = weakref.WeakValueDictionary()


def _str_ids(ids: np.ndarray) -> np.ndarray:
    """Mark ``ids``, a read-only object array of ``str`` the package built,
    as one ``_id_array`` uses as it is."""
    _STR_IDS[id(ids)] = ids
    return ids


def _id_array(ids) -> np.ndarray:
    """Ids as a read-only object array of the ids' own ``str`` values.

    An array the package built from ``str`` ids (``_str_ids``), such as a
    dataset's ``ids`` or the ids ``simulation`` shares between panels, is used
    as it is; any other input is converted id by id.
    """
    if _STR_IDS.get(id(ids)) is ids:
        return ids
    return _str_ids(_frozen_array(np.fromiter(map(str, ids), dtype=object)))


def _freeze_columns(self):
    """A dataset's columns as read-only arrays of its ``_DTYPES``, ``ids`` by
    ``_id_array``; an array that has its dtype and owns its data is frozen in
    place, not copied. Ids a loader packed (``_PackedIds``) are kept so, as
    ``_packed_ids``, until ``ids`` is read (``_gather_column``). Columns of
    unequal lengths are a ``ValidationError``."""
    ids = self.ids
    packed = isinstance(ids, _PackedIds)
    columns = {name: (ids if packed else _id_array(ids)) if dtype is object
               else _frozen_array(getattr(self, name), dtype)
               for name, dtype in self._DTYPES.items()}
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValidationError(
            f"{type(self).__name__} columns differ in length: {lengths}", **lengths)
    if packed:
        del vars(self)["ids"]
        columns["_packed_ids"] = columns.pop("ids")
    vars(self).update(columns)


class _PackedIds:
    """A file's ids as one string, each id's characters in turn, and each
    id's offsets in it: 1 to 4 bytes a character and 8 bytes a row, against
    about 60 bytes a row as one ``str`` each."""

    __slots__ = ("text", "bounds")

    def __init__(self, text: str, lengths: np.ndarray):
        self.text = text
        self.bounds = np.zeros(lengths.size + 1, np.intp)  # id i is text[bounds[i]:bounds[i+1]]
        np.cumsum(lengths, out=self.bounds[1:])

    def __len__(self) -> int:
        return self.bounds.size - 1

    def unpack(self) -> np.ndarray:
        """The ids as a read-only object array of ``str`` (``_str_ids``)."""
        text = self.text
        ids = np.array([text[a:b] for a, b in pairwise(self.bounds.tolist())], object)
        return _str_ids(_frozen_array(ids))


def _take_rows(self, indices):
    """Rows ``indices`` (a subset or a resample), as a dataset of the same type.

    No column is copied here: the result keeps its parent and the row indices,
    and gathers a column on its first read (``_gather_column``). Its ``cells``
    re-index the parent's (``Cells.take``), so a bootstrap replicate that reads
    only ``cells`` costs one int8 gather and eight counts over it, with no
    array wider than a byte a row. A take of a take indexes the first parent
    directly.
    """
    idx = np.asarray(indices, dtype=np.intp)
    parent, rows = vars(self).get("_rows", (self, None))
    if rows is not None:
        idx = rows[idx]
    view = object.__new__(type(self))
    vars(view).update(_rows=(parent, idx), cells=parent.cells.take(idx))
    return view


def _gather_column(self, name):
    """A column built on its first read and kept: a loaded dataset's ``ids``
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


class Cells:
    """Summary of a dataset over the eight cells of three binary columns.

    A panel's cells are (d, s0, s1) and its outcome columns (y0, y1, ΔY), ΔY
    being y1 − y0 where s0 = s1 = 1 and NaN elsewhere; a repeated
    cross-section's cells are (d, t, s) and its one outcome column y. Every
    bound is a count ratio, a (trimmed) mean or a minimum over these cells.
    ``counts[a, b, c]`` are exact integers, each a ``count_nonzero`` of the
    int8 code ``4*a + 2*b + c`` equal to its cell, so counting makes no array
    wider than the code. A cell's outcomes keep row order, so a mean over a
    cell reduces in the same order as one over a mask of the full arrays.

    ``take`` resamples the rows without copying the dataset: it keeps the
    parent's outcome columns and maps each row to its parent row. A cell's
    values then come out in the order the cells of the copied rows give them.
    """

    def __init__(self, code: np.ndarray, outcomes: tuple, parent_rows=None):
        self.code = code
        self.counts = np.array([np.count_nonzero(code == k) for k in range(8)],
                               dtype=np.intp).reshape(2, 2, 2)
        self._count = self.counts.tolist()  # the same counts as Python ints
        self._outcomes = outcomes
        self._parent_rows = parent_rows
        self._cell_rows = {}  # code -> that cell's outcome-column rows

    def count(self, a: int, b: int, c: int | None = None) -> int:
        """Rows in cell (a, b, c); without ``c``, in both cells of (a, b)."""
        pair = self._count[a][b]
        return pair[0] + pair[1] if c is None else pair[c]

    def values(self, column: int, a: int, b: int, c: int) -> np.ndarray:
        """Outcome column ``column`` (a panel's period, or 2 for its ΔY) of the
        rows in cell (a, b, c)."""
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
        # a row not observed in both periods subtracts from a NaN, which gives
        # NaN and raises no floating-point warning, whatever its outcomes hold
        delta = np.where((code & 3) == 3, self.y1, np.nan) - self.y0
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
    __post_init__ = _freeze_columns

    @cached_property
    def _units(self) -> tuple:
        """``_unit_codes`` of ``str`` of the ids, unless ``load_multi_csv`` set it."""
        seen = {}
        return _unit_codes(seen, _first_rows(seen, list(map(str, self.ids))))

    @property
    def unit_ids(self) -> tuple:
        """Distinct ids in the order they first appear in the rows."""
        return tuple(self._units[0])


_BINARY = frozenset(("0", "1"))

# records read and converted at a time (see _read_columns)
_BLOCK = 4096

# bytes read at a time from a file whose lines end in a lone \r (see _any_lines)
_CHUNK = 1 << 16

# a line as reading a file with newline="" gives it: up to \r\n, \r or \n
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _fields(line: str) -> list:
    """A line's fields as ``csv.reader`` gives them when it has no ``"`` or ``\\r``."""
    return line.split(",") if line else []


def _line_breaks(raw: bytes) -> int:
    """The line ends in ``raw``: each ``\\n``, and each ``\\r`` not before a ``\\n``."""
    ends = raw.count(b"\n")
    if b"\r" in raw:
        ends += raw.count(b"\r") - raw.count(b"\r\n")
    return ends


def _lone_cr_first(fh) -> bool:
    """Whether the first line end in the buffered start of binary file ``fh``
    is a ``\\r`` not before a ``\\n`` (old Mac line ends)."""
    start = fh.peek()
    cr, lf = start.find(b"\r"), start.find(b"\n")
    return 0 <= cr < len(start) - 1 and start[cr + 1] != ord("\n") and not 0 <= lf < cr


def _any_lines(fh):
    """A binary file's lines, each with its end: ``\\r\\n``, ``\\r`` or ``\\n``.

    The last line of each read is kept for the next, so a ``\\r\\n`` is never
    cut. A read is at least as long as that line, so a line that spans many
    reads is copied in all about twice its length.
    """
    tail = b""
    while chunk := fh.read(max(_CHUNK, len(tail))):
        *lines, tail = (tail + chunk).splitlines(keepends=True)
        yield from lines
    if tail:
        yield tail


def _texts(fh):
    """A binary file's text: its first line, then pieces of ``_BLOCK`` lines.

    Lines end as iterating the file gives them, at each ``\\n``; a file whose
    first line ends in a lone ``\\r`` is cut at every line end instead
    (``_any_lines``), so that it too is read a piece at a time. Each piece ends
    with a line end (the last perhaps not) and is decoded on its own, which
    is how the whole text would decode: no UTF-8 sequence holds a ``\\n`` or
    ``\\r`` byte. A leading byte-order mark is dropped. A byte that is not
    UTF-8 raises ``MalformedRow`` on its line.
    """
    line = 1
    lines = _any_lines(fh) if _lone_cr_first(fh) else fh
    head = next(lines, b"")
    if head.startswith(codecs.BOM_UTF8):
        head = head[len(codecs.BOM_UTF8):]
    for piece in chain([head], iter(lambda: b"".join(islice(lines, _BLOCK)), b"")):
        try:
            text = piece.decode()
        except UnicodeDecodeError as exc:
            line += _line_breaks(piece[:exc.start])
            raise MalformedRow(f"line {line}: not UTF-8 text", line=line) from None
        line += _line_breaks(piece)
        if text:
            yield text


def _plain(text: str) -> bool:
    """Whether ``text`` has no ``"``, and either no ``\\r`` outside a ``\\r\\n``
    or no ``\\n``, so that a line is a record whose fields are split on ``,``."""
    return '"' not in text and ("\r" not in text or text.count("\r") == text.count("\r\n")
                                or "\n" not in text)


def _lines(text: str) -> list:
    """The lines of plain text, without their ends."""
    if "\r" in text:
        text = text.replace("\r\n", "\n") if "\n" in text else text.replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":  # the newline that ends the text
        lines.pop()
    return lines


def _check_field_limit(lines: list, line: int) -> None:
    """Raise ``csv.reader``'s error on the first of the plain ``lines``,
    numbered from ``line``, with a field longer than ``csv.field_size_limit()``."""
    if max(map(len, lines), default=0) <= csv.field_size_limit():
        return
    for number, text in enumerate(lines, line):
        try:
            next(csv.reader([text]), None)
        except csv.Error as exc:
            raise MalformedRow(f"line {number}: {exc}", line=number) from None


def _records(texts, lines_before: int):
    """The records ``csv.reader`` reads from ``texts``; its ``csv.Error`` (a
    field longer than ``csv.field_size_limit()``) is a ``MalformedRow`` on
    the line it stopped at."""
    reader = csv.reader(chain.from_iterable(
        map(re.Match.group, _LINE.finditer(text)) for text in texts))
    try:
        yield from reader
    except csv.Error as exc:
        line = lines_before + reader.line_num
        raise MalformedRow(f"line {line}: {exc}", line=line) from None


def _plain_columns(lines: list, k: int) -> list:
    flat = ",".join(lines).split(",") if lines else []
    return [flat[j::k] for j in range(k)]


def _quoted_columns(records: list, k: int) -> list:
    return list(zip(*records)) or [()] * k


def _blocks(texts):
    """The header's fields and the record blocks of a file's texts.

    Each block is ``(records, widths, split)``: ``split(records, k)`` gives
    the fields of records that are all ``k`` wide, by column. Plain texts
    (``_plain``) are split on ``\\n`` and ``,``, which is what ``csv.reader``'s
    excel dialect makes of them, a blank line included (a record with no
    fields; its width reads 1). From the first text that is not plain on,
    the rest of the file goes through one ``csv.reader``.
    """
    head = next(texts, None)
    if head is None:
        return None, iter(())
    if not _plain(head):
        records = _records(chain([head], texts), 0)
        return next(records, None), _quoted_blocks(records)
    head = _lines(head)[0]
    _check_field_limit([head], 1)
    return _fields(head), _plain_blocks(texts)


def _plain_blocks(texts):
    line = 2  # the number of the text's first line
    for text in texts:
        if not _plain(text):
            yield from _quoted_blocks(_records(chain([text], texts), line - 1))
            return
        lines = _lines(text)
        _check_field_limit(lines, line)
        line += len(lines)
        widths = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines)) + 1
        yield lines, widths, _plain_columns


def _quoted_blocks(records):
    for block in iter(lambda: list(islice(records, _BLOCK)), []):
        yield block, np.fromiter(map(len, block), np.intp, len(block)), _quoted_columns


def _read_columns(path, header, convert):
    """A CSV file's data records, read and converted a block at a time.

    The file is read once, ``_BLOCK`` lines at a time (``_texts``), and its
    records are split into fields ``_BLOCK`` at a time (``_blocks``). A
    block's fields go to ``convert(columns, start)``, by column, with the
    index of the block's first record; records are numbered from 2, after
    the header. ``convert`` returns the block's typed arrays and its record
    checks (see ``_raise_first``), whose faults quote no field but the first
    each check rejects. Then the block's strings are dropped, but for those
    ``convert`` keeps in an array, so that a load holds about one block of
    field strings at a time.

    Returns the arrays of the whole file, its checks, and the
    ``MalformedRow`` of the first record with the wrong number of fields or
    None. The arrays hold the records before that one, which the caller
    checks before it raises the error. Text that is not UTF-8, anywhere in
    the file, raises ``MalformedRow`` before any other fault; so does a field
    longer than ``csv.field_size_limit()``, even after a width error.
    """
    with open(path, "rb") as fh:
        texts = _texts(fh)
        try:
            got, blocks = _blocks(texts)
            if got is None:
                raise EmptyFile(f"{path}: empty file", path=str(path))
            if got != header:
                raise MalformedRow(
                    f"{path}: expected header {','.join(header)}, got {','.join(got)}", line=1
                )
            parts, error = _convert_blocks(blocks, len(header), convert)
        except MalformedRow:
            deque(texts, maxlen=0)  # a byte that is not UTF-8, anywhere, comes first
            raise
    if not parts:
        raise EmptyFile(f"{path}: no data rows", path=str(path))
    columns = list(zip(*(arrays for arrays, _ in parts)))
    checks = [_joined(check) for check in zip(*(checks for _, checks in parts))]
    del parts
    # each column's blocks are dropped as soon as it is joined
    arrays = [_joined_column(columns.pop(0)) for _ in range(len(columns))]
    return arrays, checks, error


def _joined_column(parts):
    """A column of the whole file from its blocks: ``str`` blocks are joined,
    array blocks concatenated into one read-only array."""
    if isinstance(parts[0], str):
        return "".join(parts)
    return _frozen_array(np.concatenate(parts))


def _convert_blocks(blocks, k, convert) -> tuple:
    """``(arrays, checks)`` of each block, a check's mask turned into its
    rows, and the ``MalformedRow`` of the first record not ``k`` wide or None."""
    parts, start = [], 0
    for records, widths, split in blocks:
        bad = np.flatnonzero(widths != k)
        if bad.size:
            end = int(bad[0])
            got = int(widths[end]) if records[end] else 0  # a blank line has no field
            del records[end:]
        columns, size = split(records, k), len(records)
        records.clear()  # the block's lines or records: its fields are all it needs now
        arrays, checks = convert(columns, start)
        del columns
        parts.append((arrays, [(np.flatnonzero(mask) + start, fault, warn)
                               for mask, fault, warn in checks]))
        start += size
        if bad.size:
            deque(blocks, maxlen=0)  # csv.reader raises on a later record before any is checked
            return parts, MalformedRow(f"line {start + 2}: expected {k} fields, got {got}",
                                       line=start + 2)
    return parts, None


def _joined(parts) -> tuple:
    """One check of the whole file from that check of each block in turn.

    A fault quotes only the first record its check rejects (a warning quotes
    none), so the fault of the first block with a rejected record is the file's.
    """
    rows = np.concatenate([r for r, _, _ in parts])
    fault = next((f for r, f, _ in parts if r.size), parts[0][1])
    return rows, fault, parts[0][2]


def _raise_first(checks, after=None):
    """Warn and raise as checking the records one by one, in file order, would.

    ``checks`` are the checks of one record in the order a record goes
    through them, each ``(rows, fault, warn)``: ``rows`` are the records
    that fail it, in file order, and ``fault(i)`` gives record ``i``'s error
    or, with ``warn``, its ``DataWarning`` text. The first failing
    (record, check) raises its error after the warnings that come before it;
    ``after`` is raised when no check fails.
    """
    faults = [(int(rows[0]), k) for k, (rows, _, warn) in enumerate(checks)
              if not warn and rows.size]
    first = min(faults, default=None)
    warned = sorted((i, k) for k, (rows, _, warn) in enumerate(checks)
                    if warn for i in rows.tolist())
    for i, k in warned:
        if first is not None and (i, k) > first:
            break
        warnings.warn(checks[k][1](i), DataWarning, stacklevel=3)
    if first is not None:
        raise checks[first[1]][1](first[0])
    if after is not None:
        raise after


def _parse(convert, fields, fill):
    """``convert`` of each field, and the mask of the fields it rejects with a
    ``ValueError``, whose values are ``fill``."""
    try:
        return list(map(convert, fields)), np.zeros(len(fields), bool)
    except ValueError:
        pass
    values, rejected = [], np.zeros(len(fields), bool)
    for i, field in enumerate(fields):  # a field is rejected: find every one
        try:
            values.append(convert(field))
        except ValueError:
            values.append(fill)
            rejected[i] = True
    return values, rejected


_INT64_MAX = np.iinfo(np.int64).max


def _integers(values) -> np.ndarray:
    """Parsed integers as int64; as objects if one overflows int64, so that the
    checks still run and find it."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)


def _first(fields, mask):
    """The field of the first record ``mask`` marks, which its fault quotes."""
    return fields[int(mask.argmax())] if mask.any() else None


def _binary(fields, col):
    """A 0/1 column as int8, and its check: a field other than "0" or "1" is malformed."""
    n = len(fields)
    if set(fields) <= _BINARY:
        values = np.frombuffer("".join(fields).encode("ascii"), np.int8) - ord("0")
        bad = np.zeros(n, bool)
    else:
        values = np.fromiter(map("1".__eq__, fields), np.int8, n)
        bad = ~np.fromiter(map(_BINARY.__contains__, fields), bool, n)
    got = _first(fields, bad)
    return values, (bad, lambda i: MalformedRow(
        f"line {i + 2}: {col} must be 0 or 1, got {got!r}", line=i + 2), False)


def _outcome(fields, s, col):
    """An outcome column as float64, NaN where its selection ``s`` is 0, and its checks.

    Each non-blank field goes through ``float()`` once. A selected outcome
    must not be blank; a present one must be numeric and finite, and is
    dropped with a warning where the unit is not selected.
    """
    n = len(fields)
    blank = np.fromiter(map(operator.not_, fields), bool, n)
    values = np.full(n, np.nan)
    not_numeric = np.zeros(n, bool)
    values[~blank], not_numeric[~blank] = _parse(float, list(filter(None, fields)), np.nan)
    finite = np.isfinite(values)
    selected = s == 1
    values[~selected] = np.nan
    not_finite = ~blank & ~finite & ~not_numeric
    got_numeric, got_finite = _first(fields, not_numeric), _first(fields, not_finite)
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


def _header_block(header, columns, start):
    """A block of a panel or cross-section file, converted column by column
    in header order: the ids as one string and each id's length, each 0/1
    column by ``_binary`` and each outcome ``y…`` by ``_outcome`` with its
    selection column ``s…``."""
    arrays, checks = {}, []
    for col, fields in zip(header, columns):
        if col == "id":
            arrays[col] = "".join(fields)
            arrays["id lengths"] = np.fromiter(map(len, fields), np.intp, len(fields))
        elif col.startswith("y"):
            arrays[col], col_checks = _outcome(fields, arrays["s" + col[1:]], col)
            checks += col_checks
        else:
            arrays[col], check = _binary(fields, col)
            checks.append(check)
    return tuple(arrays.values()), checks


def load_panel_csv(path) -> PanelDataset:
    columns, checks, width_error = _read_columns(path, PANEL_HEADER,
                                                 partial(_header_block, PANEL_HEADER))
    _raise_first(checks, width_error)
    text, lengths, *rest = columns
    return PanelDataset.from_records(_PackedIds(text, lengths), *rest)


def load_rcs_csv(path) -> RcsDataset:
    columns, checks, width_error = _read_columns(path, RCS_HEADER,
                                                 partial(_header_block, RCS_HEADER))
    _raise_first(checks, width_error)
    text, lengths, *rest = columns
    data = RcsDataset(_PackedIds(text, lengths), *rest)
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
    """The ids of ``seen`` in first-seen order, and each row's index into them."""
    rows = np.fromiter(seen.values(), np.intp, len(seen))
    names = _frozen_array(np.fromiter(seen, object, len(seen)))
    return names, _frozen_array(np.searchsorted(rows, first))


def _multi_block(seen, columns, start):
    """A block of a staggered panel, each row's unit coded by ``_first_rows``."""
    ids, gvar, t, s, y = columns
    unit = _first_rows(seen, ids, start)
    gvar, gvar_rejected = _parse(int, gvar, 0)
    t, t_rejected = _parse(int, t, 0)
    gvar, t = _integers(gvar), _integers(t)
    s, s_check = _binary(s, "s")
    y, y_checks = _outcome(y, s, "y")
    return (unit, gvar, t, s, y), [
        (gvar_rejected | t_rejected,
         lambda i: MalformedRow(f"line {i + 2}: gvar/t must be integers", line=i + 2),
         False),
        ((gvar < 0) | (t < 0),
         lambda i: MalformedRow(f"line {i + 2}: gvar/t must be non-negative", line=i + 2),
         False),
        ((gvar > _INT64_MAX) | (t > _INT64_MAX),
         lambda i: MalformedRow(f"line {i + 2}: gvar/t must be below 2**63", line=i + 2),
         False),
        s_check,
        *y_checks,
    ]


def _repeats(values: np.ndarray) -> np.ndarray:
    """Whether each value but the first equals the one before it."""
    return values[1:] == values[:-1]


def load_multi_csv(path) -> MultiPeriodPanel:
    seen = {}
    (unit, gvar, t, s, y), checks, width_error = _read_columns(
        path, MULTI_HEADER, partial(_multi_block, seen))
    names, code = _unit_codes(seen, unit)
    del seen  # its hash table is not kept
    ids = _str_ids(_frozen_array(names[code]))  # every row of a unit keeps its one str
    order = np.lexsort((t, unit))  # stable: rows of one (id, t) stay in file order
    duplicate = np.zeros(unit.size, bool)
    duplicate[order[1:]] = _repeats(unit[order]) & _repeats(t[order])
    _raise_first([
        *checks[:3],
        (np.flatnonzero(gvar != gvar[unit]),
         lambda i: InconsistentGvar(f"line {i + 2}: id {ids[i]} has gvar {gvar[i]} "
                                    f"but earlier gvar {gvar[unit[i]]}", id=ids[i]),
         False),
        (np.flatnonzero(duplicate),
         lambda i: MalformedRow(f"line {i + 2}: id {ids[i]} already has a row for t={t[i]}",
                                line=i + 2, id=ids[i]),
         False),
        *checks[3:],
    ], width_error)
    has_baseline = np.zeros(names.size, bool)
    has_baseline[code[t == 0]] = True
    missing = names[~has_baseline].tolist()
    if missing:
        raise MissingBaseline(f"ids without a period-0 row: {missing[:5]}", ids=missing)
    data = MultiPeriodPanel(ids, gvar, t, s, y)
    vars(data)["_units"] = (names, code)
    return data


def _format_outcome(v) -> str:
    if np.isnan(v):
        return ""
    return repr(float(v))


def write_panel_csv(data: PanelDataset, path) -> None:
    """Canonical writer: rows sorted by id, shortest round-trip floats, LF line ends."""
    order = sorted(range(data.n), key=data.ids.__getitem__)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
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
