"""Row-by-row CSV loaders: the reference the columnar loaders of
``didbounds.data`` are checked against.

Each record goes through ``csv.reader`` and is checked field by field, in
file order; the first failing record raises, and the warnings of the records
before it are issued first.
"""

import csv
import math
import warnings

import numpy as np

from didbounds.data import (
    MULTI_HEADER,
    PANEL_HEADER,
    RCS_HEADER,
    MultiPeriodPanel,
    PanelDataset,
    RcsDataset,
    _frozen_array,
    _id_array,
)
from didbounds.errors import (
    DataWarning,
    DegenerateSampling,
    EmptyFile,
    InconsistentGvar,
    MalformedRow,
    MissingBaseline,
    MissingOutcome,
)


def _decoded_lines(path):
    """The file's lines, each decoded from UTF-8 on its own; the first line
    that is not UTF-8 raises."""
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines(keepends=True)
    lines = []
    for number, raw in enumerate(raw_lines, start=1):
        try:
            lines.append(raw.decode("utf-8-sig" if number == 1 else "utf-8"))
        except UnicodeDecodeError:
            raise MalformedRow(f"line {number}: not UTF-8 text", line=number)
    return lines


def _read_rows(path, header):
    """Yield (line number, fields) of each data row, header and width checked."""
    reader = csv.reader(_decoded_lines(path))
    try:
        got = next(reader, None)
        if got is None:
            raise EmptyFile(f"{path}: empty file", path=str(path))
        if got != header:
            raise MalformedRow(
                f"{path}: expected header {','.join(header)}, got {','.join(got)}",
                line=1,
            )
        rows = list(reader)
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}", line=reader.line_num)
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
        if g >= 2**63 or per >= 2**63:
            raise MalformedRow(f"line {line}: gvar/t must be below 2**63", line=line)
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
