"""Reading and writing buildup/relaxation curves as CSV files.

The format is a header row `time_min,value` (or `time_s,value`, converted
to minutes on read) preceded by optional `#` comment lines, one of which
may declare the value kind: `# value_kind: polarization` or `raw_signal`.
Values are written with repr, the shortest decimal that round-trips, so a
write/read cycle reproduces a curve exactly.
"""

from __future__ import annotations

import math
import os
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import CurveParseError, ValidationError
from .kinetics import BuildupCurve, ValueKind

__all__ = ["read_curve", "write_curve"]

_VALUE_KIND_PREFIX = "value_kind:"
_HEADERS = {"time_min": 1.0, "time_s": 1.0 / 60.0}


def read_curve(path) -> BuildupCurve:
    """Parse a UTF-8 curve file into a BuildupCurve, normalizing times to minutes.

    One pass over the lines takes the comments, value kind and header, one
    float pass the data cells, and BuildupCurve checks the columns. Only if
    that fails are the rows walked, so CurveParseError names the first bad
    1-based row in file order, as for a bad header or a non-UTF-8 byte.
    """
    raw = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")  # a byte-order mark, as CSV exports write
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:  # the row is the line the bytes before the bad one end on
        row = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise CurveParseError(f"not UTF-8 text: byte {raw[exc.start]:#04x}", row=row) from None
    lines = text.splitlines()
    kind, header_scale = ValueKind.POLARIZATION, None
    rows, data = [], []  # the data lines and their 1-based row numbers
    for row, line in enumerate(map(str.strip, lines), start=1):
        if not line:
            continue
        if line[0] == "#":
            comment = line.lstrip("#").strip()
            if comment.startswith(_VALUE_KIND_PREFIX):
                kind_name = comment[len(_VALUE_KIND_PREFIX):].strip()
                try:
                    kind = ValueKind(kind_name)
                except ValueError:  # data rows above it fail first
                    kinds = " or ".join(k.value for k in ValueKind)
                    error = CurveParseError(f"unknown value_kind {kind_name!r}; expected {kinds}", row)
                    raise _first_bad_row(rows, data, header_scale) or error from None
        elif header_scale is None:
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != 2 or cells[0] not in _HEADERS or cells[1] != "value":
                raise CurveParseError(
                    f"expected header 'time_min,value' or 'time_s,value', got {line!r}", row=row
                )
            header_scale = _HEADERS[cells[0]]
        else:
            rows.append(row)
            data.append(line)
    if header_scale is None:
        raise CurveParseError("file has no header row", row=len(lines) or 1)
    if not data:
        raise CurveParseError("file has no data rows", row=len(lines))
    # (time, ",", value) per row: without exactly one comma the value cell is empty or holds one
    cells = list(chain.from_iterable(map(str.partition, data, repeat(","))))
    try:
        times, values = np.fromiter(map(float, cells[0::3] + cells[2::3]), float).reshape(2, -1)
        return BuildupCurve(times * header_scale, values, kind)
    except (ValueError, ValidationError) as exc:
        raise (_first_bad_row(rows, data, header_scale) or exc) from None


def _first_bad_row(rows, data, header_scale) -> CurveParseError | None:
    """The error of the first data row failing: two cells, numeric, finite, increasing, nonnegative."""
    previous = -math.inf
    for row, line in zip(rows, data):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            return CurveParseError(f"expected two comma-separated cells, got {line!r}", row=row)
        try:
            t = float(cells[0]) * header_scale
            v = float(cells[1])
        except ValueError:
            return CurveParseError(f"non-numeric cell in {line!r}", row=row)
        if not (math.isfinite(t) and math.isfinite(v)):
            return CurveParseError(f"non-finite cell in {line!r}", row=row)
        if t <= previous:
            return CurveParseError(f"time {cells[0]} does not increase over the previous sample", row=row)
        if t < 0.0:
            return CurveParseError(f"negative time {cells[0]}", row=row)
        previous = t


def write_curve(path, curve: BuildupCurve) -> None:
    """Write a curve in the canonical form: value-kind comment, minutes header,
    repr cells. Its checks were made in BuildupCurve, which built the curve."""
    out = [f"# value_kind: {curve.value_kind.value}", "time_min,value"]
    out += [f"{t!r},{v!r}" for t, v in zip(curve.times_min.tolist(), curve.values.tolist())]
    write_text(path, "\n".join(out) + "\n")


def write_text(path, text: str) -> None:
    """Write text as UTF-8 over the file at path, in place, creating it if absent.

    Opening an existing file with O_TRUNC makes ext4 (auto_da_alloc) start
    writeback of the new data at close, which costs more than the write; so
    the file is opened without it, written from the start, and cut to
    length only if the old contents were longer. The bytes on disk are
    those of a truncating write. A non-regular target such as /dev/null or
    a FIFO reports size 0 and is never truncated, which it could not be.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as f:
        stale = os.fstat(fd).st_size > len(data)
        f.write(data)
        if stale:
            f.truncate()
