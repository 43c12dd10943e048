"""Reading and writing buildup/relaxation curves as CSV files.

The format is a header row `time_min,value` (or `time_s,value`, converted
to minutes on read) preceded by optional `#` comment lines, one of which
may declare the value kind: `# value_kind: polarization` or `raw_signal`.
Values are written with repr, the shortest decimal that round-trips, so a
write/read cycle reproduces a curve exactly. A cell reads as float() reads
it, stripped of whitespace. The rows below the header go to numpy's C text
reader in one pass; only a file it rejects, or whose columns fail their
checks, is walked row by row with float(), which names the first bad row.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .constants import SECONDS_PER_MINUTE
from .kinetics import BuildupCurve, ValueKind
from .params import CurveParseError, ValidationError

_VALUE_KIND_PREFIX = "value_kind:"
_HEADERS = {"time_min": 1.0, "time_s": 1.0 / SECONDS_PER_MINUTE}
_KIND_NAMES = tuple(k.value for k in ValueKind)


def read_curve(path) -> BuildupCurve:
    """Parse a UTF-8 curve file into a BuildupCurve, normalizing times to minutes.

    One walk over the lines in file order takes the comments, value kind and
    header. At the header, numpy's loadtxt reads every line below it and
    BuildupCurve checks the columns; if both accept, that is the curve. Else
    the walk goes on through the rows, reading each with float() and
    checking it, so CurveParseError names the first bad 1-based row in file
    order, as for a bad header, an unknown value kind or a non-UTF-8 byte.
    """
    raw = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")  # a byte-order mark, as CSV exports write
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:  # the row is the line the bytes before the bad one end on
        row = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise CurveParseError(f"not UTF-8 text: byte {raw[exc.start]:#04x}", row=row) from None
    lines = text.splitlines()
    kind, header_scale = ValueKind.POLARIZATION, None
    times, values = [], []  # of the rows the walk reads; times in minutes
    for row, line in enumerate(map(str.strip, lines), start=1):
        if not line:
            continue
        if line[0] == "#":
            comment = line.lstrip("#").strip()
            if comment.startswith(_VALUE_KIND_PREFIX):
                kind_name = comment[len(_VALUE_KIND_PREFIX):].strip()
                if kind_name not in _KIND_NAMES:
                    kinds = " or ".join(_KIND_NAMES)
                    raise CurveParseError(f"unknown value_kind {kind_name!r}; expected {kinds}", row)
                kind = ValueKind(kind_name)
            continue
        cells = [c.strip() for c in line.split(",")]
        if header_scale is None:
            if len(cells) != 2 or cells[0] not in _HEADERS or cells[1] != "value":
                raise CurveParseError(
                    f"expected header 'time_min,value' or 'time_s,value', got {line!r}", row=row
                )
            header_scale = _HEADERS[cells[0]]
            if row < len(lines) and lines[-1]:  # on an empty body numpy warns "input contained no data"
                try:
                    table = np.loadtxt(lines[row:], delimiter=",", comments=None, ndmin=2)
                    if table.shape[1] == 2:
                        return BuildupCurve(table[:, 0] * header_scale, table[:, 1], kind)
                except (ValueError, ValidationError):  # a comment or blank row, a bad cell or column
                    pass
            continue
        if len(cells) != 2:
            raise CurveParseError(f"expected two comma-separated cells, got {line!r}", row=row)
        try:
            t = float(cells[0]) * header_scale
            v = float(cells[1])
        except ValueError:
            raise CurveParseError(f"non-numeric cell in {line!r}", row=row) from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise CurveParseError(f"non-finite cell in {line!r}", row=row)
        if times and t <= times[-1]:
            raise CurveParseError(f"time {cells[0]} does not increase over the previous sample", row=row)
        if t < 0.0:
            raise CurveParseError(f"negative time {cells[0]}", row=row)
        times.append(t)
        values.append(v)
    if header_scale is None:
        raise CurveParseError("file has no header row", row=len(lines) or 1)
    if not times:
        raise CurveParseError("file has no data rows", row=len(lines))
    return BuildupCurve(times, values, kind)


def write_curve(path, curve: BuildupCurve) -> None:
    """Write a curve in the canonical form: value-kind comment, minutes header,
    repr cells. Its checks were made in BuildupCurve, which built the curve."""
    out = [f"# {_VALUE_KIND_PREFIX} {curve.value_kind.value}", "time_min,value"]
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
