"""Reading and writing buildup/relaxation curves as CSV files.

The format is a header row `time_min,value` (or `time_s,value`, converted
to minutes on read) preceded by optional `#` comment lines, one of which
may declare the value kind: `# value_kind: polarization` or `raw_signal`.
Values are written with repr, the shortest decimal that round-trips, so a
write/read cycle reproduces a curve exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import CurveParseError
from .kinetics import BuildupCurve, ValueKind

__all__ = ["read_curve", "write_curve"]

_VALUE_KIND_PREFIX = "value_kind:"
_HEADERS = {"time_min": 1.0, "time_s": 1.0 / 60.0}


def read_curve(path) -> BuildupCurve:
    """Parse a curve file into a BuildupCurve, normalizing times to minutes.

    Raises CurveParseError naming the offending 1-based row for a missing
    or unknown header, non-numeric or non-finite cells, or non-increasing
    times.
    """
    lines = Path(path).read_text().splitlines()
    kind = ValueKind.POLARIZATION
    header_scale = None
    times: list[float] = []
    values: list[float] = []
    for row, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line.lstrip("#").strip()
            if comment.startswith(_VALUE_KIND_PREFIX):
                kind_name = comment[len(_VALUE_KIND_PREFIX):].strip()
                try:
                    kind = ValueKind(kind_name)
                except ValueError:
                    raise CurveParseError(
                        f"unknown value_kind {kind_name!r}; expected "
                        f"{' or '.join(k.value for k in ValueKind)}",
                        row=row,
                    ) from None
            continue
        cells = [c.strip() for c in line.split(",")]
        if header_scale is None:
            if len(cells) != 2 or cells[0] not in _HEADERS or cells[1] != "value":
                raise CurveParseError(
                    f"expected header 'time_min,value' or 'time_s,value', got {line!r}", row=row
                )
            header_scale = _HEADERS[cells[0]]
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
            raise CurveParseError(
                f"time {cells[0]} does not increase over the previous sample", row=row
            )
        if t < 0.0:
            raise CurveParseError(f"negative time {cells[0]}", row=row)
        times.append(t)
        values.append(v)
    if header_scale is None:
        raise CurveParseError("file has no header row", row=len(lines) or 1)
    if not times:
        raise CurveParseError("file has no data rows", row=len(lines))
    return BuildupCurve(np.array(times), np.array(values), kind)


def write_curve(path, curve: BuildupCurve) -> None:
    """Write a curve in the canonical form: value-kind comment, minutes header."""
    out = [f"# value_kind: {curve.value_kind.value}", "time_min,value"]
    for t, v in zip(curve.times_min, curve.values):
        out.append(f"{float(t)!r},{float(v)!r}")
    Path(path).write_text("\n".join(out) + "\n")
