import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tripletdnp import BuildupCurve, CurveParseError, ValueKind, curveio, read_curve, write_curve

import oracles


def test_three_row_file(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("time_min,value\n0.0,0.0\n1.5,0.2\n3.0,0.35\n")
    curve = read_curve(p)
    assert len(curve) == 3
    np.testing.assert_array_equal(curve.times_min, [0.0, 1.5, 3.0])
    np.testing.assert_array_equal(curve.values, [0.0, 0.2, 0.35])
    assert curve.value_kind is ValueKind.POLARIZATION


def test_seconds_header_converts_to_minutes(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("time_s,value\n0,0.0\n60,0.2\n90,0.3\n")
    curve = read_curve(p)
    np.testing.assert_allclose(curve.times_min, [0.0, 1.0, 1.5])


def test_value_kind_comment(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("# value_kind: raw_signal\ntime_min,value\n0,1.0\n1,2.0\n")
    assert read_curve(p).value_kind is ValueKind.RAW_SIGNAL


def test_unknown_value_kind_rejected(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("# value_kind: bogus\ntime_min,value\n0,1.0\n")
    with pytest.raises(CurveParseError, match="row 1") as exc:
        read_curve(p)
    assert exc.value.row == 1


def test_missing_header(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("0.0,0.1\n1.0,0.2\n")
    with pytest.raises(CurveParseError, match="header") as exc:
        read_curve(p)
    assert exc.value.row == 1


def test_non_numeric_cell_names_row(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("time_min,value\n0.0,0.1\n1.0,abc\n")
    with pytest.raises(CurveParseError, match="row 3") as exc:
        read_curve(p)
    assert exc.value.row == 3


@pytest.mark.parametrize(
    "row", ["nan,0.1", "1.0,nan", "inf,0.1", "1.0,-inf", "1.0,NaN"]
)
def test_non_finite_cell_names_row(tmp_path, row):
    p = tmp_path / "c.csv"
    p.write_text(f"time_min,value\n0.0,0.1\n{row}\n2.0,0.3\n")
    with pytest.raises(CurveParseError, match="row 3: non-finite") as exc:
        read_curve(p)
    assert exc.value.row == 3


def test_duplicate_timestamp_names_row(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("time_min,value\n0.0,0.1\n1.0,0.2\n1.0,0.3\n")
    with pytest.raises(CurveParseError, match="row 4") as exc:
        read_curve(p)
    assert exc.value.row == 4


def test_decreasing_time_rejected(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("time_min,value\n0.0,0.1\n2.0,0.2\n1.0,0.3\n")
    with pytest.raises(CurveParseError, match="row 4") as exc:
        read_curve(p)
    assert exc.value.row == 4


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("")
    with pytest.raises(CurveParseError, match="header") as exc:
        read_curve(p)
    assert exc.value.row == 1


def test_header_only_rejected(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("time_min,value\n")
    with pytest.raises(CurveParseError, match="data") as exc:
        read_curve(p)
    assert exc.value.row == 1


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(71)
    p = tmp_path / "c.csv"
    for _ in range(100):
        n = int(rng.integers(1, 30))
        t = np.cumsum(rng.uniform(1e-6, 10.0, size=n))
        t[0] = abs(t[0])
        v = rng.normal(0.0, 1.0, size=n) * 10.0 ** rng.integers(-8, 8)
        kind = ValueKind.RAW_SIGNAL if rng.random() < 0.5 else ValueKind.POLARIZATION
        curve = BuildupCurve(t, v, kind)
        write_curve(p, curve)
        back = read_curve(p)
        np.testing.assert_array_equal(back.times_min, curve.times_min)
        np.testing.assert_array_equal(back.values, curve.values)
        assert back.value_kind is curve.value_kind


@given(
    st.lists(
        st.tuples(
            st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
            st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_roundtrip_property(tmp_path_factory, pairs):
    steps = np.array([dt for dt, _ in pairs])
    values = np.array([v for _, v in pairs])
    curve = BuildupCurve(np.cumsum(steps), values)
    path = tmp_path_factory.mktemp("curves") / "c.csv"
    write_curve(path, curve)
    back = read_curve(path)
    np.testing.assert_array_equal(back.times_min, curve.times_min)
    np.testing.assert_array_equal(back.values, curve.values)


# U+001F is whitespace to str.strip (and numpy) but not to float()
PAD = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\u2003", "\x1f"])
# "1_000", "\u0661\u0662" (Arabic-Indic 12) and "\uff11.\uff15" (fullwidth 1.5) are read by float() but not by numpy
BAD_CELLS = ["", "abc", "1,5", "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "1_000", "0x10", "--1",
             "\u0661\u0662", "\uff11.\uff15"]
COMMENTS = ["# note", "#", "# value_kind: polarization", "#value_kind:raw_signal",
            "## value_kind:  raw_signal ", "# value_kind: bogus", "# value_kind:"]
HEADERS = ["time_min,value", "time_s,value", " time_s , value ", "time_h,value", "time_min,value,x",
           "time_min", "TIME_MIN,value"]


@st.composite
def curve_files(draw):
    """Curve-file text: mostly well formed, with every kind of defect mixed in."""
    times = sorted(set(draw(st.lists(st.floats(0.0, 1e6), max_size=12))))
    lines = [draw(st.sampled_from(HEADERS[:2] if draw(st.integers(0, 9)) else HEADERS))]
    for i, t in enumerate(times):
        defect = draw(st.integers(0, 30))
        t_cell = repr(t)
        if defect == 1:
            t_cell = repr(-t - 1.0)
        elif defect == 2 and i:
            t_cell = repr(times[i - 1])
        elif defect == 3 and i:
            t_cell = repr(times[i - 1] / 2.0)
        elif defect == 4:
            t_cell = draw(st.sampled_from(BAD_CELLS))
        v_cell = draw(st.sampled_from(BAD_CELLS)) if defect == 5 else repr(draw(st.floats(-1e12, 1e12)))
        cells = [t_cell, v_cell]
        if defect == 6:
            cells = cells[:1]
        elif defect == 7:
            cells.append(repr(draw(st.floats(-1.0, 1.0))))
        lines.append(",".join(draw(PAD) + c + draw(PAD) for c in cells))
    for _ in range(draw(st.integers(0, 4))):
        extra = draw(st.sampled_from(COMMENTS) | PAD | st.sampled_from(["", "\t \t"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    # str.splitlines ends a line at each of these; numpy's reader ends one only at \n and \r
    newline = draw(st.sampled_from(["\n", "\r\n", "\x0c", "\x1c", "\x85", "\u2028"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=curve_files())
def test_reader_matches_row_by_row_oracle(tmp_path, text):
    p = tmp_path / "c.csv"
    p.write_bytes(text.encode("utf-8"))
    expected = oracles.read_curve_by_rows(p)
    try:
        curve = read_curve(p)
    except CurveParseError as exc:
        assert str(exc) == expected
        return
    assert not isinstance(expected, str), expected
    times, values, kind = expected
    assert curve.times_min.tobytes() == times.tobytes()
    assert curve.values.tobytes() == values.tobytes()
    assert curve.value_kind.value == kind


def test_first_bad_row_in_file_order(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("time_min,value\n0,1\n1,abc\n# value_kind: bogus\n2\n")
    with pytest.raises(CurveParseError, match=r"^row 3: non-numeric cell in '1,abc'$") as exc:
        read_curve(p)
    assert exc.value.row == 3
    p.write_text("time_min,value\n0,1\n# value_kind: bogus\n1,abc\n")
    with pytest.raises(CurveParseError, match=r"^row 3: unknown value_kind 'bogus'") as exc:
        read_curve(p)
    assert exc.value.row == 3
    p.write_text("time_min,value\n0,1\n5\n1,2,3\n")  # cell counts that balance out
    with pytest.raises(CurveParseError, match=r"^row 3: expected two comma-separated cells") as exc:
        read_curve(p)
    assert exc.value.row == 3


@pytest.mark.parametrize("cells", [3, 1])
def test_wrong_cell_count_on_every_row_names_the_first(tmp_path, cells):
    """numpy reads such a file as (n, 3) or (n, 1) cells; the row walk still names the first data row."""
    p = tmp_path / "c.csv"
    p.write_text("# note\ntime_min,value\n" + "".join(",".join([str(i)] * cells) + "\n" for i in range(5)))
    with pytest.raises(CurveParseError, match=r"^row 3: expected two comma-separated cells, got '0") as exc:
        read_curve(p)
    assert exc.value.row == 3


def test_non_utf8_byte_names_its_row(tmp_path):
    p = tmp_path / "c.csv"
    p.write_bytes(b"time_min,value\r\n0,1\r\n1,caf\xc3\xa9\r\n2,\xff\n")
    with pytest.raises(CurveParseError, match=r"^row 4: not UTF-8 text: byte 0xff$") as exc:
        read_curve(p)
    assert exc.value.row == 4
    p.write_bytes(b"\xfftime_min,value\n")
    with pytest.raises(CurveParseError, match=r"^row 1: ") as exc:
        read_curve(p)
    assert exc.value.row == 1


def test_roundtrip_exact_5000_rows(tmp_path):
    rng = np.random.default_rng(72)
    t = np.cumsum(rng.uniform(1e-9, 1.0, size=5000)) - 1e-9
    v = rng.normal(0.0, 1.0, size=5000) * 10.0 ** rng.integers(-300, 300, size=5000)
    curve = BuildupCurve(t, v, ValueKind.RAW_SIGNAL)
    p = tmp_path / "c.csv"
    write_curve(p, curve)
    back = read_curve(p)
    assert back.times_min.tobytes() == curve.times_min.tobytes()
    assert back.values.tobytes() == curve.values.tobytes()
    assert back.value_kind is ValueKind.RAW_SIGNAL


def _assert_reads_as_row_oracle(path):
    curve = read_curve(path)
    times, values, kind = oracles.read_curve_by_rows(path)
    assert curve.times_min.tobytes() == times.tobytes()
    assert curve.values.tobytes() == values.tobytes()
    assert curve.value_kind.value == kind


def test_large_file_reads_as_row_oracle(tmp_path):
    """5,000 rows, as written and as a hand-edited file: padding, blank lines and comments between rows."""
    rng = np.random.default_rng(73)
    t = np.cumsum(rng.uniform(1e-6, 10.0, size=5000))
    v = rng.normal(0.0, 1.0, size=5000) * 10.0 ** rng.integers(-30, 30, size=5000)
    written, edited = tmp_path / "written.csv", tmp_path / "edited.csv"
    write_curve(written, BuildupCurve(t, v, ValueKind.RAW_SIGNAL))
    _assert_reads_as_row_oracle(written)
    lines = ["time_s,value"]
    for i, (ti, vi) in enumerate(zip(t.tolist(), v.tolist())):
        pad = ["", "\t", "\u00a0", " \t"][i % 4]
        lines.append(f"{pad}{ti!r}{pad},{pad[::-1]}{vi!r}\u00a0")
        if i % 97 == 0:
            lines += ["", f"# row {i}", "\t"]
    edited.write_text("\r\n".join(lines) + "\r\n")
    _assert_reads_as_row_oracle(edited)


@pytest.mark.parametrize("kind", list(ValueKind))
def test_well_formed_files_skip_the_row_walk(tmp_path, monkeypatch, kind):
    """Files as write_curve writes them, also behind a byte-order mark or with CRLF line ends, and a
    seconds header, are read by numpy alone: only the row walk calls float() in curveio."""
    def fail(*args):
        raise AssertionError("row walk entered")

    monkeypatch.setattr(curveio, "float", fail, raising=False)
    p = tmp_path / "c.csv"
    curve = _curve(3274)
    expected = BuildupCurve(curve.times_min, curve.values, kind)
    write_curve(p, expected)
    written = p.read_bytes()
    assert read_curve(p) == expected
    for text in (b"\xef\xbb\xbf" + written, written.replace(b"\n", b"\r\n")):
        p.write_bytes(text)
        assert read_curve(p) == expected
    p.write_text("time_s,value\n0,1.5\n30,-2e-3\n90,7\n")
    np.testing.assert_array_equal(read_curve(p).times_min, [0.0, 0.5, 1.5])


@pytest.mark.parametrize("body", ["", "\n", "\t\n", "\n\t\n \t\n", "\t\n\n\n", "\r\n\t\r\n"])
def test_header_without_data_rows_names_the_last_row(tmp_path, body):
    """An empty, blank or tab-only body gives the oracle's error, and numpy never warns of no data."""
    p = tmp_path / "c.csv"
    p.write_text("time_min,value\n" + body, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CurveParseError, match="file has no data rows") as exc:
            read_curve(p)
    assert str(exc.value) == oracles.read_curve_by_rows(p)


def test_write_curve_bytes_are_pinned(tmp_path):
    times = [0.0, 1e-05, 0.1, 1e+16, 1.7976931348623157e308]
    values = [-0.0, 0.1, 1e-05, -1e+16, 5e-324]
    p = tmp_path / "c.csv"
    write_curve(p, BuildupCurve(times, values))
    assert p.read_bytes() == (
        b"# value_kind: polarization\ntime_min,value\n"
        b"0.0,-0.0\n1e-05,0.1\n0.1,1e-05\n1e+16,-1e+16\n1.7976931348623157e+308,5e-324\n"
    )


def _curve(rows: int) -> BuildupCurve:
    rng = np.random.default_rng(rows)
    return BuildupCurve(np.cumsum(rng.uniform(0.1, 1.0, size=rows)), rng.normal(size=rows))


def test_overwrite_with_shorter_curve_matches_fresh_write(tmp_path):
    p, fresh = tmp_path / "c.csv", tmp_path / "fresh.csv"
    write_curve(p, _curve(5000))
    inode = p.stat().st_ino
    write_curve(p, _curve(20))
    write_curve(fresh, _curve(20))
    assert p.read_bytes() == fresh.read_bytes()  # no stale tail of the longer file
    assert p.stat().st_ino == inode  # rewritten in place, not replaced


def test_new_file_mode_follows_umask(tmp_path):
    p = tmp_path / "c.csv"
    old = os.umask(0o027)
    try:
        write_curve(p, _curve(3))
    finally:
        os.umask(old)
    assert stat.S_IMODE(p.stat().st_mode) == 0o666 & ~0o027


def test_write_to_dev_null():
    write_curve(os.devnull, _curve(20))


def test_write_to_fifo(tmp_path):
    fifo, regular = tmp_path / "pipe", tmp_path / "c.csv"
    os.mkfifo(fifo)
    write_curve(regular, _curve(20))
    # a reader opened without blocking lets the writer's open return at once; 20 rows fit the pipe
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_curve(fifo, _curve(20))
        chunks = [os.read(reader, 1 << 16)]
        while chunks[-1]:
            chunks.append(os.read(reader, 1 << 16))
    finally:
        os.close(reader)
    assert b"".join(chunks) == regular.read_bytes()


def test_leading_byte_order_mark_is_skipped(tmp_path):
    """Spreadsheet "CSV UTF-8" exports start with a byte-order mark; the curve reads as without it."""
    text = b"# value_kind: raw_signal\r\ntime_s,value\r\n0,1\r\n60,2.5\r\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert read_curve(marked) == read_curve(plain)


def test_non_utf8_byte_after_a_byte_order_mark_names_its_row(tmp_path):
    p = tmp_path / "c.csv"
    p.write_bytes(b"\xef\xbb\xbftime_min,value\n0,1\n1,caf\xc3\xa9\n2,\xff\n")
    with pytest.raises(CurveParseError, match=r"^row 4: not UTF-8 text: byte 0xff$") as exc:
        read_curve(p)
    assert exc.value.row == 4
