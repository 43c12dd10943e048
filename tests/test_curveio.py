import numpy as np
import pytest
from hypothesis import given, strategies as st

from tripletdnp import BuildupCurve, CurveParseError, ValueKind, read_curve, write_curve


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
    with pytest.raises(CurveParseError, match="row 1"):
        read_curve(p)


def test_missing_header(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("0.0,0.1\n1.0,0.2\n")
    with pytest.raises(CurveParseError, match="header"):
        read_curve(p)


def test_non_numeric_cell_names_row(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("time_min,value\n0.0,0.1\n1.0,abc\n")
    with pytest.raises(CurveParseError, match="row 3"):
        read_curve(p)


@pytest.mark.parametrize(
    "row", ["nan,0.1", "1.0,nan", "inf,0.1", "1.0,-inf", "1.0,NaN"]
)
def test_non_finite_cell_names_row(tmp_path, row):
    p = tmp_path / "c.csv"
    p.write_text(f"time_min,value\n0.0,0.1\n{row}\n2.0,0.3\n")
    with pytest.raises(CurveParseError, match="row 3: non-finite"):
        read_curve(p)


def test_duplicate_timestamp_names_row(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("time_min,value\n0.0,0.1\n1.0,0.2\n1.0,0.3\n")
    with pytest.raises(CurveParseError, match="row 4"):
        read_curve(p)


def test_decreasing_time_rejected(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("time_min,value\n0.0,0.1\n2.0,0.2\n1.0,0.3\n")
    with pytest.raises(CurveParseError, match="row 4"):
        read_curve(p)


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("")
    with pytest.raises(CurveParseError, match="header"):
        read_curve(p)


def test_header_only_rejected(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("time_min,value\n")
    with pytest.raises(CurveParseError, match="data"):
        read_curve(p)


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
