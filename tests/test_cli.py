import contextlib
import io
import math
import os
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tripletdnp import (
    BuildupCurve,
    KineticsParams,
    buildup_closed_form,
    buildup_ode,
    read_curve,
    write_curve,
)
from tripletdnp import cli
from tripletdnp.cli import SWEEP_PARAMETERS, main

from extremes import FLOAT_EXTREMES

REFERENCE_CFG = """
[field]
field_tesla = 0.64

[sequence]
repetition_rate_hz = 1000.0

[kinetics]
pe = 0.826
td_minutes = 20.2
tr_minutes = 57.1
"""


@pytest.fixture
def cfg(tmp_path):
    p = tmp_path / "reference.cfg"
    p.write_text(REFERENCE_CFG)
    return p


def run(args, capsys):
    code = main([str(a) for a in args])
    return code, capsys.readouterr()


class TestSimulate:
    def test_closed_form_reaches_061(self, cfg, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, cap = run(
            ["simulate", "--config", cfg, "--duration-min", 150, "--out", out], capsys
        )
        assert code == 0
        curve = read_curve(out)
        assert curve.values[-1] == pytest.approx(0.610, abs=1e-3)
        assert "final_polarization: 0.610" in cap.out
        assert (tmp_path / "curve.summary.txt").exists()
        assert (tmp_path / "curve.summary.csv").exists()

    def test_modes_agree(self, cfg, tmp_path, capsys):
        values = {}
        for mode in ("closed_form", "ode", "shots"):
            out = tmp_path / f"{mode}.csv"
            code, _ = run(
                ["simulate", "--config", cfg, "--duration-min", 150, "--mode", mode, "--out", out],
                capsys,
            )
            assert code == 0
            values[mode] = read_curve(out).values
        np.testing.assert_allclose(values["ode"], values["closed_form"], atol=1e-9)
        np.testing.assert_allclose(values["shots"], values["closed_form"], atol=1e-3)

    def test_zero_duration_single_row(self, cfg, tmp_path, capsys):
        out = tmp_path / "zero.csv"
        code, _ = run(["simulate", "--config", cfg, "--duration-min", 0, "--out", out], capsys)
        assert code == 0
        curve = read_curve(out)
        assert len(curve) == 1
        assert curve.times_min[0] == 0.0 and curve.values[0] == 0.0

    def test_deterministic_outputs(self, cfg, tmp_path, capsys):
        out = tmp_path / "a.csv"
        args = ["simulate", "--config", cfg, "--duration-min", 42, "--seed", 5, "--out", out]
        run(args, capsys)
        first = out.read_bytes() + out.with_suffix(".summary.txt").read_bytes()
        run(args, capsys)
        second = out.read_bytes() + out.with_suffix(".summary.txt").read_bytes()
        assert first == second

    def test_negative_duration_rejected(self, cfg, capsys):
        code, cap = run(["simulate", "--config", cfg, "--duration-min", -5], capsys)
        assert code == 3
        assert "error" in cap.err

    @pytest.mark.parametrize(
        "section",
        [
            "[field]\nfield_tesla = nan\n",
            "[triplet]\nd_mhz = nan\n",
            "[kinetics]\ntd_minutes = nan\n",
            "[kinetics]\npe = nan\n",
            "[general]\ntemperature_kelvin = nan\n",
            "[general]\ntemperature_kelvin = inf\n",
        ],
    )
    def test_non_finite_config_value_rejected(self, tmp_path, capsys, section):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(section)
        out = tmp_path / "nan.csv"
        code, cap = run(["simulate", "--config", cfg, "--duration-min", 30, "--out", out], capsys)
        assert code == 3
        assert "finite" in cap.err
        assert not out.exists()

    def test_static_field_is_not_a_separate_key(self, tmp_path, capsys):
        cfg = tmp_path / "static.cfg"
        cfg.write_text("[sequence]\nstatic_field_tesla = 0.5\n")
        code, cap = run(["simulate", "--config", cfg, "--duration-min", 30,
                         "--out", tmp_path / "s.csv"], capsys)
        assert code == 3
        assert "unknown config key [sequence] static_field_tesla" in cap.err

    def test_zero_field_has_no_hartmann_hahn_match(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("[field]\nfield_tesla = 0\n")
        code, cap = run(["simulate", "--config", cfg, "--duration-min", 30,
                         "--out", tmp_path / "z.csv"], capsys)
        assert code == 3
        assert "static field must be positive" in cap.err

    @pytest.mark.parametrize("mode", ["closed_form", "shots", "ode"])
    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_rejected(self, tmp_path, capsys, mode, duration):
        out = tmp_path / "d.csv"
        code, cap = run(["simulate", "--duration-min", duration, "--mode", mode, "--out", out], capsys)
        assert code == 3
        assert "finite" in cap.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, message",
        [
            ("ode", "RK4 steps"),
            ("shots", "1e+300 min at 1000 Hz"),  # names the duration and the repetition rate
        ],
    )
    def test_huge_duration_rejected(self, cfg, tmp_path, capsys, mode, message):
        out = tmp_path / "d.csv"
        code, cap = run(["simulate", "--config", cfg, "--duration-min", "1e300", "--mode", mode,
                         "--points", 3, "--out", out], capsys)
        assert code == 3
        assert message in cap.err
        assert cap.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("duration", [10, "1e6"])
    def test_overshooting_shot_map_rejected(self, tmp_path, capsys, duration):
        # dt/td = 0.833 and dt/tr = 1.667 at 1 kHz: every shot jumps past the fixed point
        cfg = tmp_path / "overshoot.cfg"
        cfg.write_text("[kinetics]\ntd_minutes = 2e-5\ntr_minutes = 1e-5\n")
        out = tmp_path / "o.csv"
        code, cap = run(["simulate", "--config", cfg, "--duration-min", duration, "--mode", "shots",
                         "--out", out], capsys)
        assert code == 3
        assert "td 2e-05 min and tr 1e-05 min at 1000 Hz" in cap.err
        assert cap.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["closed_form", "shots", "ode"])
    def test_huge_point_count_rejected(self, tmp_path, capsys, mode):
        out = tmp_path / "p.csv"
        code, cap = run(["simulate", "--duration-min", 10, "--mode", mode, "--points", 10**12,
                         "--out", out], capsys)
        assert code == 3
        assert "grid points" in cap.err
        assert cap.err.count("\n") == 1
        assert not out.exists()

    def test_shots_with_a_rounding_to_one_use_closed_form(self, tmp_path, capsys):
        # dt/td + dt/tr = 3.3e-17 per shot: 1.8e7 shots that used to be stepped one by one
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("[kinetics]\ntd_minutes = 1e12\ntr_minutes = 1e12\n")
        out = tmp_path / "s.csv"
        start = time.perf_counter()
        code, cap = run(["simulate", "--config", cfg, "--mode", "shots", "--duration-min", 300,
                         "--points", 21, "--out", out], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        expected = buildup_closed_form(KineticsParams(0.826, 1e12, 1e12), 300.0)
        assert read_curve(out).values[-1] == pytest.approx(expected, rel=1e-9)

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"[kinetics]\n# r\xe9glage\npe = 0.8\n")
        out = tmp_path / "u.csv"
        code, cap = run(["simulate", "--config", cfg, "--duration-min", 10, "--out", out], capsys)
        assert code == 3
        assert "not UTF-8" in cap.err
        assert cap.err.count("\n") == 1
        assert not out.exists()

    def test_include_pth_starts_at_thermal_floor(self, tmp_path, capsys):
        cfg = tmp_path / "pth.cfg"
        cfg.write_text(REFERENCE_CFG + "pth = 0.1\n")  # appended to [kinetics]
        out = tmp_path / "pth.csv"
        code, _ = run(
            ["simulate", "--config", cfg, "--duration-min", 30, "--mode", "ode",
             "--include-pth", "--out", out],
            capsys,
        )
        assert code == 0
        curve = read_curve(out)
        assert curve.values[0] == pytest.approx(0.1)
        code, _ = run(
            ["simulate", "--config", cfg, "--duration-min", 30, "--mode", "shots",
             "--include-pth", "--out", out],
            capsys,
        )
        assert code == 0
        shots = read_curve(out)
        np.testing.assert_allclose(shots.values, curve.values, atol=1e-3)

    def test_every_mode_honours_include_pth(self, tmp_path, capsys):
        cfg = tmp_path / "pth.cfg"
        cfg.write_text(REFERENCE_CFG + "pth = 0.05\n")  # appended to [kinetics]
        curves = {}
        for mode in ("closed_form", "ode", "shots"):
            out = tmp_path / f"{mode}.csv"
            code, _ = run(
                ["simulate", "--config", cfg, "--duration-min", 150, "--mode", mode,
                 "--include-pth", "--out", out],
                capsys,
            )
            assert code == 0
            curves[mode] = read_curve(out).values
            assert curves[mode][0] == 0.05
        np.testing.assert_allclose(curves["closed_form"], curves["ode"], atol=1e-9)
        np.testing.assert_allclose(curves["shots"], curves["ode"], atol=1e-3)
        assert curves["closed_form"][-1] == pytest.approx(0.6232, abs=1e-4)

    @pytest.mark.parametrize("include_pth", [False, True])
    def test_long_ode_matches_library(self, tmp_path, capsys, include_pth):
        cfg = tmp_path / "pth.cfg"
        cfg.write_text(REFERENCE_CFG + "pth = 0.05\n")  # appended to [kinetics]
        out = tmp_path / "long.csv"
        argv = ["simulate", "--config", cfg, "--duration-min", 1440, "--points", 2001,
                "--mode", "ode", "--out", out]
        code, _ = run(argv + (["--include-pth"] if include_pth else []), capsys)
        assert code == 0
        curve = read_curve(out)
        params = KineticsParams(pe=0.826, td_minutes=20.2, tr_minutes=57.1, pth=0.05)
        grid = np.linspace(0.0, 1440.0, 2001)
        np.testing.assert_array_equal(curve.times_min, grid)
        np.testing.assert_array_equal(curve.values, buildup_ode(params, grid, include_pth).values)
        np.testing.assert_allclose(
            curve.values, buildup_closed_form(params, grid, include_pth=include_pth), atol=1e-9
        )


class TestFit:
    def test_buildup_fit_report(self, cfg, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        run(["simulate", "--config", cfg, "--duration-min", 150, "--out", curve], capsys)
        report = tmp_path / "fit.txt"
        code, cap = run(
            ["fit", curve, "--model", "buildup", "--tr-minutes", 57.1, "--out", report], capsys
        )
        assert code == 0
        assert "td_minutes: 20.2" in cap.out
        assert "pe: 0.826" in cap.out
        assert "converged: true" in cap.out
        assert report.exists() and report.with_suffix(".csv").exists()

    def test_decay_fit(self, tmp_path, capsys):
        t = np.linspace(0.0, 300.0, 15)
        rows = ["time_min,value"] + [
            f"{float(x)!r},{float(0.61 * np.exp(-x / 132.0))!r}" for x in t
        ]
        curve = tmp_path / "decay.csv"
        curve.write_text("\n".join(rows) + "\n")
        code, cap = run(["fit", curve, "--model", "decay", "--out", tmp_path / "r.txt"], capsys)
        assert code == 0
        assert "t_const: 132.0" in cap.out

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        rows = ["time_min,value"] + [f"{float(i)!r},0.3" for i in range(6)]
        curve = tmp_path / "flat.csv"
        curve.write_text("\n".join(rows) + "\n")
        code, cap = run(["fit", curve, "--model", "decay", "--out", tmp_path / "r.txt"], capsys)
        assert code == 4
        assert "converged: false" in cap.out

    def test_unconverged_fit_notes_reason(self, tmp_path, capsys):
        rows = ["time_min,value"] + [f"{float(i)!r},{0.1 + 0.002 * i!r}" for i in range(20)]
        curve = tmp_path / "line.csv"
        curve.write_text("\n".join(rows) + "\n")
        code, cap = run(["fit", curve, "--model", "decay", "--out", tmp_path / "r.txt"], capsys)
        assert code == 4
        assert "converged: false" in cap.out
        assert "note: smallest SSR at the edge of the scanned rates" in cap.out

    def test_empty_file_parse_error(self, tmp_path, capsys):
        curve = tmp_path / "empty.csv"
        curve.write_text("")
        code, cap = run(["fit", curve, "--model", "decay"], capsys)
        assert code == 3
        assert "error" in cap.err

    def test_non_finite_cell_parse_error(self, tmp_path, capsys):
        curve = tmp_path / "nan.csv"
        curve.write_text("time_min,value\n0.0,0.5\nnan,0.1\n2.0,0.3\n3.0,0.2\n")
        code, cap = run(["fit", curve, "--model", "decay", "--out", tmp_path / "r.txt"], capsys)
        assert code == 3
        assert "row 3" in cap.err

    def test_non_utf8_curve_parse_error(self, tmp_path, capsys):
        curve = tmp_path / "binary.csv"
        curve.write_bytes(b"\xfftime_min,value\n0.0,0.5\n")
        out = tmp_path / "r.txt"
        code, cap = run(["fit", curve, "--model", "decay", "--out", out], capsys)
        assert code == 3
        assert cap.err == "error: row 1: not UTF-8 text: byte 0xff\n"
        assert cap.out == ""
        assert list(tmp_path.iterdir()) == [curve]

    def test_missing_file_io_error(self, tmp_path, capsys):
        code, cap = run(["fit", tmp_path / "nope.csv", "--model", "decay"], capsys)
        assert code == 5

    @pytest.mark.parametrize(
        "model, rows",
        [
            ("buildup", "0,1e308\n1,-1e308\n2,1e308\n3,-1e308\n4,1e308\n"),
            ("decay", "0,0.5\n5e-301,0.4\n1e-300,0.3\n1.5e-300,0.25\n2e-300,0.2\n3e-300,0.1\n"),
        ],
        ids=["buildup_values_1e308", "decay_span_3e-300_min"],
    )
    def test_overflow_at_curve_scale_exits_4_with_note(self, tmp_path, capsys, model, rows):
        curve = tmp_path / "extreme.csv"
        curve.write_text("time_min,value\n" + rows)
        code, cap = run(["fit", curve, "--model", model, "--out", tmp_path / "r.txt"], capsys)
        assert code == 4
        assert cap.err == ""
        assert "converged: false" in cap.out
        assert cap.out.count("note: the model overflows at this curve's scale") == 1
        sigmas = [line for line in cap.out.splitlines() if "_sigma: " in line]
        assert sigmas and all(line.endswith(": inf") for line in sigmas)

    def test_overflow_in_the_rate_scan_leads_with_the_overflow_note(self, tmp_path, capsys):
        # values near 1e200 overflow the scan's SSR, whose smallest value then lands on an edge rate
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 100.0, 30)
        y = 1e200 * (1.0 - np.exp(-t / 20.0)) * (1.0 + 0.01 * rng.standard_normal(30))
        curve, report = tmp_path / "c.csv", tmp_path / "r.txt"
        write_curve(curve, BuildupCurve(t, y))
        code, cap = run(["fit", curve, "--model", "buildup", "--out", report], capsys)
        assert code == 4
        notes = [line for line in cap.out.splitlines() if line.startswith("note: ")]
        assert notes[0].startswith("note: the model overflows at this curve's scale")
        for text in (cap.out, report.read_text(), report.with_suffix(".csv").read_text()):
            assert not re.search(r"\bnan\b", text)

    def test_tr_minutes_with_decay_model_rejected(self, tmp_path, capsys):
        curve = tmp_path / "decay.csv"
        curve.write_text("time_min,value\n" + "".join(f"{i},{0.5 * 0.8**i!r}\n" for i in range(8)))
        out = tmp_path / "r.txt"
        code, cap = run(["fit", curve, "--model", "decay", "--tr-minutes", 57.1, "--out", out], capsys)
        assert code == 3
        assert cap.err == "error: --tr-minutes applies to --model buildup only\n"
        assert cap.out == "" and not out.exists()

    def test_tr_minutes_on_raw_signal_rejected_before_fitting(self, tmp_path, capsys, monkeypatch):
        curve = tmp_path / "raw.csv"
        t = np.linspace(0.0, 150.0, 61)
        signal = 2.77e5 * 0.6 * -np.expm1(-t / 15.0)
        curve.write_text("# value_kind: raw_signal\ntime_min,value\n"
                         + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), signal.tolist())))
        out = tmp_path / "r.txt"
        monkeypatch.setattr(cli, "fit_buildup", lambda curve: pytest.fail("fitted a raw-signal curve"))
        code, cap = run(["fit", curve, "--model", "buildup", "--tr-minutes", 57.1, "--out", out], capsys)
        assert code == 3
        assert cap.err.count("\n") == 1 and "raw_signal" in cap.err and "calibrate" in cap.err
        assert cap.out == "" and not out.exists()
        monkeypatch.undo()
        code, cap = run(["fit", curve, "--model", "buildup", "--out", out], capsys)
        assert code == 0 and "amplitude: 166" in cap.out

    @pytest.mark.parametrize("tr", ["nan", "0", "-57.1"])
    def test_nonpositive_or_nan_tr_minutes_rejected_before_fitting(self, cfg, tmp_path, capsys, tr):
        curve = tmp_path / "curve.csv"
        run(["simulate", "--config", cfg, "--duration-min", 150, "--out", curve], capsys)
        code, cap = run(["fit", curve, "--model", "buildup", "--tr-minutes", tr], capsys)
        assert code == 3
        assert cap.err == f"error: --tr-minutes must be positive, got {float(tr)}\n"
        assert cap.out == ""


EXTREME_TIMES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 7.0, 1e300,
                 1.7976931348623157e308]
EXTREME_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 0.5, -1.0, 1e300, 1e308, -1e308,
                  1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    model=st.sampled_from(["buildup", "decay"]),
    grid=st.one_of(
        st.lists(st.sampled_from(EXTREME_TIMES), min_size=4, max_size=8, unique=True).map(sorted),
        st.tuples(st.sampled_from(EXTREME_TIMES), st.sampled_from(EXTREME_TIMES[1:]),
                  st.integers(4, 8)).map(lambda a: sorted({a[0] + a[1] * i for i in range(a[2])})),
    ),
    values=st.one_of(
        st.lists(st.sampled_from(EXTREME_VALUES), min_size=8, max_size=8),
        st.sampled_from(EXTREME_VALUES).map(lambda v: [v * 0.5**i for i in range(8)]),
    ),
    tr=st.none() | st.sampled_from(EXTREME_TIMES[1:] + [math.inf]),
)
def test_fit_of_finite_extremes_ends_in_a_documented_exit_code(model, grid, values, tr):
    """Curve files drawn from +-1e+-308, subnormals, 0 and tiny or huge time
    spans: every fit ends in exit 0, 3 or 4 with no traceback and no warning."""
    flags = [] if tr is None else ["--tr-minutes", repr(tr)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = Path(tmp) / "curve.csv"
        curve.write_text("time_min,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(grid, values)))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["fit", str(curve), "--model", model, "--out", str(Path(tmp) / "r.txt"), *flags])
    assert code in (0, 3, 4)
    if code == 3:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


FLAG = st.sampled_from(FLOAT_EXTREMES).map(repr)
COUNTS = st.sampled_from([0, 1, 2, 5, -1, 10**5 + 1, 10**18]).map(str)


def _flag(name, values=FLAG):
    """`--name=value`, so argparse takes a value such as -1e+308 for a value, not an option."""
    return values.map(lambda v: [f"{name}={v}"])


def _optional(name, values=FLAG):
    return st.just([]) | _flag(name, values)


def _args(*groups):
    """The argument groups drawn in order, as one argv list."""
    return st.tuples(*groups).map(lambda drawn: [arg for group in drawn for arg in group])


# decompose's positionals follow "--" for the same reason as _flag
CALLS = st.one_of(
    _args(st.just(["simulate"]), _flag("--duration-min"),
          _flag("--mode", st.sampled_from(["closed_form", "ode", "shots"])),
          _optional("--points", COUNTS), st.sampled_from([[], ["--include-pth"]])),
    _args(st.just(["decompose"]), _optional("--reference-te"), _optional("--tolerance-pct"),
          st.lists(FLAG, min_size=2, max_size=2).map(lambda v: ["--", *v])),
    _args(st.just(["calibrate"]), _flag("--enhanced"), _flag("--reference"),
          _optional("--reference-thermal-polarization"), _optional("--spin-count-ratio"),
          _optional("--gain-ratio"), st.sampled_from([[], ["--verbose"]])),
    _args(st.sampled_from(sorted(SWEEP_PARAMETERS)).map(lambda p: ["sweep", p]),
          _flag("--values", st.lists(FLAG, min_size=1, max_size=3).map(",".join))
          | _args(_flag("--start"), _flag("--stop"), _flag("--num", COUNTS))),
)


def _assert_documented_exit(tmp_path, argv):
    """main(argv) ends in exit 0, 3, 4 or 5 with no traceback and no warning, and
    no value in a report row (`key: value` or a sweep's CSV row) reads nan."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], f"--out={tmp_path / 'out.csv'}", *argv[1:]])
    assert code in (0, 3, 4, 5)
    rows = [line for line in out.getvalue().splitlines() if not line.startswith("note: ")]
    assert [row for row in rows if "nan" in re.split(": |,", row)[1:]] == []
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith(("error: ", "i/o error: "))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=CALLS)
@example(argv=["calibrate", "--enhanced=1e+308", "--reference=5e-324", "--reference-thermal-polarization=0.0"])
@example(argv=["sweep", "td", "--values=5e-324"])
def test_flags_at_float_extremes_end_in_a_documented_exit_code(tmp_path, argv):
    """simulate, decompose, calibrate and sweep with numeric flags from +-1e+-308,
    subnormals, 0, NaN and +-inf, and counts at and past their limits, end as
    _assert_documented_exit says. The outputs land on the same paths call after
    call, so each call also overwrites the last."""
    _assert_documented_exit(tmp_path, argv)


CONFIG_KEYS = [("field", "field_tesla"), ("general", "temperature_kelvin"), ("kinetics", "pe"),
               ("kinetics", "td_minutes"), ("kinetics", "tr_minutes"), ("kinetics", "pth")]
CONFIG_CALLS = st.one_of(
    _args(st.just(["calibrate", "--enhanced=2.77e5", "--reference=1.0"]),
          _optional("--reference-thermal-polarization"), st.sampled_from([[], ["--verbose"]])),
    _args(st.just(["simulate", "--duration-min=150", "--points=21"]),
          _flag("--mode", st.sampled_from(["closed_form", "ode", "shots"])),
          st.sampled_from([[], ["--include-pth"]])),
    _args(st.sampled_from(sorted(SWEEP_PARAMETERS)).map(lambda p: ["sweep", p]),
          _flag("--values", st.lists(FLAG, min_size=1, max_size=2).map(",".join))),
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=CONFIG_CALLS, config=st.dictionaries(st.sampled_from(CONFIG_KEYS), FLAG, min_size=1))
@example(argv=["calibrate", "--enhanced=1", "--reference=1", "--verbose"],
         config={("field", "field_tesla"): "1e-300"})
@example(argv=["calibrate", "--enhanced=1", "--reference=1"],
         config={("general", "temperature_kelvin"): "5e-324"})
def test_config_values_at_float_extremes_end_in_a_documented_exit_code(tmp_path, argv, config):
    """calibrate (with and without --verbose), simulate and sweep under a config
    whose field, temperature and kinetics keys come from the same extremes as
    the flags above end as _assert_documented_exit says."""
    sections = {}
    for (section, key), value in config.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    path = tmp_path / "extreme.cfg"
    path.write_text("".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items()))
    _assert_documented_exit(tmp_path, [argv[0], f"--config={path}", *argv[1:]])


class TestDecompose:
    def test_reference_decomposition(self, tmp_path, capsys):
        code, cap = run(
            ["decompose", 132, 57.1, "--reference-te", 96.9, "--out", tmp_path / "d.txt"], capsys
        )
        assert code == 0
        assert "te_minutes: 100.63" in cap.out
        assert "reference_te_minutes: 96.9" in cap.out
        assert "within_tolerance: true" in cap.out
        assert "three significant figures" in cap.out

    def test_text_report_carries_seed_and_rationale_note(self, tmp_path, capsys):
        out = tmp_path / "d.txt"
        code, cap = run(
            ["decompose", 132, 57.1, "--reference-te", 96.9, "--seed", 3, "--out", out], capsys
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[-3:-1] == ["within_tolerance: true", "seed: 3"]
        assert lines[-1].startswith("note: time constants quoted to three significant figures")
        assert "tolerance_pct: 5.0" in lines
        assert cap.out.splitlines() == lines
        assert "seed,3" in out.with_suffix(".csv").read_text().splitlines()

    @pytest.mark.parametrize(
        "argv", [["nan", 57.1], [132, "nan"], [132, 57.1, "--reference-te", "nan"],
                 [132, 57.1, "--reference-te", "inf"]]
    )
    def test_non_finite_argument_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "d.txt"
        code, cap = run(["decompose", *argv, "--out", out], capsys)
        assert code == 3
        assert "error" in cap.err
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-5"])
    def test_bad_tolerance_rejected(self, tmp_path, capsys, tolerance):
        out = tmp_path / "d.txt"
        code, cap = run(
            ["decompose", 132, 57.1, "--reference-te", 96.9, "--tolerance-pct", tolerance,
             "--out", out],
            capsys,
        )
        assert code == 3
        assert cap.err.count("\n") == 1 and "--tolerance-pct" in cap.err
        assert not out.exists() and not out.with_suffix(".csv").exists()

    def test_t1_equal_tr_rejected(self, capsys):
        code, cap = run(["decompose", 100, 100], capsys)
        assert code == 3
        assert "exceed" in cap.err

    def test_infinite_t1_limit(self, tmp_path, capsys):
        code, cap = run(["decompose", 1e9, 57.1, "--out", tmp_path / "d.txt"], capsys)
        assert code == 0
        te = float([l for l in cap.out.splitlines() if l.startswith("te_minutes")][0].split()[-1])
        assert te == pytest.approx(57.1, rel=1e-6)


class TestCalibrate:
    @pytest.mark.parametrize(
        "flag", ["--enhanced", "--reference", "--reference-thermal-polarization", "--gain-ratio"]
    )
    def test_nan_argument_rejected(self, tmp_path, capsys, flag):
        argv = {"--enhanced": "1.0", "--reference": "1.0", flag: "nan"}
        out = tmp_path / "cal.txt"
        code, cap = run(["calibrate", *[x for kv in argv.items() for x in kv], "--out", out], capsys)
        assert code == 3
        assert "finite" in cap.err
        assert not out.exists()

    def test_verbose_prints_enhancement(self, cfg, tmp_path, capsys):
        code, cap = run(
            [
                "calibrate",
                "--config", cfg,
                "--enhanced", 2.77e5,
                "--reference", 1.0,
                "--reference-thermal-polarization", 2.2e-6,
                "--verbose",
                "--out", tmp_path / "cal.txt",
            ],
            capsys,
        )
        assert code == 0
        assert "polarization: 0.6094" in cap.out
        lines = dict(l.split(": ") for l in cap.out.splitlines() if ": " in l)
        assert float(lines["enhancement_factor"]) == pytest.approx(2.75e5, rel=0.01)

    @pytest.mark.parametrize(
        "flags, polarization",
        [
            (["--reference-thermal-polarization", "0"], 0.0),
            (["--reference-thermal-polarization", "5e-324", "--spin-count-ratio", "1e-308",
              "--gain-ratio", "1e-308"], 1e-308),
        ],
        ids=["inf-times-zero", "overflow-then-underflow"],
    )
    def test_partial_product_overflow(self, tmp_path, capsys, flags, polarization):
        """1e308 / 5e-324 overflows, although the whole product is finite."""
        argv = ["calibrate", "--enhanced", "1e308", "--reference", "5e-324", *flags]
        code, cap = run([*argv, "--out", tmp_path / "cal.txt"], capsys)
        assert code == 0 and cap.err == ""
        lines = dict(l.split(": ", 1) for l in cap.out.splitlines())
        assert float(lines["polarization"]) == pytest.approx(polarization, rel=1e-12, abs=0.0)
        assert "note" not in lines

    @pytest.mark.parametrize("value", ["57.1", "-1.0000000000000002", "1e308"])
    def test_unphysical_reference_polarization_rejected(self, tmp_path, capsys, value):
        out = tmp_path / "cal.txt"
        code, cap = run(["calibrate", "--enhanced", 1.0, "--reference", 1.0,
                         "--reference-thermal-polarization", value, "--out", out], capsys)
        assert code == 3
        assert cap.err == f"error: reference_thermal_polarization must lie in [-1, 1], got {float(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [[], ["--verbose"], ["--reference-thermal-polarization", "1e-6", "--verbose"]],
        ids=["baseline-as-reference", "verbose", "verbose-with-reference"],
    )
    @pytest.mark.parametrize(
        "config, field, temperature",
        [("[field]\nfield_tesla = 1e-300\n", "1e-300", "295.0"),
         ("[field]\nfield_tesla = 1e-30\n[general]\ntemperature_kelvin = 1e300\n", "1e-30", "1e+300")],
        ids=["tiny-field", "tiny-field-over-huge-temperature"],
    )
    def test_thermal_baseline_underflowing_to_zero_rejected(
        self, tmp_path, capsys, flags, config, field, temperature
    ):
        """Without --reference-thermal-polarization the baseline is the reference, and
        --verbose divides by it: a baseline of 0 exits 3 naming the field and temperature."""
        path = tmp_path / "f.cfg"
        path.write_text(config)
        out = tmp_path / "cal.txt"
        code, cap = run(["calibrate", "--enhanced", 1, "--reference", 1, *flags,
                         "--config", path, "--out", out], capsys)
        assert code == 3 and not out.exists()
        assert all(line.startswith("# default ") for line in cap.out.splitlines())  # --verbose's echo only
        assert cap.err == (f"error: the thermal polarization at [field] field_tesla = {field} T and "
                           f"[general] temperature_kelvin = {temperature} K underflows to 0\n")

    def test_unused_zero_baseline_is_not_an_error(self, tmp_path, capsys):
        path = tmp_path / "f.cfg"
        path.write_text("[field]\nfield_tesla = 1e-300\n")
        code, cap = run(["calibrate", "--enhanced", 1, "--reference", 1, "--reference-thermal-polarization",
                         "1e-6", "--config", path, "--out", tmp_path / "cal.txt"], capsys)
        assert code == 0 and "\npolarization: 1e-06\n" in cap.out

    def test_baseline_at_a_subnormal_temperature(self, tmp_path, capsys):
        """2 kB T underflows to 0 at 5e-324 K; the baseline is then tanh of a huge ratio."""
        path = tmp_path / "f.cfg"
        path.write_text("[general]\ntemperature_kelvin = 5e-324\n")
        code, cap = run(["calibrate", "--enhanced", 1, "--reference", 2, "--verbose",
                         "--config", path, "--out", tmp_path / "cal.txt"], capsys)
        assert code == 0 and cap.err == ""
        assert "\npolarization: 0.5\n" in cap.out and "\nthermal_polarization_baseline: 1.0\n" in cap.out

    def test_baseline_from_config_when_not_given(self, cfg, tmp_path, capsys):
        code, cap = run(
            ["calibrate", "--config", cfg, "--enhanced", 1.0, "--reference", 1.0,
             "--out", tmp_path / "cal.txt"],
            capsys,
        )
        assert code == 0
        assert "reference_thermal_polarization: 2.216540988033941e-06" in cap.out


class TestSweep:
    def test_tr_sweep_values(self, cfg, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, cap = run(
            ["sweep", "tr", "--config", cfg, "--values", "57.1,96.9,132", "--out", out], capsys
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "tr,final_polarization"
        finals = [float(r.split(",")[1]) for r in rows[1:]]
        assert finals == pytest.approx([0.610150064683053, 0.6835132365499573, 0.7163731931668856])

    def test_single_point(self, cfg, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code, _ = run(["sweep", "pe", "--config", cfg, "--values", "0.5", "--out", out], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_pe_sweep_is_linear(self, cfg, tmp_path, capsys):
        out = tmp_path / "pe.csv"
        run(
            ["sweep", "pe", "--config", cfg, "--start", 0.1, "--stop", 0.9, "--num", 9, "--out", out],
            capsys,
        )
        rows = out.read_text().splitlines()[1:]
        pes = np.array([float(r.split(",")[0]) for r in rows])
        finals = np.array([float(r.split(",")[1]) for r in rows])
        ratio = finals / pes
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_b1_sweep_uses_transfer_model(self, cfg, tmp_path, capsys):
        out = tmp_path / "b1.csv"
        code, _ = run(
            ["sweep", "b1", "--config", cfg, "--values", "0.001,0.01,0.972", "--out", out], capsys
        )
        assert code == 0
        finals = [float(r.split(",")[1]) for r in out.read_text().splitlines()[1:]]
        # weaker drive means slower buildup and lower steady polarization;
        # the configured b1 reproduces the configured kinetics
        assert finals[0] < finals[1] < finals[2]
        assert finals[2] == pytest.approx(0.610150064683053, rel=1e-6)

    def test_b1_without_transfer_stays_at_thermal_floor(self, tmp_path, capsys):
        cfg = tmp_path / "pth.cfg"
        cfg.write_text(REFERENCE_CFG + "pth = 0.05\n")
        out = tmp_path / "b1.csv"
        code, _ = run(["sweep", "b1", "--config", cfg, "--values", "1e-12", "--out", out], capsys)
        assert code == 0
        assert float(out.read_text().splitlines()[1].split(",")[1]) == pytest.approx(0.05, rel=1e-12)

    def test_unknown_parameter_usage_error(self, cfg, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "bogus", "--config", str(cfg), "--values", "1"])
        assert exc.value.code == 2
        assert "td" in capsys.readouterr().err  # whitelist is listed

    @pytest.mark.parametrize("num", [-1, 0])
    def test_nonpositive_num_rejected(self, cfg, tmp_path, capsys, num):
        out = tmp_path / "n.csv"
        code, cap = run(["sweep", "tr", "--config", cfg, "--start", 10, "--stop", 100,
                         "--num", num, "--out", out], capsys)
        assert code == 3
        assert "--num" in cap.err
        assert not out.exists()

    def test_huge_num_rejected(self, cfg, tmp_path, capsys):
        out = tmp_path / "n.csv"
        code, cap = run(["sweep", "tr", "--config", cfg, "--start", 10, "--stop", 100,
                         "--num", 10**12, "--out", out], capsys)
        assert code == 3
        assert "--num must be at most" in cap.err
        assert cap.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("parameter", ["td", "pe", "repetition_rate", "b1", "sweep_span"])
    def test_nan_value_rejected(self, cfg, tmp_path, capsys, parameter):
        out = tmp_path / "nan.csv"
        code, _ = run(["sweep", parameter, "--config", cfg, "--values", "nan", "--out", out], capsys)
        assert code == 3
        assert not out.exists()

    def test_missing_values_rejected(self, cfg, capsys):
        code, cap = run(["sweep", "tr", "--config", cfg], capsys)
        assert code == 3



class TestOutputFiles:
    """Outputs are rewritten in place with the bytes of a fresh write."""

    def test_shorter_report_overwrites_longer(self, tmp_path, capsys):
        out, fresh = tmp_path / "r.txt", tmp_path / "fresh" / "r.txt"
        long = ["decompose", 132, 57.1, "--reference-te", 96.9, "--seed", 123456789]
        short = ["decompose", 132, 57.1]
        run([*long, "--out", out], capsys)
        inodes = [out.stat().st_ino, out.with_suffix(".csv").stat().st_ino]
        run([*short, "--out", out], capsys)
        run([*short, "--out", fresh], capsys)
        assert out.read_bytes() == fresh.read_bytes()
        assert out.with_suffix(".csv").read_bytes() == fresh.with_suffix(".csv").read_bytes()
        assert [out.stat().st_ino, out.with_suffix(".csv").stat().st_ino] == inodes

    def test_shorter_sweep_overwrites_longer(self, cfg, tmp_path, capsys):
        out, fresh = tmp_path / "s.csv", tmp_path / "fresh.csv"
        run(["sweep", "tr", "--config", cfg, "--start", 10, "--stop", 100, "--num", 50, "--out", out], capsys)
        inode = out.stat().st_ino
        for path in (out, fresh):
            run(["sweep", "tr", "--config", cfg, "--values", "57.1", "--out", path], capsys)
        assert out.read_bytes() == fresh.read_bytes()
        assert out.stat().st_ino == inode

    def test_symlinked_out_keeps_the_link(self, cfg, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("stale\n" * 1000)
        link.symlink_to(target)
        code, cap = run(["sweep", "tr", "--config", cfg, "--values", "57.1", "--out", link], capsys)
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == cap.out  # sweep echoes its CSV

    def test_out_to_dev_null(self, capsys):
        code, cap = run(["sweep", "tr", "--values", "57.1,96.9", "--out", os.devnull], capsys)
        assert code == 0 and cap.err == ""

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "tr", "--values", "57.1"], ["decompose", 132, 57.1], ["simulate", "--duration-min", 10]],
        ids=["sweep", "report", "curve"],
    )
    def test_out_naming_a_directory_exits_5(self, tmp_path, capsys, argv):
        code, cap = run([*argv, "--out", tmp_path], capsys)
        assert code == 5
        assert cap.err.startswith("i/o error: ") and cap.err.count("\n") == 1

def test_usage_error_on_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
