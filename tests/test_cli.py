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
    epsilon_for_buildup_time,
    iterate_shots,
    read_curve,
    steady_state_with_pth,
    write_curve,
)
from tripletdnp import analysis, cli
from tripletdnp.cli import SWEEP_PARAMETERS, main

from extremes import FLOAT_EXTREMES
from inputs import REFERENCE_CFG
from oracles import shot_map, steady_state_exact


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

    @pytest.mark.parametrize("mode", ["ode", "shots"])
    @pytest.mark.parametrize("duration", ["1e300", "1e306"])
    @pytest.mark.parametrize("include_pth", [False, True])
    def test_huge_duration_reaches_the_steady_state(self, tmp_path, capsys, include_pth, duration, mode):
        # ode composes each interval's RK4 steps and shots each point's shot count in closed form,
        # so neither counts steps or shots one by one; 1e306 min at 1 kHz is inf shots
        cfg = tmp_path / "pth.cfg"
        cfg.write_text(REFERENCE_CFG + "pth = 0.3\n")
        out = tmp_path / "d.csv"
        code, cap = run(["simulate", "--config", cfg, "--duration-min", duration, "--mode", mode, "--points", 3,
                         *["--include-pth"] * include_pth, "--out", out], capsys)
        assert code == 0 and cap.err == ""
        want = steady_state_with_pth(KineticsParams(0.826, 20.2, 57.1, pth=0.3 * include_pth))
        assert read_curve(out).values[-1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mode", ["closed_form", "ode"])
    def test_steady_state_row_is_the_limit_of_the_curve(self, tmp_path, capsys, mode):
        # at pth = 0 the steady state is final_polarization, the curve's limit, bit for bit;
        # shots settle at the ISE map's own fixed point instead
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[kinetics]\npe = 0.433\ntd_minutes = 48.4\ntr_minutes = 109.3\n")
        code, cap = run(["simulate", "--config", cfg, "--duration-min", "1e6", "--mode", mode,
                         "--out", tmp_path / "k.csv"], capsys)
        assert (code, cap.err) == (0, "")
        rows = dict(line.split(": ", 1) for line in cap.out.splitlines())
        exact = repr(float(steady_state_exact(0.433, 48.4, 109.3)))
        assert rows["steady_state_polarization"] == rows["final_polarization"] == exact == "0.30010716550412175"

    @pytest.mark.parametrize("mode", ["closed_form", "ode", "shots"])
    def test_without_include_pth_every_row_reads_a_zero_floor(self, tmp_path, capsys, mode):
        # [kinetics] pth is set, but without --include-pth the curve relaxes toward 0,
        # so the pth and steady-state rows describe that curve, not the configured floor
        cfg = tmp_path / "pth.cfg"
        cfg.write_text(REFERENCE_CFG + "pth = 0.05\n")  # appended to [kinetics]
        out = tmp_path / "c.csv"
        code, cap = run(["simulate", "--config", cfg, "--duration-min", "1e6", "--mode", mode,
                         "--out", out], capsys)
        assert (code, cap.err) == (0, "")
        rows = dict(line.split(": ", 1) for line in cap.out.splitlines())
        assert rows["pth"] == "0.0"
        assert rows["steady_state_polarization"] == "0.610150064683053"
        if mode != "shots":  # shots settle at the ISE map's own fixed point
            assert rows["final_polarization"] == rows["steady_state_polarization"]
            # the curve is the library's at pth = 0, byte for byte
            grid = np.linspace(0.0, 1e6, 201)
            params = KineticsParams(0.826, 20.2, 57.1, pth=0.0)
            values = buildup_closed_form(params, grid) if mode == "closed_form" else buildup_ode(params, grid).values
            write_curve(tmp_path / "lib.csv", BuildupCurve(grid, values))
            assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()

    @pytest.mark.parametrize("td", ["5e-324", "1e-310"])
    def test_subnormal_td_ode_rejected(self, tmp_path, capsys, td):
        cfg = tmp_path / "td.cfg"
        cfg.write_text(f"[kinetics]\ntd_minutes = {td}\n")
        out = tmp_path / "d.csv"
        code, cap = run(["simulate", "--config", cfg, "--duration-min", 150, "--mode", "ode", "--out", out], capsys)
        assert code == 3
        assert "inf RK4 steps" in cap.err and cap.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("duration", [0, 10, "1e6"])
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
    def test_collapsing_grid_names_duration_and_points(self, tmp_path, capsys, mode):
        # linspace(0, 5e-324, 3) is [0, 0, 5e-324]: the grid spacing underflows
        out = tmp_path / "g.csv"
        code, cap = run(["simulate", "--duration-min", "5e-324", "--points", 3, "--mode", mode, "--out", out],
                        capsys)
        assert code == 3
        assert cap.err == "error: --duration-min 5e-324 is too short for --points 3: times repeat\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode, duration", [
        pytest.param(mode, duration, id=mode if duration else f"{mode}-zero_duration")
        for mode in ("closed_form", "shots", "ode") for duration in (10, 0)
    ])
    def test_huge_point_count_rejected(self, tmp_path, capsys, mode, duration):
        out = tmp_path / "p.csv"
        code, cap = run(["simulate", "--duration-min", duration, "--mode", mode, "--points", 10**12,
                         "--out", out], capsys)
        assert code == 3
        assert "grid points" in cap.err
        assert cap.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("points", [1, -5])
    def test_too_few_points_rejected_at_zero_duration(self, tmp_path, capsys, points):
        out = tmp_path / "p.csv"
        code, cap = run(["simulate", "--duration-min", 0, "--points", points, "--out", out], capsys)
        assert code == 3
        assert cap.err == f"error: need at least 2 grid points, got {points}\n"
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
    def test_short_shots_curve_counts_each_point_from_the_start(self, tmp_path, capsys, include_pth):
        # 0.5 min at 1 kHz on 11 points: point i holds N_i = 3000 i shots
        cfg = tmp_path / "pth.cfg"
        cfg.write_text(REFERENCE_CFG + "pth = 0.05\n")  # appended to [kinetics]
        out = tmp_path / "shots.csv"
        code, _ = run(["simulate", "--config", cfg, "--duration-min", 0.5, "--points", 11, "--mode", "shots",
                       *["--include-pth"] * include_pth, "--out", out], capsys)
        assert code == 0
        curve = read_curve(out)
        pth = 0.05 if include_pth else 0.0
        params, eps = KineticsParams(0.826, 20.2, 57.1, pth), epsilon_for_buildup_time(20.2, 1e-3)
        counts = [round(t * 60.0 * 1000.0) for t in curve.times_min]
        assert counts == [3000 * i for i in range(11)]
        assert curve.values.tolist() == [iterate_shots(params, 1e-3, pth, n_shots=n) for n in counts]
        p, stepped = pth, []
        for n in range(counts[-1] + 1):
            if n in counts:
                stepped.append(p)
            p = shot_map(p, eps, 1e-3, 0.826, 57.1, pth)
        np.testing.assert_allclose(curve.values, stepped, rtol=0.0, atol=1e-12)

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
        params = KineticsParams(pe=0.826, td_minutes=20.2, tr_minutes=57.1, pth=0.05 if include_pth else 0.0)
        grid = np.linspace(0.0, 1440.0, 2001)
        np.testing.assert_array_equal(curve.times_min, grid)
        np.testing.assert_array_equal(curve.values, buildup_ode(params, grid).values)
        np.testing.assert_allclose(curve.values, buildup_closed_form(params, grid), atol=1e-9)


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

    def test_iteration_cap_exits_4_with_its_note_first(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_ITERATIONS", 0)
        t = np.linspace(0.0, 150.0, 20)
        values = buildup_closed_form(KineticsParams(0.826, 20.2, 57.1), t)
        curve = tmp_path / "noisy.csv"
        write_curve(curve, BuildupCurve(t, values + np.random.default_rng(55).normal(0.0, 0.003, t.size)))
        code, cap = run(["fit", curve, "--model", "buildup", "--out", tmp_path / "r.txt"], capsys)
        assert code == 4
        assert "converged: false" in cap.out
        notes = [line for line in cap.out.splitlines() if line.startswith("note: ")]
        assert notes[0] == "note: rate search did not converge in 0 steps"

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

    def test_tr_minutes_that_derives_pe_beyond_one_names_the_fit(self, tmp_path, capsys):
        t = np.linspace(0.0, 300.0, 101)
        curve, out = tmp_path / "curve.csv", tmp_path / "r.txt"
        write_curve(curve, BuildupCurve(t, 0.8 * -np.expm1(-0.02 * t)))
        code, cap = run(["fit", curve, "--model", "buildup", "--tr-minutes", 57.1, "--out", out], capsys)
        assert code == 3
        assert re.fullmatch(
            r"error: fitted amplitude 0\.8\d* and rate 0\.0(2|19999)\d* per min with tr = 57\.1 min "
            r"give pe = 6\.43\d*, beyond unit magnitude; the curve and tr cannot both hold\n",
            cap.err,
        )
        assert cap.out == "" and not out.exists()

    @pytest.mark.parametrize("model", ["buildup", "decay"])
    def test_three_sample_curve_rejected(self, tmp_path, capsys, model):
        curve, out = tmp_path / "short.csv", tmp_path / "r.txt"
        curve.write_text("time_min,value\n0.0,0.1\n1.0,0.2\n2.0,0.25\n")
        code, cap = run(["fit", curve, "--model", model, "--out", out], capsys)
        assert code == 3
        assert cap.err == f"error: {model} fit needs at least 4 samples, got 3\n"
        assert cap.out == "" and not out.exists()

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

    @pytest.mark.parametrize("tolerance", ["5", "nan"])
    def test_tolerance_without_reference_rejected(self, tmp_path, capsys, tolerance):
        argv = ["decompose", "132", "57.1", "--tolerance-pct", tolerance]
        code, cap = run([*argv, "--out", tmp_path / "d.txt"], capsys)
        assert code == 3
        assert cap.err == "error: --tolerance-pct applies with --reference-te only\n"
        assert cap.out == "" and list(tmp_path.iterdir()) == []
        _assert_documented_exit(tmp_path, argv)

    def test_explicit_default_tolerance_gives_the_same_bytes(self, tmp_path, capsys):
        argv = ["decompose", 132, 57.1, "--reference-te", 96.9]
        _, implicit = run([*argv, "--out", tmp_path / "a.txt"], capsys)
        _, explicit = run([*argv, "--tolerance-pct", "5", "--out", tmp_path / "b.txt"], capsys)
        assert explicit.out == implicit.out and "tolerance_pct: 5.0" in implicit.out.splitlines()
        assert (tmp_path / "b.txt").read_bytes() == (tmp_path / "a.txt").read_bytes()
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()

    def test_overflowing_tr_rate_rejected(self, tmp_path, capsys):
        # 1 / 5e-324 overflows, which would make te 0
        out = tmp_path / "d.txt"
        code, cap = run(["decompose", 1, 5e-324, "--out", out], capsys)
        assert code == 3
        assert cap.err == "error: 1 / tr overflows: tr_minutes 5e-324 is too small\n"
        assert not out.exists()

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
        [("[field]\nfield_tesla = 1e-320\n", "1e-320", "295.0"),
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

    @pytest.mark.parametrize(
        "flags", [[], ["--reference-thermal-polarization", "1e-6", "--verbose"]],
        ids=["baseline-as-reference", "verbose-with-reference"],
    )
    def test_zero_baseline_is_reported_before_the_signal_inputs(self, tmp_path, capsys, flags):
        """Whenever the baseline is used it is computed first, so it is the error named
        when the reference signal is 0 as well."""
        path = tmp_path / "f.cfg"
        path.write_text("[field]\nfield_tesla = 1e-320\n")
        code, cap = run(["calibrate", "--enhanced", 1, "--reference", 0, *flags,
                         "--config", path, "--out", tmp_path / "cal.txt"], capsys)
        assert code == 3 and cap.err.startswith("error: the thermal polarization at [field] field_tesla = 1e-320 T")

    def test_unused_zero_baseline_is_not_an_error(self, tmp_path, capsys):
        path = tmp_path / "f.cfg"
        path.write_text("[field]\nfield_tesla = 1e-320\n")
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

    @pytest.mark.parametrize(
        "config, baseline",
        [("[field]\nfield_tesla = 1e-300\n", "3.4633452938087046e-306"),
         ("[field]\nfield_tesla = 3e301\n[general]\ntemperature_kelvin = 2e307\n", "1.532530292510352e-09")],
        ids=["subnormal-h-nu", "overflowing-h-nu"],
    )
    def test_baseline_at_a_field_whose_h_nu_is_subnormal(self, tmp_path, capsys, config, baseline):
        """h nu is subnormal at 1e-300 T and overflows at 3e301 T; the baseline is
        the exact value rounded (3e301 T at 2e307 K: one ulp from it), neither 0 nor 1."""
        path = tmp_path / "f.cfg"
        path.write_text(config)
        code, cap = run(["calibrate", "--enhanced", 1, "--reference", 2, "--verbose",
                         "--config", path, "--out", tmp_path / "cal.txt"], capsys)
        assert code == 0 and cap.err == ""
        assert f"\nthermal_polarization_baseline: {baseline}\n" in cap.out

    def test_baseline_from_config_when_not_given(self, cfg, tmp_path, capsys):
        code, cap = run(
            ["calibrate", "--config", cfg, "--enhanced", 1.0, "--reference", 1.0,
             "--out", tmp_path / "cal.txt"],
            capsys,
        )
        assert code == 0
        assert "reference_thermal_polarization: 2.216540988033941e-06" in cap.out


@pytest.mark.parametrize("b1", ["", "[sequence]\nb1_amplitude_mt = 1.0\n"], ids=["b1-computed", "b1-set"])
@pytest.mark.parametrize(
    "argv",
    [["decompose", 132, 57.1], ["calibrate", "--enhanced", 2, "--reference", 1,
                                "--reference-thermal-polarization", "1e-6"]],
    ids=["decompose", "calibrate"],
)
def test_field_whose_b1_underflows_rejected_by_name(tmp_path, capsys, b1, argv):
    """The Hartmann-Hahn B1 of a 5e-324 T field underflows to 0: exit 3 naming the field, not b1,
    also where b1 is set or the subcommand reads neither."""
    path = tmp_path / "f.cfg"
    path.write_text("[field]\nfield_tesla = 5e-324\n" + b1)
    out = tmp_path / "r.txt"
    code, cap = run([*argv, "--config", path, "--out", out], capsys)
    assert code == 3 and not out.exists() and cap.out == ""
    assert cap.err == "error: static field 5e-324 T is too small: its Hartmann-Hahn B1 is 0\n"


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

    def test_overflowing_b1_value_is_the_adiabatic_limit(self, cfg, tmp_path, capsys):
        # omega1 * omega1 overflows to inf (pow would raise OverflowError), so p = 1 as at b1 = 10
        out = tmp_path / "b1.csv"
        code, cap = run(["sweep", "b1", "--config", cfg, "--values", "10,1e150", "--out", out], capsys)
        assert (code, cap.err) == (0, "")
        ten, huge = (row.split(",")[1] for row in out.read_text().splitlines()[1:])
        assert huge == ten

    @pytest.mark.parametrize(
        "parameter, value",
        [("b1", "10"), ("sweep_span", "3"), ("repetition_rate", "1000"), ("sweep_span", "1e300")],
    )
    def test_overflowing_configured_b1_is_the_adiabatic_limit(self, cfg, tmp_path, capsys, parameter, value):
        # the calibration's reference probability overflows the same way as a swept b1;
        # a 1e300 mT span overflows the sweep rate as well, and the exponent is still about 5e3
        big = tmp_path / "big_b1.cfg"
        big.write_text(REFERENCE_CFG.replace("[sequence]\n", "[sequence]\nb1_amplitude_mt = 1e150\n"))
        code, cap = run(["sweep", parameter, "--config", big, "--values", value, "--out", tmp_path / "s.csv"], capsys)
        assert (code, cap.err) == (0, "")
        _, ten = run(["sweep", "b1", "--config", cfg, "--values", "10", "--out", tmp_path / "ten.csv"], capsys)
        assert cap.out.splitlines()[1].split(",")[1] == ten.out.splitlines()[1].split(",")[1]

    def test_overflowing_sweep_rate_transfers_nothing(self, tmp_path, capsys):
        # gamma_e * span / width overflows to inf: p = 0, td is infinite and the floor pth remains
        cfg = tmp_path / "pth.cfg"
        cfg.write_text(REFERENCE_CFG + "pth = 0.05\n")
        out = tmp_path / "span.csv"
        code, cap = run(["sweep", "sweep_span", "--config", cfg, "--values", "1e300", "--out", out], capsys)
        assert (code, cap.err) == (0, "")
        assert float(out.read_text().splitlines()[1].split(",")[1]) == pytest.approx(0.05, rel=1e-12)

    def test_infinite_td_with_an_overflowing_gain_gives_a_row(self, tmp_path, capsys):
        # p / p_ref overflows against the subnormal p_ref at 1e-160 mT, and inf / inf is NaN
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("[sequence]\nb1_amplitude_mt = 1e-160\n[kinetics]\ntd_minutes = inf\npth = 0.05\n")
        code, cap = run(["sweep", "b1", "--config", cfg, "--values", "1", "--out", tmp_path / "s.csv"], capsys)
        assert (code, cap.err) == (0, "")
        assert 0.05 <= float(cap.out.splitlines()[1].split(",")[1]) <= 0.826

    @pytest.mark.parametrize("b1, td", [
        *(pytest.param(b1, "20.2", id=b1) for b1 in ("1e-10", "1e-160", "0.972")),
        pytest.param("0.972", "14.9", id="0.972-td14.9"),
    ])
    @pytest.mark.parametrize("parameter", ["b1", "sweep_span", "repetition_rate"])
    def test_configured_sequence_reproduces_the_configured_td(self, tmp_path, capsys, b1, td, parameter):
        # the transfer probability is 1.8e-17 at 1e-10 mT and subnormal at 1e-160 mT; 14.9 min is
        # a td that a round trip through epsilon = period / td moves by one ulp
        cfg = tmp_path / "weak.cfg"
        cfg.write_text(REFERENCE_CFG.replace("[sequence]\n", f"[sequence]\nb1_amplitude_mt = {b1}\n")
                       .replace("td_minutes = 20.2", f"td_minutes = {td}") + "pth = 0.05\n")
        configured = {"b1": b1, "sweep_span": "3", "repetition_rate": "1000"}[parameter]
        code, cap = run(["sweep", parameter, "--config", cfg, "--values", configured,
                         "--out", tmp_path / "s.csv"], capsys)
        assert (code, cap.err) == (0, "")
        _, swept_td = run(["sweep", "td", "--config", cfg, "--values", td, "--out", tmp_path / "td.csv"], capsys)
        row, want = (float(out.splitlines()[1].split(",")[1]) for out in (cap.out, swept_td.out))
        assert row == want

    @pytest.mark.parametrize("parameter", ["b1", "sweep_span", "repetition_rate"])
    def test_configured_sequence_without_transfer_rejected(self, tmp_path, capsys, parameter):
        # the Landau-Zener exponent underflows to 0 below about 4e-164 mT
        cfg = tmp_path / "none.cfg"
        cfg.write_text(REFERENCE_CFG.replace("[sequence]\n", "[sequence]\nb1_amplitude_mt = 1e-170\n"))
        out = tmp_path / "s.csv"
        code, cap = run(["sweep", parameter, "--config", cfg, "--values", "1", "--out", out], capsys)
        assert code == 3
        assert cap.err.startswith("error: [sequence] b1_amplitude_mt = 1e-170 ") and cap.err.count("\n") == 1
        assert cap.out == "" and not out.exists()

    @pytest.mark.parametrize("parameter", ["repetition_rate", "b1", "sweep_span"])
    def test_calibration_fails_before_any_value(self, tmp_path, capsys, parameter):
        # the reference calibration is made once, before the NaN value is read
        cfg = tmp_path / "short.cfg"
        cfg.write_text("[kinetics]\ntd_minutes = 1e-8\n")
        out = tmp_path / "s.csv"
        code, cap = run(["sweep", parameter, "--config", cfg, "--values", "nan,1", "--out", out], capsys)
        assert code == 3
        assert cap.err == "error: buildup time 1e-08 min is shorter than one shot period; no epsilon <= 1 exists\n"
        assert not out.exists()

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

    def test_non_numeric_values_rejected(self, cfg, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, cap = run(["sweep", "tr", "--config", cfg, "--values", "abc", "--out", out], capsys)
        assert code == 3
        assert cap.err == "error: --values must be a comma-separated number list, got 'abc'\n"
        assert cap.out == "" and not out.exists()

    @pytest.mark.parametrize("range_flags", [
        ["--start", "1", "--stop", "2", "--num", "3"], ["--num", "11"], ["--start", "1"], ["--stop", "2"],
    ])
    def test_values_with_range_flags_rejected(self, cfg, tmp_path, capsys, range_flags):
        argv = ["sweep", "tr", "--values", "57.1,96.9", *range_flags]
        before = sorted(tmp_path.iterdir())
        code, cap = run([*argv, "--config", cfg, "--out", tmp_path / "s.csv"], capsys)
        assert code == 3
        assert cap.err == "error: --values does not combine with --start, --stop or --num\n"
        assert cap.out == "" and sorted(tmp_path.iterdir()) == before
        _assert_documented_exit(tmp_path, argv)

    def test_range_num_defaults_to_11(self, cfg, tmp_path, capsys):
        code, cap = run(["sweep", "pe", "--config", cfg, "--start", 0.1, "--stop", 0.9,
                         "--out", tmp_path / "s.csv"], capsys)
        assert code == 0 and len(cap.out.splitlines()) == 12

    def test_missing_values_rejected(self, cfg, capsys):
        code, cap = run(["sweep", "tr", "--config", cfg], capsys)
        assert code == 3

    @pytest.mark.parametrize("values", ["", ","])
    def test_empty_values_rejected(self, cfg, tmp_path, capsys, values):
        out = tmp_path / "s.csv"
        code, cap = run(["sweep", "tr", "--config", cfg, "--values", values, "--out", out], capsys)
        assert code == 3
        assert cap.err == "error: sweep needs at least one value\n"
        assert not out.exists()



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

    @pytest.mark.parametrize(
        "argv",
        [["fit", "decay.csv", "--model", "decay"], ["decompose", 132, 57.1],
         ["calibrate", "--enhanced", 2, "--reference", 1]],
        ids=["fit", "decompose", "calibrate"],
    )
    def test_report_out_ending_in_csv_rejected(self, tmp_path, capsys, monkeypatch, argv):
        """The CSV twin of r.csv is r.csv itself, which would overwrite the text report."""
        monkeypatch.chdir(tmp_path)
        t = np.linspace(0.0, 300.0, 15)
        Path("decay.csv").write_text("time_min,value\n" + "".join(
            f"{float(x)!r},{float(0.61 * np.exp(-x / 132.0))!r}\n" for x in t))
        code, cap = run([*argv, "--out", "r.csv"], capsys)
        assert code == 3 and not Path("r.csv").exists() and cap.out == ""
        assert cap.err == ("error: --out r.csv would be overwritten by the report's CSV twin; "
                           "give the report another suffix, such as .txt\n")

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

    @pytest.mark.parametrize("out", [".", ".."])
    @pytest.mark.parametrize(
        "argv",
        [["fit", "decay.csv", "--model", "decay"], ["decompose", 132, 57.1],
         ["calibrate", "--enhanced", 2, "--reference", 1]],
        ids=["fit", "decompose", "calibrate"],
    )
    def test_report_out_naming_a_nameless_directory_exits_5(self, tmp_path, capsys, monkeypatch, argv, out):
        """. and .. have no name to take a suffix: the report is written to them, which fails."""
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        Path("decay.csv").write_text("time_min,value\n" + "".join(f"{float(i)!r},{0.61 * 0.9 ** i!r}\n"
                                                                  for i in range(8)))
        code, cap = run([*argv, "--out", out], capsys)
        assert (code, cap.out) == (5, "")
        assert cap.err.startswith("i/o error: ") and cap.err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["decay.csv", "work"]


@pytest.mark.parametrize("flag", ["--config", "--out"])
@pytest.mark.parametrize(
    "argv",
    [["simulate", "--duration-min", 10], ["fit", "decay.csv", "--model", "decay"], ["decompose", 132, 57.1],
     ["calibrate", "--enhanced", 2, "--reference", 1], ["sweep", "tr", "--values", "57.1"]],
    ids=["simulate", "fit", "decompose", "calibrate", "sweep"],
)
def test_empty_config_or_out_exits_3_before_anything_is_read_or_written(
        tmp_path, monkeypatch, capsys, flag, argv):
    """An empty path, as from an unset shell variable, never falls back to the default."""
    monkeypatch.chdir(tmp_path)
    Path("decay.csv").write_text("time_min,value\n" + "".join(f"{float(i)!r},{0.61 * 0.9 ** i!r}\n"
                                                              for i in range(8)))
    code, cap = run([*argv, "--verbose", flag, ""], capsys)
    assert (code, cap.out) == (3, "")
    assert cap.err == f"error: {flag} is empty; give a path or omit the flag\n"
    assert [p.name for p in tmp_path.iterdir()] == ["decay.csv"]


def test_usage_error_on_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, twin, code",
    [(["calibrate", "--enhanced", "-2.77e5", "--reference", "1"],
      ["calibrate", "--enhanced=-2.77e5", "--reference", "1"], 0),
     (["sweep", "pe", "--values", "-0.1,0.5"], ["sweep", "pe", "--values=-0.1,0.5"], 0),
     (["sweep", "pe", "--start", "-1e-1", "--stop", "0.5", "--num", "3"],
      ["sweep", "pe", "--start", "-0.1", "--stop", "0.5", "--num", "3"], 0),
     (["fit", "curve.csv", "--model", "buildup", "--tr-minutes", "-1e1"],
      ["fit", "curve.csv", "--model", "buildup", "--tr-minutes", "-10"], 3),
     (["decompose", "-inf", "57.1"], ["decompose", "--", "-inf", "57.1"], 3)],
    ids=["exponent", "list", "range", "fit", "inf"],
)
def test_negative_value_in_any_notation_is_read_as_a_value(tmp_path, monkeypatch, capsys, argv, twin, code):
    """A negative number that argparse's own pattern would take for an option name
    ends as its `=`-joined or plain-decimal twin does."""
    monkeypatch.chdir(tmp_path)
    want = run(twin, capsys)
    assert want[0] == code
    assert run(argv, capsys) == want


def test_empty_output_dir_exits_3_before_anything_is_written(tmp_path, monkeypatch, capsys):
    """`output_dir =` would be Path(''), the working directory; it is rejected like `--out ""`."""
    monkeypatch.chdir(tmp_path)
    Path("empty.cfg").write_text("[general]\noutput_dir =\n")
    code, cap = run(["decompose", 132, 57.1, "--config", "empty.cfg"], capsys)
    assert (code, cap.out) == (3, "")
    assert cap.err == "error: [general] output_dir is empty; give a path or omit the key\n"
    assert [p.name for p in tmp_path.iterdir()] == ["empty.cfg"]


KINETICS_ROWS = ["pe", "td_minutes", "tr_minutes", "pth", "steady_state_polarization",
                 "final_time_min", "final_polarization", "curve_file"]
CALIBRATE_ROWS = ["enhanced_signal", "reference_signal", "reference_thermal_polarization",
                  "spin_count_ratio", "gain_ratio", "polarization"]
DECOMPOSE_ROWS = ["t1_minutes", "tr_minutes", "te_minutes", "recomposed_tr_minutes"]


@pytest.mark.parametrize(
    "argv, twin, keys",
    [(["calibrate", "--enhanced", 2.77e5, "--reference", 1], "calibrate_report.csv", CALIBRATE_ROWS),
     (["calibrate", "--enhanced", 2.77e5, "--reference", 1, "--verbose", "--seed", 7], "calibrate_report.csv",
      [*CALIBRATE_ROWS, "thermal_polarization_baseline", "enhancement_factor", "seed"]),
     (["decompose", 132, 57.1], "decompose_report.csv", DECOMPOSE_ROWS),
     (["decompose", 132, 57.1, "--reference-te", 96.9], "decompose_report.csv",
      [*DECOMPOSE_ROWS, "reference_te_minutes", "relative_difference", "tolerance_pct", "within_tolerance"]),
     (["simulate", "--duration-min", 150, "--mode", "closed_form"], "buildup_closed_form.summary.csv",
      ["mode", "duration_min", "points", *KINETICS_ROWS]),
     (["simulate", "--duration-min", 150, "--mode", "ode"], "buildup_ode.summary.csv",
      ["mode", "duration_min", "points", *KINETICS_ROWS]),
     (["simulate", "--duration-min", 150, "--mode", "shots"], "buildup_shots.summary.csv",
      ["mode", "duration_min", "points", "repetition_rate_hz", *KINETICS_ROWS]),
     (["fit", "curve.csv", "--model", "buildup", "--tr-minutes", 57.1], "fit_report.csv",
      ["model", "converged", "iterations", "residual_rms", "amplitude", "amplitude_sigma", "rate", "rate_sigma",
       "tr_minutes_input", "td_minutes", "pe"])],
    ids=["calibrate", "calibrate_verbose_seed", "decompose", "decompose_reference", "simulate_closed_form",
         "simulate_ode", "simulate_shots", "fit_buildup_tr"],
)
def test_report_rows_keep_their_keys_and_order(tmp_path, monkeypatch, capsys, argv, twin, keys):
    """Each report's CSV twin lists its keys in a fixed order, the value types' field order among them."""
    monkeypatch.chdir(tmp_path)
    t = np.linspace(0.0, 150.0, 61)
    write_curve("curve.csv", BuildupCurve(t, buildup_closed_form(KineticsParams(0.826, 20.2, 57.1), t)))
    assert run(argv, capsys)[0] == 0
    assert [line.split(",", 1)[0] for line in Path(twin).read_text().splitlines()] == keys
