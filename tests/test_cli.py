import numpy as np
import pytest

from tripletdnp import read_curve
from tripletdnp.cli import main

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
        "section", ["[field]\nfield_tesla = nan\n", "[triplet]\nd_mhz = nan\n"]
    )
    def test_non_finite_config_value_rejected(self, tmp_path, capsys, section):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(section)
        out = tmp_path / "nan.csv"
        code, cap = run(["simulate", "--config", cfg, "--duration-min", 30, "--out", out], capsys)
        assert code == 3
        assert "finite" in cap.err
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

    def test_missing_file_io_error(self, tmp_path, capsys):
        code, cap = run(["fit", tmp_path / "nope.csv", "--model", "decay"], capsys)
        assert code == 5


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

    def test_missing_values_rejected(self, cfg, capsys):
        code, cap = run(["sweep", "tr", "--config", cfg], capsys)
        assert code == 3


def test_usage_error_on_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
