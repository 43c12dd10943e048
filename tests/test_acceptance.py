"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion."""

import functools
import math
import time

import numpy as np
import pytest

from tripletdnp import (
    BuildupCurve,
    KineticsParams,
    MagneticFieldSetting,
    TripletParameters,
    build_hamiltonian,
    buildup_closed_form,
    buildup_ode,
    decompose_relaxation,
    disentangle_buildup,
    eigensystem,
    electron_polarization,
    fit_buildup,
    hartmann_hahn_b1,
    project_populations,
    proton_larmor,
    read_curve,
    thermal_polarization,
    transition_frequencies,
    write_curve,
)
from tripletdnp.cli import main
from tripletdnp.ise import IseSequenceParams, sweep_transfer_probability

import oracles
from inputs import REFERENCE, random_inputs


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL - {label}")
                raise
            print(f"[criterion {num}] PASS - {label}")

        return wrapper

    return deco


@criterion(1, "buildup reproduction: 0.610 at 150 min, three modes agree, < 1 s")
def test_criterion_1_buildup_reproduction(cfg, tmp_path, capsys):
    start = time.perf_counter()
    values = {}
    for mode in ("closed_form", "ode", "shots"):
        out = tmp_path / f"{mode}.csv"
        code = main(
            [
                "simulate",
                "--config", str(cfg),
                "--duration-min", "150",
                "--mode", mode,
                "--out", str(out),
            ]
        )
        assert code == 0
        values[mode] = read_curve(out).values
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    assert values["closed_form"][-1] == pytest.approx(0.610, abs=1e-3)
    np.testing.assert_allclose(values["ode"], values["closed_form"], atol=1e-3)
    np.testing.assert_allclose(values["shots"], values["closed_form"], atol=1e-3)
    assert elapsed < 1.0, f"three simulate runs took {elapsed:.2f} s"


@criterion(2, "decomposition: 132/57.1 min gives 100.6 min, within 5% of 96.9 min")
def test_criterion_2_te_decomposition(tmp_path, capsys):
    code = main(
        [
            "decompose", "132", "57.1",
            "--reference-te", "96.9",
            "--out", str(tmp_path / "d.txt"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    te = decompose_relaxation(132.0, 57.1).te_minutes
    assert te == pytest.approx(100.6, abs=0.05)
    assert abs(te - 96.9) / 96.9 <= 0.05
    # the report must show the computed value, the reference, and the rationale
    assert "te_minutes: 100.63" in out
    assert "reference_te_minutes: 96.9" in out
    assert "within_tolerance: true" in out
    assert "three significant figures" in out


@criterion(3, "thermal baseline 2.2e-6 within 2% and enhancement ~2.8e5 printed")
def test_criterion_3_thermal_baseline(cfg, tmp_path, capsys):
    pth = thermal_polarization(0.64, 295.0)
    assert pth == pytest.approx(2.2e-6, rel=0.02)

    code = main(
        [
            "calibrate",
            "--config", str(cfg),
            "--enhanced", "2.77e5",
            "--reference", "1.0",
            "--reference-thermal-polarization", "2.2e-6",
            "--verbose",
            "--out", str(tmp_path / "cal.txt"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    enhancement = float(
        [l for l in out.splitlines() if l.startswith("enhancement_factor")][0].split(": ")[1]
    )
    assert enhancement == pytest.approx(0.61 / 2.2e-6, rel=0.02)


@criterion(4, "fit recovery: noiseless 1e-6 relative; noisy 5% in >= 95% of 1000 trials, < 10 s")
def test_criterion_4_fit_recovery(capsys):
    start = time.perf_counter()
    t = np.linspace(0.0, 120.0, 20)

    fit = fit_buildup(BuildupCurve(t, buildup_closed_form(REFERENCE, t)))
    assert fit.converged
    recovered = disentangle_buildup(fit, 57.1)
    assert recovered.td_minutes == pytest.approx(20.2, rel=1e-6)
    assert recovered.pe == pytest.approx(0.826, rel=1e-6)

    rng = np.random.default_rng(20260809)
    amplitude = 0.610150064683053
    hits = 0
    trials = 1000
    for _ in range(trials):
        noisy = buildup_closed_form(REFERENCE, t) + rng.normal(0.0, 0.01 * amplitude, t.size)
        noisy_fit = fit_buildup(BuildupCurve(t, noisy))
        if not noisy_fit.converged:
            continue
        try:
            td = disentangle_buildup(noisy_fit, 57.1).td_minutes
        except Exception:
            continue
        if abs(td - 20.2) / 20.2 < 0.05:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 950, f"only {hits}/1000 trials recovered td within 5%"
    assert elapsed < 10.0, f"fit recovery took {elapsed:.2f} s"


@criterion(5, "spin model: 1000 eigen-reconstructions at 1e-10; analytic zero-field at 1e-12")
def test_criterion_5_spin_model_oracle(capsys):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        params, field = random_inputs(rng)
        h = build_hamiltonian(params, field)
        eig = eigensystem(h)
        rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
        rel = np.linalg.norm(rebuilt - h.matrix) / np.linalg.norm(h.matrix)
        assert rel <= 1e-10

    for _ in range(1000):
        params, _ = random_inputs(rng)
        eig = eigensystem(build_hamiltonian(params, MagneticFieldSetting(0.0)))
        d, e = params.d_mhz, params.e_mhz
        analytic = np.sort([-2 * d / 3, d / 3 - e, d / 3 + e])
        scale = np.max(np.abs(analytic))
        np.testing.assert_allclose(eig.eigenvalues, analytic, rtol=1e-12, atol=1e-12 * scale)


@criterion(6, "matching arithmetic: 17.936 GHz, 0.972 mT, 27.25 MHz")
def test_criterion_6_consistency_checks(capsys):
    zeeman = TripletParameters(0.0, 0.0, (1 / 3, 1 / 3, 1 / 3))
    eig = eigensystem(build_hamiltonian(zeeman, MagneticFieldSetting(0.64)))
    gap_ghz = transition_frequencies(eig)[0] / 1e3
    assert gap_ghz == pytest.approx(0.64 * 28.0249, abs=1e-6)
    assert round(gap_ghz, 3) == 17.936

    b1 = hartmann_hahn_b1(0.64)
    assert b1 == pytest.approx(0.64 * 42.577 / 28.0249, abs=1e-6)
    assert round(b1, 3) == 0.972

    assert proton_larmor(0.64) == pytest.approx(27.25, abs=0.01)


@criterion(7, "swept-passage transfer within 2% of two-level integration on a 100-point grid")
def test_criterion_7_ise_efficiency_oracle(capsys):
    gamma_ang = 2.0 * math.pi * 28.0249e9  # rad/s/T
    width_us = 20.0
    b1_grid_mt = np.geomspace(0.005, 0.05, 10)
    span_grid_mt = np.geomspace(1.0, 100.0, 10)

    b1s, spans = np.meshgrid(b1_grid_mt, span_grid_mt, indexing="ij")
    model = np.empty(b1s.shape)
    for i in range(10):
        for j in range(10):
            seq = IseSequenceParams(
                microwave_frequency_ghz=17.2,
                microwave_width_us=width_us,
                laser_width_us=1.0,
                repetition_rate_hz=1000.0,
                sweep_span_mt=float(spans[i, j]),
                b1_amplitude_mt=float(b1s[i, j]),
                static_field_tesla=0.64,
            )
            model[i, j] = sweep_transfer_probability(seq)
    # the grid must actually span sudden to adiabatic
    assert model.min() < 0.01 and model.max() > 0.99

    omega1 = gamma_ang * b1s * 1e-3
    rate = gamma_ang * spans * 1e-3 / (width_us * 1e-6)
    numeric = oracles.landau_zener_numeric(omega1.ravel(), rate.ravel()).reshape(model.shape)
    worst = float(np.max(np.abs(model - numeric)))
    assert worst <= 0.02, f"worst deviation {worst:.4f} exceeds 2% absolute"


@criterion(8, "randomized property suite, 1000 cases per invariant, fixed seed")
def test_criterion_8_property_suite(tmp_path, capsys):
    rng = np.random.default_rng(8)

    # population conservation and bounded polarization
    for _ in range(1000):
        params, field = random_inputs(rng)
        eig = eigensystem(build_hamiltonian(params, field))
        pops = project_populations(eig, params)
        assert abs(sum(pops.populations) - 1.0) < 1e-10
        assert all(p >= 0.0 for p in pops.populations)
        assert abs(electron_polarization(eig, pops, field)) <= 1.0

    # ODE integration against the exact closed form
    for _ in range(1000):
        kp = KineticsParams(
            pe=rng.uniform(-1.0, 1.0),
            td_minutes=10 ** rng.uniform(0.7, 2.3),
            tr_minutes=10 ** rng.uniform(0.7, 2.3),
        )
        grid = np.linspace(0.0, min(kp.td_minutes, kp.tr_minutes), 6)
        curve = buildup_ode(kp, grid)
        np.testing.assert_allclose(curve.values, buildup_closed_form(kp, grid), atol=1e-9)

    # relaxation decomposition round-trip
    for _ in range(1000):
        tr = 10 ** rng.uniform(0.0, 3.0)
        t1 = tr * rng.uniform(1.001, 1000.0)
        dec = decompose_relaxation(t1, tr)
        recomposed = 1.0 / (1.0 / dec.t1_minutes + 1.0 / dec.te_minutes)
        assert abs(recomposed - tr) <= 1e-12 * tr

    # curve file round-trip is exact
    path = tmp_path / "roundtrip.csv"
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        t = np.cumsum(rng.uniform(0.01, 10.0, size=n))
        v = rng.normal(0.0, 1.0, size=n) * 10.0 ** rng.integers(-6, 6)
        curve = BuildupCurve(t, v)
        write_curve(path, curve)
        back = read_curve(path)
        np.testing.assert_array_equal(back.times_min, curve.times_min)
        np.testing.assert_array_equal(back.values, curve.values)

    # fit scale-consistency: amplitude scales, rate does not
    t_fit = np.linspace(0.0, 150.0, 12)
    for _ in range(1000):
        kp = KineticsParams(
            pe=rng.uniform(0.1, 1.0),
            td_minutes=rng.uniform(5.0, 50.0),
            tr_minutes=rng.uniform(20.0, 200.0),
        )
        y = buildup_closed_form(kp, t_fit) + rng.normal(0.0, 0.002, t_fit.size)
        scale = 10.0 ** rng.uniform(-3.0, 5.0)
        fit1 = fit_buildup(BuildupCurve(t_fit, y))
        fit2 = fit_buildup(BuildupCurve(t_fit, scale * y))
        if not (fit1.converged and fit2.converged):
            continue
        assert fit2.parameters["amplitude"] == pytest.approx(
            scale * fit1.parameters["amplitude"], rel=1e-9
        )
        assert fit2.parameters["rate"] == pytest.approx(fit1.parameters["rate"], rel=1e-9)
