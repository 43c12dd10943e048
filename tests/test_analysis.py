import math

import numpy as np
import pytest

from tripletdnp import (
    BuildupCurve,
    InconsistencyError,
    KineticsParams,
    NmrCalibration,
    ValidationError,
    buildup_closed_form,
    calibrate_polarization,
    decompose_relaxation,
    disentangle_buildup,
    fit_buildup,
    fit_decay,
    relaxation_decay,
)
from tripletdnp.analysis import MAX_ITERATIONS, FitResult

REFERENCE = KineticsParams(pe=0.826, td_minutes=20.2, tr_minutes=57.1)


def decay_curve(t, p0=0.61, tau=57.1, offset=0.0, noise=None, rng=None):
    y = relaxation_decay(p0, tau, t, pth=offset)
    if noise is not None:
        y = y + rng.normal(0.0, noise, size=t.size)
    return BuildupCurve(t, y)


def buildup_curve(params, t, noise=None, rng=None):
    y = buildup_closed_form(params, t)
    if noise is not None:
        y = y + rng.normal(0.0, noise, size=t.size)
    return BuildupCurve(t, y)


class TestFitDecay:
    def test_noiseless_recovery(self):
        t = np.linspace(0.0, 200.0, 10)
        fit = fit_decay(decay_curve(t))
        assert fit.converged
        assert fit.parameters["p0"] == pytest.approx(0.61, rel=1e-6)
        assert fit.parameters["t_const"] == pytest.approx(57.1, rel=1e-6)
        assert fit.parameters["offset"] == pytest.approx(0.0, abs=1e-8)
        assert fit.residual_norm < 1e-10

    def test_noiseless_recovery_with_offset(self):
        t = np.linspace(0.0, 400.0, 16)
        fit = fit_decay(decay_curve(t, p0=0.5, tau=80.0, offset=0.07))
        assert fit.converged
        assert fit.parameters["t_const"] == pytest.approx(80.0, rel=1e-6)
        assert fit.parameters["offset"] == pytest.approx(0.07, rel=1e-6)

    def test_monte_carlo_recovery_rate(self):
        # 1% noise, 20 points: t_const within 5% in at least 95% of trials
        rng = np.random.default_rng(1234)
        t = np.linspace(0.0, 250.0, 20)
        hits = 0
        for _ in range(1000):
            fit = fit_decay(decay_curve(t, noise=0.0061, rng=rng))
            if fit.converged and abs(fit.parameters["t_const"] - 57.1) / 57.1 < 0.05:
                hits += 1
        assert hits >= 950

    def test_near_zero_offset_converges(self):
        # noise with its projection onto the Jacobian columns at the truth
        # removed, so the least-squares optimum is the truth with offset 0
        t = np.linspace(0.0, 300.0, 40)
        p0, tau = 0.61, 57.1
        e = np.exp(-t / tau)
        q, _ = np.linalg.qr(np.column_stack([e, p0 * t / tau**2 * e, 1.0 - e]))
        for seed in range(200):
            noise = np.random.default_rng(seed).normal(0.0, 0.005, t.size)
            fit = fit_decay(BuildupCurve(t, p0 * e + noise - q @ (q.T @ noise)))
            assert fit.converged, (seed, fit.notes)
            assert fit.iterations < MAX_ITERATIONS
            assert fit.parameters["p0"] == pytest.approx(p0, rel=1e-10)
            assert fit.parameters["t_const"] == pytest.approx(tau, rel=1e-10)
            assert fit.parameters["offset"] == pytest.approx(0.0, abs=1e-10)

    def test_straight_line_names_why_it_did_not_converge(self):
        # a rising line is best matched by an ever slower decay: no interior optimum
        t = np.linspace(0.0, 100.0, 20)
        fit = fit_decay(BuildupCurve(t, 0.1 + 0.002 * t))
        assert not fit.converged
        assert any("edge of the scanned rates" in n for n in fit.notes)

    def test_constant_curve_does_not_converge(self):
        t = np.linspace(0.0, 100.0, 8)
        fit = fit_decay(BuildupCurve(t, np.full(8, 0.3)))
        assert not fit.converged
        assert any("degenerate" in n for n in fit.notes)

    def test_sample_count_precondition(self):
        with pytest.raises(ValidationError):
            fit_decay(BuildupCurve(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.3])))

    def test_raw_signal_kind_accepted(self):
        from tripletdnp import ValueKind

        t = np.linspace(0.0, 200.0, 12)
        y = 1e5 * relaxation_decay(1.0, 57.1, t)
        fit = fit_decay(BuildupCurve(t, y, ValueKind.RAW_SIGNAL))
        assert fit.converged
        assert fit.parameters["t_const"] == pytest.approx(57.1, rel=1e-6)


class TestFitBuildup:
    def test_noiseless_reference_recovery(self):
        t = np.linspace(0.0, 150.0, 20)
        fit = fit_buildup(buildup_curve(REFERENCE, t))
        assert fit.converged
        assert fit.parameters["amplitude"] == pytest.approx(0.610150064683053, rel=1e-6)
        assert fit.parameters["rate"] == pytest.approx(0.06701808534618786, rel=1e-6)
        assert any("identifiable" in n for n in fit.notes)

    def test_zero_amplitude_flags_rate(self):
        t = np.linspace(0.0, 100.0, 10)
        fit = fit_buildup(BuildupCurve(t, np.zeros(10)))
        assert fit.converged
        assert fit.parameters["amplitude"] == 0.0
        assert math.isinf(fit.uncertainties["rate"])
        assert any("unidentifiable" in n for n in fit.notes)

    def test_two_point_curve_rejected(self):
        with pytest.raises(ValidationError):
            fit_buildup(BuildupCurve(np.array([0.0, 1.0]), np.array([0.0, 0.5])))

    def test_scale_consistency(self):
        rng = np.random.default_rng(55)
        t = np.linspace(0.0, 150.0, 20)
        curve = buildup_curve(REFERENCE, t, noise=0.003, rng=rng)
        fit1 = fit_buildup(curve)
        c = 2.77e5
        fit2 = fit_buildup(BuildupCurve(t, c * curve.values))
        assert fit2.parameters["amplitude"] == pytest.approx(
            c * fit1.parameters["amplitude"], rel=1e-9
        )
        assert fit2.parameters["rate"] == pytest.approx(fit1.parameters["rate"], rel=1e-9)

    def test_converged_implies_small_gradient(self):
        rng = np.random.default_rng(56)
        t = np.linspace(0.0, 150.0, 20)
        for _ in range(20):
            fit = fit_buildup(buildup_curve(REFERENCE, t, noise=0.005, rng=rng))
            if fit.converged:
                scale = max(1.0, fit.residual_norm * t.size)
                assert fit.gradient_norm < 1e-6 * scale

    def test_uncertainties_shrink_with_replication(self):
        # 4-fold replicated data should roughly halve the rate uncertainty
        rng = np.random.default_rng(57)
        t = np.linspace(0.0, 150.0, 20)
        ratios = []
        for _ in range(1000):
            single = buildup_curve(REFERENCE, t, noise=0.006, rng=rng)
            sigma1 = fit_buildup(single).uncertainties["rate"]
            # fresh noise per replicate, times nudged apart to stay increasing
            reps_t = np.sort(np.concatenate([t + k * 1e-9 for k in range(4)]))
            reps_y = buildup_closed_form(REFERENCE, reps_t) + rng.normal(0.0, 0.006, reps_t.size)
            sigma4 = fit_buildup(BuildupCurve(reps_t, reps_y)).uncertainties["rate"]
            ratios.append(sigma4 / sigma1)
        mean_ratio = float(np.mean(ratios))
        assert 0.5 / 1.5 < mean_ratio < 0.5 * 1.5


class TestDisentangleBuildup:
    def _fit(self, amplitude, rate):
        return FitResult(
            parameters={"amplitude": amplitude, "rate": rate},
            uncertainties={"amplitude": 0.0, "rate": 0.0},
            residual_norm=0.0,
            converged=True,
            iterations=1,
        )

    def test_reference_values(self):
        params = disentangle_buildup(self._fit(0.610, 0.06701), 57.1)
        assert params.td_minutes == pytest.approx(20.20329968357599, rel=1e-12)
        assert params.pe == pytest.approx(0.8258320981958206, rel=1e-12)
        assert round(params.td_minutes, 1) == 20.2
        assert round(params.pe, 3) == 0.826

    def test_rate_twice_relaxation(self):
        params = disentangle_buildup(self._fit(0.3, 2.0 / 57.1), 57.1)
        assert params.td_minutes == pytest.approx(57.1, rel=1e-12)
        assert params.pe == pytest.approx(0.6, rel=1e-12)

    def test_rate_at_boundary_rejected(self):
        with pytest.raises(InconsistencyError, match="rate"):
            disentangle_buildup(self._fit(0.3, 1.0 / 57.1), 57.1)

    def test_fit_roundtrip_recovers_inputs(self):
        rng = np.random.default_rng(60)
        t = np.linspace(0.0, 120.0, 25)
        for _ in range(50):
            truth = KineticsParams(
                pe=rng.uniform(0.05, 1.0),
                td_minutes=rng.uniform(5.0, 60.0),
                tr_minutes=rng.uniform(20.0, 200.0),
            )
            fit = fit_buildup(buildup_curve(truth, t))
            assert fit.converged
            params = disentangle_buildup(fit, truth.tr_minutes)
            assert params.td_minutes == pytest.approx(truth.td_minutes, rel=1e-6)
            assert params.pe == pytest.approx(truth.pe, rel=1e-6)


class TestDecomposeRelaxation:
    def test_reference_values(self):
        dec = decompose_relaxation(132.0, 57.1)
        assert dec.te_minutes == pytest.approx(100.63017356475301, rel=1e-12)
        assert round(dec.te_minutes, 1) == 100.6

    def test_infinite_t1_limit(self):
        dec = decompose_relaxation(1e9, 57.1)
        assert dec.te_minutes == pytest.approx(57.1, rel=1e-6)

    def test_equal_times_rejected(self):
        with pytest.raises(InconsistencyError, match="exceed"):
            decompose_relaxation(57.1, 57.1)
        with pytest.raises(InconsistencyError):
            decompose_relaxation(40.0, 57.1)

    def test_roundtrip(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            tr = 10 ** rng.uniform(0, 3)
            t1 = tr * rng.uniform(1.0001, 100.0)
            dec = decompose_relaxation(t1, tr)
            recomposed = 1.0 / (1.0 / dec.t1_minutes + 1.0 / dec.te_minutes)
            assert recomposed == pytest.approx(tr, rel=1e-12)


class TestCalibratePolarization:
    def test_identity_ratios(self):
        cal = NmrCalibration(3.3, 3.3, reference_thermal_polarization=2.2e-6)
        assert calibrate_polarization(cal) == pytest.approx(2.2e-6, rel=1e-15)

    def test_reference_enhancement(self):
        cal = NmrCalibration(2.77e5, 1.0, reference_thermal_polarization=2.2e-6)
        assert calibrate_polarization(cal) == pytest.approx(0.6094, rel=1e-12)

    def test_negative_signal_passes_through(self):
        cal = NmrCalibration(-2.0e5, 1.0, reference_thermal_polarization=2.2e-6)
        assert calibrate_polarization(cal) == pytest.approx(-0.44, rel=1e-12)

    def test_overrange_clamped_with_warning(self):
        cal = NmrCalibration(1.0e6, 1.0, reference_thermal_polarization=2.2e-6)
        with pytest.warns(UserWarning, match="clamp"):
            assert calibrate_polarization(cal) == 1.0

    def test_invariants(self):
        with pytest.raises(ValidationError):
            NmrCalibration(1.0, 0.0, reference_thermal_polarization=2.2e-6)
        with pytest.raises(ValidationError):
            NmrCalibration(1.0, 1.0, reference_thermal_polarization=2.2e-6, spin_count_ratio=0.0)
