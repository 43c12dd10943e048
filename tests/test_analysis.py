import dataclasses
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from tripletdnp import analysis
from tripletdnp.analysis import MAX_ITERATIONS, FitResult, RelaxationDecomposition, _rate_scan

import oracles
from extremes import BINADES, FLOAT_EXTREMES

REFERENCE = KineticsParams(pe=0.826, td_minutes=20.2, tr_minutes=57.1)
SIGNED_BINADES = st.builds(math.copysign, BINADES, st.sampled_from([1.0, -1.0]))


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
        with pytest.raises(ValidationError, match="decay fit needs at least 4 samples, got 3"):
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
        with pytest.raises(ValidationError, match="buildup fit needs at least 4 samples, got 2"):
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

    @pytest.mark.parametrize("model", ["buildup", "decay"])
    def test_converged_implies_small_gradient(self, model):
        rng = np.random.default_rng(56)
        t = np.linspace(0.0, 150.0, 20)
        for _ in range(20):
            if model == "buildup":
                fit = fit_buildup(buildup_curve(REFERENCE, t, noise=0.005, rng=rng))
            else:
                fit = fit_decay(decay_curve(t, noise=0.005, rng=rng))  # 0.61 exp(-t/57.1) + noise
            if fit.converged:
                scale = max(1.0, fit.residual_norm * t.size)
                assert fit.gradient_norm < 1e-6 * scale

    def test_iteration_cap_stops_the_rate_search(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_ITERATIONS", 0)
        t = np.linspace(0.0, 150.0, 20)
        fit = fit_buildup(buildup_curve(REFERENCE, t, noise=0.003, rng=np.random.default_rng(55)))
        assert not fit.converged
        assert fit.iterations == 0
        assert fit.notes[0] == "rate search did not converge in 0 steps"

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
        with pytest.raises(ValidationError, match="uncertainty for rate must be nonnegative"):
            dataclasses.replace(self._fit(0.3, 0.06701), uncertainties={"amplitude": 0.0, "rate": -1e-3})

    @pytest.mark.parametrize("amplitude, rate, tr", [(0.8, 0.02, 57.1), (-0.8, 0.02, 57.1), (0.5, 1e-309, math.inf)])
    def test_pe_beyond_unit_magnitude_names_the_fit_and_tr(self, amplitude, rate, tr):
        """A tr close to 1/rate derives |pe| > 1; a subnormal rate overflows td, and pe is NaN."""
        td = 1.0 / (rate - 1.0 / tr)
        pe = amplitude * (1.0 + td / tr)
        message = (f"fitted amplitude {amplitude} and rate {rate} per min with tr = {tr} min "
                   f"give pe = {pe}, beyond unit magnitude")
        with pytest.raises(InconsistencyError, match=re.escape(message)):
            disentangle_buildup(self._fit(amplitude, rate), tr)

    @pytest.mark.parametrize("tr", [math.nan, 0.0, -57.1, -math.inf])
    def test_nonpositive_or_nan_tr_rejected(self, tr):
        with pytest.raises(ValidationError, match="tr_minutes must be positive"):
            disentangle_buildup(self._fit(0.610, 0.06701), tr)

    def test_infinite_tr_means_no_relaxation(self):
        params = disentangle_buildup(self._fit(0.610, 0.06701), math.inf)
        assert params.td_minutes == 1.0 / 0.06701
        assert params.pe == 0.610

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

    def test_nan_inputs_rejected(self):
        with pytest.raises(ValidationError, match="t1_minutes") as rejected:
            decompose_relaxation(math.nan, 57.1)
        assert not isinstance(rejected.value, InconsistencyError)
        with pytest.raises(ValidationError):
            decompose_relaxation(132.0, math.nan)
        with pytest.raises(ValidationError, match="positive"):
            RelaxationDecomposition(132.0, 57.1, -100.6)
        with pytest.raises(ValidationError, match="1/tr = 1/t1 \\+ 1/te"):
            RelaxationDecomposition(132.0, 57.1, 57.1)

    def test_overflowing_tr_rate_rejected(self):
        # 1 / 5e-324 is inf, so te would come out as 0
        with pytest.raises(ValidationError, match="1 / tr overflows: tr_minutes 5e-324"):
            decompose_relaxation(1.0, 5e-324)

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

    @pytest.mark.parametrize(
        "args", [(math.nan, 1.0, 2.2e-6), (1.0, math.inf, 2.2e-6), (1.0, 1.0, 2.2e-6, math.nan)]
    )
    def test_non_finite_inputs_rejected(self, args):
        with pytest.raises(ValidationError, match="finite"):
            NmrCalibration(*args)

    @pytest.mark.parametrize("ref_pol", [57.1, -1.0000000000000002, 1e308])
    def test_reference_polarization_above_one_rejected(self, ref_pol):
        with pytest.raises(ValidationError, match=r"\[-1, 1\]"):
            NmrCalibration(1.0, 1.0, reference_thermal_polarization=ref_pol)
        NmrCalibration(1.0, 1.0, reference_thermal_polarization=math.copysign(1.0, ref_pol))

    @pytest.mark.parametrize(
        "enhanced, reference, ref_pol, spins, gain",
        [
            (1e308, 5e-324, 0.0, 1.0, 1.0),
            (1e308, 5e-324, 5e-324, 1e-308, 1e-308),
            (-1e308, 5e-324, 5e-324, 1e-308, 1e-308),
            (5e-324, 1e308, 1.0, 1e300, 1e300),
            (5e-324, -1e308, 1e-300, 1e300, 1e300),
            (1e308, 5e-324, 1.0, 1.0, 1.0),
            (1e308, -5e-324, -0.0, 1.0, 1.0),
            (1e-320, 3.0, 1.0, 1e300, 1e19),
        ],
    )
    def test_partial_product_over_or_underflow(self, enhanced, reference, ref_pol, spins, gain):
        """Left to right, 1e308 / 5e-324 is inf, 5e-324 / 1e308 is 0 and 1e-320 / 3
        is subnormal, keeping 3 of 17 digits; the exact product is finite, and a
        true magnitude above 1 still clamps."""
        exact = Fraction(enhanced) / Fraction(reference) * Fraction(spins) * Fraction(gain) * Fraction(ref_pol)
        want = float(max(min(exact, 1), -1))
        with warnings.catch_warnings(record=True) as clamped:
            warnings.simplefilter("always")
            got = calibrate_polarization(NmrCalibration(enhanced, reference, ref_pol, spins, gain))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert len(clamped) == (abs(exact) > 1)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        enhanced=SIGNED_BINADES, reference=SIGNED_BINADES, spins=BINADES, gain=BINADES,
        ref_pol=SIGNED_BINADES.filter(lambda x: abs(x) <= 1.0),
    )
    @example(enhanced=1e-320, reference=3.0, ref_pol=1.0, spins=1e300, gain=1e19)
    def test_matches_the_exact_product(self, enhanced, reference, ref_pol, spins, gain):
        """Within 1e-15 of the exact product whenever that lies in [1e-300, 1] in
        magnitude, and bit for bit the left-to-right float product whenever every
        partial product of that is normal and the result is in range."""
        exact = oracles.calibration_exact(enhanced, reference, ref_pol, spins, gain)
        assume(Fraction(1, 10**300) <= abs(exact) <= 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a product one ulp above 1 clamps
            got = calibrate_polarization(NmrCalibration(enhanced, reference, ref_pol, spins, gain))
        assert abs(Fraction(got) - exact) <= abs(exact) / 10**15
        partials = [enhanced / reference]
        for factor in (spins, gain, ref_pol):
            partials.append(partials[-1] * factor)
        if all(sys.float_info.min <= abs(q) < math.inf for q in partials) and abs(partials[-1]) <= 1.0:
            assert got == enhanced / reference * spins * gain * ref_pol

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(FLOAT_EXTREMES) | st.floats(), min_size=5, max_size=5))
    def test_construction_validates_or_gives_bounded_fields(self, values):
        """From finite and non-finite extremes, NmrCalibration either raises
        ValidationError or holds finite fields inside the documented bounds,
        and its polarization is finite, within [-1, 1], with the sign of the
        product of the inputs."""
        try:
            cal = NmrCalibration(*values)
        except ValidationError:
            return
        assert all(math.isfinite(v) for v in dataclasses.astuple(cal))
        assert cal.reference_signal != 0.0 and abs(cal.reference_thermal_polarization) <= 1.0
        assert cal.spin_count_ratio > 0.0 and cal.gain_ratio > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = calibrate_polarization(cal)
        assert abs(p) <= 1.0
        if p != 0.0:
            assert math.copysign(1.0, p) == math.prod(math.copysign(1.0, v) for v in values)


def _same(got, want):
    """Equal bit for bit (the sign of zero included), with NaN equal to NaN."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, float):
        if math.isnan(want):
            return math.isnan(got)
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    return type(got) is type(want) and got == want


def _assert_matches_oracle(t, y, model):
    fit = (fit_buildup if model == "buildup" else fit_decay)(BuildupCurve(t, y))
    got = dataclasses.asdict(fit)
    for field, value in oracles.varpro_fit(t, y, model).items():
        assert _same(got[field], value), (field, got[field], value)
    return fit


def _noisy_curve(model, log_rows, log_span, uniform, relative_rate, amplitude, offset, log_noise, seed):
    rng = np.random.default_rng(seed)
    n, span = int(round(10.0**log_rows)), 10.0**log_span
    t = np.linspace(0.0, span, n) if uniform else np.unique(rng.uniform(0.0, span, n))
    rate = relative_rate / span
    if model == "buildup":
        clean = amplitude * -np.expm1(-rate * t)
    else:
        clean = offset + (amplitude - offset) * np.exp(-rate * (t - t[0]))
    return t, clean + abs(amplitude) * 10.0**log_noise * rng.normal(size=t.size)


class TestFitsMatchOracle:
    """fit_buildup and fit_decay return oracles.varpro_fit's result bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from(["buildup", "decay"]),
        log_rows=st.floats(math.log10(4.0), math.log10(5000.0)),
        log_span=st.floats(-3.0, 4.0),
        uniform=st.booleans(),
        relative_rate=st.floats(0.3, 30.0),
        amplitude=st.sampled_from([0.61, -0.3, 2.0]),
        offset=st.sampled_from([0.0, 0.1, -0.1]),
        log_noise=st.floats(-4.0, math.log10(0.2)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noisy_curves(self, model, **curve):
        """Both models, 4-5,000 rows on uniform or random grids over spans of
        1e-3 to 1e4 min, decay offsets 0 and +-0.1, noise 1e-4 to 0.2 of the
        amplitude."""
        _assert_matches_oracle(*_noisy_curve(model, **curve), model)

    @pytest.mark.parametrize("model", ["buildup", "decay"])
    @pytest.mark.parametrize(
        "values",
        [np.full(12, 0.3), np.zeros(12), np.r_[1.0, np.zeros(11)], -np.linspace(0.1, 0.2, 12)],
        ids=["constant", "zero", "step", "line"],
    )
    def test_constant_zero_step_and_line_curves(self, model, values):
        _assert_matches_oracle(np.linspace(0.0, 11.0, 12), values, model)

    @pytest.mark.parametrize("model", ["buildup", "decay"])
    @pytest.mark.parametrize("span", [1e-15, 1e14])
    def test_rank_deficient_jacobian(self, model, span):
        t = np.linspace(0.0, span, 40)
        noise = 0.001 * np.random.default_rng(1).normal(size=t.size)
        shape = np.exp(-3.0 * t / span) if model == "decay" else -np.expm1(-3.0 * t / span)
        fit = _assert_matches_oracle(t, 0.5 * shape + noise, model)
        assert "some parameters are unidentifiable from this curve" in fit.notes
        assert math.inf in fit.uncertainties.values()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        exponent=st.floats(-320.0, 307.0),
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        uniform=st.booleans(),
    )
    def test_rate_scan_is_geomspace(self, exponent, n, seed, uniform):
        span = 10.0**exponent
        if uniform:
            t = np.linspace(0.0, span, n)
        else:
            t = np.unique(np.random.default_rng(seed).uniform(0.0, span, n))
        if t.size < 2 or not np.all(np.diff(t) > 0.0):
            return
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want = np.geomspace(0.01 / (t[-1] - t[0]), 10.0 / float(np.min(np.diff(t))), 31)
            got = _rate_scan(t)
        assert np.array_equal(got, want, equal_nan=True)
