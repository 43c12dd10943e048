import dataclasses
import math
import sys
import time
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tripletdnp import (
    IseSequenceParams,
    KineticsParams,
    ValidationError,
    buildup_closed_form,
    epsilon_for_buildup_time,
    hartmann_hahn_b1,
    iterate_shots,
    proton_larmor,
    sweep_transfer_probability,
)
from tripletdnp.constants import GAMMA_E_MHZ_PER_T, GAMMA_H_MHZ_PER_T

import oracles
from extremes import BINADES
from oracles import shot_map

GAMMA_E_ANG = 2.0 * math.pi * 28.0249e9  # rad/s/T

TINY = [5e-324, 2.2250738585072014e-308, 1e-300]
HUGE = [1e300, 1e308, 1.7976931348623157e308]


def extremes(*values):
    return st.sampled_from([v for x in values for v in (x, -x)])


UNIT = st.floats(-1.0, 1.0) | extremes(0.0, 1.0, *TINY, *HUGE)
IN_UNIT = st.floats(-1.0, 1.0) | extremes(0.0, 1.0, *TINY)
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False) | st.sampled_from(TINY + HUGE)


def shot_kinetics(epsilon, period, pe, tr_minutes, pth=0.0):
    """KineticsParams whose td is period / epsilon, and the epsilon that iterate_shots
    derives from that td at this period, which the shot_map oracle then takes exactly."""
    td = period / (60.0 * epsilon) if epsilon else math.inf
    return KineticsParams(pe, td, tr_minutes, pth), epsilon_for_buildup_time(td, period)


def sequence(b1_mt=0.972, span_mt=3.0, width_us=20.0, rep_hz=1000.0):
    return IseSequenceParams(
        microwave_frequency_ghz=17.2,
        microwave_width_us=width_us,
        laser_width_us=1.0,
        repetition_rate_hz=rep_hz,
        sweep_span_mt=span_mt,
        b1_amplitude_mt=b1_mt,
        static_field_tesla=0.64,
    )


class TestSequenceParams:
    def test_reference_sequence_is_valid(self):
        seq = sequence()
        assert seq.shot_period_s == pytest.approx(1e-3)

    def test_microwave_window_must_fit_in_period(self):
        with pytest.raises(ValidationError, match="shot period"):
            sequence(width_us=1500.0)

    def test_laser_must_precede_microwave(self):
        with pytest.raises(ValidationError, match="laser"):
            IseSequenceParams(17.2, 20.0, 5.0, 1000.0, 3.0, 0.972, 0.64, microwave_delay_us=2.0)

    def test_positive_fields_enforced(self):
        with pytest.raises(ValidationError, match="b1_amplitude_mt"):
            sequence(b1_mt=-1.0)
        with pytest.raises(ValidationError, match="sweep_span_mt"):
            sequence(span_mt=-1.0)


    @pytest.mark.parametrize(
        "kwargs",
        [{"b1_mt": math.nan}, {"span_mt": math.nan}, {"span_mt": math.inf}, {"rep_hz": math.inf}],
    )
    def test_non_finite_fields_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="finite"):
            sequence(**kwargs)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(IseSequenceParams)])
    def test_each_field_checked_by_name(self, name):
        """Every field but sweep_span_mt must be finite and positive; a zero span is the adiabatic limit."""
        if name == "sweep_span_mt":
            assert dataclasses.replace(sequence(), sweep_span_mt=0.0).sweep_span_mt == 0.0
            return
        for value in (0.0, math.nan):
            with pytest.raises(ValidationError, match=rf"^{name} must be finite and positive, got {value}$"):
                dataclasses.replace(sequence(), **{name: value})

    def test_shot_period_must_be_finite(self):
        """1 / 5e-324 overflows, so such a rate has no shot period."""
        with pytest.raises(ValidationError, match="finite shot period"):
            sequence(rep_hz=5e-324)
        assert sequence(rep_hz=1e-308).shot_period_s == pytest.approx(1e308)

    def test_shot_model_rejects_non_finite_period(self):
        params = KineticsParams(0.826, 20.2, 57.1)
        with pytest.raises(ValidationError, match="shot_period_s must be positive, got nan"):
            iterate_shots(params, math.nan, 0.0, 1)
        with pytest.raises(ValidationError, match="shorter than one shot period"):
            iterate_shots(params, math.inf, 0.0, 1)


class TestMatchingConditions:
    def test_hartmann_hahn_at_064t(self):
        # oracle: 0.64 * 42.577 / 28024.9 * 1000 mT
        assert hartmann_hahn_b1(0.64) == pytest.approx(0.9723238976767089, abs=1e-12)
        assert round(hartmann_hahn_b1(0.64), 3) == 0.972

    def test_zero_field_rejected(self):
        with pytest.raises(ValidationError):
            hartmann_hahn_b1(0.0)
        with pytest.raises(ValidationError):
            proton_larmor(-0.1)

    def test_subnormal_field_whose_b1_underflows_rejected(self):
        with pytest.raises(ValidationError, match=r"static field 5e-324 T is too small"):
            hartmann_hahn_b1(5e-324)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats(min_value=1e-300, max_value=1e3))
    def test_b1_is_the_larmor_ratio_bit_for_bit(self, field):
        assert hartmann_hahn_b1(field) == field * GAMMA_H_MHZ_PER_T / GAMMA_E_MHZ_PER_T * 1e3

    def test_linearity_in_field(self):
        assert hartmann_hahn_b1(1.28) == pytest.approx(1.9446477953534178, abs=1e-12)
        for b0 in (0.3, 0.64, 1.1):
            assert hartmann_hahn_b1(2 * b0) == pytest.approx(2 * hartmann_hahn_b1(b0), rel=1e-12)
            assert proton_larmor(2 * b0) == pytest.approx(2 * proton_larmor(b0), rel=1e-12)

    def test_proton_larmor_values(self):
        assert proton_larmor(0.64) == pytest.approx(27.24928, abs=1e-9)
        assert proton_larmor(1.0) == pytest.approx(42.577, abs=1e-12)
        assert proton_larmor(0.3) == pytest.approx(12.7731, abs=1e-9)


@st.composite
def moderate_passages(draw):
    """(b1, span, width): b1 and span from 1e-300 to 1e300, and the width that
    puts the exact Landau-Zener exponent at a drawn value in [1e-300, 40]."""
    exponent = draw(st.floats(1e-3, 40.0) | BINADES.filter(lambda x: 1e-300 <= x < 1e-3))
    kx = math.frexp(exponent)[1]
    k1 = draw(st.integers(max(-997, (kx - 2002) // 2), min(997, (kx + 2046) // 2)))
    ks = draw(st.integers(max(-997, 2 * k1 - kx - 1049), min(997, 2 * k1 - kx + 1006)))  # keeps the width a float
    b1, span = (math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), k) for k in (k1, ks))
    return b1, span, float(Fraction(exponent) / oracles.landau_zener_exponent_exact(b1, span, 1.0))


def passage(b1_mt, span_mt, width_us):
    """A valid sequence for any finite positive width: the period leaves room for the window."""
    return sequence(b1_mt=b1_mt, span_mt=span_mt, width_us=width_us, rep_hz=1e5 / (2.0 + width_us))


class TestSweepTransferProbability:
    def test_vanishing_drive_gives_no_transfer(self):
        assert sweep_transfer_probability(sequence(b1_mt=1e-9)) == pytest.approx(0.0, abs=1e-12)

    def test_sudden_limit_gives_no_transfer(self):
        # sweep rate -> infinity via a vanishing microwave width
        assert sweep_transfer_probability(sequence(b1_mt=1e-4, width_us=1e-9)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_zero_sweep_rate_is_adiabatic_limit(self):
        assert sweep_transfer_probability(sequence(span_mt=0.0)) == 1.0

    def test_reference_inputs_are_deeply_adiabatic(self):
        # Landau-Zener exponent pi w1^2 / (2 |dDelta/dt|) ~ 1742 for
        # B1 = 0.972 mT swept 3 mT in 20 us, so the formula saturates at 1.
        p = sweep_transfer_probability(sequence())
        assert p == pytest.approx(1.0, abs=1e-12)
        # cross-check the saturation against direct numerical propagation at
        # the strongest numerically tractable adiabaticity; monotonicity in
        # b1 (tested below) carries the check up to the reference settings
        omega1 = math.sqrt(12.0 * 2.0 / math.pi * GAMMA_E_ANG * 150.0)  # exponent 12
        numeric = oracles.landau_zener_numeric(omega1, GAMMA_E_ANG * 150.0)
        assert numeric == pytest.approx(1.0, abs=0.02)

    def test_matches_numerical_two_level_integration(self):
        # moderate adiabaticity, where the value is far from both 0 and 1
        for b1_mt, span_mt in ((0.008, 3.0), (0.02, 3.0), (0.02, 1.5)):
            p = sweep_transfer_probability(sequence(b1_mt=b1_mt, span_mt=span_mt))
            omega1 = GAMMA_E_ANG * b1_mt * 1e-3
            rate = GAMMA_E_ANG * span_mt * 1e-3 / 20e-6
            numeric = oracles.landau_zener_numeric(omega1, rate)
            assert 0.01 < p < 0.99
            assert p == pytest.approx(numeric, abs=0.02)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(b1=BINADES, span=st.just(0.0) | BINADES, width=BINADES)
    @example(b1=1.0, span=3.0, width=1e-320)  # width * 1e-6 underflows to 0
    def test_a_probability_for_any_valid_inputs(self, b1, span, width):
        assert 0.0 <= sweep_transfer_probability(passage(b1, span, width)) <= 1.0

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(moderate_passages())
    def test_matches_the_exact_probability(self, inputs):
        """Within 1e-12 of the exact 1 - exp(-x) wherever the exact exponent x lies
        in [1e-300, 40], though w1^2 or the sweep rate may over- or underflow; and bit
        for bit -expm1(-pi w1^2 / (2 rate)) whenever every intermediate of that is normal."""
        exponent = oracles.landau_zener_exponent_exact(*inputs)
        assume(Fraction(1e-300) <= exponent <= 40)
        exact = oracles.one_minus_exp_exact(exponent)
        got = sweep_transfer_probability(passage(*inputs))
        assert abs(got - exact) <= 1e-12 * exact
        with np.errstate(all="ignore"):  # the plain formula may over- or underflow, or divide by 0
            b1, span, width = map(np.float64, inputs)
            gamma_ang = 2.0 * math.pi * GAMMA_E_MHZ_PER_T * 1e6
            omega1 = gamma_ang * b1 * 1e-3
            sweep_rate = gamma_ang * span * 1e-3 / (width * 1e-6)
            plain = -math.pi * omega1 * omega1 / (2.0 * sweep_rate)
            intermediates = (gamma_ang * b1, omega1, gamma_ang * span, gamma_ang * span * 1e-3, width * 1e-6,
                             sweep_rate, -math.pi * omega1, -math.pi * omega1 * omega1, 2.0 * sweep_rate, plain)
        if all(sys.float_info.min <= abs(q) < math.inf for q in intermediates):
            assert got == -math.expm1(plain)

    def test_monotone_in_b1_and_sweep_rate(self):
        b1s = np.geomspace(1e-4, 0.1, 30)
        ps = [sweep_transfer_probability(sequence(b1_mt=b)) for b in b1s]
        assert all(b <= a for a, b in zip(ps[1:], ps))
        spans = np.geomspace(0.5, 50.0, 30)  # larger span = faster sweep
        ps = [sweep_transfer_probability(sequence(b1_mt=0.003, span_mt=s)) for s in spans]
        assert all(a >= b for a, b in zip(ps, ps[1:]))


class TestEffectiveBuildupTime:
    def test_reference_scale(self):
        # 1e-3 s / 8.25e-7 = 1212.12 s = 20.202 min, the per-shot gain
        # implied by a 20.2 min buildup at 1 kHz
        td = 1e-3 / 8.25e-7 / 60.0
        assert td == pytest.approx(20.2020202020202, rel=1e-12)
        assert round(td, 1) == 20.2
        eps = epsilon_for_buildup_time(td, 1e-3)
        assert eps == pytest.approx(8.25e-7, rel=1e-15)
        # without relaxation one shot from 0 gains epsilon pe
        assert iterate_shots(KineticsParams(0.826, td, math.inf), 1e-3, 0.0, 1) == pytest.approx(eps * 0.826, rel=1e-12)

    def test_unit_epsilon(self):
        assert epsilon_for_buildup_time(1.0 / 60.0, 1.0) == 1.0
        # epsilon = 1 and no relaxation: one shot lands on pe
        assert iterate_shots(KineticsParams(0.8, 1.0 / 60.0, math.inf), 1.0, 0.3, 1) == 0.8

    def test_zero_epsilon_returns_infinite_sentinel(self):
        assert epsilon_for_buildup_time(math.inf, 1e-3) == 0.0
        # an infinite td only relaxes: pe drops out and p approaches pth
        params = KineticsParams(0.9, math.inf, 10.0, pth=0.1)
        assert iterate_shots(params, 0.06, 0.4, 1) == pytest.approx(0.4 - (0.001 / 10.0) * (0.4 - 0.1), rel=1e-12)
        assert iterate_shots(params, 0.06, 0.4, math.inf) == pytest.approx(0.1, rel=1e-15)

    def test_inverse_mapping_roundtrip(self):
        eps = epsilon_for_buildup_time(20.2, 1e-3)
        back = 1e-3 / eps / 60.0
        assert back == pytest.approx(20.2, rel=1e-15)
        with pytest.raises(ValidationError):
            epsilon_for_buildup_time(1e-9, 1.0)  # would need epsilon > 1
        with pytest.raises(ValidationError, match="td_minutes must be positive"):
            epsilon_for_buildup_time(0.0, 1e-3)
        with pytest.raises(ValidationError, match="shot_period_s must be positive"):
            epsilon_for_buildup_time(20.2, -1e-3)


class TestShotMap:
    def test_fixed_point(self):
        assert shot_map(0.5, 1e-4, 1e-3, pe=0.5, tr_minutes=57.1, pth=0.5) == pytest.approx(0.5, abs=1e-15)
        params, _ = shot_kinetics(1e-4, 1e-3, 0.5, 57.1, pth=0.5)
        assert iterate_shots(params, 1e-3, 0.5, 1000) == pytest.approx(0.5, abs=1e-15)

    def test_pure_decay_step_when_epsilon_zero(self):
        p = shot_map(0.4, 0.0, 0.06, pe=0.9, tr_minutes=10.0, pth=0.1)  # 1e-3 min
        assert p == pytest.approx(0.4 - (0.001 / 10.0) * (0.4 - 0.1), rel=1e-12)
        params, _ = shot_kinetics(0.0, 0.06, 0.9, 10.0, pth=0.1)
        assert iterate_shots(params, 0.06, 0.4, 1) == pytest.approx(p, rel=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            shot_map(1.5, 0.1, 1e-3, pe=0.5, tr_minutes=10.0)
        with pytest.raises(ValidationError):
            shot_map(0.5, 0.1, 1e-3, pe=1.5, tr_minutes=10.0)
        with pytest.raises(ValidationError):
            shot_map(0.5, 0.1, 1e-3, pe=0.5, tr_minutes=-1.0)
        with pytest.raises(ValidationError, match=r"\|polarization\| <= 1 required, got 1.5"):
            iterate_shots(KineticsParams(0.5, 0.01, 10.0), 1e-3, 1.5, 1)

    def test_nan_inputs_rejected_not_clamped(self):
        params, _ = shot_kinetics(1e-3, 1e-3, 0.8, 57.1)
        with pytest.raises(ValidationError):
            shot_kinetics(1e-3, 1e-3, math.nan, 57.1)
        with pytest.raises(ValidationError):
            shot_kinetics(1e-3, 1e-3, 0.8, math.nan)
        with pytest.raises(ValidationError):
            iterate_shots(params, 1e-3, math.nan, 1000)
        with pytest.raises(ValidationError, match="n_shots must be >= 0, got nan"):
            iterate_shots(params, 1e-3, 0.0, math.nan)

    def test_infinite_count_gives_the_fixed_point(self):
        params, eps = shot_kinetics(1e-3, 1e-3, 0.8, 57.1, pth=0.05)
        delta = 1e-3 / (60.0 * 57.1)
        fixed_point = (eps * 0.8 + delta * 0.05) / (eps + delta)
        assert iterate_shots(params, 1e-3, -0.5, math.inf) == pytest.approx(fixed_point, rel=1e-15)

    def test_iterate_matches_explicit_stepping(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            epsilon, period = 10 ** rng.uniform(-5, -1), 10 ** rng.uniform(-3, 0)
            pe = rng.uniform(-1, 1)
            pth = rng.uniform(-0.01, 0.01)
            tr = rng.uniform(1.0, 100.0)
            p0 = rng.uniform(-1, 1)
            n = int(rng.integers(1, 2000))
            params, eps = shot_kinetics(epsilon, period, pe, tr, pth)
            p_loop = p0
            for _ in range(n):
                p_loop = shot_map(p_loop, eps, period, pe, tr, pth)
            assert iterate_shots(params, period, p0, n) == pytest.approx(p_loop, abs=1e-12)

    @pytest.mark.parametrize("pth", [0.0, 0.05])
    @pytest.mark.parametrize("duration_min, points", [(150.0, 201), (1440.0, 2001), (0.5, 11)])
    def test_shot_curve_matches_exact_composition(self, duration_min, points, pth):
        """n shots at the reference kinetics, from the start of each grid point, agree with
        the exact composition of the same float epsilon and dt/tr, not only of the rounded
        factor 1 - s; raising that factor to n ~ 1e7 shots loses up to 6e-12."""
        period = 1e-3
        params = KineticsParams(0.826, 20.2, 57.1, pth)
        eps = epsilon_for_buildup_time(20.2, period)
        delta = period / (60.0 * 57.1)
        counts = np.rint(np.linspace(0.0, duration_min, points) * 60.0 / period).tolist()
        errors = [
            iterate_shots(params, period, pth, n) - oracles.shots_exact(pth, eps, delta, 0.826, pth, n)
            for n in counts
        ]
        assert max(map(abs, errors)) <= 2.5e-16

    def test_150min_of_1khz_shots_matches_closed_form(self):
        params = KineticsParams(0.826, 20.2, 57.1)
        p = iterate_shots(params, 1e-3, 0.0, 150 * 60 * 1000)
        target = buildup_closed_form(params, 150.0)
        assert abs(p - target) < 1e-3 * 0.826  # 0.1% of pe

    def test_discretization_error_shrinks_with_shot_period(self):
        # scaling epsilon and the period together approaches the rate equation
        params = KineticsParams(0.826, 20.2, 57.1)
        target = buildup_closed_form(params, 150.0)
        devs = []
        for rate_hz in (100.0, 1000.0, 10000.0):
            p = iterate_shots(params, 1.0 / rate_hz, 0.0, int(150 * 60 * rate_hz))
            devs.append(abs(p - target))
        assert devs[0] < 1e-3 * 0.826
        assert devs[2] < devs[0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        p0=IN_UNIT,
        epsilon=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, *TINY]),
        relaxation_share=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, *TINY]),
        period=st.floats(1e-6, 1e3),
        pe=IN_UNIT,
        pth=IN_UNIT,
        n_shots=st.integers(0, 300),
    )
    def test_iterate_matches_stepping(self, p0, epsilon, relaxation_share, period, pe, pth, n_shots):
        """Wherever epsilon + dt/tr <= 1, the closed form is n steps of shot_map."""
        delta = relaxation_share * (1.0 - epsilon)
        tr = period / (60.0 * delta) if delta > 0.0 else math.inf
        try:
            params, eps = shot_kinetics(epsilon, period, pe, tr, pth)
        except ValidationError:  # td overflows where tr is infinite too, or epsilon rounds past 1
            assume(False)
        assume(eps + period / (60.0 * tr) <= 1.0)
        p_loop = p0
        for _ in range(n_shots):
            p_loop = shot_map(p_loop, eps, period, pe, tr, pth)
        assert iterate_shots(params, period, p0, n_shots) == pytest.approx(p_loop, rel=0.0, abs=1e-12)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        epsilon=st.floats(0.0, 1.0) | st.sampled_from(TINY),
        delta=st.floats(0.0, 1.0) | st.sampled_from(TINY),
        pe=IN_UNIT,
        pth=IN_UNIT,
    )
    def test_no_admissible_shot_leaves_the_closed_form(self, epsilon, delta, pe, pth):
        """For 0 < s = epsilon + dt/tr <= 1 the factor a = 1 - s lies in [0, 1] and the
        fixed point in [-1, 1] after rounding too, so n shots stay a convex combination of
        p0 and the fixed point and need no loop; iterate_shots still clamps its result,
        since exp and expm1 of n log1p(-s) are rounded separately."""
        s = epsilon + delta
        assume(0.0 < s <= 1.0)
        assert 0.0 <= 1.0 - s <= 1.0
        assert abs((epsilon * pe + delta * pth) / s) <= 1.0

    def test_outputs_stay_bounded(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            epsilon, period = rng.uniform(0, 1), 10 ** rng.uniform(-3, 2)
            pe, pth = rng.uniform(-1, 1, size=2)
            tr = 10 ** rng.uniform(-3, 3)
            p = rng.uniform(-1, 1)
            for _ in range(200):
                p = shot_map(p, epsilon, period, pe, tr, pth)
                assert -1.0 <= p <= 1.0

    @pytest.mark.parametrize("n_shots", [0, 1, 1_000_001])
    def test_overshooting_shots_rejected(self, n_shots):
        params = KineticsParams(0.826, 2e-5, 1e-5)  # epsilon = 0.833 and dt/tr = 1.667 at 1 kHz
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"^td 2e-05 min and tr 1e-05 min at 1000 Hz: .*"
                           r"epsilon \+ dt/tr = 2.5 exceeds 1"):
            iterate_shots(params, 1e-3, 0.0, n_shots)
        assert time.perf_counter() - start < 0.1

    def test_unit_shot_factor_lands_on_the_fixed_point(self):
        # epsilon = dt/tr = 0.5: s = 1 is the largest admissible value, and a = 0
        params = KineticsParams(0.8, 2.0, 2.0, pth=0.1)
        assert epsilon_for_buildup_time(2.0, 60.0) == 0.5
        assert iterate_shots(params, 60.0, 0.3, 1) == 0.45
        assert shot_map(0.3, 0.5, 60.0, 0.8, 2.0, 0.1) == pytest.approx(0.45, rel=0.0, abs=1e-16)
        assert iterate_shots(params, 60.0, 0.3, 7) == 0.45

    def test_closed_form_when_a_rounds_to_one(self):
        # td = tr = 1e12 min at 1 kHz: s = epsilon + dt/tr = 3.3e-17, so a = 1 - s is 1.0
        period = 1e-3
        assert 1.0 - (epsilon_for_buildup_time(1e12, period) + period / (60.0 * 1e12)) == 1.0
        params = KineticsParams(0.826, 1e12, 1e12, pth=0.05)
        for minutes in (300.0, 1e10, 1e13):
            n = int(minutes * 60.0 / period)
            assert n > 1_000_000
            p = iterate_shots(params, period, 0.05, n)
            assert p == pytest.approx(buildup_closed_form(params, minutes), rel=1e-12)

    def test_overflowing_relaxation_step_rejected(self):
        # dt/tr = inf, and at p = pth the update inf * 0 would be NaN, clamped to -1
        with pytest.raises(ValidationError, match="tr_minutes 5e-324"):
            shot_map(0.0, 0.5, 1e-3, 0.5, 5e-324, 0.0)
        with pytest.raises(ValidationError, match="tr_minutes 5e-324 is too small"):
            iterate_shots(KineticsParams(0.5, 2.0, 5e-324), 1e-3, 0.0, 1)

    @settings(max_examples=100, deadline=timedelta(seconds=5), derandomize=True)
    @given(
        p0=UNIT,
        epsilon=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, *TINY]),
        period=POSITIVE,
        pe=UNIT,
        pth=UNIT,
        tr=st.floats(allow_nan=False, allow_infinity=False) | extremes(0.0, *TINY, *HUGE),
        n_shots=st.integers(-1, 1000) | st.sampled_from([999_999, 1_000_000, 1_000_001, 2**62]),
    )
    def test_iterate_returns_a_polarization_or_rejects(self, p0, epsilon, period, pe, pth, tr, n_shots):
        try:
            params, _ = shot_kinetics(epsilon, period, pe, tr, pth)
            p = iterate_shots(params, period, p0, n_shots)
        except ValidationError:
            return
        assert -1.0 <= p <= 1.0
