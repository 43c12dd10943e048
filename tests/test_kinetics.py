import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tripletdnp import (
    BuildupCurve,
    KineticsParams,
    ValidationError,
    ValueKind,
    buildup_closed_form,
    buildup_ode,
    final_polarization,
    relaxation_decay,
    steady_state_with_pth,
    thermal_polarization,
)

import oracles
from extremes import BINADES, NON_FINITE
from inputs import REFERENCE
from tripletdnp.constants import BOLTZMANN_J_PER_K, GAMMA_H_MHZ_PER_T, PLANCK_J_S

UNIT = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]) | st.floats(-1.0, 1.0)
TIME_CONSTANTS = st.sampled_from([5e-324, 1e-308, 1e-300, 57.1, 1e308, math.inf]) | st.floats(1e-3, 1e4)
TIMES = st.sampled_from([0.0, 5e-324, 1.0, 150.0, 1e10, 1e308, 1.7976931348623157e308]) | st.floats(0.0, 1e4)


class TestKineticsParams:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            KineticsParams(0.8, -1.0, 57.1)
        with pytest.raises(ValidationError):
            KineticsParams(0.8, 20.2, 0.0)
        with pytest.raises(ValidationError):
            KineticsParams(1.2, 20.2, 57.1)
        with pytest.raises(ValidationError):
            KineticsParams(0.8, 20.2, 57.1, pth=-1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"td_minutes": math.nan},
            {"tr_minutes": math.nan},
            {"pe": math.nan},
            {"pth": math.nan},
            {"pe": math.inf},
            {"td_minutes": math.inf, "tr_minutes": math.inf},
        ],
    )
    def test_non_finite_rejected(self, kwargs):
        fields = {"pe": 0.826, "td_minutes": 20.2, "tr_minutes": 57.1, "pth": 0.0, **kwargs}
        with pytest.raises(ValidationError):
            KineticsParams(**fields)

    def test_one_infinite_time_constant_allowed(self):
        # no transfer leaves the thermal floor; no relaxation leaves pe
        assert steady_state_with_pth(KineticsParams(0.8, math.inf, 57.1, pth=0.05)) == 0.05
        assert steady_state_with_pth(KineticsParams(0.8, 20.2, math.inf)) == pytest.approx(0.8, rel=1e-15)

    @pytest.mark.parametrize(
        "td, tr, want", [(5e-324, 57.1, 0.8), (20.2, 5e-324, 0.05), (5e-324, 5e-324, 0.425),
                         (1e-310, 1.7976931348623157e308, 0.8), (1.7976931348623157e308, 1e-310, 0.05)]
    )
    def test_steady_state_where_a_rate_overflows(self, td, tr, want):
        """1/td or 1/tr is inf, so the plain weighted mean is inf / inf."""
        assert steady_state_with_pth(KineticsParams(0.8, td, tr, pth=0.05)) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("pe, t_const", [(1e-200, 5e-324), (1e-10, 1e300)])
    def test_steady_state_of_tiny_polarizations(self, pe, t_const):
        """1e-200 / 5e-324 is finite and 1/5e-324 is inf, so the plain mean is 0;
        1e-10 / 1e300 is subnormal, so it has lost precision."""
        steady = steady_state_with_pth(KineticsParams(pe, t_const, t_const, pth=pe))
        assert steady == pytest.approx(pe, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("fields", [(0.8, 5e-324, 57.1, 0.05), (0.8, 1e300, 1e-300, 0.05)])
    @pytest.mark.parametrize("function", [
        steady_state_with_pth, final_polarization, lambda p: buildup_closed_form(p, 1e-300),
        lambda p: buildup_ode(p, [0.0, 1e-300]).values,
    ], ids=["steady_state_with_pth", "final_polarization", "buildup_closed_form", "buildup_ode"])
    def test_numpy_scalar_fields_act_as_floats(self, fields, function):
        """A numpy scalar warns where a float overflows to inf silently; the fields are stored as floats."""
        def outcome(params):
            try:
                return function(params)
            except ValidationError as exc:  # buildup_ode's step count for td = 5e-324
                return str(exc)

        params = KineticsParams(*map(np.float64, fields))
        assert all(type(getattr(params, name)) is float for name in ("pe", "td_minutes", "tr_minutes", "pth"))
        np.testing.assert_array_equal(outcome(params), outcome(KineticsParams(*fields)))


class TestBuildupCurve:
    def test_times_strictly_increasing(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            BuildupCurve([], [])
        with pytest.raises(ValidationError, match="increasing"):
            BuildupCurve(np.array([0.0, 1.0, 1.0]), np.zeros(3))
        with pytest.raises(ValidationError, match="nonnegative"):
            BuildupCurve(np.array([-1.0, 1.0]), np.zeros(2))

    def test_order_checks_neither_overflow_nor_warn(self):
        """A difference of the times would overflow or give inf - inf; the checks compare instead."""
        with pytest.raises(ValidationError, match="increasing"):
            BuildupCurve([0.0, 1.7e308, -1.7e308], np.zeros(3))
        for grid in ([0.0, 1.7e308, -1.7e308], [0.0, math.inf, math.inf]):
            with pytest.raises(ValidationError, match="increasing"):
                buildup_ode(KineticsParams(0.5, 10.0, 20.0), grid)

    @pytest.mark.parametrize(
        "times, values",
        [([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]), ([0.0, 1.0, 2.0], [0.0, math.inf, 0.5])],
    )
    def test_non_finite_samples_rejected(self, times, values):
        with pytest.raises(ValidationError, match="finite"):
            BuildupCurve(times, values)

    def test_value_kind_roundtrips(self):
        c = BuildupCurve(np.array([0.0, 1.0]), np.array([0.0, 0.5]), ValueKind.RAW_SIGNAL)
        assert c.value_kind.value == "raw_signal"
        assert len(c) == 2


class TestClosedForm:
    def test_zero_at_t0(self):
        assert buildup_closed_form(REFERENCE, 0.0) == 0.0

    def test_reference_constants_reach_061_at_150min(self):
        # asymptote 0.610150, exp(-150 * 0.067018) = 4.3e-5, so P(150) = 0.61012
        assert buildup_closed_form(REFERENCE, 150.0) == pytest.approx(0.610, abs=1e-3)
        assert buildup_closed_form(REFERENCE, 150.0) == pytest.approx(0.6101237862803547, rel=1e-12)

    def test_no_relaxation_limit(self):
        params = KineticsParams(0.826, 20.2, 1e12)
        for t in (1.0, 20.0, 100.0):
            assert buildup_closed_form(params, t) == pytest.approx(
                0.826 * (1.0 - math.exp(-t / 20.2)), rel=1e-9
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            buildup_closed_form(REFERENCE, -1.0)

    @given(
        st.floats(0.0, 500.0),
        st.floats(0.0, 500.0),
        st.floats(0.01, 1.0),
        st.floats(0.1, 500.0),
        st.floats(0.1, 500.0),
    )
    def test_monotone_and_bounded(self, t1, t2, pe, td, tr):
        params = KineticsParams(pe, td, tr)
        lo, hi = sorted((t1, t2))
        p_lo, p_hi = buildup_closed_form(params, lo), buildup_closed_form(params, hi)
        assert p_lo <= p_hi + 1e-15
        assert 0.0 <= p_lo <= final_polarization(params) <= pe

    @pytest.mark.parametrize("td", [5e-324, 1e-308])
    @pytest.mark.parametrize("floor", [False, True])
    def test_subnormal_buildup_time_jumps_to_steady_state(self, td, floor):
        """The rate is inf (td 5e-324) or t * rate overflows (td 1e-308): the curve
        starts at its initial value and is at the steady state from the first step
        on, with no RuntimeWarning."""
        params = KineticsParams(0.8, td, 57.1, pth=0.05 if floor else 0.0)
        start, steady = (0.05, steady_state_with_pth(params)) if floor else (0.0, 0.8)
        assert buildup_closed_form(params, 0.0) == start
        assert buildup_closed_form(params, [0.0, 1.0, 150.0]).tolist() == [start, steady, steady]

    @pytest.mark.parametrize("floor", [False, True])
    def test_overflowing_rate_at_tiny_times(self, floor):
        """1/td overflows (td 5e-324), but t/td does not at t = td: e = exp(-1) there."""
        params = KineticsParams(0.8, 5e-324, 57.1, pth=0.05 if floor else 0.0)
        start, steady = (0.05, steady_state_with_pth(params)) if floor else (0.0, 0.8)
        e = math.exp(-1.0 - 5e-324 / 57.1)
        assert buildup_closed_form(params, 5e-324) == pytest.approx(
            steady * (1.0 - e) + start * e, rel=1e-15)
        assert relaxation_decay(0.0, 5e-324, 5e-324, pth=1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)

    def test_negative_buildup_starts_at_positive_zero(self):
        """P0 e is added also for P0 = 0, so a negative P_inf (1 - e) of -0.0 at t = 0 becomes 0.0."""
        p = buildup_closed_form(KineticsParams(-0.5, 20.2, 57.1), 0.0)
        assert p == 0.0 and math.copysign(1.0, p) == 1.0

    def test_include_pth_starts_at_pth_and_settles_at_steady_state(self):
        params = KineticsParams(0.826, 20.2, 57.1, pth=0.05)
        assert buildup_closed_form(params, 0.0) == 0.05
        assert buildup_closed_form(params, 1e4) == pytest.approx(
            steady_state_with_pth(params), rel=1e-15
        )

    def test_both_curves_start_at_a_configured_floor(self):
        """A configured pth is the floor of both curves without a switch."""
        params = KineticsParams(0.826, 20.2, 57.1, pth=0.05)
        assert buildup_closed_form(params, 0.0) == 0.05
        assert buildup_ode(params, [0.0, 1e4]).values[0] == 0.05

    def test_include_pth_matches_ode(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            params = KineticsParams(
                pe=rng.uniform(-1, 1),
                td_minutes=10 ** rng.uniform(0.5, 2.5),
                tr_minutes=10 ** rng.uniform(0.5, 2.5),
                pth=rng.uniform(-1, 1),
            )
            grid = np.linspace(0.0, min(params.td_minutes, params.tr_minutes), 7)
            curve = buildup_ode(params, grid)
            np.testing.assert_allclose(curve.values, buildup_closed_form(params, grid), atol=1e-9)


class TestOde:
    def test_matches_closed_form_on_reference_constants(self):
        grid = np.linspace(0.0, 150.0, 31)
        curve = buildup_ode(REFERENCE, grid, include_pth=False)
        np.testing.assert_allclose(curve.values, buildup_closed_form(REFERENCE, grid), atol=1e-9)

    def test_matches_closed_form_random_draws(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            params = KineticsParams(
                pe=rng.uniform(-1, 1),
                td_minutes=10 ** rng.uniform(0.5, 2.5),
                tr_minutes=10 ** rng.uniform(0.5, 2.5),
            )
            tmax = min(params.td_minutes, params.tr_minutes)
            grid = np.linspace(0.0, tmax, 7)
            curve = buildup_ode(params, grid)
            np.testing.assert_allclose(curve.values, buildup_closed_form(params, grid), atol=1e-9)

    def test_steady_state_start_stays_constant(self):
        # pe = pth = p makes p a fixed point, and the curve starts at pth
        params = KineticsParams(pe=0.3, td_minutes=20.0, tr_minutes=50.0, pth=0.3)
        curve = buildup_ode(params, np.linspace(0.0, 100.0, 11))
        np.testing.assert_allclose(curve.values, 0.3, atol=1e-12)

    def test_all_zero_sources_stay_zero(self):
        params = KineticsParams(pe=0.0, td_minutes=20.0, tr_minutes=50.0, pth=0.0)
        curve = buildup_ode(params, np.linspace(0.0, 100.0, 11), include_pth=False)
        np.testing.assert_allclose(curve.values, 0.0, atol=0.0)

    @pytest.mark.parametrize("include_pth", [False, True])
    def test_matches_textbook_rk4_on_long_reference_grid(self, include_pth):
        params = KineticsParams(0.826, 20.2, 57.1, pth=0.05)
        grid = np.linspace(0.0, 1440.0, 2001)
        curve = buildup_ode(params, grid, include_pth=include_pth)
        want = oracles.rk4_rate_equation(0.826, 20.2, 57.1, 0.05, grid, include_pth)
        np.testing.assert_allclose(curve.values, want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("include_pth", [False, True])
    def test_matches_textbook_rk4_random_draws(self, include_pth):
        rng = np.random.default_rng(34)
        for _ in range(50):
            pe, pth = rng.uniform(-1, 1, 2)
            td, tr = 10 ** rng.uniform(0.5, 2.5, 2)
            grid = np.linspace(0.0, 3.0 * min(td, tr), 7)
            curve = buildup_ode(KineticsParams(pe, td, tr, pth), grid, include_pth=include_pth)
            want = oracles.rk4_rate_equation(pe, td, tr, pth, grid, include_pth)
            np.testing.assert_allclose(curve.values, want, rtol=0.0, atol=1e-13)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            buildup_ode(REFERENCE, [])
        with pytest.raises(ValidationError):
            buildup_ode(REFERENCE, [1.0, 2.0])  # must start at 0
        with pytest.raises(ValidationError):
            buildup_ode(REFERENCE, [0.0, 2.0, 2.0])

    def test_infinite_step_count_rejected(self):
        # a subnormal time constant overflows the step count to inf without a RuntimeWarning
        with pytest.raises(ValidationError, match="inf RK4 steps"):
            buildup_ode(KineticsParams(pe=0.826, td_minutes=1e-310, tr_minutes=57.1), [0.0, 150.0])
        # and one below 5e-321 makes the step bound 0 without a divide-by-zero RuntimeWarning
        with pytest.raises(ValidationError, match="inf RK4 steps"):
            buildup_ode(KineticsParams(pe=0.826, td_minutes=5e-324, tr_minutes=57.1), [0.0, 150.0])


class TestSteadyStates:
    def test_final_polarization_reference(self):
        assert final_polarization(REFERENCE) == pytest.approx(0.610, abs=5e-4)
        assert final_polarization(REFERENCE) == pytest.approx(0.610150064683053, rel=1e-12)

    def test_equal_time_constants_halve_pe(self):
        assert final_polarization(KineticsParams(0.8, 33.0, 33.0)) == pytest.approx(0.4, rel=1e-12)

    def test_fast_buildup_limit(self):
        params = KineticsParams(0.8, 1e-6, 1e3)
        assert final_polarization(params) == pytest.approx(0.8, rel=1e-8)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(UNIT, TIME_CONSTANTS, TIME_CONSTANTS)
    @example(0.433, 48.4, 109.3)
    def test_steady_state_reduces_to_final_polarization(self, pe, td, tr):
        """At pth = 0 the fixed point is final_polarization bit for bit, but for
        a -0.0 that adding the floor's share 0.0 turns into 0.0."""
        assume(not td == tr == math.inf)
        params = KineticsParams(pe, td, tr)
        assert steady_state_with_pth(params).hex() == (final_polarization(params) + 0.0).hex()

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(UNIT | BINADES.filter(lambda x: x <= 1.0), TIME_CONSTANTS | BINADES,
           TIME_CONSTANTS | BINADES, UNIT | BINADES.filter(lambda x: x <= 1.0))
    @example(-2.5224585199481752e-99, 2.4359174980989165e+243, 3.6053500816935937e+239, 1.035111967528146e-53)
    def test_steady_state_matches_the_exact_weighted_mean(self, pe, td, tr, pth):
        """Within 2 ulps of max(|pe|, |pth|) of (pe tr + pth td) / (td + tr) for
        any valid kinetics, huge, subnormal and infinite time constants included."""
        assume(not td == tr == math.inf)
        got = steady_state_with_pth(KineticsParams(pe, td, tr, pth))
        exact = oracles.steady_state_exact(pe, td, tr, pth)
        assert abs(Fraction(got) - exact) <= 2 * Fraction(math.ulp(max(abs(pe), abs(pth))))

    def test_uniform_fixed_point(self):
        params = KineticsParams(0.25, 20.0, 50.0, pth=0.25)
        assert steady_state_with_pth(params) == pytest.approx(0.25, rel=1e-12)

    def test_thermal_floor_shift_is_negligible(self):
        params = KineticsParams(0.826, 20.2, 57.1, pth=2.2e-6)
        shift = steady_state_with_pth(params) - final_polarization(params)
        assert 0.0 < shift < 1e-6

    def test_limit_consistency_with_closed_form(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            params = KineticsParams(
                pe=rng.uniform(0.05, 1.0),
                td_minutes=10 ** rng.uniform(0, 2),
                tr_minutes=10 ** rng.uniform(0, 2),
            )
            t = 100.0 * max(params.td_minutes, params.tr_minutes)
            assert buildup_closed_form(params, t) == pytest.approx(
                final_polarization(params), rel=1e-6
            )


class TestRelaxationDecay:
    def test_starts_at_p0(self):
        assert relaxation_decay(0.61, 57.1, 0.0) == 0.61

    def test_one_time_constant(self):
        assert relaxation_decay(0.61, 57.1, 57.1, pth=0.0) == pytest.approx(
            0.22440645911457982, rel=1e-12
        )

    def test_constant_when_already_thermal(self):
        for t in (0.0, 10.0, 1e4):
            assert relaxation_decay(0.2, 57.1, t, pth=0.2) == pytest.approx(0.2, rel=1e-15)

    def test_monotone_toward_pth(self):
        ts = np.linspace(0.0, 300.0, 40)
        vals = relaxation_decay(0.61, 57.1, ts, pth=0.01)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals >= 0.01)
        up = relaxation_decay(-0.4, 57.1, ts, pth=0.01)
        assert np.all(np.diff(up) > 0.0)

    def test_nonpositive_time_constant_rejected(self):
        with pytest.raises(ValidationError):
            relaxation_decay(0.61, 0.0, 1.0)

    def test_infinite_time_constant_keeps_p0(self):
        assert relaxation_decay(0.61, math.inf, 100.0, pth=0.01) == 0.61

    @pytest.mark.parametrize("t_const, t", [(5e-324, 1.0), (np.float64(5e-324), 1.0), (1e-300, 1e10)])
    @pytest.mark.parametrize("pth", [0.0, 0.05])
    def test_overflowing_rate_reaches_pth(self, t_const, t, pth):
        """1/t_const is inf (5e-324) or t/t_const overflows (1e-300 at 1e10 min): the
        decay starts at p0 and is at pth from the first step on, with no RuntimeWarning."""
        assert relaxation_decay(0.61, t_const, t, pth) == pth
        assert relaxation_decay(0.61, t_const, [0.0, t], pth).tolist() == [0.61, pth]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(UNIT, TIME_CONSTANTS, TIME_CONSTANTS, UNIT, TIMES | st.lists(TIMES, min_size=1, max_size=4), st.booleans())
def test_closed_forms_match_their_oracles(pe, td, tr, pth, times, floor):
    """buildup_closed_form is its oracle bit for bit: with a floor the oracle's
    branch with pth, at pth = 0 its floor-free branch with final_polarization.
    The exceptions are a -0.0 that adding 0 e turns into 0.0, and where 1/td +
    1/tr overflows: there the oracle's e is 0 for every t > 0, while
    exp(-(t/td + t/tr)) is not 0 below about 746 min(td, tr)
    (test_overflowing_rate_at_tiny_times). relaxation_decay, which now
    multiplies by 1/t_const instead of dividing, stays within 2^-50 (4 ulps of
    1.0) of its oracle."""
    assume(not td == tr == math.inf)
    params = KineticsParams(pe, td, tr, pth if floor else 0.0)
    p_inf = steady_state_with_pth(params) if floor else final_polarization(params)
    new = buildup_closed_form(params, times)
    old = oracles.buildup_closed_form(params, times, floor, p_inf)
    assert type(new) is type(old)
    t = np.atleast_1d(times)
    same = (t == 0.0) | (t >= 746.0 * min(td, tr)) if 1.0 / td + 1.0 / tr == math.inf else t >= 0.0
    assert np.atleast_1d(new)[same].tobytes() == np.atleast_1d(old if floor else old + 0.0)[same].tobytes()
    with np.errstate(over="ignore"):  # the oracle's -t / t_const may overflow
        old = oracles.relaxation_decay(pe, td, times, pth)
    new = relaxation_decay(pe, td, times, pth)
    assert type(new) is type(old)
    assert np.all(np.abs(new - old) <= 2.0**-50)


class TestThermalPolarization:
    def test_zero_field(self):
        assert thermal_polarization(0.0, 295.0) == 0.0

    def test_reference_conditions(self):
        # tanh(h * 27.24928 MHz / (2 kB 295 K)) = 2.2165e-6, i.e. 0.00022%
        p = thermal_polarization(0.64, 295.0)
        assert p == pytest.approx(2.216540988033941e-06, rel=1e-12)
        assert p == pytest.approx(2.2e-6, rel=0.02)

    def test_high_temperature_limit(self):
        assert thermal_polarization(0.64, 1e12) == pytest.approx(0.0, abs=1e-15)

    def test_strictly_decreasing_in_temperature(self):
        temps = np.linspace(4.0, 600.0, 50)
        vals = [thermal_polarization(0.64, t) for t in temps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_subnormal_two_kt(self):
        """Below about 8e-286 K, 2 kB T is subnormal or 0; the ratio is formed on the
        mantissas of B and T, so it is B / T times h gamma / 2 kB without any underflow."""
        ratio = PLANCK_J_S * GAMMA_H_MHZ_PER_T * 1e6 / (2.0 * BOLTZMANN_J_PER_K)  # per T/K
        assert thermal_polarization(0.64, 5e-324) == 1.0
        assert thermal_polarization(5e-324, 5e-324) == pytest.approx(math.tanh(ratio), rel=1e-15, abs=0.0)
        assert thermal_polarization(1e-300, 1e-290) == pytest.approx(1e-10 * ratio, rel=1e-15, abs=0.0)
        assert thermal_polarization(0.0, 5e-324) == 0.0

    def test_subnormal_h_nu(self):
        """Below about 8e-283 T, h nu is subnormal or 0; formed on the mantissas, the
        ratio B / T times h gamma / 2 kB is a normal float down to about 6e-303 T at 295 K."""
        ratio = PLANCK_J_S * GAMMA_H_MHZ_PER_T * 1e6 / (2.0 * BOLTZMANN_J_PER_K)  # per T/K
        assert thermal_polarization(1e-300, 295.0) == pytest.approx(1e-300 / 295.0 * ratio, rel=1e-15, abs=0.0)
        assert thermal_polarization(7e-283, 295.0) == pytest.approx(7e-283 / 295.0 * ratio, rel=1e-15, abs=0.0)
        assert thermal_polarization(5e-324, 295.0) == 0.0  # the ratio itself underflows

    def test_overflowing_h_nu(self):
        """h nu overflows above about 4e300 T, yet the ratio at 3e301 T and 2e307 K is
        about 1.5e-9; it is within one rounding of the exact value, not 1."""
        exact = oracles.tanh_exact(oracles.thermal_ratio_exact(3e301, 2e307))
        assert exact == 1.5325302925103518e-09
        assert thermal_polarization(3e301, 2e307) == pytest.approx(exact, rel=1e-15, abs=0.0)

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(field=st.just(0.0) | BINADES, temperature=BINADES)
    def test_matches_the_exact_value(self, field, temperature):
        """Bit for bit tanh(h nu / 2 kB T) whenever every intermediate of that is
        normal; everywhere within 1e-15 of the exact value, or within one step of
        it where that is subnormal."""
        exact = oracles.tanh_exact(oracles.thermal_ratio_exact(field, temperature))
        got = thermal_polarization(field, temperature)
        assert abs(got - exact) <= max(exact * 1e-15, 5e-324)
        normal = lambda q: sys.float_info.min <= q < math.inf
        h_nu = PLANCK_J_S * (GAMMA_H_MHZ_PER_T * 1e6 * field)
        two_kt = 2.0 * BOLTZMANN_J_PER_K * temperature
        if normal(GAMMA_H_MHZ_PER_T * 1e6 * field) and normal(h_nu) and normal(two_kt) and normal(h_nu / two_kt):
            assert got == math.tanh(h_nu / two_kt)

    def test_validation(self):
        with pytest.raises(ValidationError):
            thermal_polarization(-0.1, 295.0)
        with pytest.raises(ValidationError):
            thermal_polarization(0.64, 0.0)


class TestNonFiniteInputs:
    """The pure functions reject NaN and infinities instead of returning NaN."""

    @given(NON_FINITE, st.sampled_from([0.0, 0.05]))
    def test_closed_form_time(self, bad, pth):
        params = dataclasses.replace(REFERENCE, pth=pth)
        with pytest.raises(ValidationError, match="finite"):
            buildup_closed_form(params, bad)
        with pytest.raises(ValidationError, match="finite"):
            buildup_closed_form(params, np.array([0.0, bad, 2.0]))

    @given(NON_FINITE, st.sampled_from(["p0", "t", "pth"]), st.floats(0.0, 500.0))
    def test_relaxation_decay_values(self, bad, slot, t):
        args = {"p0": 0.61, "t": t, "pth": 0.01, slot: bad}
        with pytest.raises(ValidationError, match="finite"):
            relaxation_decay(args["p0"], 57.1, args["t"], pth=args["pth"])

    @given(st.sampled_from([math.nan, -math.inf]), st.floats(0.0, 500.0))
    def test_relaxation_decay_time_constant(self, bad, t):
        with pytest.raises(ValidationError, match="positive"):
            relaxation_decay(0.61, bad, t)

    @given(NON_FINITE, st.booleans(), st.floats(0.0, 20.0), st.floats(1.0, 1000.0))
    def test_thermal_polarization(self, bad, bad_field, field, temperature):
        with pytest.raises(ValidationError, match="finite"):
            if bad_field:
                thermal_polarization(bad, temperature)
            else:
                thermal_polarization(field, bad)
