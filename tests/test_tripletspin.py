import copy
import dataclasses
import math
import pickle
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tripletdnp import (
    EigenSystem,
    FieldPopulations,
    MagneticFieldSetting,
    SpinHamiltonian,
    TripletParameters,
    ValidationError,
    build_hamiltonian,
    eigensystem,
    electron_polarization,
    project_populations,
    transition_frequencies,
)
from tripletdnp import tripletspin
from tripletdnp.constants import GAMMA_E_MHZ_PER_T

import oracles
from extremes import NON_FINITE
from inputs import random_inputs

PENTACENE = TripletParameters(1395.0, -50.0, (0.76, 0.16, 0.08))
EQUAL = TripletParameters(1395.0, -50.0, (1 / 3, 1 / 3, 1 / 3))
FIELD_064 = MagneticFieldSetting(0.64)
ZERO_FIELD = MagneticFieldSetting(0.0)


class TestTripletParameters:
    def test_population_sum_enforced(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            TripletParameters(1395.0, -50.0, (0.5, 0.3, 0.1))
        with pytest.raises(ValidationError, match="sum to 1"):
            FieldPopulations((0.5, 0.3, 0.1))
        with pytest.raises(ValidationError, match="exactly three"):
            TripletParameters(1395.0, -50.0, (0.5, 0.5))

    def test_negative_population_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            TripletParameters(1395.0, -50.0, (1.2, -0.1, -0.1))
        with pytest.raises(ValidationError, match="nonnegative"):
            FieldPopulations((1.2, -0.1, -0.1))

    def test_e_over_d_ordering_enforced(self):
        with pytest.raises(ValidationError, match="D"):
            TripletParameters(300.0, 150.0, (0.5, 0.3, 0.2))
        # boundary |E| = |D|/3 is allowed
        TripletParameters(300.0, 100.0, (0.5, 0.3, 0.2))

    def test_field_ranges(self):
        with pytest.raises(ValidationError):
            MagneticFieldSetting(-0.1)
        with pytest.raises(ValidationError):
            MagneticFieldSetting(0.5, theta_rad=3.5)
        with pytest.raises(ValidationError):
            MagneticFieldSetting(0.5, phi_rad=7.0)


class TestBuildHamiltonian:
    def test_zero_field_is_diagonal_with_analytic_energies(self):
        h = build_hamiltonian(PENTACENE, ZERO_FIELD).matrix
        d, e = 1395.0, -50.0
        expected = np.diag([d / 3 - e, d / 3 + e, -2 * d / 3])
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_zeeman_limit_eigenvalues(self):
        params = TripletParameters(0.0, 0.0, (0.76, 0.16, 0.08))
        h = build_hamiltonian(params, FIELD_064)
        gamma_b = GAMMA_E_MHZ_PER_T * 0.64
        eig = eigensystem(h)
        np.testing.assert_allclose(eig.eigenvalues, [-gamma_b, 0.0, gamma_b], atol=1e-9)

    def test_pentacene_at_064t_matches_independent_construction(self):
        h = build_hamiltonian(PENTACENE, FIELD_064).matrix
        # frozen entries: diag (D/3 - E, D/3 + E, -2D/3), off-diagonal -i*gamma*B
        np.testing.assert_allclose(np.diag(h), [515.0, 415.0, -930.0], atol=1e-9)
        assert h[0, 1] == pytest.approx(-17935.936j, abs=1e-9)
        assert h[2, 0] == 0.0 and h[2, 1] == 0.0
        oracle = oracles.hamiltonian_by_direct_arithmetic(1395.0, -50.0, 0.64, 0.0, 0.0)
        np.testing.assert_allclose(h, oracle, atol=1e-9)

    def test_random_draws_match_independent_construction(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            params, field = random_inputs(rng)
            h = build_hamiltonian(params, field).matrix
            oracle = oracles.hamiltonian_by_direct_arithmetic(
                params.d_mhz, params.e_mhz, field.magnitude_tesla, field.theta_rad, field.phi_rad
            )
            np.testing.assert_allclose(h, oracle, atol=1e-8 * max(1.0, np.max(np.abs(h))))

    def test_hermitian_and_traceless(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            params, field = random_inputs(rng)
            m = build_hamiltonian(params, field).matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(m)))
            assert abs(np.trace(m)) < 1e-9


class TestEigensystem:
    def test_zero_field_eigenvalues_sorted(self):
        eig = eigensystem(build_hamiltonian(PENTACENE, ZERO_FIELD))
        d, e = 1395.0, -50.0
        expected = np.sort([-2 * d / 3, d / 3 - e, d / 3 + e])
        np.testing.assert_allclose(eig.eigenvalues, expected, rtol=1e-12)

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            params, field = random_inputs(rng)
            h = build_hamiltonian(params, field)
            eig = eigensystem(h)
            roots = oracles.eigenvalues_by_characteristic_roots(np.asarray(h.matrix))
            scale = max(1.0, np.max(np.abs(roots)))
            np.testing.assert_allclose(eig.eigenvalues, roots, atol=1e-6 * scale)

    def test_reconstruction(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            params, field = random_inputs(rng)
            h = build_hamiltonian(params, field)
            eig = eigensystem(h)
            rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
            num = np.linalg.norm(rebuilt - h.matrix)
            den = np.linalg.norm(h.matrix)
            assert num <= 1e-10 * max(den, 1.0)

    def test_zeeman_eigenvectors_are_m_states(self):
        params = TripletParameters(0.0, 0.0, (1 / 3, 1 / 3, 1 / 3))
        eig = eigensystem(build_hamiltonian(params, FIELD_064))
        s2 = 1.0 / math.sqrt(2.0)
        # |m=-1> = (Tx - i Ty)/sqrt2, |m=0> = Tz, |m=+1> leads with the same
        # real-positive first component under the phase convention
        np.testing.assert_allclose(eig.eigenvectors[:, 0], [s2, -1j * s2, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 1]), [0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(eig.eigenvectors[:, 2], [s2, 1j * s2, 0.0], atol=1e-12)

    def test_phase_convention_first_nonzero_real_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params, field = random_inputs(rng)
            eig = eigensystem(build_hamiltonian(params, field))
            for i in range(3):
                col = eig.eigenvectors[:, i]
                lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
                assert abs(lead.imag) < 1e-12 and lead.real > 0.0

    @pytest.mark.parametrize("b_tesla", [30.0, 45.0])
    def test_chain_runs_at_high_fields(self, b_tesla):
        """eigh rounds the eigenvalue sum to about 1e-15 of the largest
        eigenvalue, past 1e-9 MHz at tens of tesla; the chain takes eigh's
        output as it is."""
        rng = np.random.default_rng(7)
        theta = np.arccos(rng.uniform(-1.0, 1.0, 2000))
        phi = rng.uniform(0.0, 2.0 * math.pi, 2000)
        for t, p in zip(theta.tolist(), phi.tolist()):
            field = MagneticFieldSetting(b_tesla, t, p)
            h = build_hamiltonian(PENTACENE, field)
            eig = eigensystem(h)
            electron_polarization(eig, project_populations(eig, PENTACENE), field)
            transition_frequencies(eig)
            want = np.linalg.eigvalsh(h.matrix)
            np.testing.assert_allclose(eig.eigenvalues, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))

    def test_shifted_spectrum_is_accepted(self):
        """A spectrum with a nonzero sum is an EigenSystem: the splittings
        read differences, the projections read only the eigenvectors."""
        field = MagneticFieldSetting(0.64, 1.0, 2.0)
        eig = eigensystem(build_hamiltonian(PENTACENE, field))
        shifted = EigenSystem(eig.eigenvalues + 100.0, eig.eigenvectors)
        np.testing.assert_allclose(transition_frequencies(shifted), transition_frequencies(eig),
                                   rtol=0.0, atol=1e-9)
        pops = project_populations(eig, PENTACENE)
        assert project_populations(shifted, PENTACENE) == pops
        assert electron_polarization(shifted, pops, field) == electron_polarization(eig, pops, field)

    @pytest.mark.parametrize("entry, bad", [((1, 0), math.nan), ((2, 1), math.inf), ((0, 0), math.inf)],
                             ids=["nan-entry", "inf-off-diagonal", "inf-diagonal"])
    def test_non_finite_matrix_solved_as_eigh_solves_it(self, monkeypatch, entry, bad):
        """SpinHamiltonian passes on no such matrix, so this reaches the solver
        directly: it raises eigh's LinAlgError with eigh's message, or returns
        eigh's bytes (NaN included), and warns where eigh warns."""
        m = build_hamiltonian(PENTACENE, MagneticFieldSetting(0.64, 1.0, 2.0)).matrix.copy()
        m[entry] = bad
        monkeypatch.setattr(tripletspin, "EigenSystem", lambda vals, vecs: (vals, vecs))

        def outcome(solve, arg):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    vals, vecs = solve(arg)
                    result = (vals.tobytes(), vecs.tobytes())
                except np.linalg.LinAlgError as exc:
                    result = (type(exc), str(exc))
            return result, [(w.category, str(w.message)) for w in caught]

        assert outcome(eigensystem, SimpleNamespace(matrix=m)) == outcome(oracles.phased_eigh, m)

    def test_arrays_are_read_only(self):
        eig = eigensystem(build_hamiltonian(PENTACENE, MagneticFieldSetting(0.64, 1.0, 2.0)))
        for a in (eig.eigenvalues, eig.eigenvectors):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestProjectPopulations:
    def test_zero_field_identity(self):
        eig = eigensystem(build_hamiltonian(PENTACENE, ZERO_FIELD))
        pops = project_populations(eig, PENTACENE)
        # eigenstates at B=0 are the zero-field states, reordered ascending:
        # (Tz, Ty, Tx) for D=1395, E=-50
        assert sorted(pops.populations) == pytest.approx(sorted((0.76, 0.16, 0.08)), abs=1e-12)
        assert pops.populations[0] == pytest.approx(0.08, abs=1e-12)

    def test_equal_populations_stay_equal_at_any_field(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            _, field = random_inputs(rng)
            eig = eigensystem(build_hamiltonian(EQUAL, field))
            pops = project_populations(eig, EQUAL)
            np.testing.assert_allclose(pops.populations, [1 / 3] * 3, atol=1e-12)

    def test_matches_bruteforce_overlap_table(self):
        eig = eigensystem(build_hamiltonian(PENTACENE, FIELD_064))
        pops = project_populations(eig, PENTACENE)
        oracle = oracles.overlap_population_table(np.asarray(eig.eigenvectors), (0.76, 0.16, 0.08))
        np.testing.assert_allclose(pops.populations, oracle, atol=1e-12)

    def test_matches_bruteforce_overlap_table_off_axis(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            params, field = random_inputs(rng)
            eig = eigensystem(build_hamiltonian(params, field))
            pops = project_populations(eig, params)
            oracle = oracles.overlap_population_table(
                np.asarray(eig.eigenvectors), params.zf_populations
            )
            np.testing.assert_allclose(pops.populations, oracle, atol=1e-12)

    def test_population_conservation(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            params, field = random_inputs(rng)
            eig = eigensystem(build_hamiltonian(params, field))
            pops = project_populations(eig, params)
            assert abs(sum(pops.populations) - 1.0) < 1e-10
            assert all(p >= 0.0 for p in pops.populations)


class TestElectronPolarization:
    def test_equal_populations_give_zero(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            _, field = random_inputs(rng)
            eig = eigensystem(build_hamiltonian(EQUAL, field))
            pops = project_populations(eig, EQUAL)
            assert electron_polarization(eig, pops, field) == pytest.approx(0.0, abs=1e-12)

    def test_zeeman_lowest_state_gives_minus_one(self):
        from tripletdnp import FieldPopulations

        params = TripletParameters(0.0, 0.0, (1 / 3, 1 / 3, 1 / 3))
        eig = eigensystem(build_hamiltonian(params, FIELD_064))
        pe = electron_polarization(eig, FieldPopulations((1.0, 0.0, 0.0)), FIELD_064)
        assert pe == pytest.approx(-1.0, abs=1e-12)

    def test_matches_bruteforce_expectation(self):
        eig = eigensystem(build_hamiltonian(PENTACENE, FIELD_064))
        pops = project_populations(eig, PENTACENE)
        pe = electron_polarization(eig, pops, FIELD_064)
        oracle = oracles.expectation_polarization(
            np.asarray(eig.eigenvectors), pops.populations, 0.0, 0.0
        )
        assert pe == pytest.approx(oracle, abs=1e-12)
        assert abs(pe) <= 1.0

    def test_matches_bruteforce_expectation_off_axis(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            params, field = random_inputs(rng)
            eig = eigensystem(build_hamiltonian(params, field))
            pops = project_populations(eig, params)
            oracle = oracles.expectation_polarization(
                np.asarray(eig.eigenvectors), pops.populations, field.theta_rad, field.phi_rad
            )
            assert electron_polarization(eig, pops, field) == pytest.approx(oracle, abs=1e-12)

    def test_clamp_passes_nan_through(self):
        eig = eigensystem(build_hamiltonian(PENTACENE, FIELD_064))
        pops = SimpleNamespace(populations=(math.nan, 0.5, 0.5))
        assert math.isnan(electron_polarization(eig, pops, FIELD_064))

    def test_bounded_for_random_inputs(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            params, field = random_inputs(rng)
            eig = eigensystem(build_hamiltonian(params, field))
            pops = project_populations(eig, params)
            assert abs(electron_polarization(eig, pops, field)) <= 1.0

    def test_orientation_continuity(self):
        # at 0.64 T the Zeeman splitting dominates the zero-field splitting,
        # so there are no level crossings and pe(theta) must be smooth
        rng = np.random.default_rng(16)

        def pe_at(theta):
            field = MagneticFieldSetting(0.64, theta_rad=theta)
            eig = eigensystem(build_hamiltonian(PENTACENE, field))
            pops = project_populations(eig, PENTACENE)
            return electron_polarization(eig, pops, field)

        for theta in rng.uniform(0.0, math.pi - 1e-4, size=300):
            assert abs(pe_at(theta + 1e-4) - pe_at(theta)) < 1e-2


class TestTransitionFrequencies:
    def test_zero_field_gaps(self):
        params = TripletParameters(1500.0, 120.0, (0.76, 0.16, 0.08))
        eig = eigensystem(build_hamiltonian(params, ZERO_FIELD))
        d, e = 1500.0, 120.0
        assert transition_frequencies(eig) == pytest.approx((2 * e, d - e, d + e), rel=1e-12)

    def test_zeeman_at_064t(self):
        params = TripletParameters(0.0, 0.0, (1 / 3, 1 / 3, 1 / 3))
        eig = eigensystem(build_hamiltonian(params, FIELD_064))
        gamma_b = 0.64 * GAMMA_E_MHZ_PER_T  # 17935.936 MHz
        assert transition_frequencies(eig) == pytest.approx(
            (gamma_b, gamma_b, 2 * gamma_b), abs=1e-6
        )

    def test_fully_degenerate(self):
        params = TripletParameters(0.0, 0.0, (1 / 3, 1 / 3, 1 / 3))
        eig = eigensystem(build_hamiltonian(params, ZERO_FIELD))
        assert transition_frequencies(eig) == (0.0, 0.0, 0.0)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_field_magnitude(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            MagneticFieldSetting(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_field_angles(self, bad):
        with pytest.raises(ValidationError):
            MagneticFieldSetting(0.64, theta_rad=bad)
        with pytest.raises(ValidationError):
            MagneticFieldSetting(0.64, phi_rad=bad)

    @pytest.mark.parametrize(
        "d, e, pops",
        [
            (math.nan, -50.0, (0.76, 0.16, 0.08)),
            (1395.0, math.nan, (0.76, 0.16, 0.08)),
            (1395.0, -50.0, (math.nan, 0.5, 0.5)),
            (1395.0, -50.0, (0.5, 0.5, math.inf)),
            (math.inf, 100.0, (0.76, 0.16, 0.08)),
        ],
    )
    def test_triplet_parameters(self, d, e, pops):
        with pytest.raises(ValidationError, match="finite"):
            TripletParameters(d, e, pops)

    @pytest.mark.parametrize("pops", [(math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.inf)])
    def test_field_populations(self, pops):
        with pytest.raises(ValidationError, match="finite"):
            FieldPopulations(pops)

    @pytest.mark.parametrize(
        "vals", [[math.nan, 0.0, 0.0], [0.0, math.nan, 0.0], [-math.inf, 0.0, math.inf]]
    )
    def test_eigenvalues(self, vals):
        with pytest.raises(ValidationError, match="finite"):
            EigenSystem(vals, np.eye(3))

    def test_eigenvectors(self):
        vecs = np.eye(3, dtype=complex)
        vecs[1, 1] = math.nan
        with pytest.raises(ValidationError, match="unitary"):
            EigenSystem([-1.0, 0.0, 1.0], vecs)

    def test_wrong_shapes(self):
        with pytest.raises(ValidationError, match="3x3"):
            SpinHamiltonian(np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="3 eigenvalues"):
            EigenSystem([-1.0, 1.0], np.eye(3))
        with pytest.raises(ValidationError, match="3x3 eigenvector"):
            EigenSystem([-1.0, 0.0, 1.0], np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_hamiltonian(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            SpinHamiltonian(np.full((3, 3), bad))
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = complex(0.0, bad)
        with pytest.raises(ValidationError, match="finite"):
            SpinHamiltonian(m)

    def test_hamiltonian_whose_entry_modulus_overflows(self):
        # every part is finite, but |1.7e308 + 1.7e308j| is not: Python's abs raises OverflowError
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = complex(1.7e308, 1.7e308)
        m[1, 0] = m[0, 1].conjugate()
        assert np.isfinite(m).all()
        with pytest.raises(ValidationError, match="^Hamiltonian entries must be finite$"):
            SpinHamiltonian(m)


def _error(make, *args):
    """The ValidationError message make(*args) raises, or None."""
    try:
        make(*args)
    except ValidationError as exc:
        return str(exc)
    return None


UNIT = st.floats(0.0, 1.0)
CHAIN_INPUTS = st.builds(
    lambda d, e, pops, b, theta, phi: (d, e * abs(d) / 3.0, tuple(p / sum(pops) for p in pops), b, theta, phi),
    st.floats(-3000.0, 3000.0),
    st.floats(-1.0, 1.0),
    st.tuples(UNIT, UNIT, UNIT).filter(lambda p: sum(p) > 0.1),
    st.floats(0.0, 2.0),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)
# a multiple of a tolerance on either side of it, never within 1e-6 of it
FACTOR = st.floats(0.5, 2.0).filter(lambda f: abs(f - 1.0) > 1e-6)
ENTRY = st.tuples(st.integers(0, 2), st.integers(0, 2), st.booleans())  # row, column, imaginary part


def _set(m, entry, value):
    i, j, imaginary = entry
    m[i, j] = complex(m[i, j].real, value) if imaginary else complex(value, m[i, j].imag)


def _add(m, entry, delta):
    i, j, imaginary = entry
    _set(m, entry, (m[i, j].imag if imaginary else m[i, j].real) + delta)


class TestChainMatchesNumpyOracle:
    """The checks and projections on Python numbers give oracles.spin_chain's
    eigensystem bit for bit, its populations and pe within 1e-15, and the
    numpy validators' verdict and message on every drawn matrix."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(inputs=CHAIN_INPUTS)
    def test_outputs(self, inputs):
        d, e, pops, b, theta, phi = inputs
        h, vals, vecs, want_pops, want_pe = oracles.spin_chain(d, e, pops, b, theta, phi)
        params, field = TripletParameters(d, e, pops), MagneticFieldSetting(b, theta, phi)
        ham = build_hamiltonian(params, field)
        eig = eigensystem(ham)
        got_pops = project_populations(eig, params)
        assert ham.matrix.tobytes() == h.tobytes()
        assert eig.eigenvalues.tobytes() == vals.tobytes()
        assert eig.eigenvectors.tobytes() == vecs.tobytes()
        np.testing.assert_allclose(got_pops.populations, want_pops, rtol=0.0, atol=1e-15)
        assert electron_polarization(eig, got_pops, field) == pytest.approx(want_pe, rel=0.0, abs=1e-15)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        inputs=CHAIN_INPUTS,
        kind=st.sampled_from(["none", "non-finite", "hermitian", "trace"]),
        entry=ENTRY,
        bad=NON_FINITE,
        factor=FACTOR,
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_hamiltonian_verdicts(self, inputs, kind, entry, bad, factor, sign):
        """NaN or +-inf in any part of any entry; an entry moved off Hermitian,
        or the trace moved off zero, by a multiple of 0.5-2 of the tolerance."""
        m = oracles.spin_chain(*inputs)[0]
        i, j, imaginary = entry
        if kind == "non-finite":
            _set(m, entry, bad)
        elif kind == "hermitian":
            scale = max(1.0, float(np.max(np.abs(m))))
            # a diagonal entry's skew part is twice its imaginary part
            step = 1e-12 * scale * factor * (0.5 if i == j else 1.0)
            _add(m, (i, j, imaginary or i == j), sign * step)
        elif kind == "trace":
            _add(m, (i, i, False), sign * factor * 1e-9)
        want = oracles.spin_hamiltonian_error(m)
        assert _error(SpinHamiltonian, m) == want

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        inputs=CHAIN_INPUTS,
        kind=st.sampled_from(["none", "non-finite value", "non-finite vector", "order", "stretch", "mix"]),
        entry=ENTRY,
        bad=NON_FINITE,
        factor=FACTOR,
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_eigensystem_verdicts(self, inputs, kind, entry, bad, factor, sign):
        """NaN or +-inf in any eigenvalue or any part of any eigenvector entry;
        two eigenvalues swapped out of ascending order; a column stretched, or
        mixed with another, so that |V^H V - I| moves by 0.5-2 times 1e-10.
        numpy's matmul and the Python sums round differently, so draws whose
        numpy |V^H V - I| lies within 1e-14 of 1e-10 are skipped."""
        _, vals, vecs, _, _ = oracles.spin_chain(*inputs)
        i, j, _ = entry
        if kind == "non-finite value":
            vals[i] = bad
        elif kind == "non-finite vector":
            _set(vecs, entry, bad)
        elif kind == "order":
            vals[i], vals[(i + 1) % 3] = vals[(i + 1) % 3], vals[i]
        elif kind == "stretch":
            vecs[:, j] *= 1.0 + sign * factor * 0.5e-10  # |v_j|^2 - 1 = +-factor * 1e-10
        elif kind == "mix":
            vecs[:, (j + 1) % 3] += sign * factor * 1e-10 * vecs[:, j]
        assume(not abs(oracles.unitarity_gap(vecs) - 1e-10) <= 1e-14)
        want = oracles.eigensystem_error(vals, vecs)
        assert _error(EigenSystem, vals, vecs) == want

    @pytest.mark.parametrize("factor, passes", [(0.9, True), (1.1, False)])
    def test_perturbations_straddle_each_tolerance(self, factor, passes):
        m = build_hamiltonian(PENTACENE, MagneticFieldSetting(0.64, 1.0, 2.0)).matrix.copy()
        m[0, 1] += 1e-12 * float(np.max(np.abs(m))) * factor
        assert (_error(SpinHamiltonian, m) is None) == passes
        m = build_hamiltonian(PENTACENE, MagneticFieldSetting(0.64, 1.0, 2.0)).matrix.copy()
        m[0, 0] += 1e-9 * factor
        assert (_error(SpinHamiltonian, m) is None) == passes
        eig = eigensystem(build_hamiltonian(PENTACENE, MagneticFieldSetting(0.64, 1.0, 2.0)))
        vals, vecs = eig.eigenvalues.copy(), eig.eigenvectors.copy()
        vecs[:, 0] *= 1.0 + factor * 0.5e-10
        assert (_error(EigenSystem, vals, vecs) is None) == passes
        vecs = eig.eigenvectors.copy()
        vecs[:, 1] += factor * 1e-10 * vecs[:, 0]
        assert (_error(EigenSystem, vals, vecs) is None) == passes

    def test_callers_array_is_copied(self):
        m = build_hamiltonian(PENTACENE, FIELD_064).matrix.copy()
        ham = SpinHamiltonian(m)
        m[0, 1] = 7.0
        assert ham.matrix[0, 1] == pytest.approx(-17935.936j, abs=1e-9)
        vals, vecs = np.array([-1.0, 0.0, 1.0]), np.eye(3, dtype=complex)
        eig = EigenSystem(vals, vecs)
        vals[0], vecs[0, 0] = -5.0, 3.0
        assert eig.eigenvalues.tolist() == [-1.0, 0.0, 1.0]
        assert eig.eigenvectors[0, 0] == 1.0
        assert not (ham.matrix.flags.writeable or eig.eigenvalues.flags.writeable)

    def test_projections_of_callers_arrays_survive_their_mutation(self):
        """An EigenSystem built straight from a caller's arrays projects as the
        oracle does, before and after the caller overwrites those arrays."""
        field = MagneticFieldSetting(0.64, 1.0, 2.0)
        _, vals, vecs, want_pops, want_pe = oracles.spin_chain(
            PENTACENE.d_mhz, PENTACENE.e_mhz, PENTACENE.zf_populations, 0.64, 1.0, 2.0)
        eig = EigenSystem(vals, vecs)
        for mutate in (False, True):
            if mutate:
                vals[:], vecs[:] = (-2.0, 0.0, 2.0), np.eye(3)[::-1]
            pops = project_populations(eig, PENTACENE)
            np.testing.assert_allclose(pops.populations, want_pops, rtol=0.0, atol=1e-15)
            assert electron_polarization(eig, pops, field) == pytest.approx(want_pe, rel=0.0, abs=1e-15)


class TestDerivedOnce:
    """The field axis and the eigenvector columns are derived at construction;
    every copy and every replace carries or re-derives the same numbers."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    def test_direction_is_the_trig_expressions_bit_for_bit(self, theta, phi):
        sin_theta = math.sin(theta)
        want = (sin_theta * math.cos(phi), sin_theta * math.sin(phi), math.cos(theta))
        got = MagneticFieldSetting(0.64, theta, phi).direction()
        assert type(got) is tuple and [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)), dataclasses.replace,
    ], ids=["copy", "deepcopy", "pickle", "replace"])
    def test_copies_project_as_the_oracle(self, clone):
        field = MagneticFieldSetting(0.64, 1.0, 2.0)
        _, _, _, want_pops, want_pe = oracles.spin_chain(
            PENTACENE.d_mhz, PENTACENE.e_mhz, PENTACENE.zf_populations, 0.64, 1.0, 2.0)
        eig = eigensystem(build_hamiltonian(PENTACENE, field))
        eig2, field2 = clone(eig), clone(field)
        assert field2 == field and field2.direction() == field.direction()
        assert eig2.eigenvectors.tobytes() == eig.eigenvectors.tobytes()
        pops = project_populations(eig2, PENTACENE)
        assert pops == project_populations(eig, PENTACENE)
        np.testing.assert_allclose(pops.populations, want_pops, rtol=0.0, atol=1e-15)
        assert electron_polarization(eig2, pops, field2) == pytest.approx(want_pe, rel=0.0, abs=1e-15)

    def test_replace_rederives(self):
        field = dataclasses.replace(MagneticFieldSetting(0.64, 1.0, 2.0), theta_rad=0.0)
        assert field.direction() == (0.0, 0.0, 1.0)
        eig = eigensystem(build_hamiltonian(PENTACENE, FIELD_064))
        swapped = dataclasses.replace(eig, eigenvectors=eig.eigenvectors[:, ::-1])
        assert project_populations(swapped, PENTACENE).populations == pytest.approx(
            project_populations(eig, PENTACENE).populations[::-1], abs=1e-15)
