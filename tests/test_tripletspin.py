import math
from types import SimpleNamespace

import numpy as np
import pytest

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
from tripletdnp.constants import GAMMA_E_MHZ_PER_T

import oracles

PENTACENE = TripletParameters(1395.0, -50.0, (0.76, 0.16, 0.08))
EQUAL = TripletParameters(1395.0, -50.0, (1 / 3, 1 / 3, 1 / 3))
FIELD_064 = MagneticFieldSetting(0.64)
ZERO_FIELD = MagneticFieldSetting(0.0)


def random_inputs(rng):
    d = rng.uniform(100.0, 3000.0) * rng.choice([-1.0, 1.0])
    e = rng.uniform(-1.0, 1.0) * abs(d) / 3.0
    pops = rng.dirichlet([1.0, 1.0, 1.0])
    params = TripletParameters(d, e, tuple(pops / pops.sum()))
    field = MagneticFieldSetting(
        rng.uniform(0.0, 2.0), rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi - 1e-9)
    )
    return params, field


class TestTripletParameters:
    def test_population_sum_enforced(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            TripletParameters(1395.0, -50.0, (0.5, 0.3, 0.1))

    def test_negative_population_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            TripletParameters(1395.0, -50.0, (1.2, -0.1, -0.1))

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_hamiltonian(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            SpinHamiltonian(np.full((3, 3), bad))
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = complex(0.0, bad)
        with pytest.raises(ValidationError, match="finite"):
            SpinHamiltonian(m)
