"""Photoexcited triplet electron spin model.

The polarizing agent's triplet is treated as an effective S = 1 spin with a
zero-field splitting (D, E) and an isotropic Zeeman interaction. All
matrices are expressed in the zero-field eigenbasis {Tx, Ty, Tz}, in which
the spin operators are (S_a)_{bc} = -i eps_{abc}. Energies are in MHz
(H / h). Laser excitation populates the zero-field states through
intersystem crossing; in a static field those populations project onto the
field-dressed eigenstates (sudden approximation), which sets the electron
spin polarization available for transfer.

All functions are pure and all value types are immutable after
construction, so they are safe to share between threads. Every value type
rejects non-finite numbers (NaN or infinity) with ValidationError. The
per-orientation checks and projections run on Python numbers taken from one
tolist() of each 3x3 array, once per array: at this size numpy's per-call
dispatch costs more than the arithmetic. So an EigenSystem keeps the columns
it checked, and a MagneticFieldSetting computes its axis at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E_MHZ_PER_T
from .errors import ValidationError
from .kinetics import ArrayValue

__all__ = [
    "TripletParameters",
    "MagneticFieldSetting",
    "SpinHamiltonian",
    "EigenSystem",
    "FieldPopulations",
    "build_hamiltonian",
    "eigensystem",
    "project_populations",
    "electron_polarization",
    "transition_frequencies",
]

_POPULATION_SUM_TOL = 1e-12
_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-9
_UNITARY_TOL = 1e-10
_EIGSUM_TOL = 1e-9

def _moduli(zs) -> list[float]:
    """abs() of each entry; [inf] where one overflows (Python raises, numpy gives inf)."""
    try:
        return list(map(abs, zs))
    except OverflowError:
        return [math.inf]


def _spin_form(x: float, y: float, z: float, diagonal=(0.0, 0.0, 0.0)) -> list[list[complex]]:
    """diag(diagonal) + x Sx + y Sy + z Sz, with (S_a)_bc = -i eps_abc, as nested lists."""
    return [
        [diagonal[0], -1j * z, 1j * y],
        [1j * z, diagonal[1], -1j * x],
        [-1j * y, 1j * x, diagonal[2]],
    ]


@dataclass(frozen=True)
class TripletParameters:
    """Zero-field splitting constants and intersystem-crossing populations.

    d_mhz, e_mhz: zero-field splitting parameters, MHz.
    zf_populations: occupations (p_x, p_y, p_z) of the zero-field states
        (Tx, Ty, Tz) right after photoexcitation. Must be nonnegative and
        sum to 1.
    """

    d_mhz: float
    e_mhz: float
    zf_populations: tuple[float, float, float]

    def __post_init__(self):
        p = self.zf_populations
        if len(p) != 3:
            raise ValidationError("zf_populations must have exactly three entries")
        if not all(map(math.isfinite, (self.d_mhz, self.e_mhz, *p))):
            raise ValidationError(
                f"D, E and zf_populations must be finite, got D={self.d_mhz}, "
                f"E={self.e_mhz}, populations {p}"
            )
        if any(v < 0.0 for v in p):
            raise ValidationError(f"zf_populations must be nonnegative, got {p}")
        if abs(sum(p) - 1.0) > _POPULATION_SUM_TOL:
            raise ValidationError(
                f"zf_populations must sum to 1 within {_POPULATION_SUM_TOL}, got sum {sum(p)!r}"
            )
        if abs(self.e_mhz) > abs(self.d_mhz) / 3.0 + 1e-12 * abs(self.d_mhz):
            raise ValidationError(
                f"|E| <= |D|/3 required by the conventional ordering, got D={self.d_mhz}, E={self.e_mhz}"
            )


@dataclass(frozen=True)
class MagneticFieldSetting:
    """Static field magnitude and orientation in the zero-field principal frame."""

    magnitude_tesla: float
    theta_rad: float = 0.0
    phi_rad: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.magnitude_tesla < math.inf:
            raise ValidationError(
                f"field magnitude must be finite and >= 0, got {self.magnitude_tesla}"
            )
        if not 0.0 <= self.theta_rad <= math.pi:
            raise ValidationError(f"theta must lie in [0, pi], got {self.theta_rad}")
        if not 0.0 <= self.phi_rad < 2.0 * math.pi:
            raise ValidationError(f"phi must lie in [0, 2*pi), got {self.phi_rad}")
        st = math.sin(self.theta_rad)
        object.__setattr__(self, "_axis", (st * math.cos(self.phi_rad), st * math.sin(self.phi_rad),
                                           math.cos(self.theta_rad)))

    def direction(self) -> tuple[float, float, float]:
        """Unit vector (x, y, z) of the field axis in the principal frame."""
        return self._axis


@dataclass(frozen=True, eq=False)
class SpinHamiltonian(ArrayValue):
    """3x3 Hermitian triplet Hamiltonian in the zero-field basis, MHz."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)  # a private copy, made read-only below
        if m.shape != (3, 3):
            raise ValidationError(f"Hamiltonian must be 3x3, got shape {m.shape}")
        (a, b, c), (d, e, f), (g, h, k) = m.tolist()
        size = _moduli((a, b, c, d, e, f, g, h, k))
        if not all(map(math.isfinite, size)):
            raise ValidationError("Hamiltonian entries must be finite")
        tol = _HERMITIAN_TOL * max(1.0, *size)
        # |H - H^H| is symmetric, so the diagonal and upper triangle cover it
        skew = _moduli((a - a.conjugate(), e - e.conjugate(), k - k.conjugate(),
                        b - d.conjugate(), c - g.conjugate(), f - h.conjugate()))
        if not max(skew) <= tol:  # finite entries: a skew overflows to inf at worst, never NaN
            raise ValidationError("Hamiltonian must be Hermitian within 1e-12")
        # abs cannot raise here: the diagonal is now real up to 1e-12 of its size
        if not abs(a + e + k) <= _TRACE_TOL:
            raise ValidationError("Hamiltonian must be traceless within 1e-9 MHz")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class EigenSystem(ArrayValue):
    """Eigenvalues (ascending, MHz) and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)  # private copies, made read-only below
        vecs = np.array(self.eigenvectors, dtype=complex)
        if vals.shape != (3,) or vecs.shape != (3, 3):
            raise ValidationError("eigensystem must hold 3 eigenvalues and a 3x3 eigenvector matrix")
        low, mid, high = vals.tolist()
        if not all(map(math.isfinite, (low, mid, high))):
            raise ValidationError(f"eigenvalues must be finite, got {vals}")
        if not low <= mid <= high:
            raise ValidationError("eigenvalues must be ascending")
        (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = vecs.T.tolist()  # the columns
        x0, x1, x2 = u0.conjugate(), u1.conjugate(), u2.conjugate()
        y0, y1, y2 = v0.conjugate(), v1.conjugate(), v2.conjugate()
        # V^H V - I is Hermitian, so its diagonal and upper triangle cover it
        gram = _moduli((x0 * u0 + x1 * u1 + x2 * u2 - 1.0, x0 * v0 + x1 * v1 + x2 * v2,
                        x0 * w0 + x1 * w1 + x2 * w2, y0 * v0 + y1 * v1 + y2 * v2 - 1.0,
                        y0 * w0 + y1 * w1 + y2 * w2,
                        w0.conjugate() * w0 + w1.conjugate() * w1 + w2.conjugate() * w2 - 1.0))
        if not all(x <= _UNITARY_TOL for x in gram):  # max() would drop a NaN
            raise ValidationError("eigenvector set must be unitary within 1e-10")
        if abs(low + mid + high) > _EIGSUM_TOL:
            raise ValidationError("eigenvalue sum must vanish within 1e-9 MHz (traceless Hamiltonian)")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        object.__setattr__(self, "_columns", ((u0, u1, u2), (v0, v1, v2), (w0, w1, w2)))


@dataclass(frozen=True)
class FieldPopulations:
    """Occupations of the three field-dressed eigenstates, ordered as the eigenvalues."""

    populations: tuple[float, float, float]

    def __post_init__(self):
        p = self.populations
        if not all(map(math.isfinite, p)):
            raise ValidationError(f"populations must be finite, got {p}")
        if min(p) < -1e-15:
            raise ValidationError(f"populations must be nonnegative, got {p}")
        if abs(sum(p) - 1.0) > 1e-10:
            raise ValidationError(f"populations must sum to 1 within 1e-10, got sum {sum(p)!r}")


def build_hamiltonian(params: TripletParameters, field: MagneticFieldSetting) -> SpinHamiltonian:
    """Assemble H = D (Sz^2 - S(S+1)/3) + E (Sx^2 - Sy^2) + gamma_e B . S, in MHz.

    The zero-field part is diagonal in the {Tx, Ty, Tz} basis with energies
    (D/3 - E, D/3 + E, -2D/3); the Zeeman part couples the basis states
    with matrix elements -i gamma_e B eps_abc.
    """
    d, e = params.d_mhz, params.e_mhz
    gamma_b = GAMMA_E_MHZ_PER_T * field.magnitude_tesla
    x, y, z = field.direction()
    zfs = (d / 3.0 - e, d / 3.0 + e, -2.0 * d / 3.0)
    return SpinHamiltonian(_spin_form(gamma_b * x, gamma_b * y, gamma_b * z, zfs))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each eigenvector so its first nonzero component is real positive."""
    phases = []
    for x, y, z in vecs.T.tolist():
        lead = x if abs(x) > 1e-12 else y if abs(y) > 1e-12 else z if abs(z) > 1e-12 else 1.0
        phases.append(lead.conjugate() / abs(lead))
    return vecs * phases


def eigensystem(h: SpinHamiltonian) -> EigenSystem:
    """Spectral decomposition of a triplet Hamiltonian.

    Eigenvalues are ascending; eigenvector phases are fixed so the first
    nonzero component of each column is real positive, which makes the
    output deterministic for golden tests.
    """
    vals, vecs = np.linalg.eigh(h.matrix)
    return EigenSystem(vals, _fix_phases(vecs))


def project_populations(eig: EigenSystem, params: TripletParameters) -> FieldPopulations:
    """Project zero-field populations onto the field-dressed eigenstates.

    Sudden approximation: the laser pulse populates (Tx, Ty, Tz) faster than
    any spin evolution, so p_i = sum_k |<psi_i|T_k>|^2 p_k.
    """
    px, py, pz = params.zf_populations
    p = [px * abs(x) ** 2 + py * abs(y) ** 2 + pz * abs(z) ** 2  # |<T_k|psi_i>|^2 p_k
         for x, y, z in eig._columns]
    total = sum(p)  # unit up to rounding; renormalize the last ulps
    return FieldPopulations((p[0] / total, p[1] / total, p[2] / total))


def electron_polarization(
    eig: EigenSystem, pops: FieldPopulations, field: MagneticFieldSetting
) -> float:
    """Net spin projection along the field axis, sum_i p_i <psi_i|S_B|psi_i>.

    Bounded by [-1, 1] because the S = 1 projection eigenvalues are
    (-1, 0, +1); the clamp trims rounding only and passes NaN through.
    Equal populations give exactly zero (trace of S_B).
    """
    bx, by, bz = field.direction()
    # <psi|S_a|psi> = 2 Im(conj(psi_b) psi_c) over cyclic (a, b, c), from (S_a)_bc = -i eps_abc
    pe = sum(p * 2.0 * (bx * (y.conjugate() * z).imag + by * (z.conjugate() * x).imag
                        + bz * (x.conjugate() * y).imag)
             for p, (x, y, z) in zip(pops.populations, eig._columns))
    return max(min(pe, 1.0), -1.0)


def transition_frequencies(eig: EigenSystem) -> tuple[float, float, float]:
    """Pairwise level splittings |lambda_i - lambda_j|, ascending, MHz."""
    low, mid, high = eig.eigenvalues.tolist()
    return tuple(sorted((abs(mid - low), abs(high - low), abs(high - mid))))
