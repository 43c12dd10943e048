"""Scalar set-up of the triplet spin model: zero-field constants and the static field.

Both immutable value types hold Python numbers only, so `config`, and every CLI call with it,
reads them without numpy or the spin chain in `tripletspin`, which imports them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["TripletParameters", "MagneticFieldSetting"]

_POPULATION_SUM_TOL = 1e-12


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
