"""The toolkit's shared base, without numpy: exception types, value equality, model inputs, scalars.

Errors: `TripletDnpError` and its subclasses, which every layer raises. `ByValue`: by-value == and hash.
Inputs: zero-field constants, static field, ISE shot timing, kinetics constants, NMR calibration.
Scalars: steady states, thermal 1H polarization, 1H Larmor frequency, Hartmann-Hahn B1, calibration.
Each immutable value type holds Python numbers only and this module imports no numpy, so `config`
reads every input and a scalar result loads no array layer; the layers that compute import from here.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import astuple, dataclass, fields

from .constants import BOLTZMANN_J_PER_K, GAMMA_E_MHZ_PER_T, GAMMA_H_MHZ_PER_T, PLANCK_J_S

_POPULATION_SUM_TOL = 1e-12


class TripletDnpError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(TripletDnpError):
    """An input violates a documented invariant or precondition."""


class ConfigError(ValidationError):
    """A config file is missing, malformed, or violates an invariant."""


class CurveParseError(ValidationError):
    """A curve file could not be parsed. Carries the offending row number."""

    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.row = row


class InconsistencyError(ValidationError):
    """Two user-supplied quantities are mutually inconsistent."""


class ByValue:
    """Equality and hash by value for a frozen dataclass declared with eq=False.

    Values of one class compare field by field through keys: an array by
    dtype, shape and bytes (-0.0 as 0.0), a dict by its set of items, and
    every NaN as one marker, as NaN is unequal to itself and hashes by
    identity. Array fields are read-only private copies: a hash cannot go stale.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(_field_key(getattr(self, f.name)) for f in fields(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


_NAN = object()


def _field_key(value):
    if isinstance(value, getattr(sys.modules.get("numpy"), "ndarray", ())):  # no ndarray before numpy loads
        return value.dtype.str, value.shape, (value + 0.0).tobytes()
    if isinstance(value, dict):
        return frozenset((k, _field_key(v)) for k, v in value.items())
    return _NAN if isinstance(value, float) and math.isnan(value) else value


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


@dataclass(frozen=True)
class KineticsParams:
    """Rate-equation parameters: source polarization, time constants, thermal floor."""

    pe: float
    td_minutes: float
    tr_minutes: float
    pth: float = 0.0

    def __post_init__(self):
        # +inf is a legal time constant: no buildup (td) or no relaxation (tr)
        if not self.td_minutes > 0.0:
            raise ValidationError(f"td_minutes must be positive (finite or +inf), got {self.td_minutes}")
        if not self.tr_minutes > 0.0:
            raise ValidationError(f"tr_minutes must be positive (finite or +inf), got {self.tr_minutes}")
        if self.td_minutes == self.tr_minutes == math.inf:
            raise ValidationError("td_minutes and tr_minutes cannot both be infinite: no steady state")
        if not abs(self.pe) <= 1.0:
            raise ValidationError(f"pe must be finite with |pe| <= 1, got {self.pe}")
        if not abs(self.pth) <= 1.0:
            raise ValidationError(f"pth must be finite with |pth| <= 1, got {self.pth}")
        for f in fields(self):  # a numpy scalar would warn where a float overflows silently
            object.__setattr__(self, f.name, float(getattr(self, f.name)))


@dataclass(frozen=True)
class IseSequenceParams:
    """Timing and field parameters of one ISE shot.

    The microwave window opens microwave_delay_us after the laser trigger,
    so the laser pulse (laser_width_us) must fit before it, and the window
    must close before the next shot starts.
    """

    microwave_frequency_ghz: float
    microwave_width_us: float
    laser_width_us: float
    repetition_rate_hz: float
    sweep_span_mt: float
    b1_amplitude_mt: float
    static_field_tesla: float
    microwave_delay_us: float = 2.0

    def __post_init__(self):
        for name in _POSITIVE_FIELDS:
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not self.shot_period_s < math.inf:
            raise ValidationError(
                f"repetition_rate_hz must give a finite shot period, got {self.repetition_rate_hz}"
            )
        # zero span means no sweep (adiabatic limit of the passage), so it is allowed
        if not 0.0 <= self.sweep_span_mt < math.inf:
            raise ValidationError(f"sweep_span_mt must be finite and >= 0, got {self.sweep_span_mt}")
        period_us = 1e6 / self.repetition_rate_hz
        if self.microwave_delay_us + self.microwave_width_us > period_us:
            raise ValidationError(
                "microwave window must fit in one shot period: "
                f"delay {self.microwave_delay_us} us + width {self.microwave_width_us} us "
                f"> period {period_us} us"
            )
        if self.laser_width_us >= self.microwave_delay_us:
            raise ValidationError(
                "laser pulse must end before the microwave window: "
                f"laser width {self.laser_width_us} us >= delay {self.microwave_delay_us} us"
            )

    @property
    def shot_period_s(self) -> float:
        return 1.0 / self.repetition_rate_hz


# every field but sweep_span_mt, which may be 0, must be finite and positive; built at
# import, as calling fields() in __post_init__ would double the cost of each construction
_POSITIVE_FIELDS = tuple(f.name for f in fields(IseSequenceParams) if f.name != "sweep_span_mt")


def final_polarization(params: KineticsParams) -> float:
    """Attainable polarization pe / (1 + td/tr), the t -> infinity limit."""
    return params.pe / (1.0 + params.td_minutes / params.tr_minutes)


def steady_state_with_pth(params: KineticsParams) -> float:
    """Fixed point of the rate equation including the thermal floor.

    final_polarization plus the floor's share pth / (1 + tr/td): the weighted
    mean (pe tr + pth td) / (td + tr), formed without a rate; at pth = 0 it is
    final_polarization + 0.0 bit for bit. A ratio that overflows to inf (a
    subnormal, huge or infinite td or tr) gives its term's limit 0.
    """
    return final_polarization(params) + params.pth / (1.0 + params.tr_minutes / params.td_minutes)


def thermal_polarization(field_tesla: float, temperature_kelvin: float) -> float:
    """Thermal-equilibrium 1H polarization tanh(h nu / 2 kB T) at nu = gamma_H B.

    Takes the field magnitude only (finite, nonnegative); the sign convention
    of the polarization axis is handled by the caller. The ratio is formed on
    the mantissas of B and T and scaled by their powers of two once, so no
    intermediate over- or underflows.
    """
    if not 0.0 <= field_tesla < math.inf:
        raise ValidationError(f"field magnitude must be finite and >= 0, got {field_tesla}")
    if not 0.0 < temperature_kelvin < math.inf:
        raise ValidationError(f"temperature must be finite and positive, got {temperature_kelvin}")
    (b, kb), (t, kt) = math.frexp(field_tesla), math.frexp(temperature_kelvin)
    h_nu = PLANCK_J_S * (GAMMA_H_MHZ_PER_T * 1e6 * b)
    two_kt = 2.0 * BOLTZMANN_J_PER_K * t
    # h_nu / two_kt is about 1e-3; scaled by 2**64 its tanh is 1, as it is for any larger scale
    return math.tanh(math.ldexp(h_nu / two_kt, min(kb - kt, 64)))


def hartmann_hahn_b1(static_field_tesla: float) -> float:
    """Microwave field amplitude B1 (mT) matching the electron Rabi frequency
    to the 1H Larmor frequency at the given static field."""
    b1 = proton_larmor(static_field_tesla) / GAMMA_E_MHZ_PER_T * 1e3
    if b1 == 0.0:
        raise ValidationError(f"static field {static_field_tesla!r} T is too small: its Hartmann-Hahn B1 is 0")
    return b1


def proton_larmor(static_field_tesla: float) -> float:
    """1H Larmor frequency in MHz."""
    if not static_field_tesla > 0.0:
        raise ValidationError(f"static field must be positive, got {static_field_tesla}")
    return GAMMA_H_MHZ_PER_T * static_field_tesla


@dataclass(frozen=True)
class NmrCalibration:
    """Signal comparison against a thermally polarized reference sample.

    spin_count_ratio is (reference 1H count) / (sample 1H count); gain_ratio
    corrects for different receiver gains between the two measurements. The
    reference's thermal polarization is a polarization, so |value| <= 1.
    """

    enhanced_signal: float
    reference_signal: float
    reference_thermal_polarization: float
    spin_count_ratio: float = 1.0
    gain_ratio: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValidationError(f"calibration inputs must be finite, got {self}")
        if self.reference_signal == 0.0:
            raise ValidationError("reference_signal must be nonzero")
        if self.spin_count_ratio <= 0.0 or self.gain_ratio <= 0.0:
            raise ValidationError("spin_count_ratio and gain_ratio must be positive")
        if not abs(self.reference_thermal_polarization) <= 1.0:
            raise ValidationError(
                f"reference_thermal_polarization must lie in [-1, 1], got {self.reference_thermal_polarization}"
            )


def calibrate_polarization(cal: NmrCalibration) -> float:
    """Absolute polarization from the signal ratio against the reference.

    P = (enhanced / reference) * spin_count_ratio * gain_ratio * reference
    thermal polarization. The sign passes through (an emissive line gives a
    negative polarization); a magnitude above 1 is unphysical and is clamped
    with a warning. The product is formed on the inputs' mantissas and scaled
    by their summed power of two once, so no intermediate over- or underflows.
    """
    (e, ke), (r, kr), (t, kt), (s, ks), (g, kg) = map(math.frexp, astuple(cal))
    q = e / r * s * g * t
    try:
        p = math.ldexp(q, ke - kr + ks + kg + kt)
    except OverflowError:  # beyond 1.8e308, which clamps below
        p = math.copysign(math.inf, q)
    if abs(p) > 1.0:
        warnings.warn(
            f"calibrated polarization {p} exceeds unit magnitude; clamping. "
            "Check the signal integrals and correction ratios.",
            stacklevel=2,
        )
        p = math.copysign(1.0, p)
    return p
