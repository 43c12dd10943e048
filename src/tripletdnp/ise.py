"""Integrated-solid-effect shot model.

One shot is a laser pulse followed by a microwave window during which the
static field is swept; the electron Rabi frequency is matched to the 1H
Larmor frequency (Hartmann-Hahn condition) so polarization transfers during
the passage. The per-shot transfer toward the electron polarization is a
small fraction epsilon; repeating shots at the sequence repetition rate
produces the macroscopic buildup rate 1/td = epsilon / shot_period.

The sweep passage is modeled with the Landau-Zener adiabatic-transition
formula for a linear sweep. That is a model choice, not a first-principles
result; the test suite checks it against direct numerical integration of
the two-level Schrodinger equation across the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import GAMMA_E_MHZ_PER_T, GAMMA_H_MHZ_PER_T, SECONDS_PER_MINUTE
from .errors import ValidationError

__all__ = [
    "IseSequenceParams",
    "ShotModel",
    "hartmann_hahn_b1",
    "proton_larmor",
    "sweep_transfer_probability",
    "effective_buildup_time",
    "epsilon_for_buildup_time",
    "iterate_shots",
]


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
        for name in (
            "microwave_frequency_ghz",
            "microwave_width_us",
            "laser_width_us",
            "repetition_rate_hz",
            "b1_amplitude_mt",
            "static_field_tesla",
            "microwave_delay_us",
        ):
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


@dataclass(frozen=True)
class ShotModel:
    """Per-shot fractional transfer toward pe and the shot period."""

    epsilon: float
    shot_period_s: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if not 0.0 < self.shot_period_s < math.inf:
            raise ValidationError(f"shot_period_s must be finite and positive, got {self.shot_period_s}")


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


def sweep_transfer_probability(params: IseSequenceParams) -> float:
    """Adiabatic transfer probability of one swept-field passage.

    Landau-Zener for a linear sweep: p = 1 - exp(-pi w1^2 / (2 |dDelta/dt|))
    with w1 = gamma_e * b1 and dDelta/dt = gamma_e * sweep_span / width, both
    angular. A zero sweep rate is the adiabatic limit and returns 1 (with
    drive present), not an error.
    """
    gamma_ang = 2.0 * math.pi * GAMMA_E_MHZ_PER_T * 1e6  # rad/s/T
    omega1 = gamma_ang * params.b1_amplitude_mt * 1e-3
    sweep_rate = gamma_ang * params.sweep_span_mt * 1e-3 / (params.microwave_width_us * 1e-6)
    if sweep_rate == 0.0:
        return 1.0 if omega1 > 0.0 else 0.0
    p = 1.0 - math.exp(-math.pi * omega1**2 / (2.0 * abs(sweep_rate)))
    return min(1.0, max(0.0, p))


def effective_buildup_time(shot: ShotModel) -> float:
    """Buildup time constant in minutes implied by the shot model: td = period / epsilon.

    epsilon = 0 never builds up; that returns inf instead of raising.
    """
    if shot.epsilon == 0.0:
        return math.inf
    return shot.shot_period_s / shot.epsilon / SECONDS_PER_MINUTE


def epsilon_for_buildup_time(td_minutes: float, shot_period_s: float) -> float:
    """Per-shot transfer fraction that reproduces a measured buildup time."""
    if not td_minutes > 0.0:
        raise ValidationError(f"td_minutes must be positive, got {td_minutes}")
    if not shot_period_s > 0.0:
        raise ValidationError(f"shot_period_s must be positive, got {shot_period_s}")
    eps = shot_period_s / (SECONDS_PER_MINUTE * td_minutes)
    if eps > 1.0:
        raise ValidationError(
            f"buildup time {td_minutes} min is shorter than one shot period; no epsilon <= 1 exists"
        )
    return eps


def iterate_shots(
    p0: float, shot: ShotModel, pe: float, tr_minutes: float, pth: float, n_shots: int
) -> float:
    """Polarization after n_shots shots from p0, in closed form.

    One shot gains epsilon (pe - p) and relaxes (dt/tr)(p - pth), so it is
    the affine map p -> a p + b with a = 1 - s, s = epsilon + dt/tr. s > 1
    makes every shot overshoot its fixed point and is rejected, even for
    n_shots = 0. For 0 < s <= 1, a lies in [0, 1) and the fixed point b/s, a
    convex combination of pe and pth, lies in [-1, 1] after rounding too, so
    the n-fold composition is exactly a^n p0 + (1 - a^n) b/s and stays in
    [-1, 1]. When s is too small for a to differ from 1, a^n and 1 - a^n
    come from n log1p(-s) instead.
    """
    if n_shots < 0:
        raise ValidationError(f"n_shots must be >= 0, got {n_shots}")
    if not abs(p0) <= 1.0:
        raise ValidationError(f"|polarization| <= 1 required, got {p0}")
    if not (abs(pe) <= 1.0 and abs(pth) <= 1.0):
        raise ValidationError(f"|pe| and |pth| must be finite and not exceed 1, got {pe}, {pth}")
    if not tr_minutes > 0.0:
        raise ValidationError(f"tr_minutes must be positive, got {tr_minutes}")
    delta = shot.shot_period_s / (SECONDS_PER_MINUTE * tr_minutes)
    if not delta < math.inf:  # the overshoot check below would reject it too, without naming tr
        raise ValidationError(f"shot period / tr overflows: tr_minutes {tr_minutes} is too small")
    s = shot.epsilon + delta
    if s > 1.0:
        raise ValidationError(
            f"per-shot gain plus relaxation epsilon + dt/tr = {s:.3g} exceeds 1, "
            "so every shot overshoots its fixed point"
        )
    if n_shots == 0 or s == 0.0:
        return p0
    a = 1.0 - s
    fixed_point = (shot.epsilon * pe + delta * pth) / s
    if a < 1.0:
        an = a**n_shots
        return an * p0 + (1.0 - an) * fixed_point
    # a rounded to 1.0, so a**n would too: a^n = exp(n log1p(-s)), clamped to [-1, 1] against rounding
    x = n_shots * math.log1p(-s)
    return min(1.0, max(-1.0, math.exp(x) * p0 - math.expm1(x) * fixed_point))
