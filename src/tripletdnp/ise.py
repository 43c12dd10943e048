"""Integrated-solid-effect shot model.

One shot is a laser pulse followed by a microwave window during which the
static field is swept; the electron Rabi frequency is matched to the 1H
Larmor frequency (Hartmann-Hahn condition) so polarization transfers during
the passage. The per-shot transfer toward the electron polarization is a
small fraction epsilon; repeating shots at the sequence repetition rate
produces the macroscopic buildup rate 1/td = epsilon / shot_period. The shot
map takes the buildup and relaxation times of `KineticsParams` and derives
epsilon from td with `epsilon_for_buildup_time`, the one conversion between
the two. The Larmor frequency and B1 of a field are scalars in `params`.

The sweep passage is modeled with the Landau-Zener adiabatic-transition
formula for a linear sweep. That is a model choice, not a first-principles
result; the test suite checks it against direct numerical integration of
the two-level Schrodinger equation across the sweep.
"""

from __future__ import annotations

import math

from .constants import GAMMA_E_MHZ_PER_T, SECONDS_PER_MINUTE
from .params import IseSequenceParams, KineticsParams, ValidationError


def sweep_transfer_probability(params: IseSequenceParams) -> float:
    """Adiabatic transfer probability of one swept-field passage.

    Landau-Zener for a linear sweep: p = -expm1(-pi w1^2 / (2 |dDelta/dt|)),
    1 - exp free of cancellation, with w1 = gamma_e * b1 and dDelta/dt =
    gamma_e * sweep_span / width, both angular. A zero sweep span is the
    adiabatic limit and returns 1, not an error. The exponent is formed on the
    mantissas of b1, span and width and scaled by their powers of two once, so
    no intermediate over- or underflows.
    """
    if params.sweep_span_mt == 0.0:
        return 1.0
    (b1, k1), (span, ks), (width, kw) = map(
        math.frexp, (params.b1_amplitude_mt, params.sweep_span_mt, params.microwave_width_us)
    )
    gamma_ang = 2.0 * math.pi * GAMMA_E_MHZ_PER_T * 1e6  # rad/s/T
    omega1 = gamma_ang * b1 * 1e-3
    sweep_rate = gamma_ang * span * 1e-3 / (width * 1e-6)
    exponent = -math.pi * omega1 * omega1 / (2.0 * sweep_rate)  # between -560 and -30
    # scaled by 2**64, or by any larger power of two, its exp is 0 and p is 1
    return -math.expm1(math.ldexp(exponent, min(2 * k1 - ks + kw, 64)))


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


def iterate_shots(params: KineticsParams, shot_period_s: float, p0: float, n_shots: float) -> float:
    """Polarization after n_shots shots of the given period from p0, in closed form.

    n_shots is a whole number of shots, or inf for the fixed point. One shot
    gains epsilon (pe - p), with epsilon = epsilon_for_buildup_time(td,
    shot_period_s), and relaxes (dt/tr)(p - pth), so it is the affine map
    p -> (1 - s) p + s f with s = epsilon + dt/tr and the fixed point
    f = (epsilon pe + (dt/tr) pth) / s, a convex combination of pe and pth.
    s > 1 makes every shot overshoot f and is rejected, even for n_shots = 0.
    For 0 < s <= 1 the n-fold composition is e^x p0 - expm1(x) f with
    x = n log1p(-s), taken from s itself so that rounding 1 - s costs
    nothing however large n is. s = 1 (one shot lands on f) and
    n_shots = inf both give x = -inf, hence f. The result is clamped to
    [-1, 1] against rounding.
    """
    if not n_shots >= 0:
        raise ValidationError(f"n_shots must be >= 0, got {n_shots}")
    if not abs(p0) <= 1.0:
        raise ValidationError(f"|polarization| <= 1 required, got {p0}")
    epsilon = epsilon_for_buildup_time(params.td_minutes, shot_period_s)
    delta = shot_period_s / (SECONDS_PER_MINUTE * params.tr_minutes)
    if not delta < math.inf:  # the overshoot check below would reject it too, without naming tr
        raise ValidationError(f"shot period / tr overflows: tr_minutes {params.tr_minutes} is too small")
    s = epsilon + delta
    if s > 1.0:
        raise ValidationError(
            f"td {params.td_minutes:g} min and tr {params.tr_minutes:g} min at {1.0 / shot_period_s:g} Hz: "
            f"per-shot gain plus relaxation epsilon + dt/tr = {s:.3g} exceeds 1, "
            "so every shot overshoots its fixed point"
        )
    if n_shots == 0 or s == 0.0:
        return p0
    fixed_point = (epsilon * params.pe + delta * params.pth) / s
    x = n_shots * math.log1p(-s) if s < 1.0 else -math.inf  # math.log1p(-1.0) raises ValueError
    return min(1.0, max(-1.0, math.exp(x) * p0 - math.expm1(x) * fixed_point))
