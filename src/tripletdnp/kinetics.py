"""Phenomenological buildup and relaxation kinetics of the 1H polarization.

The polarization P(t) is driven toward the electron polarization pe with a
buildup time constant td and relaxes toward the thermal value pth with a
total relaxation time tr:

    dP/dt = (pe - P) / td - (P - pth) / tr

From P(0) = pth the solution is a single exponential approach to the
fixed point P_inf = pe / (1 + td/tr) + pth / (1 + tr/td):

    P(t) = P_inf (1 - exp(-t (1/td + 1/tr))) + pth exp(-t (1/td + 1/tr))

The floor is the params' pth; pth = 0 (it is ~1e-6 under the conditions
modeled here) leaves P_inf = pe / (1 + td/tr). The fixed points, the
thermal polarization and the curves' by-value equality (ByValue) live in
the numpy-free params; this module holds the curves.

Times are minutes throughout this module; only a curve file with a time_s
header gives seconds, and read_curve converts those to minutes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .params import ByValue, KineticsParams, ValidationError, final_polarization, steady_state_with_pth


class ValueKind(enum.Enum):
    """Whether curve values are absolute polarizations or raw NMR signal."""

    POLARIZATION = "polarization"
    RAW_SIGNAL = "raw_signal"


@dataclass(frozen=True, eq=False)
class BuildupCurve(ByValue):
    """Time-ordered (time, value) samples, simulated or measured."""

    times_min: np.ndarray
    values: np.ndarray
    value_kind: ValueKind = ValueKind.POLARIZATION

    def __post_init__(self):
        t = np.array(self.times_min, dtype=float)
        v = np.array(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValidationError("times and values must be 1-d arrays of equal length")
        if t.size == 0:
            raise ValidationError("curve must contain at least one sample")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValidationError("times and values must be finite")
        if t[0] < 0.0:
            raise ValidationError("times must be nonnegative")
        if np.any(t[1:] <= t[:-1]):  # np.diff would overflow on +-1e308
            raise ValidationError("times must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times_min", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.times_min.size)


def _approach(p0: float, p_inf: float, t_consts: tuple, t_minutes, what: str):
    """Solution p_inf (1 - e) + p0 e of dP/dt = k (p_inf - P), P(0) = p0, k = sum of 1/t_consts.

    e = exp(-t k). Times must be finite and nonnegative; a scalar time gives
    a float, an array of times an array. A t k past 1.8e308 gives e = 0
    without a RuntimeWarning. Where k overflows (a subnormal time constant),
    t = 0 would give a NaN, so e = exp(-sum of t / t_consts) instead, which
    is 1 at t = 0. what names the time in the error.
    """
    t = np.asarray(t_minutes, dtype=float)
    if not np.all((t >= 0.0) & (t < math.inf)):
        raise ValidationError(f"{what} time must be finite and nonnegative")
    with np.errstate(over="ignore"):  # 1 / c of a numpy scalar would warn
        rate = sum(1.0 / c for c in t_consts)
        e = np.exp(-t * rate) if rate < math.inf else np.exp(-sum(t / c for c in t_consts))
    out = p_inf * (1.0 - e) + p0 * e
    return float(out) if t.ndim == 0 else out


def buildup_closed_form(params: KineticsParams, t_minutes):
    """Closed-form buildup P(t) = P_inf (1 - e) + pth e with e = exp(-t (1/td + 1/tr)).

    P_inf = steady_state_with_pth (final_polarization + 0.0 at pth = 0).
    Times, a scalar or an array, must be finite and nonnegative.
    """
    t_consts = (params.td_minutes, params.tr_minutes)
    return _approach(params.pth, steady_state_with_pth(params), t_consts, t_minutes, "buildup")


def buildup_ode(params: KineticsParams, t_grid, include_pth: bool = True) -> BuildupCurve:
    """Integrate the rate equation on a time grid with fixed-step RK4.

    The grid must be strictly increasing and start at 0. The curve starts at
    pth, as buildup_closed_form does; include_pth=False drops the thermal
    term, as pth = 0 does. Each grid interval is cut into n = ceil(span /
    h_max) equal steps with h_max = min(td, tr)/1000, which keeps the
    integrator deterministic and far below the 1e-9 agreement required
    against the closed form. A grid whose step count is not finite (a span
    of more than 1.8e308 h_max, or h_max = 0) is rejected.

    For the linear equation dP/dt = c - kP the four RK4 stages collapse:
    with x = hk, k1 + 2k2 + 2k3 + k4 = k1 (6 - 3x + x^2 - x^3/4), so one
    classical step is exactly P -> P + g (c - kP) = P* + (1 - gk)(P - P*)
    with g = h (1 - x/2 + x^2/6 - x^3/24) and, whatever h, the steady state
    P* = c/k (steady_state_with_pth, or final_polarization without the
    floor). The n steps of an interval scale P - P* by (1 - gk)^n, taken as
    exp(n log1p(-gk)) lest the rounding of 1 - gk be raised to the n-th
    power, and the curve is P* + (P0 - P*) times the running product of the
    interval factors: an independent check of the closed form's exp(-k t).
    x is h/td + h/tr, as k overflows for a subnormal td or tr.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("time grid must not be empty")
    if grid[0] != 0.0:
        raise ValidationError("time grid must start at 0")
    if np.any(grid[1:] <= grid[:-1]):
        raise ValidationError("time grid must be strictly increasing")

    p0, p_inf = (params.pth, steady_state_with_pth(params)) if include_pth else (0.0, final_polarization(params))
    h_max = min(params.td_minutes, params.tr_minutes) / 1000.0
    spans = np.diff(grid)
    with np.errstate(over="ignore", divide="ignore"):  # h_max is 0 for td or tr below 5e-321
        steps = np.maximum(1.0, np.ceil(spans / h_max))
    if not np.all(steps < math.inf):
        raise ValidationError(f"time grid needs inf RK4 steps of at most min(td, tr)/1000 = {h_max:.3g} min")
    h = spans / steps
    x = h / params.td_minutes + h / params.tr_minutes
    gk = x * (1.0 - x / 2.0 + x * x / 6.0 - x * x * x / 24.0)
    decay = np.cumprod(np.exp(steps * np.log1p(-gk)))
    return BuildupCurve(grid, np.concatenate(([p0], p_inf + (p0 - p_inf) * decay)))


def relaxation_decay(p0: float, t_const_minutes: float, t_minutes, pth: float = 0.0):
    """Exponential relaxation P(t) = pth + (p0 - pth) exp(-t / t_const).

    p0 and pth must be finite, times finite and nonnegative; t_const may be
    +inf (no relaxation).
    """
    if not t_const_minutes > 0.0:
        raise ValidationError(f"time constant must be positive (finite or +inf), got {t_const_minutes}")
    if not (math.isfinite(p0) and math.isfinite(pth)):
        raise ValidationError(f"p0 and pth must be finite, got p0={p0}, pth={pth}")
    return _approach(p0, pth, (t_const_minutes,), t_minutes, "decay")
