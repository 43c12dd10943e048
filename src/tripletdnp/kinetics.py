"""Phenomenological buildup and relaxation kinetics of the 1H polarization.

The polarization P(t) is driven toward the electron polarization pe with a
buildup time constant td and relaxes toward the thermal value pth with a
total relaxation time tr:

    dP/dt = (pe - P) / td - (P - pth) / tr

With pth omitted (it is ~1e-6 under the conditions modeled here) the
solution is a single exponential approach to pe / (1 + td/tr):

    P(t) = pe / (1 + td/tr) * (1 - exp(-t (1/td + 1/tr)))

With pth kept and P(0) = pth the approach is to the fixed point
(pe/td + pth/tr) / (1/td + 1/tr) instead; buildup_closed_form and
buildup_ode both take include_pth to choose between the two.

Times are minutes throughout this module; the CLI boundary accepts seconds
with an explicit unit suffix and converts before calling in.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .constants import BOLTZMANN_J_PER_K, GAMMA_H_MHZ_PER_T, PLANCK_J_S
from .errors import ValidationError

__all__ = [
    "KineticsParams",
    "ValueKind",
    "BuildupCurve",
    "buildup_closed_form",
    "buildup_ode",
    "final_polarization",
    "steady_state_with_pth",
    "relaxation_decay",
    "thermal_polarization",
]

# Total RK4 steps buildup_ode accepts per call: about a second at the 75-90 ns per step
# measured on a 2-CPU Xeon VM with Python 3.11 and numpy 2.4.
MAX_RK4_STEPS = 10_000_000

# h gamma_H / 2 kB, K/T: thermal_polarization's ratio per unit B / T
_HALF_H_GAMMA_OVER_KB = PLANCK_J_S * GAMMA_H_MHZ_PER_T * 1e6 / (2.0 * BOLTZMANN_J_PER_K)


class ArrayValue:
    """Equality and hash for a frozen dataclass, declared with eq=False, that holds arrays.

    Two values are equal when they have the same class, equal scalar fields,
    and array fields of the same dtype, shape and elements (np.array_equal).
    The hash covers the scalar fields and the array bytes, with -0.0 folded
    into 0.0 so that equal values hash alike; the arrays are read-only
    private copies, so a hash cannot go stale.
    """

    __slots__ = ()

    def _values(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a.dtype == b.dtype and np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(tuple((a.dtype.str, a.shape, (a + 0.0).tobytes()) if isinstance(a, np.ndarray) else a
                          for a in self._values()))


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


class ValueKind(enum.Enum):
    """Whether curve values are absolute polarizations or raw NMR signal."""

    POLARIZATION = "polarization"
    RAW_SIGNAL = "raw_signal"


@dataclass(frozen=True, eq=False)
class BuildupCurve(ArrayValue):
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


def buildup_closed_form(params: KineticsParams, t_minutes, include_pth: bool = False):
    """Closed-form buildup P(t) = P_inf (1 - e) + P0 e with e = exp(-t (1/td + 1/tr)).

    With include_pth unset the thermal floor is omitted, as in buildup_ode:
    P0 = 0 and P_inf = final_polarization. With it set the curve starts at
    P0 = pth and approaches steady_state_with_pth. Accepts a scalar or an
    array of times; times must be finite and nonnegative.
    """
    p0, p_inf = (params.pth, steady_state_with_pth(params)) if include_pth else (0.0, final_polarization(params))
    return _approach(p0, p_inf, (params.td_minutes, params.tr_minutes), t_minutes, "buildup")


def buildup_ode(params: KineticsParams, t_grid, include_pth: bool = False) -> BuildupCurve:
    """Integrate the rate equation on a time grid with fixed-step RK4.

    The grid must be strictly increasing and start at 0. The initial value
    is pth when include_pth is set, else 0 with the thermal term dropped.
    Each grid interval is cut into n = ceil(span / h_max) equal steps with
    h_max = min(td, tr)/1000, which keeps the integrator deterministic and
    far below the 1e-9 agreement required against the closed form. A grid
    needing more than MAX_RK4_STEPS steps in total is rejected before any
    step is taken.

    For the linear equation dP/dt = c - kP the four RK4 stages collapse:
    with x = hk, k1 + 2k2 + 2k3 + k4 = k1 (6 - 3x + x^2 - x^3/4), so one
    classical step is exactly P += g (c - kP) with g = h (1 - x/2 + x^2/6
    - x^3/24). g is computed once per interval and the steps are still
    taken one by one, so the result stays an independent check of the
    closed form.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("time grid must not be empty")
    if grid[0] != 0.0:
        raise ValidationError("time grid must start at 0")
    if np.any(grid[1:] <= grid[:-1]):
        raise ValidationError("time grid must be strictly increasing")

    pth = params.pth if include_pth else 0.0
    k = 1.0 / params.td_minutes + 1.0 / params.tr_minutes
    c = params.pe / params.td_minutes + pth / params.tr_minutes
    h_max = min(params.td_minutes, params.tr_minutes) / 1000.0

    spans = np.diff(grid)
    # a subnormal or zero h_max (td or tr below 5e-321) or a huge span gives an inf total, rejected below
    with np.errstate(over="ignore", divide="ignore"):
        steps = np.maximum(1.0, np.ceil(spans / h_max))
        total = float(steps.sum())
    if not total <= MAX_RK4_STEPS:
        raise ValidationError(
            f"time grid needs {total:.3g} RK4 steps of at most min(td, tr)/1000 = {h_max:.3g} min, "
            f"more than the {MAX_RK4_STEPS:,} allowed"
        )

    p = pth
    values = [p]
    for span, n in zip(spans.tolist(), steps.astype(int).tolist()):
        h = span / n
        x = h * k
        g = h * (1.0 - x / 2.0 + x * x / 6.0 - x * x * x / 24.0)
        for _ in range(n):
            p += g * (c - k * p)
        values.append(p)
    return BuildupCurve(grid, np.array(values), ValueKind.POLARIZATION)


def final_polarization(params: KineticsParams) -> float:
    """Attainable polarization pe / (1 + td/tr), the t -> infinity limit."""
    return params.pe / (1.0 + params.td_minutes / params.tr_minutes)


def steady_state_with_pth(params: KineticsParams) -> float:
    """Fixed point of the rate equation including the thermal floor.

    (pe/td + pth/tr) / (1/td + 1/tr); reduces to final_polarization for
    pth = 0. Where a rate 1/td or 1/tr overflows (a subnormal time constant)
    or a sum is subnormal and so has lost precision (huge time constants),
    the same weighted mean is taken with the ratio td/tr.
    """
    num = params.pe / params.td_minutes + params.pth / params.tr_minutes
    den = 1.0 / params.td_minutes + 1.0 / params.tr_minutes
    p = num / den
    if not (abs(num) >= sys.float_info.min and sys.float_info.min <= den < math.inf):
        x = params.td_minutes / params.tr_minutes
        p = (params.pe + params.pth * x) / (1.0 + x) if x <= 1.0 else (params.pe / x + params.pth) / (1.0 / x + 1.0)
    return p


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


def thermal_polarization(field_tesla: float, temperature_kelvin: float) -> float:
    """Thermal-equilibrium 1H polarization tanh(h nu / 2 kB T) at nu = gamma_H B.

    Takes the field magnitude only (finite, nonnegative); the sign convention
    of the polarization axis is handled by the caller.
    """
    if not 0.0 <= field_tesla < math.inf:
        raise ValidationError(f"field magnitude must be finite and >= 0, got {field_tesla}")
    if not 0.0 < temperature_kelvin < math.inf:
        raise ValidationError(f"temperature must be finite and positive, got {temperature_kelvin}")
    h_nu = PLANCK_J_S * (GAMMA_H_MHZ_PER_T * 1e6 * field_tesla)
    two_kt = 2.0 * BOLTZMANN_J_PER_K * temperature_kelvin
    # below about 8e-283 T or 8e-286 K, h nu or 2 kB T is subnormal or 0: divide B by T first
    if min(h_nu, two_kt) < sys.float_info.min:
        return math.tanh(field_tesla / temperature_kelvin * _HALF_H_GAMMA_OVER_KB)
    return math.tanh(h_nu / two_kt)
