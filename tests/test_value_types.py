"""Construction properties of the public value types.

Each type gets one hypothesis strategy that draws its fields from the finite
and non-finite extremes the CLI properties use (tests/extremes.py), mixed
with ordinary floats. Construction either raises ValidationError or gives
an object whose fields are finite where finiteness is required and inside
the bounds its docstring and README state. The types that hold arrays
also compare and hash by value.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tripletdnp import (
    BuildupCurve,
    IseSequenceParams,
    KineticsParams,
    MagneticFieldSetting,
    ShotModel,
    TripletParameters,
    ValidationError,
    ValueKind,
    build_hamiltonian,
    eigensystem,
    final_polarization,
    steady_state_with_pth,
)

from extremes import FLOAT_EXTREMES

VALUES = st.sampled_from(FLOAT_EXTREMES) | st.floats()
# the positive finite extremes, so that more draws pass the positivity checks
POSITIVE = st.sampled_from([v for v in FLOAT_EXTREMES if 0.0 < v < math.inf]) | st.floats(0.0, 1e7)

KINETICS = st.builds(KineticsParams, pe=VALUES, td_minutes=VALUES | POSITIVE, tr_minutes=VALUES | POSITIVE,
                     pth=VALUES)
SEQUENCE_FIELDS = [field.name for field in dataclasses.fields(IseSequenceParams)]
# half the draws take positive fields, end the laser pulse before the microwave window
# opens and favour rates of 1 Hz to 10 kHz, so that more of them pass the timing checks
SEQUENCES = st.builds(IseSequenceParams, **dict.fromkeys(SEQUENCE_FIELDS, POSITIVE | VALUES)) | st.lists(
    POSITIVE, min_size=2, max_size=2).map(sorted).flatmap(lambda pulse: st.builds(IseSequenceParams, **{
        **dict.fromkeys(SEQUENCE_FIELDS, POSITIVE), "repetition_rate_hz": st.floats(1.0, 1e4) | POSITIVE,
        "laser_width_us": st.just(pulse[0]), "microwave_delay_us": st.just(pulse[1])}))
SHOTS = st.builds(ShotModel, epsilon=VALUES | st.floats(0.0, 1.0), shot_period_s=POSITIVE | VALUES)
# three extremes, or three fractions that sum to 1 up to rounding
POPULATIONS = st.tuples(VALUES, VALUES, VALUES) | st.floats(0.0, 1.0).flatmap(
    lambda a: st.floats(0.0, 1.0 - a).map(lambda b: (a, b, 1.0 - a - b)))
TRIPLETS = st.builds(TripletParameters, d_mhz=VALUES, e_mhz=VALUES, zf_populations=POPULATIONS)
ANGLES = VALUES | st.sampled_from([math.pi, math.nextafter(math.pi, 4.0), 2.0 * math.pi]) | st.floats(0.0, 7.0)
FIELDS = st.builds(MagneticFieldSetting, magnitude_tesla=VALUES | POSITIVE, theta_rad=ANGLES, phi_rad=ANGLES)
CURVES = st.integers(1, 6).flatmap(lambda n: st.builds(
    BuildupCurve,
    times_min=st.lists(VALUES, min_size=n, max_size=n)
    | st.lists(POSITIVE | st.just(0.0), min_size=n, max_size=n, unique=True).map(sorted),
    values=st.lists(VALUES, min_size=n, max_size=n) | st.lists(VALUES, max_size=3),
    value_kind=st.sampled_from(ValueKind),
))


@st.composite
def constructed(draw, strategy):
    """A draw of strategy, or None where construction raised ValidationError."""
    try:
        return draw(strategy)
    except ValidationError:
        return None


PROPERTY = settings(max_examples=500, deadline=None, derandomize=True)


@PROPERTY
@given(constructed(KINETICS))
@example(KineticsParams(0.826, 20.2, 57.1))
@example(KineticsParams(-1.0, 5e-324, math.inf, pth=1.0))
def test_kinetics_params(params):
    if params is None:
        return
    assert abs(params.pe) <= 1.0 and abs(params.pth) <= 1.0
    assert params.td_minutes > 0.0 and params.tr_minutes > 0.0
    assert math.inf not in (params.td_minutes, params.tr_minutes) or params.td_minutes != params.tr_minutes
    # the steady states are weighted means of pe and pth, up to rounding and underflow
    assert abs(final_polarization(params)) <= abs(params.pe)
    steady = steady_state_with_pth(params)
    slack = 1e-15 * max(abs(params.pe), abs(params.pth)) + 1e-300
    assert abs(steady) <= 1.0
    assert min(params.pe, params.pth) - slack <= steady <= max(params.pe, params.pth) + slack


@PROPERTY
@given(constructed(SEQUENCES))
@example(IseSequenceParams(17.2, 20.0, 1.0, 1000.0, 3.0, 1.0, 0.64))
def test_ise_sequence_params(seq):
    if seq is None:
        return
    positive = [seq.microwave_frequency_ghz, seq.microwave_width_us, seq.laser_width_us, seq.repetition_rate_hz,
                seq.b1_amplitude_mt, seq.static_field_tesla, seq.microwave_delay_us]
    assert all(0.0 < v < math.inf for v in positive)
    assert 0.0 <= seq.sweep_span_mt < math.inf
    assert 0.0 < seq.shot_period_s < math.inf
    assert seq.laser_width_us < seq.microwave_delay_us
    assert seq.microwave_delay_us + seq.microwave_width_us <= 1e6 * seq.shot_period_s * (1.0 + 1e-15)


@PROPERTY
@given(constructed(SHOTS))
def test_shot_model(shot):
    if shot is None:
        return
    assert 0.0 <= shot.epsilon <= 1.0
    assert 0.0 < shot.shot_period_s < math.inf


@PROPERTY
@given(constructed(TRIPLETS))
@example(TripletParameters(1395.0, -50.0, (0.76, 0.16, 0.08)))
def test_triplet_parameters(triplet):
    if triplet is None:
        return
    p = triplet.zf_populations
    assert len(p) == 3 and all(0.0 <= v < math.inf for v in p)
    assert abs(sum(p) - 1.0) <= 1e-12
    assert math.isfinite(triplet.d_mhz) and math.isfinite(triplet.e_mhz)
    assert abs(triplet.e_mhz) <= abs(triplet.d_mhz) / 3.0 * (1.0 + 1e-11)


@PROPERTY
@given(constructed(FIELDS))
@example(MagneticFieldSetting(0.64, math.pi, math.nextafter(2.0 * math.pi, 0.0)))
def test_magnetic_field_setting(field):
    if field is None:
        return
    assert 0.0 <= field.magnitude_tesla < math.inf
    assert 0.0 <= field.theta_rad <= math.pi and 0.0 <= field.phi_rad < 2.0 * math.pi
    axis = field.direction()
    assert type(axis) is tuple and len(axis) == 3
    assert all(type(v) is float and math.isfinite(v) for v in axis)
    x, y, z = axis
    assert abs(x * x + y * y + z * z - 1.0) <= 1e-15


@PROPERTY
@given(constructed(CURVES))
@example(BuildupCurve([0.0, 1.0], [0.0, 0.5]))
def test_buildup_curve(curve):
    if curve is None:
        return
    t, v = curve.times_min, curve.values
    assert t.ndim == 1 and t.shape == v.shape and len(curve) >= 1
    assert t.dtype == v.dtype == np.float64
    assert np.isfinite(t).all() and np.isfinite(v).all()
    assert t[0] >= 0.0 and (np.diff(t) > 0.0).all()
    assert not t.flags.writeable and not v.flags.writeable
    assert isinstance(curve.value_kind, ValueKind)


def _array_values():
    """(value, array field, index, step) for each value type that holds arrays:
    the step changes one element and keeps the value valid."""
    h = build_hamiltonian(TripletParameters(1395.0, -50.0, (0.76, 0.16, 0.08)), MagneticFieldSetting(0.64, 0.3, 1.2))
    eig = eigensystem(h)
    curve = BuildupCurve([0.0, 1.0, 2.0], [0.0, 0.3, 0.5], ValueKind.RAW_SIGNAL)
    return [(h, "matrix", (0, 0), 1e-10), (eig, "eigenvalues", 1, 1e-11), (eig, "eigenvectors", (0, 0), 1e-12),
            (curve, "values", -1, 1.0)]


@pytest.mark.parametrize("value, name, index, step", _array_values(),
                         ids=lambda x: type(x).__name__ if dataclasses.is_dataclass(x) else None)
def test_array_value_types_compare_and_hash(value, name, index, step):
    copies = [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)), dataclasses.replace(value)]
    for other in copies:
        assert other == value and not other != value
        assert hash(other) == hash(value)
    assert len({value, *copies}) == 1
    array = getattr(value, name).copy()
    array[index] += step
    changed = dataclasses.replace(value, **{name: array})
    assert changed != value and not changed == value
    assert value != object()


def test_equal_curves_hash_alike():
    """-0.0 == 0.0, so curves that differ only in the sign of a zero are equal and hash alike."""
    a = BuildupCurve([0.0, 1.0], [-0.0, 0.5])
    b = BuildupCurve(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    assert a == b and hash(a) == hash(b)
    assert a != BuildupCurve([0.0, 1.0], [0.0, 0.5], ValueKind.RAW_SIGNAL)
