"""Inputs several test modules share: the reference kinetics, the reference
config file's text (the `cfg` fixture of `conftest.py` writes it) and a
seeded draw of spin inputs."""

import math

from tripletdnp import KineticsParams, MagneticFieldSetting, TripletParameters

REFERENCE = KineticsParams(pe=0.826, td_minutes=20.2, tr_minutes=57.1)

REFERENCE_CFG = """
[field]
field_tesla = 0.64

[sequence]
repetition_rate_hz = 1000.0

[kinetics]
pe = 0.826
td_minutes = 20.2
tr_minutes = 57.1
"""


def random_inputs(rng):
    d = rng.uniform(100.0, 3000.0) * rng.choice([-1.0, 1.0])
    e = rng.uniform(-1.0, 1.0) * abs(d) / 3.0
    pops = rng.dirichlet([1.0, 1.0, 1.0])
    params = TripletParameters(d, e, tuple(pops / pops.sum()))
    field = MagneticFieldSetting(
        rng.uniform(0.0, 2.0), rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi - 1e-9)
    )
    return params, field
