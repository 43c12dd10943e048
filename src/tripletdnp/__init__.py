"""Triplet-DNP toolkit: spin model, ISE shot model, buildup kinetics, fitting.

Simulates the polarization transfer from photoexcited triplet electrons to
1H spins (integrated solid effect), models the macroscopic buildup and
relaxation kinetics, and fits measured curves to extract the buildup and
relaxation time constants and the attainable polarization.
"""

from . import analysis, config, curveio, errors, ise, kinetics, tripletspin
from .analysis import *
from .config import *
from .curveio import *
from .errors import *
from .ise import *
from .kinetics import *
from .tripletspin import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (analysis, config, curveio, errors, ise, kinetics, tripletspin)
    for name in module.__all__
)
