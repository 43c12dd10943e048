"""Triplet-DNP toolkit: spin model, ISE shot model, buildup kinetics, fitting.

Simulates the polarization transfer from photoexcited triplet electrons to
1H spins (integrated solid effect), models the macroscopic buildup and
relaxation kinetics, and fits measured curves to extract the buildup and
relaxation time constants and the attainable polarization.

`import tripletdnp` loads no layer and no numpy; the exports resolve on
first use (PEP 562). A layer name imports that module. Any other name
imports the layers in dependency order until one lists it in its `__all__`,
and is then cached here, so `tripletdnp.BuildupCurve` loads only `errors`,
`constants` and `kinetics`. Each name is declared once, in its own
module's `__all__`; `__all__` here is their sorted union.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_LAYERS = ("errors", "kinetics", "tripletspin", "ise", "curveio", "analysis", "config")


def __getattr__(name: str):
    if name in _LAYERS:
        return _import_module(f"{__name__}.{name}")  # the import also binds it here
    if name == "__all__":
        value = sorted(n for layer in _LAYERS for n in _import_module(f"{__name__}.{layer}").__all__)
    else:
        for layer in _LAYERS:
            module = _import_module(f"{__name__}.{layer}")
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__"), *_LAYERS})
