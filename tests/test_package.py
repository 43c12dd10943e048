import importlib
import pkgutil
import re

import tripletdnp
from test_readme import README

# every module of the package that exports names: all but the CLI and the constants
LAYERS = sorted({m.name for m in pkgutil.iter_modules(tripletdnp.__path__)} - {"cli", "constants"})


def test_every_layer_is_listed_for_lazy_export():
    assert sorted(tripletdnp._EXPORTS) == LAYERS


def test_package_exports_union_of_module_exports():
    """Each name is filed once, under the layer that defines it, so a name a
    layer only imports (kinetics' KineticsParams) cannot be filed there."""
    names = [name for exported in tripletdnp._EXPORTS.values() for name in exported]
    assert len(names) == len(set(names)) == 44
    assert tripletdnp.__all__ == sorted(names)
    for layer, exported in tripletdnp._EXPORTS.items():
        module = importlib.import_module(f"tripletdnp.{layer}")
        for name in exported:
            value = getattr(module, name)
            assert getattr(tripletdnp, name) is value
            assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert tripletdnp.__version__ == "0.1.0"


def test_readme_names_resolve():
    """Every `layer.NAME` or `tripletdnp.NAME` the README quotes exists, so a
    renamed or deleted constant fails here instead of going stale in the docs."""
    layers = {m.name for m in pkgutil.iter_modules(tripletdnp.__path__)}
    quoted = re.findall(r"`(\w+)\.(\w+)`", README)
    names = [(module, name) for module, name in quoted if module in layers or module == "tripletdnp"]
    assert ("cli", "MAX_POINTS") in names
    for module, name in names:
        package = importlib.import_module("tripletdnp" if module == "tripletdnp" else f"tripletdnp.{module}")
        assert hasattr(package, name), f"README.md names `{module}.{name}`, which does not exist"
