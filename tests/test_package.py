import importlib
import pkgutil
import re
from pathlib import Path

import tripletdnp
from tripletdnp import analysis, config, curveio, errors, ise, kinetics, tripletspin

MODULES = (analysis, config, curveio, errors, ise, kinetics, tripletspin)


def test_package_exports_union_of_module_exports():
    assert len(tripletdnp.__all__) == len(set(tripletdnp.__all__)) == 46
    assert set(tripletdnp.__all__) == {name for m in MODULES for name in m.__all__}
    for m in MODULES:
        for name in m.__all__:
            assert getattr(tripletdnp, name) is getattr(m, name)
    assert tripletdnp.__version__ == "0.1.0"


def test_readme_names_resolve():
    """Every `layer.NAME` or `tripletdnp.NAME` the README quotes exists, so a
    renamed or deleted constant fails here instead of going stale in the docs."""
    layers = {m.name for m in pkgutil.iter_modules(tripletdnp.__path__)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quoted = re.findall(r"`(\w+)\.(\w+)`", readme)
    names = [(module, name) for module, name in quoted if module in layers or module == "tripletdnp"]
    assert ("cli", "MAX_POINTS") in names
    for module, name in names:
        package = importlib.import_module("tripletdnp" if module == "tripletdnp" else f"tripletdnp.{module}")
        assert hasattr(package, name), f"README.md names `{module}.{name}`, which does not exist"
