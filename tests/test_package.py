import tripletdnp
from tripletdnp import analysis, config, curveio, errors, ise, kinetics, tripletspin

MODULES = (analysis, config, curveio, errors, ise, kinetics, tripletspin)


def test_package_exports_union_of_module_exports():
    assert len(tripletdnp.__all__) == len(set(tripletdnp.__all__)) == 48
    assert set(tripletdnp.__all__) == {name for m in MODULES for name in m.__all__}
    for m in MODULES:
        for name in m.__all__:
            assert getattr(tripletdnp, name) is getattr(m, name)
    assert tripletdnp.__version__ == "0.1.0"
