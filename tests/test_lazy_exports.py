import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tripletdnp

SRC = str(Path(tripletdnp.__file__).resolve().parents[1])


def loaded_after(code: str) -> dict:
    """Run code after `import tripletdnp` in a fresh interpreter; report the
    tripletdnp submodules it loaded, whether numpy came in, and `probe`."""
    script = (
        "import json, sys\nimport tripletdnp\nprobe = None\n" + code + "\n"
        "print(json.dumps({'layers': sorted(m for m in sys.modules if m.startswith('tripletdnp.')),"
        " 'numpy': 'numpy' in sys.modules, 'probe': probe}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_layer_and_no_numpy():
    assert loaded_after("") == {"layers": [], "numpy": False, "probe": None}


def test_version_is_eager():
    assert loaded_after("probe = tripletdnp.__version__")["layers"] == []


def test_a_name_loads_only_the_layers_it_needs():
    loaded = loaded_after("tripletdnp.BuildupCurve")
    assert loaded["layers"] == ["tripletdnp.constants", "tripletdnp.errors", "tripletdnp.kinetics"]


def test_a_layer_name_loads_that_layer():
    loaded = loaded_after("probe = tripletdnp.errors.__name__")
    assert loaded == {"layers": ["tripletdnp.errors"], "numpy": False, "probe": "tripletdnp.errors"}


def test_ise_imports_no_numpy():
    """The shot model stays numpy-free, so it does not share kinetics' approach step."""
    loaded = loaded_after("import tripletdnp.ise")
    assert loaded == {"layers": ["tripletdnp.constants", "tripletdnp.errors", "tripletdnp.ise"],
                      "numpy": False, "probe": None}


def test_star_import_gives_every_export():
    loaded = loaded_after("ns = {}\nexec('from tripletdnp import *', ns)\n"
                          "probe = sorted(set(ns) - {'__builtins__'})")
    assert loaded["probe"] == tripletdnp.__all__
    assert len(loaded["probe"]) == 46


def test_resolved_name_is_cached_in_the_package():
    name = "calibrate_polarization"
    assert getattr(tripletdnp, name) is vars(tripletdnp)[name]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'tripletdnp' has no attribute 'no_such_name'"):
        tripletdnp.no_such_name
    assert not hasattr(tripletdnp, "cli_main")


def test_dir_lists_every_export_and_layer():
    assert set(tripletdnp.__all__) | {"analysis", "config", "errors", "__version__"} <= set(dir(tripletdnp))
