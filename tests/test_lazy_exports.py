import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tripletdnp
from tripletdnp.cli import main
from test_readme import COMMANDS, write_inputs

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


# one export per layer -> the layers it loads (its own and what that imports), and whether numpy comes in
LOADS = {
    "TripletDnpError": ("constants params", False),
    "KineticsParams": ("constants params", False),
    "thermal_polarization": ("constants params", False),
    "calibrate_polarization": ("constants params", False),
    "BuildupCurve": ("constants kinetics params", True),
    "read_curve": ("constants curveio kinetics params", True),
    "fit_buildup": ("analysis constants kinetics params", True),
    "hartmann_hahn_b1": ("constants params", False),
    "proton_larmor": ("constants params", False),
    "build_hamiltonian": ("constants params tripletspin", True),
    "default_config": ("config constants params", False),
}


@pytest.mark.parametrize("name", LOADS)
def test_a_name_loads_only_the_layers_it_needs(name):
    layers, numpy = LOADS[name]
    loaded = loaded_after(f"tripletdnp.{name}")
    assert loaded == {"layers": [f"tripletdnp.{layer}" for layer in layers.split()], "numpy": numpy, "probe": None}


@pytest.mark.parametrize("code", ["tripletdnp.__all__", "dir(tripletdnp)", "hasattr(tripletdnp, 'no_such_name')"])
def test_listing_or_a_missing_name_loads_no_layer(code):
    assert loaded_after(code) == {"layers": [], "numpy": False, "probe": None}


def test_a_layer_name_loads_that_layer():
    loaded = loaded_after("probe = tripletdnp.params.__name__")
    assert loaded == {"layers": ["tripletdnp.constants", "tripletdnp.params"], "numpy": False,
                      "probe": "tripletdnp.params"}


def test_ise_imports_no_numpy():
    """The shot model stays numpy-free, so it does not share kinetics' approach step."""
    loaded = loaded_after("import tripletdnp.ise")
    assert loaded == {"layers": ["tripletdnp.constants", "tripletdnp.ise", "tripletdnp.params"],
                      "numpy": False, "probe": None}


def test_star_import_gives_every_export():
    loaded = loaded_after("ns = {}\nexec('from tripletdnp import *', ns)\n"
                          "probe = sorted(set(ns) - {'__builtins__'})")
    assert loaded["probe"] == tripletdnp.__all__
    assert len(loaded["probe"]) == 44


def test_resolved_name_is_cached_in_the_package():
    name = "calibrate_polarization"
    assert getattr(tripletdnp, name) is vars(tripletdnp)[name]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'tripletdnp' has no attribute 'no_such_name'"):
        tripletdnp.no_such_name
    assert not hasattr(tripletdnp, "cli_main")


def test_dir_lists_every_export_and_layer():
    assert set(tripletdnp.__all__) | {"analysis", "config", "params", "__version__"} <= set(dir(tripletdnp))


@pytest.mark.parametrize("name", ["read_curve", "write_curve", "fit_buildup", "fit_decay"])
def test_curve_and_fit_names_load_no_model_or_config(name):
    layers = loaded_after(f"tripletdnp.{name}")["layers"]
    assert not {"tripletdnp.tripletspin", "tripletdnp.ise", "tripletdnp.config"} & set(layers)


@pytest.mark.parametrize("name", ["MagneticFieldSetting", "TripletParameters"])
def test_spin_inputs_load_no_spin_chain_curve_io_or_fits(name):
    layers = loaded_after(f"tripletdnp.{name}")["layers"]
    assert not {"tripletdnp.tripletspin", "tripletdnp.curveio", "tripletdnp.analysis"} & set(layers)


def test_params_imports_no_numpy():
    """The model inputs stay numpy-free, so config can read them."""
    loaded = loaded_after("import tripletdnp.params")
    assert loaded == {"layers": ["tripletdnp.constants", "tripletdnp.params"],
                      "numpy": False, "probe": None}


@pytest.mark.parametrize("name", ["TripletParameters", "MagneticFieldSetting", "KineticsParams", "IseSequenceParams"])
def test_an_input_type_loads_only_params(name):
    loaded = loaded_after(f"tripletdnp.{name}")
    assert loaded == {"layers": ["tripletdnp.constants", "tripletdnp.params"],
                      "numpy": False, "probe": None}


def test_calibration_and_steady_states_compute_without_numpy(tmp_path, monkeypatch):
    """With numpy unimportable, the package gives the reprs `calibrate` and `sweep tr` print."""
    loaded = loaded_after(
        "import dataclasses\nsys.modules['numpy'] = None  # any numpy import now raises\n"
        "cfg = tripletdnp.default_config()\n"
        "baseline = tripletdnp.thermal_polarization(cfg.field.magnitude_tesla, cfg.temperature_kelvin)\n"
        "probe = [repr(tripletdnp.calibrate_polarization(tripletdnp.NmrCalibration(2.77e5, 1.0, baseline)))]\n"
        "probe += [repr(tripletdnp.steady_state_with_pth(dataclasses.replace(cfg.kinetics, tr_minutes=tr)))\n"
        "          for tr in (57.1, 96.9, 132.0)]\n"
        "del sys.modules['numpy']"
    )
    monkeypatch.chdir(tmp_path)

    def stdout_lines(argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        return out.getvalue().splitlines()

    calibrate = ["calibrate", "--enhanced", "2.77e5", "--reference", "1.0"]
    report = dict(line.split(": ", 1) for line in stdout_lines(calibrate))
    sweep = stdout_lines(["sweep", "tr", "--values", "57.1,96.9,132"])[1:]
    printed = [report["polarization"]] + [line.split(",")[1] for line in sweep]
    assert loaded["numpy"] is False
    assert loaded["probe"] == printed
    assert printed == ["0.6139818536854016", "0.610150064683053", "0.6835132365499573", "0.7163731931668856"]


def test_ise_names_load_no_spin_chain():
    assert "tripletdnp.tripletspin" not in loaded_after("tripletdnp.sweep_transfer_probability")["layers"]


def test_config_loads_no_spin_chain():
    assert "tripletdnp.tripletspin" not in loaded_after("import tripletdnp.config")["layers"]


def test_default_config_loads_no_numpy():
    """config takes its Hartmann-Hahn B1 from params, so it loads no shot model either."""
    loaded = loaded_after("import tripletdnp.config\nprobe = tripletdnp.config.default_config().kinetics.td_minutes")
    assert loaded == {"layers": ["tripletdnp.config", "tripletdnp.constants", "tripletdnp.params"],
                      "numpy": False, "probe": 20.2}


def test_shared_helpers_live_in_params():
    import tripletdnp.ise
    from tripletdnp.params import ByValue
    moved = (ByValue, tripletdnp.hartmann_hahn_b1, tripletdnp.proton_larmor)
    assert {obj.__module__ for obj in moved} == {"tripletdnp.params"}
    assert not {"hartmann_hahn_b1", "proton_larmor"} & set(vars(tripletdnp.ise))


def test_cli_subcommands_load_no_spin_chain(tmp_path):
    """Every command of README's command block runs through cli.main without the spin chain."""
    write_inputs(tmp_path)
    loaded = loaded_after(
        "import contextlib, io, os\nfrom tripletdnp.cli import main\n"
        f"os.chdir({str(tmp_path)!r})\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    probe = [main(argv) for argv in {COMMANDS!r}]"
    )
    assert loaded["probe"] == [0] * len(COMMANDS)
    assert "tripletdnp.tripletspin" not in loaded["layers"]
    assert "tripletdnp.params" in loaded["layers"]
