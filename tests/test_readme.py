"""README's command block runs as written.

Every `tripletdnp ...` line of the first shell block under "## Command line"
(with `\\` continuations joined) runs through `cli.main` in a scratch
directory that holds README's example config as `run.cfg` and seeded noisy
curves at the reference kinetics as `curve.csv` and `decay.csv`, and gives
the bytes of the golden corpus (`golden.py`). README's config table lists
the keys and defaults of `config.CONFIG_REFERENCE`, in order.
"""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from tripletdnp import KineticsParams, final_polarization
from tripletdnp.config import CONFIG_REFERENCE
from golden import check, readme_name

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
REFERENCE = KineticsParams(pe=0.826, td_minutes=20.2, tr_minutes=57.1)


def _block(heading: str, language: str) -> str:
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _commands() -> list[list[str]]:
    lines = _block("## Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("tripletdnp ")]


def _curve_text(t, values) -> str:
    return "# value_kind: polarization\ntime_min,value\n" + "".join(
        f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, values))


COMMANDS = _commands()


def test_the_block_covers_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"simulate", "fit", "decompose", "calibrate", "sweep"}


def write_inputs(directory: Path) -> None:
    """Write what the command block reads into directory: README's example config as `run.cfg`
    and seeded noisy curves at the reference kinetics as `curve.csv` and `decay.csv`."""
    (directory / "run.cfg").write_text(_block("Example:", "ini"))
    rng = np.random.default_rng(20250)
    amplitude = final_polarization(REFERENCE)
    rate = 1.0 / REFERENCE.td_minutes + 1.0 / REFERENCE.tr_minutes
    t = np.linspace(0.0, 150.0, 201)
    buildup = -amplitude * np.expm1(-rate * t) + 0.005 * rng.normal(size=t.size)
    (directory / "curve.csv").write_text(_curve_text(t, buildup))
    t = np.linspace(0.0, 300.0, 201)
    decay = amplitude * np.exp(-t / REFERENCE.tr_minutes) + 0.005 * rng.normal(size=t.size)
    (directory / "decay.csv").write_text(_curve_text(t, decay))


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_runs(tmp_path, argv):
    """The command gives the golden corpus's exit code, stdout, stderr and output files."""
    workdir = tmp_path / "work"
    workdir.mkdir()
    write_inputs(workdir)
    check(readme_name(argv), argv, workdir)


def _config_table() -> list[tuple[str, str, str]]:
    """(section, key, default) for each key of README's config table, shared rows expanded:
    `population_x/y/z` and `theta_rad, phi_rad` name several keys, `0.76 / 0.16 / 0.08` several defaults."""
    table = README.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        if not line.startswith("| ") or line.startswith(("| Section ", "| --- ")):
            continue
        section, key, default = (cell.strip() for cell in line.strip("|").split("|")[:3])
        stem, _, suffixes = key.rpartition("_")
        keys = [f"{stem}_{suffix}" for suffix in suffixes.split("/")] if "/" in key else key.split(", ")
        defaults = default.split(" / ")
        if len(defaults) == 1:
            defaults *= len(keys)
        rows += [(section, k, d) for k, d in zip(keys, defaults, strict=True)]
    return rows


def test_config_table_follows_config_reference():
    # `computed` stands for the None default of a key derived from other keys
    want = [(section, key, "computed" if default is None else str(default))
            for (section, key), (default, _) in CONFIG_REFERENCE.items()]
    assert _config_table() == want
