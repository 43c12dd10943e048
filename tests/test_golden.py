"""The 11 `cli_reference` calls at seed 7 give the golden corpus's bytes (see `golden.py`);
README's commands are checked in `test_readme.py`."""

import json

import pytest

from golden import MANIFEST, check, cli_reference_calls, readme_name
from test_readme import COMMANDS

NAMES = [name for name in json.loads(MANIFEST.read_text())["calls"] if name.startswith("cli_reference: ")]


def test_the_manifest_covers_every_call_once(tmp_path):
    calls = list(json.loads(MANIFEST.read_text())["calls"])
    assert calls == [readme_name(argv) for argv in COMMANDS] + list(cli_reference_calls(tmp_path))
    assert len(NAMES) == 11


@pytest.mark.parametrize("name", NAMES, ids=[name.split(": ")[1] for name in NAMES])
def test_cli_reference_call(tmp_path, name):
    workdir = tmp_path / "work"
    check(name, cli_reference_calls(workdir)[name], workdir)
