"""Import every module in this directory before any test runs.

Hypothesis mixes the literals of each loaded local module into its draws
(`providers._get_local_constants`; it skips the test files themselves, not
the package and benchmark modules they load). So a `derandomize=True` test
draws from a pool that depends on what the session has imported. With every
test module, and so every module any of them loads, imported here, a run of
one file draws as the full run does.

The `cfg` fixture is the reference config as a file.
"""

import importlib
from pathlib import Path

import pytest

from inputs import REFERENCE_CFG

for _path in sorted(Path(__file__).parent.glob("*.py")):
    if _path.stem != "conftest":
        importlib.import_module(_path.stem)


@pytest.fixture
def cfg(tmp_path):
    p = tmp_path / "reference.cfg"
    p.write_text(REFERENCE_CFG)
    return p
