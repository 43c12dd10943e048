"""The golden corpus: for each CLI call, one SHA-256 per part: exit code, stdout, stderr and each output file.

The calls are README's command block, run on the inputs `test_readme.write_inputs` builds, and the 11
`cli_reference` calls of `perfbench/cli_reference.py` at seed 7, run on the inputs `CliReference` writes.
Each runs in process through `cli.main` in a directory of its own; its output files are the files there
that it created or changed. `golden.json` holds the digests, so a mismatch names the parts that moved
and any output file missing or extra. A change that means to move an output regenerates it with

    PYTHONPATH=src python tests/golden.py

and names the moved entries in CHANGES.md; the manifest's diff is the record.

The simulate and fit calls go through numpy's exp, expm1, log1p or log loops, whose last bits depend on
the numpy version and on whether its AVX-512 loops run. Their digests are checked only where `stamp()`
equals the manifest's stamp; the other calls' digests are checked everywhere. A digest is never a
tolerance: a changed bit fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from tripletdnp.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden.json")
CLI_REFERENCE_SEED = 7
STAMPED = ("simulate", "fit")  # subcommands whose bytes pass through numpy's exp/log loops

sys.path.append(str(ROOT / "perfbench"))
from cli_reference import CliReference  # noqa: E402


def stamp() -> dict:
    """The numpy version and the AVX-512 entries of its CPU feature table that are on, which pick the
    float loops (`NPY_DISABLE_CPU_FEATURES` turns entries off)."""
    features = (getattr(np, "_core", None) or np.core)._multiarray_umath.__cpu_features__
    return {"numpy": np.__version__,
            "avx512": sorted(k for k, on in features.items() if on and (k.startswith("AVX512") or k == "X86_V4"))}


def readme_name(argv: list[str]) -> str:
    return "readme: " + " ".join(argv)


def cli_reference_calls(workdir: Path) -> dict[str, list[str]]:
    """Call name -> argv of the `cli_reference` script. Writes the script's inputs into workdir."""
    script = CliReference(CLI_REFERENCE_SEED, workdir, False).script
    return {f"cli_reference: {name}": argv for name, argv, _ in script}


def _files(directory: Path) -> dict[str, bytes]:
    paths = sorted(p for p in directory.rglob("*") if p.is_file())
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in paths}


def run_call(workdir: Path, argv: list[str]) -> dict[str, bytes]:
    """Run `cli.main(argv)` in workdir. Return its parts: `exit_code`, `stdout`, `stderr` and each
    file the call created or changed, by its path under workdir."""
    before = _files(workdir)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning fails here and under pytest alike
            code = main(argv)
    finally:
        os.chdir(cwd)
    parts = {"exit_code": str(code).encode(), "stdout": out.getvalue().encode(),
             "stderr": err.getvalue().encode()}
    parts |= {rel: data for rel, data in _files(workdir).items() if before.get(rel) != data}
    return parts


def digests(parts: dict[str, bytes]) -> dict[str, str]:
    return {label: hashlib.sha256(data).hexdigest() for label, data in parts.items()}


def check(name: str, argv: list[str], workdir: Path) -> None:
    """Assert that the call, run in workdir, gives the manifest's digest for each part. On a mismatch
    its exit code, stdout and stderr are left beside workdir, and its output files in workdir."""
    manifest = json.loads(MANIFEST.read_text())
    assert name in manifest["calls"], f"{name}: no golden digests; regenerate with `{manifest['regenerate']}`"
    parts = run_call(workdir, argv)
    if argv[0] in STAMPED and manifest["stamp"] != stamp():
        # another numpy build or dispatch path: the last bits may differ, but the call must still succeed
        assert (parts["exit_code"], parts["stderr"]) == (b"0", b""), f"{name}: {parts['stderr'].decode()}"
        return
    want, got = manifest["calls"][name], digests(parts)
    if got != want:
        for label in ("exit_code", "stdout", "stderr"):
            (workdir.parent / label).write_bytes(parts[label])
        moved = [label for label in want if label in got and got[label] != want[label]]
        missing = [label for label in want if label not in got]
        extra = [label for label in got if label not in want]
        raise AssertionError(f"{name}: golden parts moved: {moved}, missing: {missing}, extra: {extra}; "
                             f"streams in {workdir.parent}, files in {workdir}")


def regenerate(scratch: Path) -> dict:
    """Run every call, each in a fresh directory under scratch, and return the manifest."""
    from test_readme import COMMANDS, write_inputs  # test_readme's tests import this module

    calls = {}
    for i, argv in enumerate(COMMANDS):
        workdir = scratch / f"readme{i}"
        workdir.mkdir()
        write_inputs(workdir)
        calls[readme_name(argv)] = digests(run_call(workdir, argv))
    for i, name in enumerate(cli_reference_calls(scratch / "script")):
        workdir = scratch / f"cli_reference{i}"
        calls[name] = digests(run_call(workdir, cli_reference_calls(workdir)[name]))
    return {"regenerate": "PYTHONPATH=src python tests/golden.py", "stamp": stamp(), "calls": calls}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        MANIFEST.write_text(json.dumps(regenerate(Path(scratch)), indent=1) + "\n")
    print(f"wrote {MANIFEST}")
