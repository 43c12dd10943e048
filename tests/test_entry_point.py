"""The CLI run as a process, the way users start it.

`python -m tripletdnp.cli` ends through `cli.run`, which flushes stdout and
stderr and then calls `os._exit`, skipping interpreter teardown. These tests
check that nothing is lost on the way: stdout, stderr, output files and the
exit code match an in-process `cli.main(argv)` call, a stdout that cannot be
written exits 5 with one line, and the installed `tripletdnp` script ends the
same way.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tripletdnp import cli
from test_lazy_exports import SRC

ROOT = Path(__file__).resolve().parents[1]
CONFIG = "[kinetics]\npe = 0.826\ntd_minutes = 20.2\ntr_minutes = 57.1\n"
INPUTS = {
    "run.cfg": CONFIG,
    "decay.csv": "time_min,value\n" + "".join(f"{10.0 * i!r},{0.61 * 0.84 ** i!r}\n" for i in range(15)),
    "flat.csv": "time_min,value\n" + "".join(f"{float(i)!r},0.3\n" for i in range(6)),
}

CASES = {
    "simulate": (["simulate", "--config", "run.cfg", "--duration-min", "60", "--points", "31",
                  "--mode", "shots", "--seed", "7"], 0),
    "fit": (["fit", "decay.csv", "--model", "decay", "--out", "reports/fit.txt"], 0),
    "decompose": (["decompose", "132", "57.1", "--reference-te", "96.9"], 0),
    "calibrate": (["calibrate", "--enhanced", "2.77e5", "--reference", "1.0", "--verbose"], 0),
    "sweep": (["sweep", "b1", "--config", "run.cfg", "--start", "0.1", "--stop", "1.0", "--num", "5"], 0),
    "unknown_subcommand": (["bogus"], 2),
    "missing_config": (["decompose", "132", "57.1", "--config", "missing.cfg"], 3),
    "echo_then_invalid": (["calibrate", "--enhanced", "2", "--reference", "0", "--verbose"], 3),
    "constant_buildup": (["fit", "flat.csv", "--model", "buildup"], 4),
    "out_is_a_directory": (["decompose", "132", "57.1", "--out", "outdir"], 5),
}


def _env(unbuffered=None) -> dict:
    """The child imports the package these tests import; PYTHONUNBUFFERED is set explicitly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


def _workdir(path: Path) -> Path:
    (path / "outdir").mkdir(parents=True)
    for name, text in INPUTS.items():
        (path / name).write_text(text)
    return path


def _files(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def _in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out.encode(), cap.err.encode()


@pytest.mark.parametrize("name", CASES)
def test_process_matches_main_in_process(tmp_path, monkeypatch, capsys, name):
    argv, want = CASES[name]
    proc = subprocess.run([sys.executable, "-m", "tripletdnp.cli", *argv], cwd=_workdir(tmp_path / "process"),
                          env=_env(), capture_output=True, timeout=120)
    monkeypatch.chdir(_workdir(tmp_path / "library"))
    code, out, err = _in_process(argv, capsys)
    assert (proc.returncode, code) == (want, want)
    assert (proc.stdout, proc.stderr) == (out, err)
    assert _files(tmp_path / "process") == _files(tmp_path / "library")
    if name == "echo_then_invalid":  # buffered echo lines printed before the error still arrive
        assert proc.stdout.startswith(b"# default [") and proc.stderr.startswith(b"error: ")


def test_exit_skips_interpreter_teardown(tmp_path):
    child = ("import atexit, runpy, sys\n"
             "atexit.register(print, 'atexit hook ran', file=sys.stderr)\n"
             "sys.argv = ['tripletdnp', 'decompose', '132', '57.1']\n"
             "runpy.run_module('tripletdnp.cli', run_name='__main__')\n"
             "print('returned from run', file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=_env(), capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("t1_minutes: 132.0\n")


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def _dev_full():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    return os.open("/dev/full", os.O_WRONLY)


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("open_stdout", [_closed_pipe, _dev_full], ids=["closed_pipe", "dev_full"])
def test_unwritable_stdout_exits_5_with_one_line(tmp_path, open_stdout, unbuffered):
    stdout = open_stdout()
    try:
        proc = subprocess.run([sys.executable, "-m", "tripletdnp.cli", "decompose", "132", "57.1"],
                              cwd=tmp_path, env=_env(unbuffered), stdout=stdout, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(stdout)
    assert proc.returncode == 5
    assert proc.stderr.startswith("i/o error: ") and proc.stderr.count("\n") == 1
    assert "Exception ignored" not in proc.stderr and "Traceback" not in proc.stderr


def _main_block_call() -> str:
    """The name of the function the `if __name__ == "__main__":` block of cli.py calls."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    (statement,) = block.body
    return ast.unparse(statement.value.func)


def test_installed_script_exits_like_python_m():
    """A script naming `main` would end through setuptools' sys.exit(main()) and pay the teardown."""
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["tripletdnp"] == f"tripletdnp.cli:{_main_block_call()}"
