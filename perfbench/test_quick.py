"""Keep the benchmark harness from rotting: run its self-check."""

import subprocess
import sys
from pathlib import Path


def test_benchmark_selfcheck():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--quick"], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "# selfcheck passed"
