import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_kernels_script_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "benchmark_kernels.py"),
         "--p-max", "60", "--p-max-exact", "20"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["p", "modular", "r=4", "factorial", "exact", "oracle"]
    assert lines[1].split()[0] == "7" and lines[-1].split()[0] == "59"
