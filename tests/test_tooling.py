"""Checks that tie the benchmark under ``perfbench/`` to the package it measures."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_traced_names_exist():
    # perfbench wraps pipeline functions by name to time each layer; a renamed
    # or removed name must fail here, not only in a traced benchmark run.
    code = "import sys; sys.path.insert(0, 'perfbench'); import measure; measure.check_layer_names()"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
