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


def test_perfbench_fast_self_tests_pass():
    # The benchmark's own plan checks (check_plan, run_econ) run against the
    # package here, so a change that breaks them fails this suite and not only
    # a benchmark run.  The slow layer-count test and the test that needs a
    # directory without the program are left to a direct run of the file.
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/test_perfbench.py",
        "-k", "not layer_counts and not directory_without",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "4 passed" in proc.stdout
