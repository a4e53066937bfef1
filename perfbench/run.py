"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload city-10k --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  It times the set-up (a fresh interpreter
importing gridwatch and writing the seeded input files) several times, then
starts the worker (measure.py) in a process of its own, with SAND_THREADS
removed and native thread pools held to one thread, so that the run puts at
most two busy threads on the machine.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its per-layer
metrics with ``--trace 1``.  The full report, with the environment it ran in,
is kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from inputs import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

# Set-up is a process start, so it is timed this many times and reported as
# the median, in reference-speed seconds like the ops (see probe.py).
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 20
# Leaves room for set-up within the 180 s a run may take.
WORKER_TIMEOUT_S = 140


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SAND_THREADS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # A random hash seed gives each process its own dict and set layouts and
    # so its own speed; a fixed one makes runs comparable.
    env["PYTHONHASHSEED"] = "0"
    return env


def tree_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def timed_setups(workload: str, seed: int, env: dict, scratch: Path) -> tuple:
    """Each set-up's wall time and its time at the probe's reference speed,
    and the directory of the last one's inputs."""
    samples, first = [], None
    for i in range(SETUP_SAMPLES):
        out = scratch / f"inputs-{i}"
        cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        speed = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append({"wall_s": wall, "seconds": (wall - speed["probe_s"]) / speed["slowdown"], **speed})
        if first is None:
            first = tree_bytes(out)
        elif tree_bytes(out) != first:
            raise SystemExit(f"perfbench: set-up {i} wrote different inputs for seed {seed}")
    return samples, out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gridwatch" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not a gridwatch checkout (need src/gridwatch and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    env = child_env()
    try:
        setup_s, inputs_dir = timed_setups(args.workload, args.seed, env, scratch)
        cmd = [
            sys.executable, str(HERE / "measure.py"),
            "--workload", args.workload,
            "--inputs", str(inputs_dir),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--spans", str(OUT / f"spans-{tag}.json"),
            "--workdir", str(scratch),
        ]  # fmt: skip
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    measured = {**report["end_to_end"], "setup_s": statistics.median(s["seconds"] for s in setup_s)}
    if args.trace:
        measured = report["per_layer"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: no value measured for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "setup_samples": setup_s,
        "result": result,
        "report": report,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
