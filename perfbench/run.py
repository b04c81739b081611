"""Run one sinkflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sinkhorn_n2048 --seed 1 --seconds 25 --trace 0

Run it from the root of a sinkflow source checkout; the library is taken
from ``src/`` of that checkout and nothing is installed.  The workloads and
metrics are listed in ``BENCHMARK.json``; ``perfbench/NOTES.md`` says how
each is measured.

The launcher imports no numpy.  It pins BLAS/OpenMP threads to the CPUs
this process may use and starts fresh worker processes: with ``--trace 0``
``SETUP_SAMPLES - 1`` set-up-only processes and then the measured run
(``setup_s`` is the median over all of them), with ``--trace 1`` the
measured run alone, which adds one traced pass.  Every output names the
machine.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The exit code is 0 whenever that line is printed, and 2 when no result
can be produced (for instance outside a sinkflow checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0          # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                 if line.startswith("model name")), "?")
    except OSError:
        facts["cpu"] = "?"
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    return facts


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(argv: list, env: dict, timeout: float) -> tuple[float, dict]:
    """Run a worker to completion; return its start time and its result."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv} did not finish within {timeout:.0f} s") from None
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("PERFBENCH ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {argv} exited with code {proc.returncode} and no result")
    return spawned, json.loads(lines[-1][len("PERFBENCH "):])


def measure(args, spec: dict) -> dict:
    if not (ROOT / "src" / "sinkflow" / "__init__.py").is_file():
        raise BenchError(f"no sinkflow sources under {ROOT / 'src'}")
    started = time.monotonic()
    facts = machine_facts()
    env = worker_env(facts["nproc"])
    facts["threads"] = facts["nproc"]
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            spawned, probe = start_worker(common + ["--setup-only"], env, 60.0)
            setups.append(probe["ready"] - spawned)
    out = ROOT / ".perfbench_out" / str(os.getpid())
    try:
        left = DEADLINE_S - (time.monotonic() - started)
        spawned, run = start_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--out", str(out)], env, left)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()
        except OSError:
            pass
    setups.append(run["ready"] - spawned)
    facts.update(run["software"])

    walls = run["solve_walls"]
    values = dict(run.get("per_layer", {}))
    values["solve_s"] = statistics.median(walls)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = run["peak_rss_mb"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no measurement for metrics {missing}")

    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"workload: {args.workload}, seed {args.seed}, {len(walls)} untraced passes, "
          f"pass walls {[round(w, 4) for w in walls]} s")
    for config in run["configs"]:
        print(f"  config: {json.dumps(config, sort_keys=True)}")
    if not args.trace:
        print(f"  setup samples {[round(s, 4) for s in setups]} s")
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    print(f"failed_ratio = {run['failed']}/{run['attempted']} = "
          f"{run['failed'] / run['attempted']:.4g}")
    for check, value in sorted(run["criterion_3"].items()):
        print(f"criterion 3 {check} = {value!r} (expected red: window [0.3, 0.8])")
    if args.trace:
        print(f"traced solve_s = {run['traced_solve_s']!r} s")
        for key, (ms, base) in run["per_call_ms"].items():
            if ms is not None:
                print(f"per call {key}: {ms:.4g} ms (ROADMAP baseline {base:g} ms, "
                      f"gap {100.0 * (ms / base - 1.0):+.0f}%)")
    for problem in run["problems"]:
        print(f"problem: {problem}")
    return {"correct": not run["problems"] and run["failed"] == 0,
            "attempted": run["attempted"], "failed": run["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one sinkflow benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        result = measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
