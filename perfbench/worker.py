"""One benchmark run in a fresh process; started by ``run.py``.

With ``--setup-only`` the process imports numpy, scipy and sinkflow,
generates and validates the workload's configs, prints the monotonic
clock reading at that point and exits: ``run.py`` takes set-up time as
that reading minus the moment it started the process.

Otherwise it does the same set-up and then runs the workload in a closed
loop with one client: the next pass starts when the previous one returns,
until ``--seconds`` would be exceeded by another pass (at least one pass).
A pass runs every experiment of the workload once through
``sinkflow.experiments.execute`` / ``verify_battery``; its wall time is
the time spent inside those calls.  With ``--trace 1`` one further pass
runs under the outside-in tracer, and its report files must be
byte-identical to the untraced passes' (manifest SHA-256 map).

The last stdout line is ``PERFBENCH <json>`` for ``run.py`` to read.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import sinkflow
# execute and verify_battery are called through the module, so that the
# tracer's patched bindings are the ones used
from sinkflow import experiments

from tracer import Tracer
from workloads import WORKLOADS, check_battery, check_report

# ROADMAP item 1's best-of-3 baseline per call in ms, on the workload whose
# sizes match (n=2048; 1e5 particles at n=512), for the cross-check
BASELINE_MS = {
    "sinkhorn_n2048": {"sinkhorn.v_operator": 231.0, "sinkhorn.s_step": 463.0},
    "flow_n2048": {"pma.step": 6.9},
    "particles_1e5": {"particles.sinkhorn_sde_step": 36.0, "particles.dual_sde_step": 27.0,
                      "particles.markov_chain_step": 4700.0},
}


@dataclass
class Pass:
    wall: float = 0.0
    files: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    bytes_written: int = 0
    criterion_3: dict = field(default_factory=dict)


def run_pass(workload, configs, seed: int, outdir: Path) -> Pass:
    outdir.mkdir(parents=True)
    p = Pass()
    if workload.battery:
        t0 = time.perf_counter()
        try:
            combined = experiments.verify_battery(outdir, profile="quick", seed=seed)
        except Exception:
            p.wall += time.perf_counter() - t0
            p.attempted, p.failed = 1, 1
            p.problems.append(f"verify_battery raised:\n{traceback.format_exc()}")
        else:
            p.wall += time.perf_counter() - t0
            per_run, overall, p.criterion_3 = check_battery(combined)
            p.attempted = len(per_run)
            p.failed = sum(1 for problems in per_run if problems)
            p.problems += [msg for problems in per_run for msg in problems] + overall
            p.files = combined["files"]
    else:
        for config in configs:
            p.attempted += 1
            t0 = time.perf_counter()
            try:
                report, manifest = experiments.execute(config, outdir)
            except Exception:
                p.wall += time.perf_counter() - t0
                p.failed += 1
                p.problems.append(f"{config.experiment} raised:\n{traceback.format_exc()}")
                continue
            p.wall += time.perf_counter() - t0
            problems = check_report(config.experiment, config.problem, config.numerics,
                                    report.rows, report.verdicts)
            p.failed += bool(problems)
            p.problems += problems
            p.files.update(manifest["files"])
    p.bytes_written = sum(f.stat().st_size for f in outdir.iterdir())
    shutil.rmtree(outdir)
    return p


def software() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "sinkflow": sinkflow.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    raw_configs = workload.build(args.seed)
    configs = [experiments.ExperimentConfig.from_dict(raw) for raw in raw_configs]
    ready = time.monotonic()
    if args.setup_only:
        print("PERFBENCH " + json.dumps({"ready": ready}))
        return 0

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, configs, args.seed, args.out / f"pass{len(passes)}"))
        # leave room for another untraced pass, and for the traced one
        need = statistics.median(p.wall for p in passes) * (2 if args.trace else 1)
        if time.perf_counter() - start + need > args.seconds:
            break
    walls = [p.wall for p in passes]
    result = {"ready": ready, "solve_walls": walls, "software": software(),
              "configs": raw_configs, "criterion_3": passes[0].criterion_3}

    traced = None
    if args.trace:
        tracer = Tracer()
        with tracer:
            traced = run_pass(workload, configs, args.seed, args.out / "traced")
        metrics = tracer.metrics(experiments.EXPERIMENTS)
        metrics["experiments.bytes_written"] = traced.bytes_written
        metrics["trace_overhead_s"] = traced.wall - statistics.median(walls)
        metrics["trace_coverage"] = sum(tracer.layer_self_s().values()) / traced.wall
        result["per_layer"] = metrics
        result["traced_solve_s"] = traced.wall
        result["per_call_ms"] = {key: [tracer.per_call_ms(key), ms]
                                 for key, ms in BASELINE_MS.get(args.workload, {}).items()}

    problems = []
    everything = passes + ([traced] if traced else [])
    for i, p in enumerate(everything):
        problems += p.problems
        label = "traced pass" if p is traced else f"pass {i}"
        if i and not p.failed and not passes[0].failed and p.files != passes[0].files:
            problems.append(f"{label} wrote files that differ from pass 0 (manifest SHA-256 map)")
    result["attempted"] = sum(p.attempted for p in everything)
    result["failed"] = sum(p.failed for p in everything)
    result["problems"] = problems
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("PERFBENCH " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
