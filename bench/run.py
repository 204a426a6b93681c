"""Benchmark of blowup-lab: seeded experiment batches through ``harness.run``.

Run from the root of a checkout (the package is taken from ``src/``):

    python3 bench/run.py --workload profile-1d --seed 1 --seconds 28 --trace 0

Metric names and units come from ``BENCHMARK.json``; ``README.md`` beside
this file defines each metric and workload.  With ``--trace 0`` it reports
the end-to-end metrics, with ``--trace 1`` the per-layer ones.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``src/blowup_lab`` it exits with code 2
and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread here and in every child, so none competes with the single
# client for the cores of a small machine
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import calibration  # noqa: E402  (numpy reads the thread count on import)
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 3
DEADLINE_S = 175.0         # every run must end within 180 s


def _timed_run(cmd, env) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _at_reference_speed(samples) -> float:
    """Seconds at the machine speed where the calibration loop takes
    calibration.REFERENCE_S: the median over (time, loop before, loop after)
    samples of time / mean(loop before, loop after), times REFERENCE_S."""
    return calibration.REFERENCE_S * statistics.median(
        2.0 * t / (before + after) for t, before, after in samples)


def _end_to_end(result: dict, setup: list[float], setup_loop: list[float]) -> dict:
    passes = result["passes"]
    wall = sum(_at_reference_speed((p["item_s"][i], p["loop_s"][i], p["loop_s"][i + 1])
                                   for p in passes)
               for i in range(len(passes[0]["item_s"])))
    return {
        "setup_s": _at_reference_speed(zip(setup, setup_loop, setup_loop[1:])),
        "wall_s": wall,
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "pass_share": 1.0 - result["failed"] / result["attempted"],
    }


def _per_layer(result: dict, units: dict) -> tuple[dict, list[str]]:
    """Medians of traced times; counts must repeat exactly across passes."""
    untraced = [p for p in result["passes"] if "layers" not in p]
    traced = [p for p in result["passes"] if "layers" in p]
    problems = []
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            values = [statistics.median(p["wall_s"] for p in traced)
                      - statistics.median(p["wall_s"] for p in untraced[1:])]
        elif name == "harness.artifact_bytes":
            values = [p["artifact_bytes"] for p in traced]
        else:
            values = [p["layers"][name] for p in traced]
        if unit != "s" and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = statistics.median(values) if unit == "s" else values[0]
    return metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "blowup_lab" / "__init__.py").is_file():
        print(f"bench: {src}/blowup_lab not found; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    configs = out / "configs.json"
    batch = workloads.generate(args.workload, args.seed)
    configs.write_text(json.dumps(batch, indent=1))
    env = dict(os.environ, PYTHONPATH=str(src))

    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(configs)]
    setup, setup_loop = [], [calibration.loop_s()]
    for _ in range(0 if args.trace else SETUP_RUNS):
        setup.append(_timed_run(probe, env))
        setup_loop.append(calibration.loop_s())
    subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(configs), str(out),
                    str(args.seconds), str(args.trace)],
                   env=env, stdout=sys.stderr, check=True,
                   timeout=deadline - time.monotonic())
    result = json.loads((out / "result.json").read_text())

    if args.trace:
        metrics, problems = _per_layer(result, units)
    else:
        metrics, problems = _end_to_end(result, setup, setup_loop), []
    for line in result["failures"] + problems:
        print(f"bench: {line}", file=sys.stderr)

    passes = len(result["passes"])
    print(f"{args.workload} seed {args.seed}: {len(batch)} items x {passes} passes, "
          f"one client, closed loop")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6g} {units[name]}")
    print(f"  {'failed_share':38s} {result['failed'] / result['attempted']:14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']})")
    print(json.dumps({
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
