"""Run one seeded batch through ``harness.run`` repeatedly, as a closed loop.

Usage: worker.py CONFIGS_JSON OUT_DIR SECONDS TRACE

One client in one process: each config is sent only after the previous one
returned.  Passes over the batch repeat, at least twice, while one more pass
of the median length still ends within SECONDS.  With TRACE = 1 the first two
passes run untraced and the later ones (at least two) under the tracer, so the
per-layer numbers come with the tracing overhead.

An item fails when it raises, when its report status is not ``pass``, or when
its artifact hashes differ from those of the first pass.  The result goes to
OUT_DIR/result.json; the exit code is 0 whenever that file was written.
"""
from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from blowup_lab import harness

import calibration
import tracing

UNTRACED_PASSES = 2     # with tracing: a warm-up pass, then the untraced baseline


def run_pass(configs, out_dir: Path) -> dict:
    """One pass over the configs; returns wall times and per-item outcomes.

    The calibration loop runs before the first item and after each item, so
    item i lies between loop_s[i] and loop_s[i + 1]; wall_s excludes it."""
    items, item_s, loop_s = [], [], [calibration.loop_s()]
    wall = 0.0
    for i, doc in enumerate(configs):
        item_start = time.perf_counter()
        try:
            report = harness.run(harness.ExperimentConfig.from_dict(doc),
                                 out_dir / f"{i:02d}-{doc['kind']}")
        except Exception:  # any exception is a failed item, never a crash
            items.append({"status": traceback.format_exc(limit=3), "files": None})
        else:
            bad = [c.name for c in report.checks if not c.passed]
            items.append({"status": report.status if not bad else f"fail: {bad}",
                          "files": [[f["path"], f["sha256"]] for f in report.files]})
        item_s.append(time.perf_counter() - item_start)
        wall += item_s[-1]
        loop_s.append(calibration.loop_s())
    artifact_bytes = sum((out_dir / f"{i:02d}-{doc['kind']}" / path).stat().st_size
                         for i, doc in enumerate(configs)
                         for path, _ in (items[i]["files"] or ()))
    return {"wall_s": wall, "item_s": item_s, "loop_s": loop_s, "items": items,
            "artifact_bytes": artifact_bytes}


def main(argv) -> int:
    configs_path, out_dir, seconds, trace_on = argv
    configs = json.loads(Path(configs_path).read_text())
    out_dir, seconds, trace_on = Path(out_dir), float(seconds), trace_on == "1"
    passes = []
    start = time.perf_counter()
    min_passes = UNTRACED_PASSES + 2 if trace_on else 2
    pass_s = []         # whole passes, calibration loops included
    while len(passes) < min_passes or (
            time.perf_counter() - start + statistics.median(pass_s) <= seconds):
        pass_start = time.perf_counter()
        gc.collect()
        pass_dir = out_dir / f"pass{len(passes)}"
        if trace_on and len(passes) >= UNTRACED_PASSES:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                done = run_pass(configs, pass_dir)
            done["layers"] = tracing.layer_metrics(tracer)
        else:
            done = run_pass(configs, pass_dir)
        passes.append(done)
        pass_s.append(time.perf_counter() - pass_start)
        if len(passes) > 1:    # keep the artifacts of the last pass only
            shutil.rmtree(out_dir / f"pass{len(passes) - 2}", ignore_errors=True)

    failures = []
    first = passes[0]["items"]
    for k, done in enumerate(passes):
        for i, item in enumerate(done["items"]):
            if item["status"] != "pass":
                failures.append(f"pass {k} item {i}: {item['status']}")
            elif item["files"] != first[i]["files"]:
                failures.append(f"pass {k} item {i}: artifact hashes differ from pass 0")
    result = {
        "attempted": sum(len(p["items"]) for p in passes),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": [{k: v for k, v in p.items() if k != "items"} for p in passes],
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
