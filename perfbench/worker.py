"""One repetition of one workload, in a fresh process.

Run by ``run.py``; prints one JSON line with the repetition's timings,
peak memory, output digest, problems found by the checks and, when traced,
the per-layer metrics.  ``setup_s`` starts before ``import distopt``, so
this module imports nothing from numpy or distopt before that point.

``setup_s`` and ``run_s`` are the measured seconds scaled to the reference
host speed: times ``calibrate.REFERENCE_S`` over the median of the host-speed
probes taken right before and right after the timed part (see
``calibrate.py``).  The measured seconds are kept as ``setup_wall_s`` and
``run_wall_s``.  Traced repetitions scale their per-layer times alike.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

PROBES = 3  # host-speed probes before and after the timed part, each ~0.06 s


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--scenario", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--reference", type=int, default=0)
    ap.add_argument("--short", type=int, default=0)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import distopt  # noqa: F401  (timed: a fresh `sim run` pays it)
    import_s = time.perf_counter() - t0

    import calibrate
    import metrics
    import tracer
    import workloads

    cfg = json.loads(args.scenario.read_text(encoding="utf-8"))
    rec = {"problems": []}
    probes = [calibrate.time_kernel() for _ in range(PROBES)]
    tr = tracer.install() if args.trace else None
    try:
        result = workloads.run(args.workload, args.scenario, args.out)
    except Exception:
        rec["problems"].append("workload raised:\n" + traceback.format_exc())
        print(json.dumps(rec))
        return 0
    finally:
        if tr is not None:
            tr.uninstall()
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes += [calibrate.time_kernel() for _ in range(PROBES)]
    rec["probe_s"] = statistics.median(probes)
    rec["setup_wall_s"] = import_s + result["parse_s"]
    rec["run_wall_s"] = result["run_s"]
    speed = calibrate.REFERENCE_S / rec["probe_s"]
    rec["setup_s"] = rec["setup_wall_s"] * speed
    rec["run_s"] = rec["run_wall_s"] * speed
    try:
        if "exit" in result:
            rec["problems"] += workloads.check_figure(args.workload, cfg, args.out,
                                                      result["exit"], bool(args.short),
                                                      bool(args.reference))
        else:
            rec["problems"] += workloads.check_ring(cfg, result, bool(args.short),
                                                    bool(args.reference))
        rec["digest"] = workloads.digest(args.workload, args.out, result)
    except Exception:
        rec["problems"].append("output check raised:\n" + traceback.format_exc())
    if tr is not None:
        layers, breakdown = tracer.layer_metrics(tr)
        rec["layers"] = {k: v * speed if metrics.unit(k) in ("s", "us") else v
                         for k, v in layers.items()}
        rec["simulate_breakdown"] = {k: v * speed for k, v in breakdown.items()}
        with open(args.out / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tr.spans, fh)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
