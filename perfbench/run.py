"""distopt benchmark runner.

    python3 perfbench/run.py --workload fig1b-switching --seed 1 --seconds 30 --trace 0

Runs one workload repeatedly for ``--seconds``, each repetition in a fresh
process (closed loop: one client, one repetition at a time), checks every
repetition's outputs and prints the metrics, the last line being one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics (medians over the timed repetitions);
``--trace 1`` alternates plain and traced repetitions and reports the
per-layer metrics plus the tracing overhead.  The first repetition is a
warm-up: it is checked against the reference integrator, not timed.
``setup_s`` and ``run_s`` are scaled to the reference host speed measured
by ``calibrate.py`` around each repetition; the measured seconds are
printed too.

Run it from the root of a checkout that holds ``src/distopt``.
"""

import os

# one BLAS thread for this process and every child, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
MIN_TIMED = 3           # timed repetitions per run, whatever --seconds says
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0     # stop starting repetitions past this point


def machine_record(seed: int) -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "caches": caches,
        "seed": seed,
    }


def run_child(workload: str, scenario: Path, out: Path, traced: bool, reference: bool,
              short: bool, timeout: float) -> dict:
    """One repetition in a fresh process; a crash or hang is a failed repetition."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--scenario", str(scenario), "--out", str(out), "--trace", str(int(traced)),
           "--reference", str(int(reference)), "--short", str(int(short))]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"repetition timed out after {timeout:.0f} s"],
                "wall_s": time.perf_counter() - t0}
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec = {"problems": [f"worker exited {proc.returncode} without a result:\n"
                            + proc.stderr[-2000:]]}
    if proc.returncode != 0:
        rec["problems"].append(f"worker exited {proc.returncode}")
    rec["wall_s"] = wall
    rec["traced"] = traced
    return rec


def timed_values(reps: list[dict], trace: bool) -> dict[str, list]:
    """Values of each metric over the repetitions after the warm-up that
    passed their checks: plain ones for ``--trace 0``, traced ones for 1."""
    out: dict[str, list] = {}
    for r in reps[1:]:
        if r["problems"] or bool(r.get("traced")) != trace:
            continue
        src = r.get("layers", {}) if trace else r
        for name in metrics.PER_LAYER if trace else metrics.END_TO_END:
            if name in src:
                out.setdefault(name, []).append(src[name])
    return out


def summarize(reps: list[dict], trace: bool) -> dict:
    """Counts and median metrics of one run.

    Repetition 0 is the warm-up.  A repetition fails when a check found a
    problem or its outputs differ from the warm-up's.
    """
    first = reps[0].get("digest")
    for r in reps:
        if r.get("digest") != first and not r["problems"]:
            r["problems"].append("outputs differ from the first repetition of this seed")
    medians = {k: statistics.median(v) for k, v in timed_values(reps, trace).items()}
    if trace:
        # plain and traced repetitions alternate; comparing neighbours cancels
        # the host's slow speed drift
        ratios = [b["run_s"] / a["run_s"] - 1.0 for a, b in zip(reps[1:], reps[2:])
                  if not a.get("traced") and b.get("traced")
                  and not a["problems"] and not b["problems"]]
        if ratios:
            medians["trace.overhead_frac"] = statistics.median(ratios)
    return {"attempted": len(reps), "failed": sum(bool(r["problems"]) for r in reps),
            "metrics": medians}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="horizons cut tenfold, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not (SRC / "distopt" / "__init__.py").is_file():
        print(f"error: no distopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    machine = machine_record(args.seed)
    print("machine: " + json.dumps(machine), flush=True)
    out_root = OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    cfg = workloads.make_input(args.workload, args.seed, args.short)
    scenario = out_root / "scenario.json"
    scenario.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")

    min_reps = 1 + (2 * MIN_TIMED if args.trace else MIN_TIMED)
    deadline = start + args.seconds
    reps = []
    while True:
        i = len(reps)
        elapsed = time.perf_counter() - start
        rep = run_child(args.workload, scenario, out_root / "rep", traced=bool(args.trace and i % 2),
                        reference=i == 0, short=args.short,
                        timeout=min(CHILD_TIMEOUT_S, max(10.0, RUN_LIMIT_S - elapsed)))
        reps.append(rep)
        now = time.perf_counter()
        if now - start > RUN_LIMIT_S:
            break
        typical = statistics.median(r["wall_s"] for r in reps[1:] or reps)
        if len(reps) >= min_reps and now + typical > deadline:
            break

    res = summarize(reps, bool(args.trace))
    names = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = timed_values(reps, bool(args.trace))
    n_timed = max(map(len, values.values()), default=0)
    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} repetitions, the first a "
          f"warm-up; medians over {n_timed} {'traced' if args.trace else 'plain'} ones")
    for r in reps:
        for p in r["problems"]:
            print(f"FAILED CHECK: {p}")
    for name in names:
        if name not in res["metrics"]:
            continue
        line = f"{name} = {res['metrics'][name]:.6g} {metrics.unit(name)}"
        if len(values.get(name, [])) >= 2:
            q = statistics.quantiles(values[name], n=4)
            line += f" (q1 {q[0]:.6g}, q3 {q[2]:.6g})"
        print(line)
    plain = [r for r in reps[1:] if not r["problems"] and not r.get("traced")]
    if plain:
        print("measured, before scaling to the reference host speed: "
              + ", ".join(f"{k} {statistics.median(r[k] for r in plain):.6g} s"
                          for k in ("setup_wall_s", "run_wall_s", "probe_s")))
    if args.trace:
        for label, group in (("plain", False), ("traced", True)):
            vals = [r["run_s"] for r in reps[1:] if not r["problems"] and r.get("traced") == group]
            if vals:
                print(f"run_s of {label} repetitions: median {statistics.median(vals):.6g} s")
        bds = sorted((r["simulate_breakdown"] for r in reps if "simulate_breakdown" in r),
                     key=lambda b: b["dynamics.simulate"])
        if bds:  # the traced repetition with the median simulate time
            bd = bds[len(bds) // 2]
            parts = ", ".join(f"{k} {v:.4f}" for k, v in bd.items() if k != "dynamics.simulate")
            print(f"simulate {bd['dynamics.simulate']:.4f} s = {parts}")
    print(f"failed_frac = {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4g}")
    result = {
        "correct": res["failed"] == 0 and set(res["metrics"]) == set(names),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": metrics.unit(k)}
                    for k in names if k in res["metrics"]},
    }
    per_rep = [{k: r[k] for k in ("setup_s", "run_s", "peak_rss_mb", "setup_wall_s",
                                  "run_wall_s", "probe_s", "wall_s", "traced")
                if k in r} for r in reps]
    (out_root / "result.json").write_text(
        json.dumps(result | {"machine": machine, "repetitions": per_rep}, indent=2) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
