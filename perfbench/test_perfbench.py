"""Self-test of the benchmark, on short horizons.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is printed with its unit
for every workload, that tampered or crashed repetitions are counted as
failed instead of crashing the runner, that the traced run accounts
for the time of ``simulate`` and that times are scaled by the host-speed
probe, which does not touch distopt.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from metrics import FIG1B, FIG5, RING  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--short"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def test_metric_table_matches_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(metrics.ALL)
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in BENCH[key]} == \
            {name: row[:2] for name, row in table.items()}


@pytest.fixture(scope="module")
def short_results():
    out = {}
    for w in metrics.ALL:
        for trace in (0, 1):
            proc = _run(w, trace)
            assert proc.returncode == 0, proc.stderr
            out[w, trace] = (proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


@pytest.mark.parametrize("workload", metrics.ALL)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_unit(short_results, workload, trace):
    stdout, res = short_results[workload, trace]
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 4
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"{name} = " in stdout and f" {unit}" in stdout
    assert "failed_frac = 0/" in stdout


def test_layers_heavy_in_one_workload_light_in_another(short_results):
    layer = {w: {k: v["value"] for k, v in short_results[w, 1][1]["metrics"].items()}
             for w in metrics.ALL}
    assert layer[FIG1B]["schedulers.trigger_calls"] == 0
    assert layer[FIG5]["schedulers.trigger_calls"] > 0
    assert layer[RING]["dynamics.csv_rows"] == 0
    assert layer[FIG1B]["dynamics.csv_rows"] > 0
    for w in (FIG1B, FIG5):
        assert layer[w]["diagnostics.samples"] == 0
        assert layer[w]["diagnostics.decay_check_s"] == 0
        assert layer[w]["certificates.certify_calls"] == 0
    assert layer[RING]["diagnostics.samples"] == layer[RING]["dynamics.samples"]


def _short_input(tmp_path, workload, seed=3):
    cfg = workloads.make_input(workload, seed, short=True)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg, scenario


@pytest.mark.parametrize("workload", (FIG1B, FIG5, RING))
def test_simulate_time_is_accounted_for(tmp_path, workload):
    _, scenario = _short_input(tmp_path, workload)
    rec = run.run_child(workload, scenario, tmp_path / "rep", traced=True, reference=False,
                        short=True, timeout=120)
    assert rec["problems"] == []
    bd = rec["simulate_breakdown"]
    parts = sum(v for k, v in bd.items() if k != "dynamics.simulate")
    assert parts == pytest.approx(bd["dynamics.simulate"], rel=1e-9, abs=1e-12)
    assert rec["layers"]["dynamics.self_s"] == bd["self"]


def test_times_scaled_to_reference_speed(tmp_path):
    _, scenario = _short_input(tmp_path, FIG5)
    rec = run.run_child(FIG5, scenario, tmp_path / "rep", traced=True, reference=False,
                        short=True, timeout=120)
    assert rec["problems"] == []
    speed = calibrate.REFERENCE_S / rec["probe_s"]
    assert rec["run_s"] == pytest.approx(rec["run_wall_s"] * speed, rel=1e-12)
    assert rec["setup_s"] == pytest.approx(rec["setup_wall_s"] * speed, rel=1e-12)
    assert 0 < rec["layers"]["dynamics.simulate_s"] < rec["run_s"]


def test_probe_is_independent_of_distopt():
    code = ("import sys, calibrate; calibrate.kernel(); "
            "sys.exit(any(m.startswith('distopt') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode == 0


def _tamper_line(path, index, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines), encoding="utf-8")


def _shift_v(line):
    t, a, x, v, e, ev = line.split(",")
    return ",".join([t, a, x, repr(float(v) + 1e-3), e, ev])


@pytest.mark.parametrize("tamper", ("truncate", "v_sum"))
def test_tampered_figure_outputs_are_counted(tmp_path, tamper):
    cfg, scenario = _short_input(tmp_path, FIG1B)
    out = tmp_path / "rep"
    good = run.run_child(FIG1B, scenario, out, traced=False, reference=True, short=True,
                         timeout=120)
    assert good["problems"] == []
    trace_csv = out / "trace.csv"
    if tamper == "truncate":
        lines = trace_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        trace_csv.write_text("".join(lines[:-3]), encoding="utf-8")
    else:
        _tamper_line(trace_csv, 25, _shift_v)
    problems = workloads.check_figure(FIG1B, cfg, out, 0, short=True,
                                      with_reference=False)
    assert problems
    bad = dict(good, problems=problems, digest=workloads.digest(FIG1B, out, {}))
    res = run.summarize([good, dict(good, problems=[]), bad], trace=False)
    assert (res["attempted"], res["failed"]) == (3, 1)
    assert set(res["metrics"]) == {"setup_s", "run_s", "peak_rss_mb"}


def test_unbalanced_ring_trace_is_counted(tmp_path):
    cfg, scenario = _short_input(tmp_path, RING)
    result = workloads.run(RING, scenario, tmp_path)
    assert workloads.check_ring(cfg, result, short=True, with_reference=True) == []
    result["trace"].v[len(result["trace"].t) // 2, 0, 0] += 1e-3
    assert any("conservation" in p for p in workloads.check_ring(cfg, result, short=True,
                                                                 with_reference=False))


def test_crashed_repetition_is_counted(tmp_path):
    rec = run.run_child(FIG5, tmp_path / "missing.json", tmp_path / "rep", traced=False,
                        reference=False, short=True, timeout=60)
    assert rec["problems"]
    res = run.summarize([rec], trace=False)
    assert (res["attempted"], res["failed"], res["metrics"]) == (1, 1, {})


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out"))
    proc = _run(FIG1B, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
