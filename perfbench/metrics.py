"""Metric table of the distopt benchmark.

Every metric the benchmark prints is listed here with its unit, which
direction is better, the layer (module of ``src/distopt``) it belongs to,
the end-to-end metric it should move and the workloads on which it should
move it.  ``BENCHMARK.json`` repeats name, unit and direction; the
self-test checks that the two agree.
"""

FIG1B = "fig1b-switching"
FIG5 = "fig5-events"
RING = "ring-verify"
ALL = (FIG1B, FIG5, RING)
FIGURES = (FIG1B, FIG5)

# name: (unit, better, layer, moves, workloads)
END_TO_END = {
    "setup_s": ("s", "lower", "scenarios", "setup_s", ALL),
    "run_s": ("s", "lower", "all", "run_s", ALL),
    "peak_rss_mb": ("MB", "lower", "all", "peak_rss_mb", ALL),
}

PER_LAYER = {
    "scenarios.parse_s": ("s", "lower", "scenarios", "setup_s", ALL),
    "scenarios.write_s": ("s", "lower", "scenarios", "run_s", FIGURES),
    "dynamics.simulate_s": ("s", "lower", "dynamics", "run_s", ALL),
    "dynamics.self_s": ("s", "lower", "dynamics", "run_s", ALL),
    "dynamics.steps": ("count", "lower", "dynamics", "run_s", ALL),
    "dynamics.us_per_step": ("us", "lower", "dynamics", "run_s", ALL),
    "dynamics.samples": ("count", "lower", "dynamics", "run_s", ALL),
    "dynamics.trace_mb": ("MB", "lower", "dynamics", "peak_rss_mb", (RING,)),
    "dynamics.to_csv_s": ("s", "lower", "dynamics", "run_s", (FIG1B,)),
    "dynamics.csv_rows": ("count", "lower", "dynamics", "run_s", (FIG1B,)),
    "dynamics.to_csv_us_per_row": ("us", "lower", "dynamics", "run_s", (FIG1B,)),
    "costs.grad_stack_calls": ("count", "lower", "costs", "run_s", ALL),
    "costs.grad_stack_s": ("s", "lower", "costs", "run_s", ALL),
    "costs.grad_stack_us": ("us", "lower", "costs", "run_s", ALL),
    "costs.minimize_global_calls": ("count", "lower", "costs", "run_s", (RING,)),
    "costs.minimize_global_s": ("s", "lower", "costs", "run_s", (RING,)),
    "schedulers.trigger_calls": ("count", "lower", "schedulers", "run_s", (FIG5, RING)),
    "schedulers.trigger_s": ("s", "lower", "schedulers", "run_s", (FIG5, RING)),
    "schedulers.trigger_us": ("us", "lower", "schedulers", "run_s", (FIG5, RING)),
    "schedulers.broadcasts": ("count", "lower", "schedulers", "run_s", (FIG5, RING)),
    "schedulers.fire_ratio": ("ratio", "higher", "schedulers", "run_s", (FIG5, RING)),
    "schedulers.event_stats_s": ("s", "lower", "schedulers", "run_s", (RING,)),
    "certificates.certify_s": ("s", "lower", "certificates", "run_s", (RING,)),
    "certificates.certify_calls": ("count", "lower", "certificates", "run_s", (RING,)),
    "diagnostics.decay_check_s": ("s", "lower", "diagnostics", "run_s", (RING,)),
    "diagnostics.samples": ("count", "lower", "diagnostics", "run_s", (RING,)),
    "diagnostics.us_per_sample": ("us", "lower", "diagnostics", "run_s", (RING,)),
    "graph.complement_basis_calls": ("count", "lower", "graph", "run_s", (RING,)),
    "graph.out_laplacian_calls": ("count", "lower", "graph", "run_s", (RING,)),
    "graph.spectral_summary_s": ("s", "lower", "graph", "run_s", (RING,)),
    "trace.overhead_frac": ("ratio", "lower", "benchmark", "none", ALL),
}


def unit(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])[0]
