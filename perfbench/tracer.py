"""Timing spans around the calls into each distopt layer.

Installed only in traced repetitions.  Each wrapper records a span
``[name, start, end, parent]`` in memory; the per-layer metrics are
computed from the spans when the repetition ends.  A span's self time is
its duration minus the time its child spans cover.

Names are wrapped in the namespace where each caller looks them up:
several modules bind ``minimize_global``, ``complement_basis`` and
``out_laplacian`` with ``from ... import``, so each of those bindings is
wrapped.  ``simulate`` reaches the trigger laws through the ``schedulers``
module, which is the boundary between ``dynamics`` and ``schedulers``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from distopt import certificates, costs, diagnostics, dynamics, graph, scenarios, schedulers

TRIGGERS = ("schedulers.periodic_due", "schedulers._centralized_due", "schedulers._cascade")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_return(counts, args, result)`` records counts at the boundary.
        """
        orig = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def totals(self):
        """Per-name total duration and self time, and per-parent child time."""
        total: defaultdict[str, float] = defaultdict(float)
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        child = [0.0] * len(self.spans)
        # children end before their parents, so one reverse pass sees every
        # child of a span before the span itself
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[idx]
            dur = end - start
            total[name] += dur
            self_s[name] += dur - child[idx]
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
        return total, self_s, calls

    def within(self, parent_name: str) -> dict[str, float]:
        """Total duration of direct children of ``parent_name`` spans, by name."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == parent_name:
                out[name] += end - start
        return dict(out)


def _count_simulate(counts, args, trace):
    scenario = args[0]
    counts["steps"] += round(scenario.t_final / scenario.h)
    counts["samples"] += int(trace.t.size)
    counts["broadcasts"] += int(trace.event_agents.size)
    arrays = (trace.t, trace.x, trace.v, trace.x_hat, trace.err, trace.event_agents,
              trace.event_times)
    counts["trace_bytes"] += sum(int(a.nbytes) for a in arrays)


def _count_to_csv(counts, args, result):
    trace = args[0]
    counts["csv_rows"] += int(trace.t.size) * trace.n_agents


def _count_fired(counts, args, result):
    if result:
        counts["fired"] += 1


def _count_decay(counts, args, result):
    counts["decay_samples"] += int(args[0].t.size)


def install() -> Tracer:
    """Wrap every layer boundary the workloads cross."""
    tr = Tracer()
    tr.wrap(scenarios, "parse_scenario", "scenarios.parse_scenario")
    tr.wrap(scenarios, "run", "scenarios.run")
    tr.wrap(dynamics, "simulate", "dynamics.simulate", _count_simulate)
    tr.wrap(dynamics.Trace, "to_csv", "dynamics.to_csv", _count_to_csv)
    tr.wrap(costs.NetworkCost, "grad_stack", "costs.grad_stack")
    for mod in (dynamics, certificates, diagnostics):
        if hasattr(mod, "minimize_global"):
            tr.wrap(mod, "minimize_global", "costs.minimize_global")
    tr.wrap(schedulers, "periodic_due", "schedulers.periodic_due", _count_fired)
    tr.wrap(schedulers, "_centralized_due", "schedulers._centralized_due", _count_fired)
    tr.wrap(schedulers, "_cascade", "schedulers._cascade", _count_fired)
    tr.wrap(schedulers, "event_stats", "schedulers.event_stats")
    tr.wrap(certificates, "certify", "certificates.certify")
    tr.wrap(diagnostics, "decay_check", "diagnostics.decay_check", _count_decay)
    for mod in (dynamics, certificates, diagnostics, graph):
        for fn in ("complement_basis", "out_laplacian"):
            if hasattr(mod, fn):
                tr.wrap(mod, fn, f"graph.{fn}")
    tr.wrap(certificates, "spectral_summary", "graph.spectral_summary")
    return tr


def layer_metrics(tr: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, and the breakdown of
    ``simulate`` into its self time and its direct children."""
    total, self_s, calls = tr.totals()
    c = tr.counts

    def per(num, den, scale=1e6):
        return num / den * scale if den else 0.0

    sim_s = total["dynamics.simulate"]
    run_children = tr.within("scenarios.run")
    grad_calls = calls["costs.grad_stack"]
    trig_calls = sum(calls[n] for n in TRIGGERS)
    trig_s = sum(total[n] for n in TRIGGERS)
    m = {
        "scenarios.parse_s": total["scenarios.parse_scenario"],
        "scenarios.write_s": total["scenarios.run"] - run_children.get("dynamics.simulate", 0.0),
        "dynamics.simulate_s": sim_s,
        "dynamics.self_s": self_s["dynamics.simulate"],
        "dynamics.steps": c["steps"],
        "dynamics.us_per_step": per(sim_s, c["steps"]),
        "dynamics.samples": c["samples"],
        "dynamics.trace_mb": c["trace_bytes"] / 1e6,
        "dynamics.to_csv_s": total["dynamics.to_csv"],
        "dynamics.csv_rows": c["csv_rows"],
        "dynamics.to_csv_us_per_row": per(total["dynamics.to_csv"], c["csv_rows"]),
        "costs.grad_stack_calls": grad_calls,
        "costs.grad_stack_s": total["costs.grad_stack"],
        "costs.grad_stack_us": per(total["costs.grad_stack"], grad_calls),
        "costs.minimize_global_calls": calls["costs.minimize_global"],
        "costs.minimize_global_s": total["costs.minimize_global"],
        "schedulers.trigger_calls": trig_calls,
        "schedulers.trigger_s": trig_s,
        "schedulers.trigger_us": per(trig_s, trig_calls),
        "schedulers.broadcasts": c["broadcasts"],
        "schedulers.fire_ratio": per(c["fired"], trig_calls, 1.0),
        "schedulers.event_stats_s": total["schedulers.event_stats"],
        "certificates.certify_s": total["certificates.certify"],
        "certificates.certify_calls": calls["certificates.certify"],
        "diagnostics.decay_check_s": total["diagnostics.decay_check"],
        "diagnostics.samples": c["decay_samples"],
        "diagnostics.us_per_sample": per(total["diagnostics.decay_check"], c["decay_samples"]),
        "graph.complement_basis_calls": calls["graph.complement_basis"],
        "graph.out_laplacian_calls": calls["graph.out_laplacian"],
        "graph.spectral_summary_s": total["graph.spectral_summary"],
    }
    breakdown = {"dynamics.simulate": sim_s, "self": self_s["dynamics.simulate"]}
    breakdown.update(tr.within("dynamics.simulate"))
    return m, breakdown
