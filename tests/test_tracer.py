"""The benchmark tracer, perfbench/tracer.py, wraps the trigger laws by their
names in ``distopt.schedulers`` and counts their calls.  A traced run must
still reach them: this imports the tracer as it stands and checks that a
centralized and a distributed run record spans for both event laws."""

import importlib.util
from pathlib import Path

import numpy as np

from conftest import make_scenario
from distopt import schedulers
from distopt.dynamics import simulate
from distopt.graph import preset_graph
from distopt.scenarios import preset_dict, scenario_from_dict
from distopt.schedulers import CentralizedEvent
from test_acceptance import ring_certificates, ring_quadratics

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_record_the_trigger_laws():
    _, _, _, _, tau, kap = ring_certificates()
    ring = make_scenario(ring_quadratics(), graph=preset_graph("cycle10"),
                         scheme=CentralizedEvent(kappa=kap, tau=tau), t_final=0.2, stride=1)
    fig5 = scenario_from_dict(preset_dict("fig5") | {"t_final": 0.2})
    laws = {name: getattr(schedulers, name) for name in ("_centralized_due", "_cascade")}
    tr = load_tracer().install()
    try:
        traces = [simulate(ring), simulate(fig5)]
    finally:
        tr.uninstall()
    assert all(getattr(schedulers, name) is law for name, law in laws.items())
    names = [span[0] for span in tr.spans]
    assert "schedulers._centralized_due" in names
    # fig5 polls its cascade at each flagged node past t = 0, and each poll fires
    nodes = np.rint(traces[1].event_times / fig5.h).astype(int)
    assert names.count("schedulers._cascade") == np.unique(nodes[nodes > 0]).size > 0
    assert np.unique(traces[0].event_times).size > 1  # the ring broadcasts after t = 0 too
