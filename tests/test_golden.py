"""Golden records: the exact event log and the states at t = 0, 1 and 2 of
every figure preset and of the centralized ring case of criterion 8, run
through `scenarios.run` to t = 2 and compared with the records stored in
tests/golden/.  Events must match exactly (agent, node index), states to
1e-12.

The records pin the behaviour of the stepping loop and the trigger laws, so
a refactor of either must leave them unchanged.  Regenerate them only for
an intended change of the outputs, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import make_scenario
from distopt.graph import preset_graph
from distopt.scenarios import PRESET_NAMES, preset_dict, run, scenario_from_dict
from distopt.schedulers import CentralizedEvent
from test_acceptance import ring_certificates, ring_quadratics

GOLDEN_DIR = Path(__file__).parent / "golden"
CASES = PRESET_NAMES + ("ring",)
T_FINAL = 2.0
TIMES = (0.0, 1.0, 2.0)
STATE_TOL = 1e-12


def _scenario(name: str):
    if name == "ring":
        _, _, _, _, tau, kap = ring_certificates()
        return make_scenario(ring_quadratics(), graph=preset_graph("cycle10"),
                             scheme=CentralizedEvent(kappa=kap, tau=tau),
                             t_final=T_FINAL, h=1e-3, stride=1, seed=42)
    return scenario_from_dict(preset_dict(name) | {"t_final": T_FINAL})


def _record(name: str, out: Path) -> dict:
    """Run one case into ``out`` and read the record back from its CSVs."""
    h = run(_scenario(name), out_dir=out)["h"]
    with open(out / "events.csv", encoding="utf-8") as fh:
        fh.readline()
        events = [[int(a) - 1, round(float(t) / h)]
                  for a, t in (line.rstrip("\n").split(",") for line in fh)]
    rows = {tk: [] for tk in TIMES}
    with open(out / "trace.csv", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            t, _, x, v, _, _ = line.rstrip("\n").split(",")
            for tk in TIMES:
                if abs(float(t) - tk) <= 1e-9:
                    rows[tk].append(([float(c) for c in x.split(";")],
                                     [float(c) for c in v.split(";")]))
    return {
        "name": name,
        "h": h,
        "times": list(TIMES),
        "events": events,
        "x": [[xs for xs, _ in rows[tk]] for tk in TIMES],
        "v": [[vs for _, vs in rows[tk]] for tk in TIMES],
    }


@pytest.mark.parametrize("name", CASES)
def test_golden(name, tmp_path):
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        want = json.load(fh)
    got = _record(name, tmp_path)
    assert got["h"] == want["h"]
    assert got["events"] == want["events"]
    for key in ("x", "v"):
        a, b = np.array(got[key]), np.array(want[key])
        assert a.shape == b.shape, f"{key}: shape {a.shape} != {b.shape}"
        assert np.abs(a - b).max() <= STATE_TOL, f"{key} departs from the record"


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            record = _record(case, Path(tmp))
        with open(GOLDEN_DIR / f"{case}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh)
            fh.write("\n")
        print(f"{case}: {len(record['events'])} events")
