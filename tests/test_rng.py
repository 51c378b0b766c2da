"""The seeded initial-state draw: numpy's ``default_rng(seed).uniform`` stream,
reproduced without importing ``numpy.random``."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distopt import _rng
from distopt.scenarios import PRESET_NAMES, preset_dict, scenario_from_dict

ROOT = Path(__file__).resolve().parents[1]

EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1, 2**200 + 7]
BOXES = [(-5.0, 5.0), (-0.5, 0.5), (0.0, 1.0), (-1e300, 1e300), (2.0, 2.0 + 1e-12)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64),
                      st.integers(2**128 + 1, 2**260)),
       box=st.sampled_from(BOXES), n=st.integers(1, 12), d=st.integers(1, 3))
def test_draw_matches_numpy_bit_for_bit(seed, box, n, d):
    lo, hi = box
    expected = np.random.default_rng(seed).uniform(lo, hi, size=(n, d))
    got = np.reshape(_rng.uniform(seed, lo, hi, n * d), (n, d))
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_x0_is_numpys_stream(name):
    cfg = preset_dict(name)
    lo, hi = cfg["x0"]["box"]
    for seed in range(21):
        x0 = scenario_from_dict(cfg, seed=seed).x0
        assert x0.tobytes() == np.random.default_rng(seed).uniform(lo, hi, x0.shape).tobytes()


def test_runs_and_explicit_states_never_load_numpy_random(tmp_path):
    # a fresh interpreter: this test process has numpy.random loaded already
    script = textwrap.dedent("""
        import json, sys
        from distopt import cli, scenarios
        cfg = scenarios.preset_dict("fig5") | {"t_final": 0.02}
        with open("fig5.json", "w") as fh:
            json.dump(cfg, fh)
        assert cli.main(["run", "fig5.json", "--out", "out"]) == 0
        scenarios.scenario_from_dict(cfg | {"x0": [0.5] * 10})
        print("numpy.random" in sys.modules)
    """)
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "False"
