import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conftest import dump_graph, make_scenario
from distopt.certificates import certify
from distopt.cli import main
from distopt.costs import CostModel
from distopt.dynamics import AlgorithmParams
from distopt.errors import ValidationError
from distopt.graph import preset_graph
from distopt.scenarios import (
    PRESET_NAMES,
    jsonable,
    parse_scenario,
    preset_dict,
    presets,
    run,
    scenario_from_dict,
)
from distopt.schedulers import (
    Continuous,
    DistributedEvent,
    EulerScheme,
    Periodic,
)

MINIMAL = {
    "name": "minimal",
    "graph": {"preset": "fig2"},
    "costs": [{"kind": "catalog", "name": f"f{i}"} for i in range(1, 11)],
    "scheme": {"kind": "continuous"},
}


# malformed fields, each of which fails at parse naming its field, alike on a
# ten-agent and a two-agent scenario
MALFORMED = [
    ({"analysis": 5}, "analysis"),
    ({"graph": 5}, "graph"),
    ({"switching": 5}, "switching"),
    ({"graph": {"preset": 5}}, "graph.preset"),
    ({"graph": {"file": 5}}, "graph.file"),
    ({"switching": {"presets": 5, "dwell": 1.0}}, "switching.presets"),
    ({"switching": {"presets": ["k2", 5], "dwell": 1.0}}, "switching.presets[1]"),
    ({"switching": {"presets": ["k2"], "dwell": 1.0, "order": 5}}, "switching.order"),
    ({"analysis": {"eps_vec": [0.1, "x"]}}, "analysis.eps_vec"),
    ({"costs": [{"kind": "quadratic", "a": "x"}]}, "costs[0].a"),
    ({"costs": [{"kind": "quadratic", "a": [1.0], "b": "x"}]}, "costs[0].b"),
    ({"graph": {"n": 2, "edges": [[1, 2], [2, 1, 1.0]]}}, "graph.edges[0]"),
    ({"graph": {"n": "two", "edges": [[1, 2, 1.0]]}}, "graph.n"),
    ({"costs": [{"kind": "quadratic", "a": [1.0]}, {"kind": "quadratic", "a": [1.0, 2.0]}]},
     "costs: cost dimensions differ"),
    ({"switching": {"graphs": 5, "dwell": 1.0}}, "switching.graphs"),
    ({"out": 5}, "out"),
    ({"scheme": {"kind": ["periodic"]}}, "scheme.kind"),
    ({"seed": -1}, "seed"),
    ({"t_final": math.inf}, "t_final"),
    ({"x0": {"box": [-1.0, math.inf]}}, "x0.box"),
    ({"costs": [{"kind": "quadratic", "a": [[1.0]]}]}, "costs[0].a"),
    ({"scheme": {"kind": "periodic", "delta": math.inf}}, "periodic delta"),
    ({"graph": {"n": 1e308, "edges": [[1, 2, 1.0], [2, 1, 1.0]]}}, "graph.n"),
    ({"graph": {"n": 10**9, "edges": [[1, 2, 1.0], [2, 1, 1.0]]}}, "graph.n"),
    ({"analysis": {"eps": 1.5}}, "analysis.eps"),
    ({"analysis": {"eps": 1.0}}, "analysis.eps"),
    ({"analysis": {"eps": 0.0}}, "analysis.eps"),
    ({"analysis": {"delta": -2.0}}, "analysis.delta"),
    ({"analysis": {"delta": 0.0}}, "analysis.delta"),
    ({"analysis": {"phi": 0.0}}, "analysis.phi"),
    ({"analysis": {"phi": -9.0}}, "analysis.phi"),
    ({"analysis": {"eps_vec": [0.1, 0.0]}}, "analysis.eps_vec"),
    ({"analysis": {"eps_vec": [-0.1, 0.1]}}, "analysis.eps_vec"),
]


def merged(base: dict, change: dict) -> dict:
    """``base`` with ``change`` applied; a switching set in ``change`` replaces the base's
    fixed graph, since a scenario sets one of the two."""
    cfg = dict(base) | change
    if "switching" in change:
        cfg.pop("graph", None)
    return cfg


def strict_json(text: str):
    """``text`` read as strict JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise AssertionError(f"output holds {constant}")

    return json.loads(text, parse_constant=refuse)


def write_json(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParsing:
    def test_minimal_defaults(self):
        sc = scenario_from_dict(dict(MINIMAL))
        assert sc.h == 1e-3
        assert sc.stride == 10
        assert sc.seed == 42
        assert np.abs(sc.v0).max() == 0.0
        assert sc.x0.shape == (10, 1)
        assert (np.abs(sc.x0) <= 5.0).all()
        assert isinstance(sc.scheme, Continuous)

    def test_nonzero_v0_sum_rejected(self):
        cfg = dict(MINIMAL) | {"v0": [1.0] + [0.0] * 9}
        with pytest.raises(ValidationError):
            scenario_from_dict(cfg)

    def test_zero_sum_v0_accepted(self):
        cfg = dict(MINIMAL) | {"v0": [1.0, -1.0] + [0.0] * 8}
        sc = scenario_from_dict(cfg)
        assert sc.v0[0, 0] == 1.0

    def test_nonpositive_delta_rejected(self):
        cfg = dict(MINIMAL) | {"scheme": {"kind": "periodic", "delta": 0.0}}
        with pytest.raises(ValidationError):
            scenario_from_dict(cfg)

    def test_missing_scheme_field_names_it(self):
        cfg = dict(MINIMAL) | {"scheme": {"kind": "periodic"}}
        with pytest.raises(ValidationError, match=r"scheme\.delta"):
            scenario_from_dict(cfg)

    def test_non_numeric_scheme_field_names_it(self):
        cfg = dict(MINIMAL) | {"scheme": {"kind": "periodic", "delta": "abc"}}
        with pytest.raises(ValidationError, match=r"scheme\.delta"):
            scenario_from_dict(cfg)

    def test_missing_costs_rejected(self):
        with pytest.raises(ValidationError):
            scenario_from_dict({"graph": {"preset": "k2"}})

    @pytest.mark.parametrize("change, named", [
        ({"alpha": "fast"}, "alpha"),
        ({"alpha": -1}, "alpha"),
        ({"beta": 0}, "beta"),
        ({"t_final": "long"}, "t_final"),
        ({"h": [1e-3]}, "h"),
        ({"stride": "ten"}, "stride"),
        ({"stride": 2.5}, "stride"),
        ({"seed": "abc"}, "seed"),
        ({"seed": None}, "seed"),
        ({"analysis": {"eps": "half"}}, "analysis.eps"),
        ({"analysis": {"phi": "nine"}}, "analysis.phi"),
        ({"v0": [0.0] * 9}, "v0"),
        ({"v0": ["a"] * 10}, "v0"),
        ({"x0": [0.0] * 11}, "x0"),
        ({"costs": 5}, "costs"),
        ({"switching": {"presets": ["fig2", "fig2r3"], "dwell": 0.0105}}, "switching.dwell"),
        ({"switching": {"presets": ["fig2", "fig2r3"], "dwell": "two"}}, "switching.dwell"),
        ({"switching": {"presets": ["fig2", "k3"], "dwell": 2.0}}, "graph has 3 nodes"),
    ] + MALFORMED)
    def test_bad_field_fails_at_parse_naming_it(self, change, named):
        with pytest.raises(ValidationError, match=re.escape(named)):
            scenario_from_dict(merged(MINIMAL, change))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("named, change", [
        ("alpha", lambda b: {"alpha": b}),
        ("beta", lambda b: {"beta": b}),
        ("x0", lambda b: {"x0": [b] + [0.0] * 9}),
        ("x0.box", lambda b: {"x0": {"box": [0.0, b]}}),
        ("v0", lambda b: {"v0": [0.0] * 9 + [b]}),
        ("scheme.eps", lambda b: {"scheme": {"kind": "distributed_event", "eps": b}}),
        ("scheme.eps", lambda b: {"scheme": {"kind": "distributed_event", "eps": [0.1] * 9 + [b]}}),
        ("scheme.tau", lambda b: {"scheme": {"kind": "centralized_event", "kappa": 0.5, "tau": b}}),
        ("analysis.eps", lambda b: {"analysis": {"eps": b}}),
        ("analysis.delta", lambda b: {"analysis": {"delta": b}}),
        ("analysis.phi", lambda b: {"analysis": {"phi": b}}),
        ("analysis.box", lambda b: {"analysis": {"box": [-1.0, b]}}),
        ("analysis.eps_vec", lambda b: {"analysis": {"eps_vec": [0.1] * 9 + [b]}}),
    ], ids=["alpha", "beta", "x0", "x0.box", "v0", "scheme.eps", "scheme.eps[9]", "scheme.tau",
            "analysis.eps", "analysis.delta", "analysis.phi", "analysis.box", "analysis.eps_vec"])
    def test_non_finite_field_fails_at_parse_naming_it(self, tmp_path, change, named, bad):
        # JSON's Infinity and NaN parse as floats: they must not reach the run
        path = write_json(tmp_path, dict(MINIMAL) | change(bad))
        with pytest.raises(ValidationError, match=re.escape(named)):
            parse_scenario(path)

    @pytest.mark.parametrize("gains", [(math.inf, 1.0), (1.0, math.nan)])
    def test_gains_must_be_finite(self, gains):
        with pytest.raises(ValidationError, match="finite"):
            AlgorithmParams(*gains)

    def test_scenario_is_frozen_and_resolves_the_run_once(self):
        sc = scenario_from_dict(dict(MINIMAL) | {"t_final": 2.0})
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.alpha = 2.0
        assert sc.network is sc.network
        assert sc.graphs == (sc.graph,) and sc.step == sc.h and sc.n_steps == 2000
        moved = dataclasses.replace(sc, alpha=2.0)  # a changed copy is validated afresh
        assert moved.alpha == 2.0 and moved.network is not sc.network

    def test_t_final_off_the_step_grid_rejected(self):
        # 0.2005 with h = 1e-3 would otherwise be cut to 0.2
        with pytest.raises(ValidationError, match="t_final"):
            scenario_from_dict(dict(MINIMAL) | {"t_final": 0.2005})

    def test_t_final_checked_against_the_euler_step(self):
        cfg = dict(MINIMAL) | {"scheme": {"kind": "euler", "delta": 0.3}, "t_final": 1.0}
        with pytest.raises(ValidationError, match="t_final"):
            scenario_from_dict(cfg)
        assert scenario_from_dict(cfg | {"t_final": 1.2}).t_final == 1.2

    def test_cost_graph_size_mismatch(self):
        cfg = dict(MINIMAL) | {"graph": {"preset": "k2"}}
        with pytest.raises(ValidationError):
            scenario_from_dict(cfg)

    def test_scalar_eps_broadcasts(self):
        cfg = dict(MINIMAL) | {"scheme": {"kind": "distributed_event", "eps": 0.002}}
        sc = scenario_from_dict(cfg)
        assert isinstance(sc.scheme, DistributedEvent)
        assert sc.scheme.eps.shape == (10,)

    def test_eps_length_checked_at_parse(self):
        cfg = preset_dict("fig5")
        cfg["scheme"]["eps"] = [0.002] * 9
        with pytest.raises(ValidationError, match=r"scheme\.eps has 9 entries"):
            scenario_from_dict(cfg)

    def test_analysis_eps_vec_length_checked_at_parse(self):
        cfg = preset_dict("fig3a") | {"analysis": {"box": [-5.0, 5.0], "eps_vec": [0.1] * 3}}
        with pytest.raises(ValidationError, match=r"analysis\.eps_vec has 3 entries"):
            scenario_from_dict(cfg)
        cfg["analysis"]["eps_vec"] = [0.1] * 10
        assert len(scenario_from_dict(cfg).analysis.eps_vec) == 10

    def test_explicit_x0(self):
        cfg = dict(MINIMAL) | {"x0": list(range(10))}
        sc = scenario_from_dict(cfg)
        assert sc.x0[3, 0] == 3.0

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="bad.json:1:2: "):
            parse_scenario(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError, match="bad.json: top level must be an object"):
            parse_scenario(path)

    def test_inline_graph_and_quadratic_costs(self):
        cfg = {
            "graph": {"n": 2, "edges": [[1, 2, 1.0], [2, 1, 1.0]]},
            "costs": [{"kind": "quadratic", "a": [4.0]},
                      {"kind": "quadratic", "a": [-2.0], "b": 1.0}],
            "t_final": 1.0,
        }
        sc = scenario_from_dict(cfg)
        assert sc.graph.n == 2
        assert sc.costs[0].m == 1.0

    def test_seed_override_changes_draw(self):
        a = scenario_from_dict(dict(MINIMAL))
        b = scenario_from_dict(dict(MINIMAL), seed=7)
        assert not np.allclose(a.x0, b.x0)

    @pytest.mark.parametrize("change, named", [
        ({"aplha": 5}, "aplha"),
        ({"graph": {"preset": "fig2", "n": 10}}, "graph.n"),
        ({"graph": {"n": 2, "edges": [[1, 2, 1.0], [2, 1, 1.0]], "weights": [1.0]}},
         "graph.weights"),
        ({"switching": {"presets": ["fig2"], "dwell": 1.0, "ordr": [0]}}, "switching.ordr"),
        ({"switching": {"presets": ["fig2", "fig2r3"], "dwell": 1.0, "order": [1, 0]}},
         "switching.order"),
        ({"switching": {"graphs": [{"preset": "fig2", "nmae": "x"}], "dwell": 1.0}},
         "switching.graphs[0].nmae"),
        ({"scheme": {"kind": "centralized_event", "kappa": 0.06, "tau": 0.01, "kapa": 0.5}},
         "scheme.kapa"),
        ({"scheme": {"kind": "continuous", "delta": 0.5}}, "scheme.delta"),
        ({"analysis": {"detla": 2.0}}, "analysis.detla"),
        ({"costs": [{"kind": "catalog", "name": "f1", "a": [1.0]}] + MINIMAL["costs"][1:]},
         "costs[0].a"),
        ({"costs": MINIMAL["costs"][:9] + [{"kind": "quadratic", "a": [1.0], "c": 2.0}]},
         "costs[9].c"),
        ({"x0": {"box": [-1.0, 1.0], "bx": [0.0, 1.0]}}, "x0.bx"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_unknown_field_fails_at_parse_naming_it(self, change, named):
        # each object the scenario holds: top level, graph, switching, scheme, analysis,
        # costs[i] and x0
        with pytest.raises(ValidationError, match=re.escape(named) + " is not a known field"):
            scenario_from_dict(merged(MINIMAL, change))

    @pytest.mark.parametrize("change, named", [
        ({"graph": {"preset": "fig2"}, "switching": {"presets": ["fig2"], "dwell": 1.0}},
         "graph and switching"),
        ({"graph": {"preset": "fig2", "n": 2, "edges": [[1, 2, 1.0], [2, 1, 1.0]]}},
         "graph.preset and graph.edges"),
        ({"graph": {"preset": "fig2", "file": "fig2.txt"}}, "graph.preset and graph.file"),
        ({"switching": {"presets": ["fig2"], "graphs": [{"preset": "fig2"}], "dwell": 1.0}},
         "switching.presets and switching.graphs"),
        ({"switching": {"graphs": [{"file": "a.txt", "edges": []}], "dwell": 1.0}},
         "switching.graphs[0].file and switching.graphs[0].edges"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_conflicting_fields_fail_at_parse_naming_both(self, change, named):
        cfg = {k: v for k, v in MINIMAL.items() if k != "graph"} | change
        with pytest.raises(ValidationError, match=re.escape(named) + " exclude each other"):
            scenario_from_dict(cfg)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_validate(self, name):
        sc = presets(name)
        assert len(sc.costs) == 10

    def test_fig1_family(self):
        assert presets("fig1a").beta == 0.5
        assert presets("fig1b").beta == 1.0
        assert presets("fig1c").beta == 5.0
        sc = presets("fig1b")
        assert sc.schedule is not None and len(sc.schedule.graphs) == 3
        assert sc.schedule.dwell == 2.0
        assert isinstance(sc.scheme, Continuous)

    def test_fig3_fig4_parameters(self):
        a = presets("fig3a")
        assert (a.beta, a.scheme.delta) == (1.0, 0.5)
        b = presets("fig3b")
        assert (b.beta, b.scheme.delta) == (0.5, 1.0)
        fa = presets("fig4a")
        assert (fa.beta, fa.scheme.delta) == (2.0, 0.2)
        assert isinstance(fa.scheme, Periodic)
        fb = presets("fig4b")
        assert isinstance(fb.scheme, EulerScheme)
        assert (fb.alpha, fb.beta, fb.scheme.delta) == (1.0, 1.0, 0.2)
        # the Euler pair starts inside the small box where the quartic cost
        # keeps the explicit update stable
        assert np.abs(fb.x0).max() <= 0.5
        assert np.abs(fa.x0).max() <= 0.5

    def test_fig5_parameters(self):
        sc = presets("fig5")
        assert isinstance(sc.scheme, DistributedEvent)
        assert np.allclose(sc.scheme.eps, 0.002)
        assert sc.alpha == sc.beta == 1.0
        assert sc.h == pytest.approx(2e-4)

    def test_unknown_preset(self):
        with pytest.raises(ValidationError, match="unknown preset 'fig9'"):
            presets("fig9")

    def test_preset_dict_round_trips_through_json(self):
        for name in PRESET_NAMES:
            blob = json.dumps(preset_dict(name))
            sc = scenario_from_dict(json.loads(blob))
            assert sc.name == name


class TestRunOutputs:
    def quick_cfg(self, **extra):
        return {
            "name": "quick",
            "graph": {"preset": "k2"},
            "costs": [{"kind": "catalog", "name": "f2"},
                      {"kind": "catalog", "name": "f10"}],
            "scheme": {"kind": "periodic", "delta": 0.1},
            "t_final": 1.0,
            "stride": 10,
        } | extra

    def test_run_writes_outputs(self, tmp_path):
        sc = scenario_from_dict(self.quick_cfg())
        summary = run(sc, out_dir=tmp_path / "out")
        for fname in ("trace.csv", "events.csv", "summary.json"):
            assert (tmp_path / "out" / fname).exists()
        assert summary["status"] == "ok"
        assert summary["x_star"][0] == pytest.approx(1.0, abs=1e-10)
        assert summary["event_counts"] == [11, 11]
        assert summary["conservation_max"] <= 1e-9
        header = (tmp_path / "out" / "trace.csv").read_text().splitlines()[0]
        assert header == "t,agent,x,v,err,event"
        first_events = (tmp_path / "out" / "events.csv").read_text().splitlines()[:3]
        assert first_events[0] == "agent,t"

    def test_realized_period_in_summary(self, tmp_path):
        # delta = 0.025 on h = 0.01 broadcasts every 2 steps, so every 0.02
        cfg = self.quick_cfg() | {"scheme": {"kind": "periodic", "delta": 0.025}, "h": 0.01}
        run(scenario_from_dict(cfg), out_dir=tmp_path / "p")
        summary = json.loads((tmp_path / "p" / "summary.json").read_text())
        assert summary["realized_period"] == 0.02
        cont = run(scenario_from_dict(self.quick_cfg() | {"scheme": {"kind": "continuous"}}),
                   out_dir=tmp_path / "c")
        assert cont["realized_period"] is None

    def test_determinism_bit_identical(self, tmp_path):
        sc1 = scenario_from_dict(self.quick_cfg())
        sc2 = scenario_from_dict(self.quick_cfg())
        run(sc1, out_dir=tmp_path / "a")
        run(sc2, out_dir=tmp_path / "b")
        for fname in ("trace.csv", "events.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        run(scenario_from_dict(self.quick_cfg()), out_dir=tmp_path / "a")
        run(scenario_from_dict(self.quick_cfg(), seed=9), out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "trace.csv").read_bytes() != (tmp_path / "b" / "trace.csv").read_bytes()

    def test_certificate_embedding(self, tmp_path):
        cfg = self.quick_cfg() | {"beta": 6.0, "analysis": {"phi": 9.0}}
        summary = run(scenario_from_dict(cfg), out_dir=tmp_path / "c", with_certificate=True)
        assert summary["certificate"]["gamma"] == pytest.approx(576.0, abs=1e-9)

    @staticmethod
    def strict_summary(out) -> dict:
        """``summary.json`` read as strict JSON."""
        return strict_json((out / "summary.json").read_text())

    def test_agents_starting_at_the_optimum_write_strict_json(self, tmp_path):
        # err is 0 at t = 0: the log-error series this summary no longer carries read -inf
        cfg = {"graph": {"preset": "k2"}, "x0": [0.0, 0.0], "t_final": 1.0,
               "costs": [{"kind": "quadratic", "a": [2.0]}, {"kind": "quadratic", "a": [-2.0]}]}
        summary = run(scenario_from_dict(cfg), out_dir=tmp_path / "out")
        assert self.strict_summary(tmp_path / "out") == summary
        assert "ln_err" not in summary

    def test_network_without_oracle_writes_null_errors(self, tmp_path):
        # a non-affine d = 2 network has no oracle: x* is None and every err NaN
        kinked = CostModel(dim=2, value=lambda x: float(x @ x),
                           gradient=lambda x: 2 * x + 1e-3 * np.where(x >= 0, 1.0, -1.0))
        sc = make_scenario([kinked, kinked], graph=preset_graph("k2"), t_final=0.1)
        summary = run(sc, out_dir=tmp_path / "out")
        assert self.strict_summary(tmp_path / "out") == summary
        assert summary["x_star"] is None and summary["final_errors"] == [None, None]


class TestCli:
    def quick_cfg(self):
        return TestRunOutputs.quick_cfg(self)

    def test_run_ok(self, tmp_path, capsys):
        path = write_json(tmp_path, self.quick_cfg())
        code = main(["run", path, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "final max error" in capsys.readouterr().out

    def test_run_validation_error(self, tmp_path, capsys):
        path = write_json(tmp_path, self.quick_cfg() | {"v0": [1.0, 0.0]})
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("scheme, named", [({"kind": "periodic"}, "scheme.delta"),
                                               ({"kind": "periodic", "delta": "abc"}, "scheme.delta"),
                                               ("periodic", "scheme must be an object")])
    def test_run_bad_scheme_exits_2(self, tmp_path, capsys, scheme, named):
        path = write_json(tmp_path, self.quick_cfg() | {"scheme": scheme})
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("change, named", [
        ({"costs": []}, "costs"),
        ({"costs": [{"kind": "catalog", "name": "f2"}, {"kind": "catalog"}]}, "costs[1].name"),
        ({"costs": [{"kind": "quadratic"}, {"kind": "quadratic", "a": [1.0]}]}, "costs[0].a"),
        ({"costs": [{"kind": "catalog", "name": "f2"}, "f10"]}, "costs[1]"),
        ({"switching": {"presets": ["k2", "cycle2"]}}, "switching.dwell"),
        ({"switching": {"dwell": 1.0}}, "switching.graphs"),
        ({"graph": {"edges": [[1, 2, 1.0], [2, 1, 1.0]]}}, "graph.n"),
        ({"switching": {"presets": ["k2", "cycle2"], "dwell": 0.0105}}, "dwell"),
        ({"x0": {"box": [1.0]}}, "x0.box"),
        ({"analysis": {"box": [1.0]}}, "analysis.box"),
        ({"analysis": {"box": [5.0, -5.0]}}, "analysis.box"),
        ({"alpha": "fast"}, "alpha"),
        ({"costs": 5}, "costs"),
    ] + MALFORMED)
    def test_run_bad_field_exits_2_naming_it(self, tmp_path, capsys, change, named):
        path = write_json(tmp_path, merged(self.quick_cfg(), change))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_run_t_final_off_grid_exits_2_writes_nothing(self, tmp_path, capsys):
        path = write_json(tmp_path, self.quick_cfg() | {"t_final": 0.2005})
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        assert "t_final" in capsys.readouterr().err
        assert not out.exists()

    def test_disconnected_graph_run_exits_2_certify_exits_4(self, tmp_path, capsys):
        # two disconnected pairs cannot reach the optimum: run refuses before writing
        # anything, and certify still prints its infeasible report
        cfg = {"graph": {"n": 4, "edges": [[1, 2, 1.0], [2, 1, 1.0], [3, 4, 1.0], [4, 3, 1.0]]},
               "costs": [{"kind": "quadratic", "a": [float(a)]} for a in (1, 2, 3, 4)]}
        path, out = write_json(tmp_path, cfg), tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        assert "graph is not strongly connected" in capsys.readouterr().err
        assert not out.exists()
        assert main(["run", path, "--out", str(out), "--certify"]) == 2
        assert not out.exists()
        assert main(["certify", path]) == 4

    def test_unbalanced_graph_run_exits_2_certify_exits_4(self, tmp_path, capsys):
        # strongly connected but not weight balanced: sum v is not conserved, so run
        # refuses before writing anything, and certify still prints its report
        cfg = {"graph": {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0], [1, 3, 2.0]]},
               "costs": [{"kind": "quadratic", "a": [float(a)]} for a in (1, 2, 3)], "t_final": 30.0}
        path, out = write_json(tmp_path, cfg), tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        assert "graph is not weight balanced" in capsys.readouterr().err
        assert not out.exists()
        assert main(["certify", path]) == 4
        assert '"topology_certified": false' in capsys.readouterr().out

    def test_run_certify_error_writes_nothing(self, tmp_path):
        # catalog costs without analysis.box: certify fails before anything runs
        cfg = preset_dict("fig3a") | {"t_final": 0.2}
        path = write_json(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--certify"]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_run_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_run_blowup_exit(self, tmp_path):
        cfg = self.quick_cfg() | {
            "scheme": {"kind": "euler", "delta": 2.5},
            "t_final": 400.0,
            "x0": [5.0, -5.0],
            "stride": 1,
        }
        path = write_json(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        assert (tmp_path / "out" / "summary.json").exists()  # partial outputs

    def test_run_blowup_keeps_the_certificate(self, tmp_path):
        # the verdict computed before the run stays beside the failure it explains
        cfg = self.quick_cfg() | {"scheme": {"kind": "euler", "delta": 2.5}, "t_final": 400.0,
                                  "x0": [5.0, -5.0], "stride": 1, "analysis": {"phi": 9.0}}
        path = write_json(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--certify"]) == 3
        summary = TestRunOutputs.strict_summary(tmp_path / "out")
        assert summary["status"] == "blowup"
        sc = scenario_from_dict(cfg)
        assert summary["certificate"] == jsonable(vars(certify(sc)))

    def test_run_seed_flag(self, tmp_path):
        path = write_json(tmp_path, self.quick_cfg())
        assert main(["run", path, "--out", str(tmp_path / "o1"), "--seed", "5"]) == 0
        assert main(["run", path, "--out", str(tmp_path / "o2"), "--seed", "5"]) == 0
        assert (tmp_path / "o1" / "trace.csv").read_bytes() == (tmp_path / "o2" / "trace.csv").read_bytes()

    def test_run_certify_flag_embeds_report(self, tmp_path):
        cfg = self.quick_cfg() | {"beta": 6.0, "analysis": {"phi": 9.0}}
        path = write_json(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--certify"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["certificate"]["feasible"]["digraph_rate"] is True

    def test_certify_feasible(self, tmp_path, capsys):
        cfg = self.quick_cfg() | {
            "beta": 6.0,
            "scheme": {"kind": "distributed_event", "eps": 0.002},
            "analysis": {"phi": 9.0},
        }
        path = write_json(tmp_path, cfg)
        assert main(["certify", path]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["gamma_prime"] == pytest.approx(90.0, abs=1e-9)
        assert report["suggested_delta_comm"] == pytest.approx(0.9 * report["tau"])
        # adopting the suggested coupling makes the digraph margin positive
        from distopt.certificates import ConvexityBounds, gamma

        adopted = gamma(1.0, report["suggested_beta"] * (1 + 1e-9), report["phi"],
                        ConvexityBounds(report["m_lower"], report["M_upper"]),
                        report["lambda_hat_2"])
        assert adopted > 0

    def test_certify_infeasible_exit(self, tmp_path):
        # unit-curvature quadratics with delta = 0.5 give phi < 0
        cfg = {
            "graph": {"preset": "k2"},
            "costs": [{"kind": "quadratic", "a": [4.0]},
                      {"kind": "quadratic", "a": [-2.0]}],
            "scheme": {"kind": "periodic", "delta": 0.1},
            "analysis": {"eps": 0.5, "delta": 0.5},
        }
        path = write_json(tmp_path, cfg)
        assert main(["certify", path]) == 4

    def test_certify_prints_strict_json(self, tmp_path, capsys):
        # two disconnected pairs: lambda_hat_2 = 0, so no coupling makes the margin
        # positive and the suggested beta is infinite, printed as null
        cfg = {"graph": {"n": 4, "edges": [[1, 2, 1.0], [2, 1, 1.0], [3, 4, 1.0], [4, 3, 1.0]]},
               "costs": [{"kind": "quadratic", "a": [float(a)]} for a in (1, 2, 3, 4)]}
        path = write_json(tmp_path, cfg)
        assert main(["certify", path]) == 4
        report = strict_json(capsys.readouterr().out)
        assert report["lambda_hat_2"] == 0.0
        assert report["suggested_beta"] is None
        assert report["feasible"]["digraph_rate"] is False

    def test_certify_missing_lipschitz(self, tmp_path):
        cfg = dict(MINIMAL) | {"scheme": {"kind": "periodic", "delta": 0.5}}
        path = write_json(tmp_path, cfg)
        assert main(["certify", path]) == 2

    def test_preset_summary_and_emit(self, capsys):
        assert main(["preset", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "DistributedEvent" in out
        assert main(["preset", "fig3a", "--emit"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["scheme"] == {"kind": "periodic", "delta": 0.5}

    def test_preset_unknown(self):
        assert main(["preset", "nope"]) == 2

    def test_graph_check(self, tmp_path, capsys):
        good = tmp_path / "fig2.txt"
        dump_graph(preset_graph("fig2"), good)
        assert main(["graph", "check", str(good)]) == 0
        out = capsys.readouterr().out
        assert "weight balanced: True" in out
        assert "strongly connected: True" in out
        bad = tmp_path / "bad.txt"
        bad.write_text("n 2\n1 2 1.0\n")
        assert main(["graph", "check", str(bad)]) == 2
        missing = tmp_path / "missing.txt"
        assert main(["graph", "check", str(missing)]) == 2
