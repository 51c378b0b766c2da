"""Command-line front end.

Subcommands: ``sim run``, ``sim certify``, ``sim preset``, ``sim graph
check``.  Exit codes: 0 success, 2 validation or parse failure, 3
numerical blowup, 4 infeasible certificate (certify only).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certificates, scenarios
from .errors import DistoptError, NumericalBlowup
from .graph import (
    is_strongly_connected,
    is_weight_balanced,
    load_graph,
    spectral_summary,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_INFEASIBLE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write CSV/JSON outputs")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", default=None, help="output directory (default: scenario 'out' or ./out)")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--certify", action="store_true", help="embed a certificate report in the summary")

    p_cert = sub.add_parser("certify", help="print the certificate report as JSON")
    p_cert.add_argument("scenario", help="scenario JSON file")

    p_pre = sub.add_parser("preset", help="show a named experiment preset")
    p_pre.add_argument("name", help=f"one of: {', '.join(scenarios.PRESET_NAMES)}")
    p_pre.add_argument("--emit", action="store_true", help="print the full scenario JSON")

    p_graph = sub.add_parser("graph", help="graph utilities")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_check = graph_sub.add_parser("check", help="validate a graph file and print its summary")
    p_check.add_argument("file", help="edge-list graph file")
    return parser


def _cmd_run(args) -> int:
    scenario = scenarios.parse_scenario(args.scenario, seed=args.seed)
    summary = scenarios.run(scenario, out_dir=args.out, with_certificate=args.certify)
    worst = max([e for e in summary["final_errors"] if e is not None], default=float("nan"))
    print(f"{scenario.name}: final max error {worst:.3e}, "
          f"{sum(summary['event_counts'])} events, {summary['wall_time_s']:.2f} s")
    return EXIT_OK


def _cmd_certify(args) -> int:
    scenario = scenarios.parse_scenario(args.scenario)
    report = certificates.certify(scenario)
    print(json.dumps(scenarios.jsonable(vars(report)), indent=2, allow_nan=False))
    feasible = report.feasible.get(scenario.scheme.kind, report.feasible["digraph_rate"])
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def _cmd_preset(args) -> int:
    cfg = scenarios.preset_dict(args.name)
    if args.emit:
        print(json.dumps(cfg, indent=2))
        return EXIT_OK
    scenario = scenarios.scenario_from_dict(cfg)
    kind = scenario.scheme.__class__.__name__
    topo = "switching" if scenario.schedule is not None else "fixed digraph"
    print(f"{args.name}: {len(scenario.costs)} agents, {topo}, {kind}, "
          f"alpha={scenario.alpha} beta={scenario.beta}, t_final={scenario.t_final}, "
          f"h={scenario.h}, seed={scenario.seed}")
    return EXIT_OK


def _cmd_graph_check(args) -> int:
    g = load_graph(args.file)
    balanced = is_weight_balanced(g)
    strong = is_strongly_connected(g)
    spec = spectral_summary(g)
    print(f"nodes: {g.n}, directed edges: {g.n_edges}")
    print(f"weight balanced: {balanced}")
    print(f"strongly connected: {strong}")
    print(f"lambda_hat_2: {spec.lambda_hat_2:.6g}, lambda_hat_N: {spec.lambda_hat_N:.6g}")
    return EXIT_OK if (balanced and strong) else EXIT_VALIDATION


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "certify": _cmd_certify, "preset": _cmd_preset,
                "graph": _cmd_graph_check}
    try:
        return commands[args.command](args)
    except DistoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP if isinstance(exc, NumericalBlowup) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
