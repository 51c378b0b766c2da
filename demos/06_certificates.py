"""The certificate engine on a worked two-agent example.

All sufficient-condition constants are closed-form functions of the
convexity constants, the Laplacian spectrum and the gains.  The report
bundles them with feasibility verdicts: a positive margin certifies
exponential convergence over balanced digraphs, the period bound tau
covers synchronous sampling, and the per-agent bounds cover the
distributed triggers.
"""

import json

import numpy as np

from distopt import catalog, preset_graph
from distopt.certificates import certify, maximize_tau, suggest_beta, ConvexityBounds
from distopt.scenarios import AnalysisOptions, Scenario, jsonable
from distopt.schedulers import DistributedEvent

costs = (catalog("f2"), catalog("f10"))  # (x-4)^2 and (x+2)^2
scenario = Scenario(
    name="k2-pair", costs=costs, alpha=1.0, beta=6.0,
    scheme=DistributedEvent(eps=np.full(2, 0.002)),
    t_final=30.0, h=1e-3, stride=10, seed=0,
    x0=np.zeros((2, 1)), v0=np.zeros((2, 1)),
    graph=preset_graph("k2"),
    analysis=AnalysisOptions(eps=0.5, delta=1.0, phi=9.0),
)

report = certify(scenario)
print(json.dumps(jsonable(vars(report)), indent=2, allow_nan=False))
print()
print(f"coupling threshold for a positive margin: beta > "
      f"{suggest_beta(1.0, 9.0, report.lambda_hat_2):.4f} (we run beta = 6)")
best_eps, best_delta, best_tau = maximize_tau(1.0, 6.0, ConvexityBounds(2.0, 2.0),
                                              report.lambda_2, report.lambda_N)
print(f"grid search over the analysis scalars: the largest admissible period "
      f"for these gains is tau = {best_tau:.5f} at (eps, delta) = "
      f"({best_eps:.2f}, {best_delta:.3g})")
