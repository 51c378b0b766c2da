"""Discrete-time communication with a certified period.

Agents integrate continuously but exchange states only every Delta
seconds.  The certificate engine computes an admissible period tau from
the convexity constants and the Laplacian spectrum; any Delta below tau
provably preserves exponential convergence on connected undirected
topologies.  We run a 10-agent ring of quadratic costs at 0.9 tau and
watch the certified energy function decrease.
"""

import numpy as np

from distopt import network_cost, quadratic_cost, preset_graph, simulate
from distopt.certificates import ConvexityBounds, kappa, phi_from_delta, tau_period
from distopt.diagnostics import lyapunov_series
from distopt.graph import spectral_summary
from distopt.scenarios import AnalysisOptions, Scenario
from distopt.schedulers import Periodic

g = preset_graph("cycle10")
spec = spectral_summary(g)
costs = tuple(quadratic_cost([2.0 * (i - 5)]) for i in range(1, 11))
bounds = ConvexityBounds(1.0, 1.0)

eps_s, delta_s = 0.5, 3.0
phi = phi_from_delta(1.0, delta_s, bounds)
zeta, tau = tau_period(1.0, 1.0, eps_s, delta_s, bounds, spec.lambda_hat_2, spec.lambda_N)
print(f"ring spectrum: lambda_2 = {spec.lambda_hat_2:.4f}, lambda_N = {spec.lambda_N:.4f}")
print(f"certificate: phi = {phi:.2f}, zeta = {zeta:.4f}, admissible period tau = {tau:.5f} s")

delta = 0.9 * tau
rng = np.random.default_rng(42)
scenario = Scenario(
    name="ring-periodic", costs=costs, alpha=1.0, beta=1.0,
    scheme=Periodic(delta=delta), t_final=40.0, h=1e-3, stride=10, seed=42,
    x0=rng.uniform(-5, 5, (10, 1)), v0=np.zeros((10, 1)), graph=g,
    analysis=AnalysisOptions(eps=eps_s, delta=delta_s),
)
trace = simulate(scenario)
V, _ = lyapunov_series(trace, "undirected", g=g, nc=network_cost(costs), alpha=1.0, phi=phi)

print(f"running with Delta = 0.9 tau = {delta:.5f} s for 40 s:")
print(f"  final max error: {trace.err[-1].max():.3e}")
print(f"  energy strictly non-increasing at samples: {bool((np.diff(V) <= 1e-10).all())}")
print(f"  broadcast rounds: {np.count_nonzero(trace.event_agents == 0)}")
print()
print("for comparison, the same condition yields the trigger ratio "
      f"kappa = {kappa(1.0, 1.0, eps_s, delta_s, phi, spec.lambda_hat_2, spec.lambda_N):.4f}"
      " used by the event-triggered variant (see the next demo).")
