"""Closed-form sufficient-condition constants, rate bounds, and feasibility
verdicts for all communication schemes.

Everything here is pure arithmetic on problem data (convexity constants,
Laplacian eigenvalues, gains); nothing feeds back into simulation.  The
engine is explicitly centralized and offline: it may invoke the global
optimizer oracle to evaluate trajectory bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costs import NetworkCost, with_estimated_constants
from .diagnostics import ENERGIES
from .dynamics import AlgorithmParams, equilibrium
from .errors import Infeasible, ValidationError
from .graph import WeightedDigraph, reduced_laplacian, spectral_summary


@dataclass(frozen=True)
class AnalysisOptions:
    """Analysis scalars for the certificate engine, range-checked when built.

    ``eps`` in (0, 1) and ``delta`` > 0 drive the periodic/centralized
    constants; ``phi`` > 0 overrides the automatically chosen weight for the
    digraph and distributed certificates; ``box`` is the interval used to
    estimate missing convexity constants; ``eps_vec`` (all positive) supplies
    trigger thresholds when the scenario scheme is not distributed.
    """

    eps: float = 0.5
    delta: float = 1.0
    phi: float | None = None
    box: tuple[float, float] | None = None
    eps_vec: tuple[float, ...] | None = None

    def __post_init__(self):
        for name, ok, want in (("eps", 0 < self.eps < 1, "lie in (0, 1)"),
                               ("delta", self.delta > 0, "be positive"),
                               ("phi", self.phi is None or self.phi > 0, "be positive"),
                               ("eps_vec", all(e > 0 for e in self.eps_vec or ()),
                                "have positive entries")):
            if not ok:
                raise ValidationError(f"analysis.{name} must {want}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ConvexityBounds:
    """Aggregate constants: m_lower = min_i m^i, M_upper = max_i M^i."""

    m_lower: float
    M_upper: float

    def __post_init__(self):
        if not (0 < self.m_lower <= self.M_upper):
            raise ValidationError(
                f"need 0 < m_lower <= M_upper, got ({self.m_lower}, {self.M_upper})")


def gamma(alpha: float, beta: float, phi: float, bounds: ConvexityBounds,
          lambda_hat_2: float) -> float:
    """Stability margin of the gradient flow over balanced digraphs.

    gamma = alpha^2 (phi+1) m + 9 beta lhat2 phi alpha
            - 4 alpha^2 (M m + (phi+1)^2).
    Positive gamma together with phi + 1 > 4 M certifies exponential
    convergence; the verdict itself is carried by :func:`certify`.
    """
    m, M = bounds.m_lower, bounds.M_upper
    return (alpha**2 * (phi + 1) * m + 9 * beta * lambda_hat_2 * phi * alpha
            - 4 * alpha**2 * (M * m + (phi + 1) ** 2))


def gamma_prime(alpha: float, beta: float, phi: float, bounds: ConvexityBounds,
                lambda_hat_2: float) -> float:
    """Margin for the distributed event-triggered scheme: :func:`gamma` at beta / 2,
    the coupling term at half weight, gamma' = gamma - (9/2) beta lhat2 phi alpha."""
    return gamma(alpha, beta / 2, phi, bounds, lambda_hat_2)


def suggest_beta(alpha: float, phi: float, lambda_hat_2: float) -> float:
    """Coupling threshold 4 (phi+1)^2 alpha / (9 phi lhat2).

    Any beta strictly above the returned value makes :func:`gamma`
    positive.
    """
    if not (alpha > 0 and phi > 0 and lambda_hat_2 > 0):
        raise ValidationError("alpha, phi and lambda_hat_2 must be positive")
    return 4.0 * (phi + 1) ** 2 * alpha / (9.0 * phi * lambda_hat_2)


def phi_from_delta(alpha: float, delta: float, bounds: ConvexityBounds) -> float:
    """Analysis weight phi = M^2/(2m) + delta/(2 m alpha^2) - 1.

    Feasible for the periodic and centralized certificates only when
    positive.
    """
    if not (alpha > 0 and delta > 0):
        raise ValidationError("alpha and delta must be positive")
    m, M = bounds.m_lower, bounds.M_upper
    return M**2 / (2 * m) + delta / (2 * m * alpha**2) - 1.0


def tau_period(alpha: float, beta: float, eps: float, delta: float,
               bounds: ConvexityBounds, lambda_2: float,
               lambda_N: float) -> tuple[float, float]:
    """Admissible synchronous period bound (zeta, tau).

    zeta^2 = 2 eps (1-eps) lam2 min(delta, 1)
             / (alpha beta lamN^2 phi + 4 alpha^2 lam2 (1+phi)^2)
    tau    = ln(1 + c zeta / (c + beta lamN sqrt(1+alpha^2) (1+zeta))) / c
    with c = alpha M + 1.  Any period below tau keeps the sampled-state
    drift within the certified fraction of the deviation norm.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    phi = phi_from_delta(alpha, delta, bounds)
    if phi <= 0:
        raise Infeasible(f"phi = {phi:.6g} <= 0; increase delta")
    zeta2 = (2 * eps * (1 - eps) * lambda_2 * min(delta, 1.0)
             / (alpha * beta * lambda_N**2 * phi + 4 * alpha**2 * lambda_2 * (1 + phi) ** 2))
    zeta = math.sqrt(zeta2)
    c = alpha * bounds.M_upper + 1.0
    tau = math.log1p(c * zeta / (c + beta * lambda_N * math.sqrt(1 + alpha**2) * (1 + zeta))) / c
    return zeta, tau


def kappa(alpha: float, beta: float, eps: float, delta: float, phi: float,
          lambda_2: float, lambda_N: float) -> float:
    """Drift-to-disagreement ratio for the centralized trigger.

    kappa = 2 (eps delta lam2 + 2 phi alpha beta lam2^2 eps^2 (1-eps))
            / (alpha beta phi lamN^2 + 2 lam2 alpha^2 (1+phi)^2).
    Strictly below one for every valid input combination; a value of one
    or more raises ValidationError, as it indicates invalid upstream data.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    if not (phi > 0 and delta > 0):
        raise ValidationError("phi and delta must be positive")
    value = (2 * (eps * delta * lambda_2 + 2 * phi * alpha * beta * lambda_2**2 * eps**2 * (1 - eps))
             / (alpha * beta * phi * lambda_N**2 + 2 * lambda_2 * alpha**2 * (1 + phi) ** 2))
    if not value < 1.0:
        raise ValidationError(f"kappa = {value} >= 1 indicates invalid inputs upstream")
    return value


def matrix_F_extremes(alpha: float, phi: float, N: int) -> tuple[float, float]:
    """Extreme eigenvalues of the coefficient matrix F of the ``"digraph"`` energy.

    F is block diagonal: c1 of size d and (N-1)d copies of the pair
    [[c2 + c3 alpha^2, c3 alpha], [c3 alpha, c3]], so the extremes follow
    from the 2x2 closed form and do not depend on d.
    """
    if not (alpha > 0 and phi > 0):
        raise ValidationError("alpha and phi must be positive")
    if N < 2:
        raise ValidationError(f"need N >= 2, got {N}")
    c1, c2, c3, _ = ENERGIES["digraph"][1](alpha, None, phi)
    a = c2 + c3 * alpha**2
    radius = math.hypot((a - c3) / 2, c3 * alpha)
    return min(c1, (a + c3) / 2 - radius), max(c1, (a + c3) / 2 + radius)


def _energy_matrix(coefficients, alpha, g, d):
    """Q with V = p' Q p for the (c1, c2, c3, c4) of a ``diagnostics.ENERGIES`` row, over
    p = (z1, z_rest, w_rest) with the agent index slow."""
    c1, c2, c3, c4 = coefficients
    nd = (g.n - 1) * d
    out = np.zeros((d + 2 * nd,) * 2)
    out[:d, :d] = c1 * np.eye(d)
    out[d:, d:] = np.kron([[c2 + c3 * alpha**2, c3 * alpha], [c3 * alpha, c3]], np.eye(nd))
    if c4:
        out[d + nd:, d + nd:] += c4 * np.kron(np.linalg.inv(reduced_laplacian(g)), np.eye(d))
    return out


def matrix_E(alpha: float, beta: float, phi: float, g: WeightedDigraph,
             d: int = 1) -> np.ndarray:
    """Coefficient matrix of the ``"undirected"`` energy, for connected
    undirected topologies, at any phi > 0.

    The lower-right block carries the inverse reduced Laplacian, so this
    raises ValidationError for disconnected graphs.
    """
    if not (alpha > 0 and beta > 0 and phi > 0):
        raise ValidationError("alpha, beta and phi must be positive")
    return _energy_matrix(ENERGIES["undirected"][1](alpha, beta, phi), alpha, g, d)


def matrix_E_extreme(alpha: float, beta: float, phi: float, g: WeightedDigraph,
                     d: int = 1) -> float:
    """Largest eigenvalue of :func:`matrix_E`."""
    e = matrix_E(alpha, beta, phi, g, d)
    return float(np.linalg.eigvalsh(0.5 * (e + e.T))[-1])


def rate_digraph(gamma_value: float, lamF_max: float) -> float:
    """Certified decay rate min(7/16, gamma/9) / (2 lamF_max)."""
    if gamma_value <= 0:
        raise Infeasible(f"gamma = {gamma_value:.6g} <= 0")
    return min(7.0 / 16.0, gamma_value / 9.0) / (2.0 * lamF_max)


def rate_quadratic(alpha: float, beta: float, re_lambda_2: float) -> float:
    """Exact decay rate min(alpha, beta Re lambda_2) for unit-curvature
    quadratic costs."""
    if not (alpha > 0 and beta > 0):
        raise ValidationError("alpha and beta must be positive")
    return min(alpha, beta * re_lambda_2)


def rate_periodic(eps: float, delta: float, lamE_max: float) -> float:
    """Certified rate eps min(1/2, delta) / (4 lamE_max) under periodic
    communication with an admissible period."""
    return 0.25 * eps * min(0.5, delta) / lamE_max


def rate_centralized(eps: float, delta: float, phi: float, alpha: float, beta: float,
                     lambda_2: float, lamE_max: float) -> float:
    """Certified rate for the centralized event-triggered scheme."""
    return (0.25 * min(delta, 2 * phi * alpha * beta * lambda_2 * (1 - eps) ** 2,
                       1 - eps, 0.5 * eps) / lamE_max)


def steady_state_bound(phi: float, alpha: float, beta: float, lamF_min: float,
                       lamF_max: float, eta: float, eps_vec: np.ndarray) -> float:
    """Radius of the certified terminal neighborhood for the distributed
    scheme: phi alpha beta lamF_max ||eps||^2 / (4 eta lamF_min)."""
    return float(phi * alpha * beta * lamF_max * np.sum(eps_vec**2) / (4 * eta * lamF_min))


def _tau_i_and_theta(alpha, beta, eps, costs, dout, x0, v0, phi, gamma_prime_value,
                     lamF_min, lamF_max) -> tuple[np.ndarray, float]:
    """Per-agent lower bounds on distributed inter-event times, and the
    trajectory bound theta they rest on, at the out-degrees ``dout``.

    tau^i = ln(1 + alpha M^i eps^i
               / (2 sqrt(dout^i) (alpha M^i + 2 beta dout^i + 1) theta))
            / (alpha M^i)
    with theta the certified trajectory bound built from the initial
    deviation and the eps-neighborhood radius, and eta = min(7/16,
    gamma'/9).

    Raises Infeasible when gamma' <= 0 and ValidationError when some
    agent lacks a global gradient Lipschitz constant.
    """
    if gamma_prime_value <= 0:
        raise Infeasible(f"gamma' = {gamma_prime_value:.6g} <= 0")
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    n = costs.n_agents
    Ms = [a.M for a in costs.agents]
    if any(M is None for M in Ms):
        missing = [a.name or str(i) for i, a in enumerate(costs.agents) if a.M is None]
        raise ValidationError(f"no global gradient Lipschitz constant for: {', '.join(missing)}")
    eta = min(7.0 / 16.0, gamma_prime_value / 9.0)
    x_bar, v_bar = equilibrium(costs, AlgorithmParams(alpha, beta))
    p0 = math.sqrt(float(np.sum((x0 - x_bar) ** 2)) + float(np.sum((v0 - v_bar) ** 2)))
    theta = (lamF_max / lamF_min) * p0 + steady_state_bound(
        phi, alpha, beta, lamF_min, lamF_max, eta, eps)
    out = np.empty(n)
    for i in range(n):
        aM = alpha * Ms[i]
        c = 2.0 * math.sqrt(dout[i]) * (aM + 2 * beta * dout[i] + 1.0) * theta
        out[i] = math.log1p(aM * eps[i] / c) / aM
    return out, theta


def maximize_tau(alpha: float, beta: float, bounds: ConvexityBounds, lambda_2: float,
                 lambda_N: float, eps_grid=None, delta_grid=None) -> tuple[float, float, float]:
    """Grid search for the (eps, delta) pair with the largest admissible period.

    Returns (eps, delta, tau).  Infeasible grid points (phi <= 0) are
    skipped.
    """
    if eps_grid is None:
        eps_grid = np.linspace(0.05, 0.95, 19)
    if delta_grid is None:
        delta_grid = np.logspace(-2, 2, 41)
    best = (None, None, -math.inf)
    for e in eps_grid:
        for dl in delta_grid:
            try:
                _, tau = tau_period(alpha, beta, float(e), float(dl), bounds, lambda_2, lambda_N)
            except Infeasible:
                continue
            if tau > best[2]:
                best = (float(e), float(dl), tau)
    if best[0] is None:
        raise Infeasible("no feasible (eps, delta) on the grid")
    return best


@dataclass
class CertificateReport:
    """Bundle of certificate constants and per-scheme feasibility verdicts.

    ``feasible`` keys: ``digraph_rate`` (exponential convergence over
    balanced digraphs), ``periodic``, ``centralized_event``,
    ``distributed_event``.  ``topology_certified`` is False when the
    periodic/centralized constants were evaluated on a directed graph,
    where they are empirical only.  ``gamma_prime`` and the distributed
    constants are evaluated at ``phi_distributed``, ``lamF_*`` at ``phi``.
    """

    alpha: float
    beta: float
    epsilon: float
    delta: float
    phi: float
    phi_distributed: float
    phi_step: float | None
    m_lower: float
    M_upper: float
    lambda_hat_2: float
    lambda_2: float
    lambda_N: float
    re_lambda_2: float
    gamma: float
    gamma_prime: float
    zeta: float | None
    tau: float | None
    kappa: float | None
    eta: float | None
    theta: float | None
    tau_i: np.ndarray | None
    lamF_min: float
    lamF_max: float
    lamE_max: float | None
    rate_digraph: float | None
    rate_quadratic: float | None
    rate_periodic: float | None
    rate_centralized: float | None
    rate_distributed: float | None
    steady_state_bound: float | None
    suggested_beta: float
    suggested_delta_comm: float | None
    topology_certified: bool
    feasible: dict = field(default_factory=dict)


def certify(scenario) -> CertificateReport:
    """Evaluate every certificate for a scenario and attach verdicts.

    Uses the scenario's analysis options (eps, delta, phi, estimation box);
    phi defaults to the maximizer of gamma for the digraph verdict and of
    gamma' for the distributed one, each clipped to the feasible region
    phi + 1 > 4 M.  Over the scenario's graphs (one, or the switching set, in
    any order) each takes its worst case: the smallest lambda_hat_2 and Re
    lambda_2, the largest lambda_N and lambda_E, each agent's largest d_out.
    """
    analysis = scenario.analysis
    costs = costs_est = scenario.network
    if costs.m_lower is None or costs.M_upper is None:
        if analysis.box is None:
            missing = [a.name or str(i) for i, a in enumerate(costs.agents)
                       if a.m is None or a.M is None]
            raise ValidationError(
                "convexity constants unavailable for: " + ", ".join(missing)
                + "; provide an estimation box in the analysis options")
        costs_est = NetworkCost(tuple(with_estimated_constants(a, analysis.box) for a in costs.agents))
    bounds = ConvexityBounds(costs_est.m_lower, costs_est.M_upper)
    graphs = scenario.graphs
    spectra = [spectral_summary(g) for g in graphs]
    undirected = all(g.is_undirected for g in graphs)
    lh2 = min(s.lambda_hat_2 for s in spectra)
    re_lam2 = min(s.re_lambda_2 for s in spectra)
    lam2 = lh2 if undirected else re_lam2
    lamN = max(s.lambda_N for s in spectra)
    alpha, beta = float(scenario.alpha), float(scenario.beta)
    eps_s, delta_s = float(analysis.eps), float(analysis.delta)
    m, M = bounds.m_lower, bounds.M_upper
    affine = costs.affine  # rate_quadratic holds only for H = I

    if analysis.phi is not None:
        phi = phi_d = float(analysis.phi)
    else:
        # maximizers of gamma and of gamma' (gamma at beta / 2), pushed into phi + 1 > 4M
        phi, phi_d = (max(m / 8.0 + 9.0 * b * lh2 / (8.0 * alpha), 4.0 * M * (1 + 1e-9)) - 1.0
                      for b in (beta, beta / 2))
    g_val = gamma(alpha, beta, phi, bounds, lh2)
    gp_val = gamma_prime(alpha, beta, phi_d, bounds, lh2)
    lamF_min, lamF_max = matrix_F_extremes(alpha, phi, costs.n_agents)
    lamFd_min, lamFd_max = matrix_F_extremes(alpha, phi_d, costs.n_agents)
    feasible_digraph = g_val > 0 and phi + 1 > 4 * M
    feasible_distributed = gp_val > 0 and phi_d + 1 > 4 * M

    phi_step = phi_from_delta(alpha, delta_s, bounds)
    zeta = tau = kap = lamE = r_per = r_cen = None
    if phi_step > 0:
        zeta, tau = tau_period(alpha, beta, eps_s, delta_s, bounds, lam2, lamN)
        kap = kappa(alpha, beta, eps_s, delta_s, phi_step, lam2, lamN)
        if undirected:
            lamE = max(matrix_E_extreme(alpha, beta, phi_step, g, costs.dim) for g in graphs)
            r_per = rate_periodic(eps_s, delta_s, lamE)
            r_cen = rate_centralized(eps_s, delta_s, phi_step, alpha, beta, lam2, lamE)

    eta = min(7.0 / 16.0, gp_val / 9.0) if gp_val > 0 else None
    theta = tau_i = ss_bound = r_dist = None
    eps_vec = scenario.scheme.eps if scenario.scheme.kind == "distributed_event" else analysis.eps_vec
    if eps_vec is not None and feasible_distributed:
        eps_vec = np.asarray(eps_vec, dtype=float)
        ss_bound = steady_state_bound(phi_d, alpha, beta, lamFd_min, lamFd_max, eta, eps_vec)
        dout = np.max([g.out_degrees for g in graphs], axis=0)
        tau_i, theta = _tau_i_and_theta(alpha, beta, eps_vec, costs_est, dout, scenario.x0,
                                        scenario.v0, phi_d, gp_val, lamFd_min, lamFd_max)
        r_dist = eta / lamFd_max

    return CertificateReport(
        alpha=alpha, beta=beta, epsilon=eps_s, delta=delta_s, phi=phi, phi_distributed=phi_d,
        phi_step=phi_step, m_lower=m, M_upper=M,
        lambda_hat_2=lh2, lambda_2=lam2, lambda_N=lamN, re_lambda_2=re_lam2,
        gamma=g_val, gamma_prime=gp_val,
        zeta=zeta, tau=tau, kappa=kap, eta=eta, theta=theta, tau_i=tau_i,
        lamF_min=lamF_min, lamF_max=lamF_max, lamE_max=lamE,
        rate_digraph=rate_digraph(g_val, lamF_max) if feasible_digraph else None,
        rate_quadratic=rate_quadratic(alpha, beta, re_lam2)
        if affine is not None and np.array_equal(affine[0], np.eye(len(affine[0]))) else None,
        rate_periodic=r_per, rate_centralized=r_cen, rate_distributed=r_dist,
        steady_state_bound=ss_bound,
        suggested_beta=suggest_beta(alpha, phi, lh2) if lh2 > 0 else math.inf,
        suggested_delta_comm=0.9 * tau if tau is not None else None,
        topology_certified=undirected,
        feasible={
            "digraph_rate": bool(feasible_digraph),
            "periodic": bool(phi_step > 0),
            "centralized_event": bool(phi_step > 0),  # kappa() raises for kappa >= 1
            "distributed_event": bool(feasible_distributed),
        },
    )

