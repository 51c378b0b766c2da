"""Offline trace analysis: deviation coordinates, energy functions, decay
verification, and gradient reconstruction by a passive observer.

Everything here post-processes recorded traces; nothing feeds back into a
running simulation.  The deviation transform is an isometry, so norms in
analysis coordinates equal norms of the raw deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import NetworkCost
from .dynamics import AlgorithmParams, Trace, equilibrium
from .errors import InsufficientVisibility, ValidationError
from .graph import DisagreementBasis, WeightedDigraph, complement_basis, reduced_laplacian


@dataclass(frozen=True)
class AnalysisCoordinates:
    """Deviation state split along the consensus line and its complement.

    ``z1``/``w1`` are the consensus components of x - x_bar and v - v_bar;
    ``z_rest``/``w_rest`` the disagreement components, flattened with the
    agent index slow.  With zero-sum initial v, ``w1`` stays identically
    zero along trajectories.  Coordinates of a (K, N, d) stack of states
    carry a leading sample axis.
    """

    z1: np.ndarray
    z_rest: np.ndarray
    w1: np.ndarray
    w_rest: np.ndarray

    @property
    def p_norm_sq(self) -> float | np.ndarray:
        """Squared norm of (z, w_rest), the certificate state."""
        return _per_state(_sq(self.z1) + _sq(self.z_rest) + _sq(self.w_rest))


def _sq(a: np.ndarray) -> np.ndarray:  # squared norm over the last axis
    return np.einsum("...i,...i->...", a, a)


def _per_state(value):  # a float for one state, the (K,) array for a stack
    return float(value) if np.ndim(value) == 0 else value


def to_analysis_coords(x: np.ndarray, v: np.ndarray, equilibrium_point,
                       basis: DisagreementBasis) -> AnalysisCoordinates:
    """Map raw (N, d) states, or a (K, N, d) stack of them, into deviation
    coordinates.

    ``equilibrium_point`` is the (x_bar, v_bar) pair.  The transform is
    orthonormal: ||(z1, z_rest)|| = ||x - x_bar||.
    """
    x_bar, v_bar = equilibrium_point
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.ndim not in (2, 3) or x.shape[-2:] != x_bar.shape or v.shape != x.shape:
        raise ValidationError(f"state shape {x.shape}/{v.shape} != equilibrium "
                              f"{x_bar.shape}/{v_bar.shape}")
    if basis.r.shape[0] != x.shape[-2]:
        raise ValidationError(f"basis size {basis.r.shape[0]} != agent count {x.shape[-2]}")
    y = x - x_bar
    u = v - v_bar
    return AnalysisCoordinates(
        z1=_over_agents(basis.r[None], y).reshape(*y.shape[:-2], -1),
        z_rest=_over_agents(basis.R.T, y).reshape(*y.shape[:-2], -1),
        w1=_over_agents(basis.r[None], u).reshape(*u.shape[:-2], -1),
        w_rest=_over_agents(basis.R.T, u).reshape(*u.shape[:-2], -1),
    )


def _over_agents(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``m @ y`` for one (N, d) state; for a (K, N, d) stack, the same per state as one
    2-D product over the agent axis (a broadcast ``m @ y`` makes K small products)."""
    if y.ndim == 2:
        return m @ y
    k, n, d = y.shape
    return (y.swapaxes(1, 2).reshape(k * d, n) @ m.T).reshape(k, d, -1).swapaxes(1, 2)


def lyapunov_digraph(coords: AnalysisCoordinates, alpha: float, phi: float) -> float | np.ndarray:
    """Quadratic energy certified to decay over balanced digraphs.

    V = alpha (phi+1)/18 ||z1||^2 + phi alpha / 2 ||z2||^2
        + ||alpha z2 + w2||^2 / (2 alpha).
    Zero exactly at the transformed origin of (z, w_rest).
    """
    if not (alpha > 0 and phi > 0):
        raise ValidationError("alpha and phi must be positive")
    z1, z2, w2 = coords.z1, coords.z_rest, coords.w_rest
    return _per_state((alpha * (phi + 1) / 18.0) * _sq(z1) + 0.5 * phi * alpha * _sq(z2)
                      + _sq(alpha * z2 + w2) / (2.0 * alpha))


def lyapunov_undirected(coords: AnalysisCoordinates, alpha: float, beta: float,
                        phi: float, g: WeightedDigraph) -> float | np.ndarray:
    """Energy for connected undirected topologies (needs phi >= 1).

    Adds the inverse-reduced-Laplacian term
    (phi+1)/(2 beta) w2' (R'LR)^{-1} w2 and uses weight alpha (phi+1)/2 on
    the consensus block.
    """
    if not (alpha > 0 and beta > 0):
        raise ValidationError("alpha and beta must be positive")
    if phi < 1:
        raise ValidationError(f"phi must be at least 1, got {phi}")
    z1, z2, w2 = coords.z1, coords.z_rest, coords.w_rest
    return _per_state(0.5 * alpha * (phi + 1) * _sq(z1) + 0.5 * phi * alpha * _sq(z2)
                      + _sq(alpha * z2 + w2) / (2.0 * alpha)
                      + 0.5 * (phi + 1) / beta * _reduced_inv_quad(g, w2))


def lasalle_function(coords: AnalysisCoordinates, alpha: float, beta: float,
                     g: WeightedDigraph) -> float | np.ndarray:
    """Invariance-principle energy for merely convex local costs.

    V = ||z||^2 / 2 + w2' (R'LR)^{-1} w2 / (2 alpha beta); non-increasing
    along trajectories over connected undirected graphs.
    """
    if not (alpha > 0 and beta > 0):
        raise ValidationError("alpha and beta must be positive")
    z1, z2, w2 = coords.z1, coords.z_rest, coords.w_rest
    return _per_state(0.5 * (_sq(z1) + _sq(z2))
                      + _reduced_inv_quad(g, w2) / (2.0 * alpha * beta))


def _reduced_inv_quad(g: WeightedDigraph, w2: np.ndarray) -> np.ndarray:
    """w2' (R'LR)^{-1} w2 for one flattened ``w_rest`` or a stack of them;
    the reduced Laplacian is built and inverted once per call (``solve`` with
    a stacked right-hand side would factor it again for every sample)."""
    w2m = w2.reshape(*w2.shape[:-1], g.n - 1, -1)
    return np.einsum("...ij,...ij->...", w2m, _over_agents(np.linalg.inv(reduced_laplacian(g)), w2m))


_ENERGIES = {
    "digraph": lambda c, g, alpha, beta, phi: lyapunov_digraph(c, alpha, phi),
    "undirected": lambda c, g, alpha, beta, phi: lyapunov_undirected(c, alpha, beta, phi, g),
    "lasalle": lambda c, g, alpha, beta, phi: lasalle_function(c, alpha, beta, g),
}


def lyapunov_series(trace: Trace, which: str, *, g: WeightedDigraph, nc: NetworkCost,
                    alpha: float, phi: float | None = None,
                    beta: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one energy function along a trace.

    Returns (V, p_sq) sampled at the trace times, where p_sq is the
    squared norm of the certificate state (z, w_rest).  The equilibrium
    comes from the centralized oracle.
    """
    if which not in _ENERGIES:
        raise ValidationError(f"unknown function id {which!r}; pick from {tuple(_ENERGIES)}")
    if which in ("digraph", "undirected") and phi is None:
        raise ValidationError(f"function {which!r} needs phi")
    beta = trace.beta if beta is None else beta
    eq = equilibrium(nc, AlgorithmParams(alpha, beta))
    coords = to_analysis_coords(trace.x, trace.v, eq, complement_basis(trace.n_agents))
    return _ENERGIES[which](coords, g, alpha, beta, phi), coords.p_norm_sq


@dataclass(frozen=True)
class DecayReport:
    """Outcome of a decay check: fraction of interior samples satisfying
    dV/dt <= -bound ||p||^2 + slack, the worst signed margin (negative is
    good), and the fitted exponential rate of V."""

    passed: bool
    fraction_ok: float
    worst_margin: float
    n_interior: int
    fitted_rate: float


def decay_check(trace: Trace, which: str, bound: float, *, g: WeightedDigraph,
                nc: NetworkCost, alpha: float, phi: float | None = None,
                beta: float | None = None) -> DecayReport:
    """Verify dV/dt <= -bound ||p||^2 along a densely sampled trace.

    dV/dt is estimated by central differences at interior samples with the
    trace's native stride; the slack 1e-6 (1 + ||p||^2) absorbs the
    floating-point floor near the equilibrium.  ``fitted_rate`` is the
    least-squares slope of -ln V over the window where V is still well
    above the floor, divided by two so it compares against state-decay
    rate bounds.

    Raises ValidationError when the trace stride exceeds ten
    integration steps.
    """
    if trace.t.size < 3:
        raise ValidationError("need at least 3 samples for central differences")
    dt = float(trace.t[1] - trace.t[0])
    if dt > 10.0 * trace.h + 1e-12:
        raise ValidationError(f"trace stride {dt:.4g} exceeds 10 h = {10 * trace.h:.4g}")
    V, p_sq = lyapunov_series(trace, which, g=g, nc=nc, alpha=alpha, phi=phi, beta=beta)
    dV = (V[2:] - V[:-2]) / (2.0 * dt)
    mid = p_sq[1:-1]
    margin = dV + bound * mid - 1e-6 * (1.0 + mid)
    ok = margin <= 0.0
    window = V >= V[0] * 1e-16
    if window.sum() >= 2:
        tw = trace.t[window] - trace.t[window].mean()  # least squares in closed form
        fitted = -0.5 * float(tw @ np.log(np.maximum(V[window], 1e-300)) / (tw @ tw))
    else:
        fitted = math.nan
    return DecayReport(
        passed=bool(ok.all()),
        fraction_ok=float(ok.mean()),
        worst_margin=float(margin.max()),
        n_interior=int(margin.size),
        fitted_rate=fitted,
    )


@dataclass(frozen=True)
class Reconstruction:
    """Gradient estimates recovered by a passive observer.

    ``times``/``estimates`` cover the interior of the trace window;
    ``x_target`` holds the matching observed states.  ``assumed_zero_v0``
    marks reconstructions that defaulted the unknown initial integral
    state to zero and are therefore biased.
    """

    times: np.ndarray
    estimates: np.ndarray
    x_target: np.ndarray
    assumed_zero_v0: bool


def reconstruct_gradient(observer: int, target: int, trace: Trace, g: WeightedDigraph,
                         v_target_0: np.ndarray | None) -> Reconstruction:
    """Rebuild the target's local gradient from broadcast histories.

    The observer must receive the target's broadcasts and those of every
    agent the target listens to (the observer's own state is exempt);
    otherwise InsufficientVisibility is raised.  The target's velocity is
    recovered by central differences, its integral state by trapezoidal
    integration of the weighted disagreement, and the gradient by solving
    the state equation.  Passing ``v_target_0=None`` assumes zeros and
    flags the result as biased.
    """
    n = trace.n_agents
    if not (0 <= observer < n and 0 <= target < n) or observer == target:
        raise ValidationError(f"bad observer/target pair ({observer}, {target})")
    w_row = g.weights[target]
    if g.weights[observer, target] <= 0:
        raise InsufficientVisibility(f"agent {observer} does not receive from {target}")
    for k in np.nonzero(g.weights[target])[0]:
        if k != observer and g.weights[observer, k] <= 0:
            raise InsufficientVisibility(
                f"agent {observer} does not receive from {k}, a source of {target}")
    if trace.t.size < 3:
        raise ValidationError("need at least 3 samples")
    alpha, beta = trace.alpha, trace.beta
    t = trace.t
    xj = trace.x[:, target, :]
    disagreement = w_row.sum() * xj - np.einsum("k,tkd->td", w_row, trace.x)
    assumed = v_target_0 is None
    v0 = np.zeros(xj.shape[1]) if assumed else np.asarray(v_target_0, dtype=float)
    dt = np.diff(t)[:, None]
    increments = 0.5 * dt * (disagreement[1:] + disagreement[:-1])
    vj = np.concatenate([v0[None, :], v0[None, :] + alpha * beta * np.cumsum(increments, axis=0)])
    xdot = (xj[2:] - xj[:-2]) / (t[2:] - t[:-2])[:, None]
    grad = (-xdot - beta * disagreement[1:-1] - vj[1:-1]) / alpha
    return Reconstruction(
        times=t[1:-1].copy(),
        estimates=grad,
        x_target=xj[1:-1].copy(),
        assumed_zero_v0=assumed,
    )


def conservation_violation(trace: Trace) -> float:
    """Largest per-coordinate magnitude of sum_i v^i(t) over the trace."""
    return float(np.abs(trace.v.sum(axis=1)).max())
