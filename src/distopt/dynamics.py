"""Network state evolution: gradient-flow fields, RK4 integration, and the
scenario-level simulation loop with topology switching and discrete
communication.

Two state blocks evolve per agent: the estimate ``x^i`` and an integral
correction ``v^i`` driven by the weighted disagreement with neighbors.  The
sum of the ``v^i`` is a constant of motion, so runs must start from
``sum_i v^i(0) = 0``, which a :class:`~distopt.scenarios.Scenario` checks when built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import schedulers
from .costs import NetworkCost, minimize_global
from .errors import NumericalBlowup, OracleFailure, Unbounded, ValidationError
from .graph import WeightedDigraph, is_strongly_connected, is_weight_balanced, out_laplacian

if TYPE_CHECKING:  # pragma: no cover
    from .scenarios import Scenario

BLOWUP_LIMIT = 1e12
CSV_CHUNK = 25  # samples formatted per write in Trace.to_csv
ERR_CHUNK = 256  # samples per block of the trace's err column; larger blocks raise peak RSS
BLOCK_STEPS = 64  # FoldedRK's block: steps per product, cheap to drop past an event
BLOCK_BYTES = 2**19  # cap on FoldedRK's stacked powers and partial sums


@dataclass(frozen=True)
class AlgorithmParams:
    """Gradient gain ``alpha`` and coupling gain ``beta`` (both positive)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValidationError(f"alpha and beta must be positive, got {self.alpha}, {self.beta}")


@dataclass(frozen=True)
class SwitchingSchedule:
    """Piecewise-constant topology: cycle through ``graphs`` every ``dwell``.

    Every member must be strongly connected and weight balanced; that is
    checked at construction.
    """

    graphs: tuple[WeightedDigraph, ...]
    dwell: float
    order: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.graphs:
            raise ValidationError("switching schedule needs at least one graph")
        if not self.dwell > 0:
            raise ValidationError("dwell must be positive")
        order = self.order or tuple(range(len(self.graphs)))
        if any(not (0 <= i < len(self.graphs)) for i in order):
            raise ValidationError("switching.order indexes outside the graph list")
        object.__setattr__(self, "order", order)
        for k, g in enumerate(self.graphs):
            if not is_strongly_connected(g):
                raise ValidationError(f"switching graph {k} is not strongly connected")
            if not is_weight_balanced(g):
                raise ValidationError(f"switching graph {k} is not weight balanced")


@dataclass
class Trace:
    """Time-indexed samples of a run plus the communication event log.

    Arrays are indexed (sample, agent, coordinate); ``err`` holds the
    per-agent distance to the oracle optimizer (NaN when no oracle value is
    available).  Event agents are 0-based in memory and 1-based in CSV
    output.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    x_hat: np.ndarray
    err: np.ndarray
    event_agents: np.ndarray
    event_times: np.ndarray
    scheme: dict
    h: float
    stride: int
    alpha: float
    beta: float
    x_star: np.ndarray | None = None

    @property
    def n_agents(self) -> int:
        return self.x.shape[1]

    def to_csv(self, path) -> None:
        """Write ``t,agent,x,v,err,event`` rows, one per (sample, agent).

        The event column flags whether the agent broadcast in the interval
        since the previous sample (the first sample covers t = 0 events).
        Vector coordinates are ';'-joined.  Rows, flags included, are
        formatted ``CSV_CHUNK`` samples at a time, so memory stays flat in
        the trace length.
        """
        n, d = self.n_agents, self.x.shape[2]
        # flat (sample, agent) indices of the rows whose event flag is set
        hits = np.sort(np.searchsorted(self.t, self.event_times - 1e-12) * n + self.event_agents)
        coords = ";".join(["%.17g"] * d)
        row = f"%.17g,%d,{coords},{coords},%.17g,%d\n"
        agents = list(range(1, n + 1))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,agent,x,v,err,event\n")
            for s in range(0, self.t.size, CSV_CHUNK):
                e = min(s + CSV_CHUNK, self.t.size)
                rows = (e - s) * n
                flags = np.zeros(rows, dtype=int)
                lo, hi = np.searchsorted(hits, (s * n, e * n))
                flags[hits[lo:hi] - s * n] = 1
                cols = [np.repeat(self.t[s:e], n).tolist(), agents * (e - s)]
                cols += self.x[s:e].reshape(rows, d).T.tolist()
                cols += self.v[s:e].reshape(rows, d).T.tolist()
                cols += [self.err[s:e].ravel().tolist(), flags.tolist()]
                fh.write((row * rows) % tuple(chain.from_iterable(zip(*cols))))

    def events_to_csv(self, path) -> None:
        """Write the raw event log as ``agent,t`` rows (agent 1-based)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("agent,t\n")
            for a, te in zip(self.event_agents, self.event_times):
                fh.write(f"{a + 1},{te:.17g}\n")


def flow_matrix(lap: np.ndarray, p: AlgorithmParams) -> np.ndarray:
    """Affine part of the flow on z = [x; v]: [[-beta L, -I], [alpha beta L, 0]]."""
    n = lap.shape[0]
    return np.block([[-p.beta * lap, -np.eye(n)],
                     [p.alpha * p.beta * lap, np.zeros((n, n))]])


def flow(nc: NetworkCost, p: AlgorithmParams,
         lap: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The coordination flow on the stacked (2N, d) state z = [x; v].

    dx = -alpha grad f(x) - beta L x - v,  dv = alpha beta L x,
    that is, per agent,
    dx^i = -alpha grad f^i(x^i) - beta sum_j a_ij (x^i - x^j) - v^i,
    dv^i =  alpha beta sum_j a_ij (x^i - x^j).
    The affine part is one product with :func:`flow_matrix`.  Stepped by
    :func:`rk4`, it defines the step :class:`AffineRK` takes in ``simulate``.
    """
    grad, alpha, n = nc.grad_stack, p.alpha, nc.n_agents
    m = flow_matrix(lap, p)

    def field(z):
        dz = m @ z
        dz[:n] -= alpha * grad(z[:n])
        return dz

    return field


def rk4(f: Callable, z: np.ndarray, h: float) -> np.ndarray:
    """Classical fourth-order step of ``z`` under ``f(z) -> dz``, e.g.
    ``f = flow(nc, p, L)``.  ``f`` must return a new array: the stage
    sums accumulate in place in the second one."""
    h2 = 0.5 * h
    k1 = f(z)
    k2 = f(z + h2 * k1)
    k3 = f(z + h2 * k2)
    k4 = f(z + h * k3)
    k2 += k3
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= h / 6.0
    k2 += z
    return k2


def held_terms(lap: np.ndarray, p: AlgorithmParams, x_hat: np.ndarray) -> np.ndarray:
    """b = [-beta L x_hat; alpha beta L x_hat], the held term of the sampled flow:
    fixed between broadcasts and topology switches, so formed there only."""
    lap_xh = lap @ x_hat
    return np.concatenate([-p.beta * lap_xh, (p.alpha * p.beta) * lap_xh])


# Butcher tableaus: rows of a_ij, weights b_i
RK4_TABLEAU = (((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1 / 6, 1 / 3, 1 / 3, 1 / 6))
EULER_TABLEAU = (((),), (1.0,))


class AffineRK:
    """Explicit Runge-Kutta step of size ``h`` of z' = A z + b - alpha [grad f(x); 0]
    on the (2N, d) state z = [x; v], for a Butcher ``tableau``.

    Each member with ``CostModel.affine`` (grad f^i = H x + c) folds in: -alpha H joins
    A's (i, i) block and -alpha [c; 0] joins b.  Outside the gradients g_j of the other
    members' entries ``sel`` (``NetworkCost.curved``) the flow is affine, so each stage
    input x_j[sel] and the increment z(t + h) - z(t) are linear maps of u = [z; 1; g_1;
    ...; g_s], composed here once: a step is one product per stage around its gradient
    call, and z plus the last product.  b enters through the column on the 1 entry,
    re-formed by :meth:`hold`.  :meth:`advance` stacks up to ``block`` steps for
    ``simulate``.  With no curved member there are no stage maps, and ``AffineRK(...)``
    builds a :class:`FoldedRK`, which advances in one product."""

    block = 8  # steps per advance; a tail dropped past an event has cost its gradient calls

    def __new__(cls, nc: NetworkCost, *args, **kwargs):
        return super().__new__(FoldedRK if nc.affine is not None else cls)

    def __init__(self, nc: NetworkCost, p: AlgorithmParams, a: np.ndarray, h: float, tableau):
        (rows, weights), n2 = tableau, 2 * nc.n_agents * nc.dim
        (sel, curved), (big_h, c) = nc.curved, nc.folded  # -alpha H joins A, -alpha [c; 0] joins b
        a = (np.kron(a, np.eye(nc.dim)) if nc.dim > 1 else a) - np.pad(p.alpha * big_h, (0, len(c)))
        m, self._offset = len(sel), np.concatenate([-p.alpha * c, np.zeros(len(c))])
        # stage inputs Z_j and slopes K_j = A Z_j + b - alpha [g_j on sel; 0] as maps of [z; b; g]
        z0, slopes, maps = np.eye(n2, 2 * n2 + len(weights) * m), [], []
        for j, row in enumerate(rows):
            zj = z0 + h * sum(c * k for c, k in zip(row, slopes))
            maps.append(zj[sel, :2 * n2 + j * m])
            k = a @ zj
            k[:, n2:2 * n2] += np.eye(n2)
            k[sel, 2 * n2 + j * m + np.arange(m)] -= p.alpha
            slopes.append(k)
        maps = (maps[1:] if m else []) + [h * sum(w * k for w, k in zip(weights, slopes))]
        self._b_blocks = [mp[:, n2:2 * n2] for mp in maps]
        self._maps = [np.hstack([mp[:, :n2], np.zeros((len(mp), 1)), mp[:, 2 * n2:]])
                      for mp in maps]
        self._stages, self._final = self._maps[:-1], self._maps[-1]
        self._u = np.ones(self._final.shape[1])  # entry 2 N d stays 1
        self._grad, self._sel, self._m = curved and curved.grad_list, sel, m
        AffineRK.hold(self, np.zeros(n2))  # FoldedRK.hold needs the stacks it has yet to build

    def hold(self, b: np.ndarray) -> None:
        """Hold the (2N, d) term ``b`` of the flow (0 before the first call)."""
        b = b.ravel() + self._offset
        for mp, blk in zip(self._maps, self._b_blocks):
            mp[:, b.size] = blk @ b  # the column on u's 1 entry, at 2 N d

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """The state one step after ``z``."""
        return self.advance(z, 1)[0]

    def advance(self, z: np.ndarray, steps: int) -> np.ndarray:
        """The next ``steps`` (at most ``block``) states after ``z``, stacked (steps, 2N, d)."""
        u, m, sel, grad, n2 = self._u, self._m, self._sel, self._grad, z.size
        u[:n2] = z.ravel()  # u carries the state from step to step
        out = np.empty((steps, n2))
        for row in out:
            hi = n2 + 1 + m
            u[hi - m:hi] = grad(u[sel].tolist())
            for w in self._stages:
                u[hi:hi + m] = grad((w @ u[:hi]).tolist())
                hi += m
            u[:n2] += self._final @ u
            row[:] = u[:n2]
        return out.reshape(steps, *z.shape)


class FoldedRK(AffineRK):
    """:class:`AffineRK` of an affine network: a step is z plus one product with [z; 1],
    z -> M z + f.  The powers [M; ...; M^K] and sums [I; I + M; ...] are stacked once
    (K = ``block``), the offsets [f; (I + M) f; ...] per :meth:`hold`, for :meth:`advance`."""

    def __init__(self, *args):
        super().__init__(*args)
        n2 = len(self._final)
        self.block = k = max(1, min(BLOCK_STEPS, BLOCK_BYTES // (16 * n2 * n2)))
        powers, sums = np.empty((k, n2, n2)), np.empty((k, n2, n2))
        powers[0], sums[0] = np.eye(n2) + self._final[:, :-1], np.eye(n2)
        for j in range(1, k):
            powers[j] = powers[0] @ powers[j - 1]
            sums[j] = sums[j - 1] + powers[j - 1]
        self._powers, self._sums = powers.reshape(k * n2, n2), sums.reshape(k * n2, n2)
        self.hold(np.zeros(n2))

    def hold(self, b: np.ndarray) -> None:
        super().hold(b)
        self._offsets = self._sums @ self._final[:, -1]

    def advance(self, z: np.ndarray, steps: int) -> np.ndarray:
        """The next ``steps`` (at most ``block``) states after ``z``, stacked (steps, 2N, d)."""
        rows = steps * z.size
        return (self._powers[:rows] @ z.ravel() + self._offsets[:rows]).reshape(steps, *z.shape)


def _within_limit(zs: np.ndarray) -> int:
    """How many leading states of ``zs`` lie within +-BLOWUP_LIMIT (nan and inf do not)."""
    if -BLOWUP_LIMIT <= zs.min() <= zs.max() <= BLOWUP_LIMIT:
        return len(zs)
    return schedulers.first_true(~(np.abs(zs) <= BLOWUP_LIMIT).all(axis=(1, 2)))


def equilibrium(nc: NetworkCost, p: AlgorithmParams) -> tuple[np.ndarray, np.ndarray]:
    """Stationary point of the coupled dynamics.

    All agents sit at the aggregate optimizer and each integral state
    cancels its own scaled local gradient there, so the v block sums to
    zero by optimality.
    """
    x_star = minimize_global(nc)
    n = nc.n_agents
    x_bar = np.tile(x_star, (n, 1))
    v_bar = -p.alpha * nc.grad_stack(x_bar)
    return x_bar, v_bar


@np.errstate(over="ignore", invalid="ignore")  # a blowup raises NumericalBlowup instead
def simulate(scenario: "Scenario") -> Trace:
    """Integrate a scenario with node-aligned communication.

    The step is fixed-step RK4 of size ``h``, or forward Euler of size
    ``delta`` for an Euler scheme, whose broadcasts are implicit at every
    step (no event log, ``x_hat = x``), each through an :class:`AffineRK`.
    A sampled scheme's :func:`schedulers.trigger_law` fires first at a polled
    node (broadcasts update ``x_hat`` and the event log), so samples reflect
    post-broadcast state.  The kernel advances a block (of ``block`` steps at
    most) up to t_final, a topology switch or a periodic node, and the law
    screens all of it (the centralized law past its dwell, found as an index,
    with the Pi x_hat it holds).  The run goes on from the first flagged node,
    polled, else from the block's last node, unpolled; the quiet nodes before
    are recorded in bulk, the rest dropped.  Past t = 0 the law is polled only
    at flagged nodes (each periodic node is one) and switches, where the
    distributed threshold must follow the new graph.

    The scenario was validated when built, so the only error raised here is
    NumericalBlowup (carrying the partial trace) when the state escapes the
    finite range.
    """
    nc = scenario.network
    n, d = nc.n_agents, nc.dim
    p = AlgorithmParams(scenario.alpha, scenario.beta)
    scheme, h, n_steps = scenario.scheme, scenario.step, scenario.n_steps
    sched = scenario.schedule
    order, spd = (sched.order, round(sched.dwell / h)) if sched is not None else ((0,), None)
    laps = [out_laplacian(g) for g in scenario.graphs]
    z = np.concatenate([scenario.x0, scenario.v0])
    x = z[:n]
    x_hat = x.copy()
    law = schedulers.trigger_law(scheme, h, scenario.graphs)
    sampled = law is not None  # continuous information and Euler have no broadcasts
    try:
        x_star = minimize_global(nc)
    except (Unbounded, OracleFailure):
        x_star = None

    stride = scenario.stride
    ks = list(range(0, n_steps + 1, stride))
    if ks[-1] != n_steps:
        ks.append(n_steps)
    n_smp = len(ks)
    T = np.array(ks) * h
    X = np.empty((n_smp, n, d))
    V = np.empty((n_smp, n, d))
    XH = np.empty((n_smp, n, d))
    ERR = np.full((n_smp, n), np.nan)

    gi = order[0]
    clocks = [s for s in (spd, getattr(law, "every", 0)) if s]  # switch and periodic cadences
    # one kernel per switching graph; sampled information holds its L x_hat in b
    kernels = [AffineRK(nc, p, flow_matrix(0 * lap if sampled else lap, p), h,
                        EULER_TABLEAU if scheme.kind == "euler" else RK4_TABLEAU) for lap in laps]
    block = kernels[0].block  # steps per advance

    def trace(si: int) -> Trace:
        """The first ``si`` samples and the event log so far."""
        if x_star is not None:
            for s in range(0, si, ERR_CHUNK):
                e = min(s + ERR_CHUNK, si)
                ERR[s:e] = np.linalg.norm(X[s:e] - x_star, axis=2)
        return Trace(
            t=T[:si],
            x=X[:si],
            v=V[:si],
            x_hat=XH[:si],
            err=ERR[:si],
            event_agents=np.asarray(law.agents if sampled else [], dtype=int),
            event_times=np.asarray(law.times if sampled else [], dtype=float),
            scheme=schedulers.scheme_dict(scheme),
            h=h,
            stride=stride,
            alpha=float(scenario.alpha),
            beta=float(scenario.beta),
            x_star=None if x_star is None else np.asarray(x_star, dtype=float),
        )

    si = k = 0
    poll = True  # node k needs the exact law: no screen has cleared it
    while True:
        switched = spd is not None and order[(k // spd) % len(order)] != gi
        if switched:
            gi = order[(k // spd) % len(order)]
        if sampled and (poll or switched) and (law.fire(k, x, x_hat, gi) or switched):
            kernels[gi].hold(held_terms(laps[gi], p, x_hat))
        if k == ks[si]:
            X[si], V[si], XH[si] = x, z[n:], x_hat if sampled else x
            si += 1
        if k == n_steps:
            break
        # advance to t_final, a switch or a periodic node, then screen the block
        zs = kernels[gi].advance(z, min([block, n_steps - k] + [s - k % s for s in clocks]))
        ok = _within_limit(zs)
        q = law.screen(zs[:ok, :n], k, x_hat) if sampled else ok  # the first flagged node
        poll, nxt = q < len(zs), min(q, len(zs) - 1)  # a cleared block goes on from its end
        rows = zs[ks[si] - k - 1:nxt:stride]  # the samples among the quiet nodes
        e = si + len(rows)
        X[si:e], V[si:e] = rows[:, :n], rows[:, n:]
        XH[si:e] = x_hat if sampled else rows[:, :n]
        si = e
        if q == ok < len(zs):
            raise NumericalBlowup(f"state escaped finite range at t = {k * h + (q + 1) * h:.6g}",
                                  trace(si))
        z = zs[nxt]
        k += nxt + 1
        x = z[:n]
    return trace(n_smp)

