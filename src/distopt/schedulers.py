"""Communication-time generation and event statistics.

Three discrete schemes decide when broadcast values refresh: a synchronous
periodic clock, a centralized state-dependent trigger with an enforced dwell,
and a distributed per-agent trigger with a positive threshold floor.  Each
event law is one signed function g, polled as g > 0 at integration nodes: each
detection lags the continuous-time law by under one step, but the lag
accumulates over events (2.1e-2 by t = 1 at h = 1e-3 on the ten-agent ring).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import ClassVar, get_args

import numpy as np

from .errors import ValidationError

GRID_SLACK = 1e-9  # absorbs float noise when node times are k*h products
STOP_MARGIN = 1e-6  # relative margin of a stop test that cannot round as its law's numpy g
_ZERO = np.zeros(())  # numpy compares an array with it faster than with a Python 0


@dataclass(frozen=True)
class Continuous:
    """Neighbor information available at every instant (no events)."""

    kind: ClassVar[str] = "continuous"


@dataclass(frozen=True)
class Periodic:
    """All agents broadcast synchronously every ``delta`` seconds from t = 0."""

    kind: ClassVar[str] = "periodic"
    delta: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValidationError(f"periodic delta must be positive and finite, got {self.delta}")


@dataclass(frozen=True)
class CentralizedEvent:
    """Synchronous broadcasts when the drift condition fails, at least
    ``tau`` apart.  Requires ``0 < kappa < 1``."""

    kind: ClassVar[str] = "centralized_event"
    kappa: float
    tau: float

    def __post_init__(self):
        if not (0.0 < self.kappa < 1.0):
            raise ValidationError(f"kappa must lie in (0, 1), got {self.kappa}")
        if not self.tau > 0:
            raise ValidationError(f"dwell tau must be positive, got {self.tau}")


@dataclass(frozen=True, eq=False)
class DistributedEvent:
    """Asynchronous per-agent triggers with thresholds ``eps`` (all positive)."""

    kind: ClassVar[str] = "distributed_event"
    eps: np.ndarray

    def __post_init__(self):
        eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
        if eps.size == 0 or not (eps > 0).all():
            raise ValidationError("every eps_i must be strictly positive")
        eps.setflags(write=False)
        object.__setattr__(self, "eps", eps)


@dataclass(frozen=True)
class EulerScheme:
    """Forward-Euler discretization with stride ``delta`` (implicit broadcasts)."""

    kind: ClassVar[str] = "euler"
    delta: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValidationError(f"euler delta must be positive and finite, got {self.delta}")


CommScheme = Continuous | Periodic | CentralizedEvent | DistributedEvent | EulerScheme

SCHEMES = {cls.kind: cls for cls in get_args(CommScheme)}


def period_steps(delta: float, h: float) -> int:
    """Steps of size ``h`` between periodic broadcasts: the most that fit
    in ``delta``, so the realized period never exceeds ``delta``.  Raises
    ValidationError naming ``scheme.delta`` when ``delta < h``."""
    steps = math.floor(delta / h + GRID_SLACK)
    if steps < 1:
        raise ValidationError(f"scheme.delta {delta} is shorter than the step h = {h}")
    return steps


def periodic_due(t: float, delta: float, last: float) -> bool:
    """True when the next synchronous broadcast is due.

    ``last`` is the previous broadcast time (-inf or NaN for "never", which
    makes t = 0 due).  ``GRID_SLACK`` absorbs node times formed as k*h products.
    """
    if not delta > 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    if last is None or not math.isfinite(last):
        return True
    return t - last >= delta - GRID_SLACK


@functools.cache
def _projector(n: int) -> np.ndarray:
    return np.eye(n) - 1.0 / n  # Pi = I - 11'/N


def centralized_g(x, x_hat, kappa, pi_x_hat=None):
    """Signed centralized law g = ||Pi (x_hat - x)||^2 - kappa ||Pi x||^2 at one (N, d)
    state ``x`` (a scalar) or at each state of a (kb, N, d) stack (kb values);
    ``pi_x_hat``, when given, is Pi x_hat formed once by the caller."""
    pi = _projector(x.shape[-2])
    xc = pi @ x
    dev = (pi @ x_hat if pi_x_hat is None else pi_x_hat) - xc
    return np.einsum("...ij,...ij->...", dev, dev) - kappa * np.einsum("...ij,...ij->...", xc, xc)


def _centralized_due(x, x_at_last, kappa, t_last, tau, t) -> bool:
    """Node poll of the centralized law at time ``t``: :func:`centralized_g` > 0 with
    x_hat = x(t_last), past the dwell ``tau`` since the last broadcast at ``t_last``."""
    return t - t_last >= tau and bool(centralized_g(x, x_at_last, kappa) > 0)


def _threshold(x_hat: np.ndarray, weights: np.ndarray, eps2) -> np.ndarray:
    """Right-hand side of the distributed law, sum_j a_ij ||xhat^i -
    xhat^j||^2 + eps_i^2 for all i (``eps2`` holds the eps_i^2): it depends
    on the broadcasts and the graph only, so it is rebuilt only when they change."""
    diffs = x_hat[:, None, :] - x_hat[None, :, :]
    return (weights * (diffs * diffs).sum(axis=2)).sum(axis=1) + eps2


def distributed_g(x, x_hat, thr, dout):
    """Signed distributed law g_i = 4 d_out^i ||x_hat^i - x^i||^2 - thr_i of every agent
    at one (N, d) state ``x`` (N values) or at each state of a (kb, N, d) stack (kb, N),
    with ``thr = _threshold(x_hat, weights, eps2)`` held by the caller."""
    drift = x_hat - x
    return 4.0 * dout * np.add.reduce(drift * drift, axis=-1) - thr  # .sum without its wrapper


@functools.cache
def _stop_maker(n: int, d: int, centralized: bool = False):
    """The compiled maker of :func:`distributed_stop`'s test, or :func:`centralized_stop`'s,
    for N = ``n`` agents in R^``d``."""
    es, ns = range(n * d), range(n)
    if centralized:  # Pi x = a = x - m, m_c the mean of coordinate c, and Pi (x_hat - x) = p - a
        args = [f"p{e}" for e in es] + ["P", "Q", "R"]
        body = [f"  m{c} = ({' + '.join(f'x{i * d + c}' for i in ns)}) / {n}" for c in range(d)] + [
            "  return P * (" + " + ".join(f"(r := p{e} - (a{e} := x{e} - m{e % d})) * r" for e in es)
            + ") + R * (" + " + ".join(f"m{c} * m{c}" for c in range(d)) + ") > Q * ("
            + " + ".join(f"a{e} * a{e}" for e in es) + ")"]
    else:
        args = [f"h{e}" for e in es] + [f"f{i}" for i in ns] + [f"t{i}" for i in ns]
        body = ["  return " + " or ".join("f%d * (%s) > t%d" % (i, " + ".join(
            f"(r := h{e} - x{e}) * r" for e in range(i * d, i * d + d)), i) for i in ns)]
    src = [f"def watch({', '.join(args)}):", f" def stop({', '.join(f'x{e}' for e in es)}):",
           *body, " return stop"]
    scope = {}
    exec("\n".join(src), scope)  # generated names only
    return scope["watch"]


def distributed_stop(x_hat, thr, dout):
    """``stop(*x.ravel().tolist())``: whether some :func:`distributed_g` g_i > 0 at the
    (N, d) state x, whose entries it takes row-major as separate floats: the RK kernel
    calls it on its own locals after each step.
    It sums each ||x_hat^i - x^i||^2 left to right, as numpy reduces fewer than 8 entries,
    so for d < 8 it agrees with distributed_g bit for bit; and 4 d_out^i s_i > thr_i holds
    exactly when their difference is > 0.  For d >= 8, where numpy sums pairwise, it scales
    4 d_out^i by 1 + STOP_MARGIN, so it holds wherever some g_i > 0 (and within that margin)."""
    f = 4.0 * dout * (1.0 + STOP_MARGIN if x_hat.shape[1] >= 8 else 1.0)
    return _stop_maker(*x_hat.shape)(*x_hat.ravel().tolist(), *f.tolist(), *thr.tolist())


def centralized_stop(pi_x_hat, kappa):
    """``stop(*x.ravel().tolist())``: the RK kernel's test of :func:`centralized_g` > 0 at
    the (N, d) state x, given ``pi_x_hat`` as the poll forms it.  numpy's ``pi @ x`` rounds
    in its own order, each entry within eta max_i |x_ic| of the exact one, eta = 2 (N + 4)
    2^-53.  So with Pi x formed in two passes (the coordinate means m_c, then deviations,
    free of cancellation), A = ||Pi (x_hat - x)||^2 and B = ||Pi x||^2, it holds when
    A - kappa B > -r (A + kappa B) - rho (B + N sum_c m_c^2), r = STOP_MARGIN and
    rho = 16 (1 + kappa) N eta^2 / r: wherever centralized_g > 0, and within that margin."""
    n, d = pi_x_hat.shape
    rho = 16 * (1 + kappa) * n * (2 * (n + 4) * 2.0**-53) ** 2 / STOP_MARGIN
    return _stop_maker(n, d, True)(*pi_x_hat.ravel().tolist(), 1 + STOP_MARGIN,
                                   kappa * (1 - STOP_MARGIN) - rho, rho * n)


def _cascade(x: np.ndarray, x_hat: np.ndarray, thr: np.ndarray, weights: np.ndarray,
             eps2: np.ndarray, dout: np.ndarray) -> list[int]:
    """Resolve simultaneous triggers at one node; mutates ``x_hat`` and ``thr``.

    Sweeps agents in ascending order, refreshing broadcast values
    immediately, until a full sweep fires nothing: each sweep fires the
    first due agent at or after its position, then moves past it.  ``thr``
    must hold :func:`_threshold` of ``x_hat`` on entry; it is rebuilt after
    each fire, so it is current on return.  A refreshed agent has zero
    drift and cannot re-fire at the same node, so at most N sweeps run.
    """
    fired: list[int] = []
    due = distributed_g(x, x_hat, thr, dout) > _ZERO
    while np.count_nonzero(due):  # a sweep from agent 0 fires iff some agent is due
        start = 0
        while (ahead := due[start:].nonzero()[0]).size:
            i = start + int(ahead[0])
            x_hat[i] = x[i]
            fired.append(i)
            thr[:] = _threshold(x_hat, weights, eps2)
            due = distributed_g(x, x_hat, thr, dout) > _ZERO
            start = i + 1
    return sorted(fired)


def first_true(flags: np.ndarray) -> int:
    """Index of the first True in ``flags``, its length if none."""
    hits = flags.nonzero()[0]
    return int(hits[0]) if hits.size else len(flags)


class _Law:
    """Trigger state of one run of a sampled scheme, stepped by ``h`` over the switching
    ``graphs``.  ``fire(k, x, x_hat, gi)`` polls node k under graph ``gi``: everyone at
    k = 0, later those the law finds due, whose ``x_hat`` it refreshes and logs.  An event
    law also finds the first node of a block where its poll may fire, two ways:
    ``watch(x_hat)`` is the RK kernel's stop test at the held ``x_hat`` (None for the
    periodic law, whose nodes end blocks by their length), passed over the first
    ``dwell(k, kb)`` of the nodes k + 1 .. k + kb, and ``screen(xs, k, x_hat)`` returns the
    index of the first state of the (kb, N, d) stack of those nodes where g > 0, which
    rounds as at a node (kb if none)."""

    def __init__(self, scheme, h: float, graphs):
        self.scheme, self.h, self.graphs, self.gi, self.last = scheme, h, graphs, None, -math.inf
        self.agents, self.times = [], []  # the event log: who broadcast, and when

    def _broadcast(self, k: int, x: np.ndarray, x_hat: np.ndarray, fired: list[int]) -> list[int]:
        if fired:
            x_hat[fired] = x[fired]
            self.last = k * self.h
            self.agents += fired
            self.times += [self.last] * len(fired)
        return fired

    def watch(self, x_hat):
        return None

    def dwell(self, k: int, kb: int) -> int:
        return 0


class _PeriodicLaw(_Law):
    def __init__(self, scheme, h, graphs):
        super().__init__(scheme, h, graphs)
        self.every = period_steps(scheme.delta, h)

    def fire(self, k, x, x_hat, gi):  # periodic_due is True at k = 0, before any broadcast
        due = periodic_due(k * self.h, self.every * self.h, self.last)
        return self._broadcast(k, x, x_hat, list(range(len(x))) if due else [])


class _CentralizedLaw(_Law):
    def fire(self, k, x, x_hat, gi):  # x_hat holds every agent's state at the last broadcast
        kappa, tau = self.scheme.kappa, self.scheme.tau
        due = k == 0 or _centralized_due(x, x_hat, kappa, self.last, tau, k * self.h)
        fired = self._broadcast(k, x, x_hat, list(range(len(x))) if due else [])
        if fired:  # Pi x_hat for the screens and stop tests, rounded as the poll forms it
            self.pi_x_hat = _projector(len(x)) @ x_hat
        return fired

    def dwell(self, k, kb) -> int:  # the leading nodes where the poll's t - last >= tau fails
        h, last, tau = self.h, self.last, self.scheme.tau
        return bisect.bisect_left(range(kb), True, key=lambda j: (k + 1 + j) * h - last >= tau)

    def watch(self, x_hat):
        return centralized_stop(self.pi_x_hat, self.scheme.kappa)

    def screen(self, xs, k, x_hat) -> int:  # g past the dwell
        j = self.dwell(k, len(xs))
        return j + first_true(centralized_g(xs[j:], x_hat, self.scheme.kappa, self.pi_x_hat) > 0)


class _DistributedLaw(_Law):
    def fire(self, k, x, x_hat, gi):
        if gi != self.gi:  # the first node or a topology switch: the threshold follows
            self.gi, self.eps2, g = gi, self.scheme.eps**2, self.graphs[gi]
            self.weights, self.dout = g.weights, g.out_degrees
            self.thr = _threshold(x_hat, g.weights, self.eps2)
        fired = (list(range(len(x))) if k == 0 else
                 _cascade(x, x_hat, self.thr, self.weights, self.eps2, self.dout))
        return self._broadcast(k, x, x_hat, fired) if fired else fired

    def watch(self, x_hat):
        return distributed_stop(x_hat, self.thr, self.dout)

    def screen(self, xs, k, x_hat) -> int:
        g = distributed_g(xs, x_hat, self.thr, self.dout)
        return first_true((g > _ZERO).any(axis=1))  # g rounds as at a node


def trigger_law(scheme: CommScheme, h: float, graphs) -> _Law | None:
    """The :class:`_Law` of a sampled scheme, None for continuous information and Euler."""
    law = {Periodic: _PeriodicLaw, CentralizedEvent: _CentralizedLaw,
           DistributedEvent: _DistributedLaw}.get(type(scheme))
    return None if law is None else law(scheme, h, graphs)


@dataclass(frozen=True, eq=False)
class EventStats:
    """Per-agent broadcast counts and inter-event gaps for one trace.

    ``min_gaps[i]`` is the horizon length when agent i logged fewer than
    two events.  ``zeno_flag`` is the sampled accumulation proxy: it is set
    when some gap spans at most two integration steps, compared against
    ``2 h + GRID_SLACK`` because a gap of two nodes, ``(k+2) h - k h``, can
    round to just above ``2 h``.
    """

    counts: np.ndarray
    min_gaps: np.ndarray
    global_min_gap: float
    zeno_flag: bool
    horizon: float


def event_stats(trace) -> EventStats:
    """Summarize the event log of a trace (see :class:`EventStats`)."""
    n = trace.n_agents
    horizon = float(trace.t[-1] - trace.t[0]) if trace.t.size else 0.0
    counts = np.zeros(n, dtype=int)
    min_gaps = np.full(n, horizon)
    for i in range(n):
        times = np.sort(trace.event_times[trace.event_agents == i])
        counts[i] = times.size
        if times.size >= 2:
            min_gaps[i] = float(np.diff(times).min())
    global_min = float(min_gaps.min()) if n else math.inf
    return EventStats(
        counts=counts,
        min_gaps=min_gaps,
        global_min_gap=global_min,
        zeno_flag=bool(counts.sum() > 0 and global_min <= 2.0 * trace.h + GRID_SLACK),
        horizon=horizon,
    )
