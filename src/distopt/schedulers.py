"""Communication-time generation and event statistics.

Three discrete schemes decide when broadcast values refresh: a synchronous
periodic clock, a centralized state-dependent trigger with an enforced
dwell, and a distributed per-agent trigger with a positive threshold
floor.  Trigger conditions are evaluated at integration nodes: each detection
lags the continuous-time law by under one step, but the lag accumulates over
events (2.1e-2 by t = 1 at h = 1e-3 on the ten-agent ring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, get_args

import numpy as np

from .errors import ValidationError

GRID_SLACK = 1e-9  # absorbs float noise when node times are k*h products
SCREEN_SLACK = 1e-9  # relative margin of the block screens over the exact laws' rounding


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
        if not self.delta > 0:
            raise ValidationError(f"periodic delta must be positive, got {self.delta}")


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


@dataclass(frozen=True)
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
        if not self.delta > 0:
            raise ValidationError(f"euler delta must be positive, got {self.delta}")


CommScheme = Continuous | Periodic | CentralizedEvent | DistributedEvent | EulerScheme

SCHEMES = {cls.kind: cls for cls in get_args(CommScheme)}


def scheme_dict(scheme: CommScheme) -> dict:
    """JSON-friendly description of a scheme."""
    if type(scheme) not in SCHEMES.values():
        raise ValidationError(f"unknown scheme {scheme!r}")
    out = {"kind": scheme.kind}
    for f in fields(scheme):
        value = getattr(scheme, f.name)
        out[f.name] = [float(e) for e in value] if isinstance(value, np.ndarray) else value
    return out


def scheme_from_dict(d: dict, n_agents: int | None = None) -> CommScheme:
    """Inverse of :func:`scheme_dict`; scalar eps broadcasts to all agents.

    Raises ValidationError naming ``scheme.<field>`` when a field is
    missing or not numeric, and when ``d`` is not a dict.
    """
    if not isinstance(d, dict):
        raise ValidationError(f"scheme must be an object with a 'kind', got {d!r}")
    kind = d.get("kind")
    if kind not in SCHEMES:
        raise ValidationError(f"unknown scheme kind {kind!r}")
    cls = SCHEMES[kind]
    args = {}
    for f in fields(cls):
        if f.name not in d:
            raise ValidationError(f"scheme.{f.name} is missing for kind {kind!r}")
        value = d[f.name]
        if f.name == "eps" and np.isscalar(value):
            if n_agents is None:
                raise ValidationError("scalar eps needs a known agent count")
            value = [value] * n_agents
        try:
            args[f.name] = np.asarray(value, dtype=float) if f.name == "eps" else float(value)
        except (TypeError, ValueError):
            raise ValidationError(f"scheme.{f.name} must be numeric, got {value!r}") from None
    return cls(**args)


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


_PROJECTORS: dict[int, np.ndarray] = {}  # Pi = I - 11'/N by agent count N


def _centralized_due(x, x_at_last, kappa, t_last, tau, t) -> bool:
    """Broadcast-now test of the centralized law at time ``t``.

    Fires at the first instant past the dwell ``tau`` since the last
    broadcast at ``t_last`` where the centered drift since then exceeds
    kappa times the centered current state:
    ||Pi (x(t_last) - x(t))||^2 > kappa ||Pi x(t)||^2.
    """
    if t - t_last < tau:
        return False
    pi = _PROJECTORS.get(len(x))
    if pi is None:
        pi = _PROJECTORS[len(x)] = np.eye(len(x)) - 1.0 / len(x)
    xc = pi @ x
    dev = pi @ x_at_last - xc
    return float(np.vdot(dev, dev)) > kappa * float(np.vdot(xc, xc))


def centralized_screen(xs, x_hat, kappa, t_last, tau, ts) -> int:
    """Index of the first state of the (kb, N, d) stack ``xs``, at times ``ts``, where
    :func:`_centralized_due` may fire (kb if none): past the dwell, g = ||Pi (x_hat - x)||^2
    - kappa ||Pi x||^2 from -SCREEN_SLACK (||x||^2 + ||x_hat||^2) up.  The margin covers
    the two computations' rounding: it may flag a quiet node, never pass a firing one."""
    xc = xs - xs.mean(axis=1, keepdims=True)
    dev = (x_hat - x_hat.mean(axis=0)) - xc
    g = np.einsum("kij,kij->k", dev, dev) - kappa * np.einsum("kij,kij->k", xc, xc)
    slack = SCREEN_SLACK * (np.einsum("kij,kij->k", xs, xs) + float(np.vdot(x_hat, x_hat)))
    return int(np.append((ts - t_last >= tau) & (g > -slack), True).argmax())


def distributed_screen(xs, x_hat, thr, dout) -> int:
    """Index of the first state of the (kb, N, d) stack ``xs`` where some agent may be
    due under :func:`_cascade` (kb if none), against ``thr`` less a relative SCREEN_SLACK."""
    due = _distributed_due(xs, x_hat, (1.0 - SCREEN_SLACK) * thr, dout).any(axis=1)
    return int(np.append(due, True).argmax())


def _threshold(x_hat: np.ndarray, weights: np.ndarray, eps2) -> np.ndarray:
    """Right-hand side of the distributed law, sum_j a_ij ||xhat^i -
    xhat^j||^2 + eps_i^2 for all i (``eps2`` holds the eps_i^2): it depends
    on the broadcasts and the graph only, so it is rebuilt only when they change."""
    diffs = x_hat[:, None, :] - x_hat[None, :, :]
    return (weights * (diffs * diffs).sum(axis=2)).sum(axis=1) + eps2


def _distributed_due(x: np.ndarray, x_hat: np.ndarray, thr: np.ndarray,
                     dout: np.ndarray) -> np.ndarray:
    """Broadcast-now mask of the distributed law over all agents.

    Agent i fires when 4 d_out^i ||xhat^i - x^i||^2 exceeds
    ``thr = _threshold(x_hat, weights, eps2)``, all evaluated on last
    broadcast values.  Only the drift side is formed here; the caller
    rebuilds ``thr`` whenever ``x_hat`` or the graph changes.  ``x`` may be
    a (kb, N, d) stack of states, for a (kb, N) mask.
    """
    drift = x_hat - x
    return 4.0 * dout * (drift * drift).sum(axis=-1) > thr


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
    due = _distributed_due(x, x_hat, thr, dout)
    while np.count_nonzero(due):  # a sweep from agent 0 fires iff some agent is due
        start = 0
        while (ahead := due[start:].nonzero()[0]).size:
            i = start + int(ahead[0])
            x_hat[i] = x[i]
            fired.append(i)
            thr[:] = _threshold(x_hat, weights, eps2)
            due = _distributed_due(x, x_hat, thr, dout)
            start = i + 1
    return sorted(fired)


@dataclass(frozen=True)
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
