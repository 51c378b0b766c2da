"""Network state evolution: RK4 (and Euler) step kernels of the gradient flow and
the scenario-level simulation loop with topology switching and discrete
communication.

Two state blocks evolve per agent: the estimate ``x^i`` and an integral
correction ``v^i`` driven by the weighted disagreement with neighbors.  The
sum of the ``v^i`` is a constant of motion, so runs must start from
``sum_i v^i(0) = 0``, which a :class:`~distopt.scenarios.Scenario` checks when built.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from . import schedulers
from .costs import _EXPRESSIONS, NetworkCost, minimize_global
from .errors import NumericalBlowup, OracleFailure, ValidationError
from .graph import WeightedDigraph, is_strongly_connected, is_weight_balanced, out_laplacian

if TYPE_CHECKING:  # pragma: no cover
    from .scenarios import Scenario

BLOWUP_LIMIT = 1e12
CSV_CHUNK = 25  # samples formatted per write in Trace.to_csv
ERR_CHUNK = 256  # samples per block of the trace's err column; larger blocks raise peak RSS
BLOCK_STEPS = 64  # steps per advance of every kernel (FoldedRK: fewer past BLOCK_BYTES)
BLOCK_BYTES = 2**19  # cap on FoldedRK's stacked powers and partial sums


@dataclass(frozen=True)
class AlgorithmParams:
    """Gradient gain ``alpha`` and coupling gain ``beta`` (both positive and finite)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValidationError(f"alpha, beta must be positive and finite: {self.alpha}, {self.beta}")


def _require_coupling(g: WeightedDigraph, name: str) -> None:
    """ValidationError unless ``g`` is strongly connected and weight balanced: else no run
    reaches the optimum or conserves sum v."""
    if not is_strongly_connected(g):
        raise ValidationError(f"{name} is not strongly connected")
    if not is_weight_balanced(g):
        raise ValidationError(f"{name} is not weight balanced")


@dataclass(frozen=True, eq=False)
class SwitchingSchedule:
    """Piecewise-constant topology: cycle through ``graphs`` as listed, one per ``dwell``.

    Every member must be strongly connected and weight balanced; that is
    checked at construction.
    """

    graphs: tuple[WeightedDigraph, ...]
    dwell: float

    def __post_init__(self):
        if not self.graphs:
            raise ValidationError("switching schedule needs at least one graph")
        if not self.dwell > 0:
            raise ValidationError("dwell must be positive")
        for k, g in enumerate(self.graphs):
            _require_coupling(g, f"switching graph {k}")


@dataclass(eq=False)
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
    h: float
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
        row = f"%s,%d,{coords},{coords},%.17g,%d\n"  # t formatted once per sample
        agents = list(range(1, n + 1))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,agent,x,v,err,event\n")
            for s in range(0, self.t.size, CSV_CHUNK):
                e = min(s + CSV_CHUNK, self.t.size)
                rows = (e - s) * n
                flags = np.zeros(rows, dtype=int)
                lo, hi = np.searchsorted(hits, (s * n, e * n))
                flags[hits[lo:hi] - s * n] = 1
                cols = [[f for t in self.t[s:e].tolist() for f in ["%.17g" % t] * n], agents * (e - s)]
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


def held_terms(lap: np.ndarray, p: AlgorithmParams, x_hat: np.ndarray) -> np.ndarray:
    """b = [-beta L x_hat; alpha beta L x_hat], the held term of the sampled flow:
    fixed between broadcasts and topology switches, so formed there only."""
    lap_xh = lap @ x_hat
    return np.concatenate([-p.beta * lap_xh, (p.alpha * p.beta) * lap_xh])


# Butcher tableaus: rows of a_ij, weights b_i
RK4_TABLEAU = (((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1 / 6, 1 / 3, 1 / 3, 1 / 6))
EULER_TABLEAU = (((),), (1.0,))


def _lin(terms) -> str:
    """Source of sum c * name over ``terms``: no c = 0 term, no factor 1, negative c subtracted,
    a negative first term after a positive second (a + b = b + a: no later rounding moves)."""
    terms, out = [(float(c), name) for c, name in terms if c], ""
    if len(terms) > 1 and terms[0][0] < 0 < terms[1][0]:
        terms[:2] = terms[1::-1]
    for c, name in terms:
        sign, c = ("-", -c) if c < 0 else ("+", c)
        t = name if c == 1 else f"{c!r}*{name}"
        out = f"{out} {sign} {t}" if out else t if sign == "+" else f"-{t}"
    return out or "0.0"


class AffineRK:
    """Explicit Runge-Kutta step of size ``h`` of the flow on the (2N, d) state z = [x; v]
    over the out-Laplacian ``lap`` (0 under sampled information, whose term b :meth:`hold`
    sets) for a Butcher ``tableau``: a function on floats, generated per network, graph, h
    and tableau, that writes out each stage per entry e of agent i from its input (y, u),
    m_e = -beta sum_j L_ij y_j, kx_e = m_e - alpha grad_e f_i(y_i) - u_e + b_e and
    kv_e = b_{N+e} - alpha m_e, adding b only where it can be nonzero; a sampled kernel
    carries b_e - u_e.  So a kernel of scalar costs negates nothing at run time (m's diagonal
    is its only negative weight, and :func:`_lin` puts it second), and every value is the
    textbook order's but for the sign of an exact zero.  A gradient is
    H y + c written out (-alpha c joins b), a catalog gradient's own expression written
    inline (found by the function's identity, never from input), a call of any other
    ``scalar_gradient``, or (d > 1, or none) entries of one ``grad_list`` call per stage.
    The source holds generated names, float literals and that catalog text only.  Each step
    packs the new state into its row of the block's array (one ``pack_into`` of 2Nd floats,
    no row object) and, under a held law's stop test, ends the block once that test of its
    x entries holds (see :meth:`hold`): the kernel alone judges where a block ends."""

    def __init__(self, nc: NetworkCost, p: AlgorithmParams, lap: np.ndarray, h: float, tableau):
        (rows, weights), d, alpha, coupled = tableau, nc.dim, p.alpha, bool(lap.any())
        es, lap = range(nc.n_agents * d), lap.tolist()  # Python floats overflow with no warning
        scope = {"inf": math.inf, "nan": math.nan, "exp": math.exp, "log": math.log}
        grad, self._offset = [], np.zeros(len(es))
        listed = [e for e in es if nc.agents[e // d].affine is None
                  and (d > 1 or nc.agents[e // d].scalar_gradient is None)]  # through grad_list
        scope["grads"] = listed and NetworkCost(tuple(nc.agents[e // d] for e in listed[::d])).grad_list
        for e in es:  # -alpha grad_e f_i(y_i) as (c, name) terms
            (i, k), a = divmod(e, d), nc.agents[e // d]
            scope[f"g{i}"], text = a.scalar_gradient, _EXPRESSIONS.get(id(a.scalar_gradient))
            call = f"g{i}(y{e})" if text is None else "(" + re.sub(r"\bx\b", f"y{e}", text) + ")"
            if a.affine is None:
                grad.append([(-alpha, f"q{e}" if e in listed else call)])
            else:
                grad.append([(-alpha * c, f"y{e - k + m}") for m, c in enumerate(a.affine[0][k].tolist())])
                self._offset[e] = -alpha * float(a.affine[1][k])
        self._times = times = sorted({h * sum(row) for row in rows})  # of the stages
        xs = ", ".join(f"x{e}" for e in es)
        state = xs + ", " + ", ".join(f"v{e}" for e in es)
        src = ["def run(z, steps, held, out, stop, skip):", f" {state}, = z", " " + "".join(
            f"c{t}_{e}, " for t in range(len(times)) for e in es) + "".join(f"w{e}, " for e in es)
            + "= held", " try:", "  for s in range(steps):"]  # c = b_e - t b_{N+e}, w = h sum b b_{N+e}
        if not coupled:  # b_e less u_e is c_e - v_e: without L it depends on the stage time alone
            src += [f"   u{t}_{e} = c{t}_{e} - v{e}" for t in range(len(times)) for e in es]
        for j, row in enumerate(rows):
            inc, t = [(h * c, m) for m, c in enumerate(row) if c], times.index(h * sum(row))
            u = f"u{j if coupled else t}_"
            src += [f"   y{e} = " + _lin([(1, f"x{e}")] + [(c, f"kx{m}_{e}") for c, m in inc]) for e in es]
            src += [f"   u{j}_{e} = " + _lin([(1, f"v{e}"), (-float(self._offset[e] != 0), f"c{t}_{e}")]
                                             + [(-alpha * c, f"m{m}_{e}") for c, m in inc])  # kv = -alpha m
                    for e in es if coupled]
            src += [f"   {', '.join(f'q{e}' for e in listed)}, = "
                    f"grads([{', '.join(f'y{e}' for e in listed)}])"] * bool(listed)
            for e in es:
                lin = [(-p.beta * w, f"y{m * d + e % d}") for m, w in enumerate(lap[e // d])]
                src += [f"   m{j}_{e} = {_lin(lin)}"] * coupled
                src.append(f"   kx{j}_{e} = " + _lin(grad[e] + [(1, f"m{j}_{e}")] * coupled
                                                      + [(-1 if coupled else 1, f"{u}{e}")]))
        groups = {h * w: [j for j, wj in enumerate(weights) if wj == w] for w in weights}
        for s, k, a in (("x", "kx", 1.0), ("v", "m", -alpha))[:1 + coupled]:  # one product a group
            src += [f"   {s}{e} = " + _lin([(1, f"{s}{e}")] + [
                (a * c, "(" + " + ".join(f"{k}{j}_{e}" for j in js) + ")") for c, js in groups.items()])
                for e in es]
        src += [f"   v{e} = v{e} + w{e}" for e in es if not coupled]
        src += [f"   pack(out, {16 * len(es)} * s, {state})"]  # row s of out, at byte 8 * 2Nd * s
        src += [f"   if s >= skip and stop({xs}): return s"] * (not coupled)
        src += [" except OverflowError:", "  return ~s", " return steps"]
        scope["pack"] = struct.Struct(f"{2 * len(es)}d").pack_into
        exec("\n".join(src), scope)  # generated names, float literals and catalog expressions
        self._run, self._span, self._coupled = scope["run"], h * sum(weights), coupled
        self.hold(np.zeros(2 * len(es)))

    def hold(self, b: np.ndarray, law=None, x_hat: np.ndarray | None = None) -> None:
        """Hold the (2N, d) term ``b`` of the flow (0 before the first call) and the trigger
        ``law`` of :func:`schedulers.trigger_law` at the broadcast ``x_hat``, or None (L = 0
        only, both): a block then ends with the first state where the law's stop test
        ``law.watch(x_hat)(x0, ..., x_{Nd-1})`` of its x entries, row-major, holds, e.g.
        :func:`schedulers.distributed_stop`, past the nodes ``law.dwell`` names."""
        if self._coupled and (b.any() or law is not None):
            raise ValueError("a kernel over a nonzero L holds no term b and no stop test")
        bx, bv = np.split(b.ravel(), 2)
        self._held = ((bx + self._offset) - np.outer(self._times, bv)).ravel().tolist() \
            + (self._span * bv).tolist()
        self._law, self._stop = law, None if law is None else law.watch(x_hat)

    def advance(self, z: np.ndarray, steps: int, k: int = 0) -> tuple[np.ndarray, int]:
        """The next ``steps`` states after node ``k``'s state ``z``, stacked (steps, 2N, d), up
        to the first where the held stop test holds, and its index (``steps`` if none); after
        a gradient overflows, those up to its step's, which is inf, and their count.  Each
        call fills a fresh array (``simulate`` goes on from one of its rows): the kernel
        packs the rows and returns the flagged index, or ~s after an overflow at step s."""
        out = np.empty((steps, *z.shape))
        q = self._run(z.ravel().tolist(), steps, self._held, out, self._stop,
                      steps if self._stop is None else self._law.dwell(k, steps))
        if q < 0:  # as grad_list maps an overflow: that step's state is out of range
            out[~q], q = math.inf, -q  # -q = ~q + 1 rows
            return out[:q], q
        return out[:q + 1], q


class FoldedRK:
    """The kernel of an affine network (H, c), with :class:`AffineRK`'s interface: a step of
    z' = A z + b - alpha [c; 0], A = flow_matrix(L, p) - alpha [H, 0; 0, 0], is z -> M z + f,
    f = B (b - alpha [c; 0]).  The powers [M; ...; M^K] and sums [I; I + M; ...] are stacked
    once (K = ``block``), the offsets [f; (I + M) f; ...] per :meth:`hold`, for :meth:`advance`."""

    def __init__(self, nc: NetworkCost, p: AlgorithmParams, lap: np.ndarray, h: float, tableau):
        (rows, weights), (big_h, c), n2 = tableau, nc.affine, 2 * nc.n_agents * nc.dim
        a = np.kron(flow_matrix(lap, p), np.eye(nc.dim)) - np.pad(p.alpha * big_h, (0, len(c)))
        self._offset = np.concatenate([-p.alpha * c, np.zeros(len(c))])
        # stage inputs Z_j and slopes K_j = A Z_j + b as maps of [z; b]
        z0, eb, slopes = np.eye(n2, 2 * n2), np.eye(n2, 2 * n2, n2), []
        for row in rows:
            slopes.append(a @ (z0 + h * sum(aij * kj for aij, kj in zip(row, slopes))) + eb)
        step = h * sum(w * k for w, k in zip(weights, slopes))  # z(t + h) - z(t)
        self._b_map = step[:, n2:]
        self.block = k = max(1, min(BLOCK_STEPS, BLOCK_BYTES // (16 * n2 * n2)))
        powers, sums = np.empty((k, n2, n2)), np.empty((k, n2, n2))
        powers[0], sums[0] = np.eye(n2) + step[:, :n2], np.eye(n2)
        for j in range(1, k):
            powers[j] = powers[0] @ powers[j - 1]
            sums[j] = sums[j - 1] + powers[j - 1]
        self._powers, self._sums = powers.reshape(k * n2, n2), sums.reshape(k * n2, n2)
        self.hold(np.zeros(n2))

    def hold(self, b: np.ndarray, law=None, x_hat: np.ndarray | None = None) -> None:
        """As :meth:`AffineRK.hold`, but a block is one product, whose tail costs little
        past a flagged node: the law's numpy ``screen``, not its stop test, finds that node."""
        self._offsets = self._sums @ (self._b_map @ (b.ravel() + self._offset))
        self._screen, self._x_hat = getattr(law, "screen", None), x_hat

    def advance(self, z: np.ndarray, steps: int, k: int = 0) -> tuple[np.ndarray, int]:
        """As :meth:`AffineRK.advance`, for at most ``block`` steps, all returned: the flagged
        index is the held law's screen of the stack (``steps`` under no law or screen)."""
        steps = min(steps, self.block)
        rows = steps * z.size
        zs = (self._powers[:rows] @ z.ravel() + self._offsets[:rows]).reshape(steps, *z.shape)
        return zs, steps if self._screen is None else self._screen(zs[:, :len(z) // 2], k, self._x_hat)


def rk_kernel(nc: NetworkCost, p: AlgorithmParams, lap: np.ndarray, h: float, tableau):
    """The step kernel of ``nc``: a :class:`FoldedRK` if every member is affine, else an AffineRK."""
    return (FoldedRK if nc.affine is not None else AffineRK)(nc, p, lap, h, tableau)


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
    x_bar = np.tile(minimize_global(nc), (nc.n_agents, 1))
    return x_bar, -p.alpha * nc.grad_stack(x_bar)


@np.errstate(over="ignore", invalid="ignore")  # a blowup raises NumericalBlowup instead
def simulate(scenario: "Scenario") -> Trace:
    """Integrate a scenario with node-aligned communication: fixed-step RK4 of size ``h``,
    or forward Euler of size ``delta`` for an Euler scheme (broadcasts implicit at every
    step: no event log, ``x_hat = x``), through :func:`rk_kernel`: one kernel per distinct
    graph, or under sampled information one over L = 0 for all, as the held b carries it.

    A sampled scheme's :func:`schedulers.trigger_law` fires first at a polled node, so
    samples reflect post-broadcast state.  The kernel advances a block (BLOCK_STEPS steps at
    most) up to t_final, a topology switch or a periodic node, and names its first node the
    law flags (an AffineRK stops there); the run goes on from it, polled, else from the
    block's last node, polled if periodic.  The quiet nodes before are recorded in bulk,
    the rest dropped.  Past t = 0 the law is polled only at flagged and periodic nodes and
    at switches to an unequal graph, where the distributed threshold must follow it.  The
    scenario was validated when built, apart from a fixed graph's strong connectivity and
    weight balance, which a switching schedule checks in its members: ValidationError,
    before any step.  Past that the only error raised here is NumericalBlowup (carrying the
    partial trace).
    """
    if scenario.schedule is None:
        _require_coupling(scenario.graph, "graph")
    nc = scenario.network
    n, d = nc.n_agents, nc.dim
    p = AlgorithmParams(scenario.alpha, scenario.beta)
    scheme, h, n_steps = scenario.scheme, scenario.step, scenario.n_steps
    # steps per graph: a fixed graph is a one-graph cycle that the horizon never leaves
    spd = n_steps if scenario.schedule is None else round(scenario.schedule.dwell / h)
    laps = [out_laplacian(g) for g in scenario.graphs]
    # each listed graph as the first equal one: a boundary between equal graphs is no switch
    ids = [next(j for j, b in enumerate(laps) if np.array_equal(a, b)) for a in laps]
    m = len(ids)
    # dwells from listed graph j to the next unequal one (n_steps, past t_final, if none)
    runs = [next((r for r in range(1, m) if ids[(j + r) % m] != ids[j]), n_steps)
            for j in range(m)]
    z = np.concatenate([scenario.x0, scenario.v0])
    x = z[:n]
    x_hat = x.copy()
    law = schedulers.trigger_law(scheme, h, scenario.graphs)
    sampled = law is not None  # continuous information and Euler have no broadcasts
    try:
        x_star = minimize_global(nc)
    except OracleFailure:
        x_star = None

    stride = scenario.stride
    ks = list(range(0, n_steps, stride)) + [n_steps]
    n_smp = len(ks)
    T = np.array(ks) * h
    X = np.empty((n_smp, n, d))
    V = np.empty((n_smp, n, d))
    XH = np.empty((n_smp, n, d))
    ERR = np.full((n_smp, n), np.nan)

    gi = 0
    every = getattr(law, "every", n_steps + 1)  # the periodic cadence (past the horizon if none)
    tableau = EULER_TABLEAU if scheme.kind == "euler" else RK4_TABLEAU
    kernels = (dict.fromkeys(ids, rk_kernel(nc, p, 0 * laps[0], h, tableau)) if sampled
               else {j: rk_kernel(nc, p, laps[j], h, tableau) for j in dict.fromkeys(ids)})

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
            h=h,
            alpha=float(scenario.alpha),
            beta=float(scenario.beta),
            x_star=None if x_star is None else np.asarray(x_star, dtype=float),
        )

    si = k = 0
    poll = True  # node k needs the exact law: no screen has cleared it
    while True:
        c = k // spd  # the dwell node k lies in
        graph = ids[c % m]
        switched, gi = graph != gi, graph
        if sampled and (poll or switched) and (law.fire(k, x, x_hat, gi) or switched):
            kernels[gi].hold(held_terms(laps[gi], p, x_hat), law, x_hat)
        if k == ks[si]:
            X[si], V[si], XH[si] = x, z[n:], x_hat if sampled else x
            si += 1
        if k == n_steps:
            break
        # advance to t_final, a switch or a periodic node, or to the first node the law flags
        cap = every - k % every
        zs, q = kernels[gi].advance(z, min(BLOCK_STEPS, n_steps - k, (c + runs[c % m]) * spd - k,
                                           cap), k)
        ok = _within_limit(zs)
        q = min(q, ok)  # the first flagged node, or the first out of range
        poll, nxt = q < len(zs) or len(zs) == cap, min(q, len(zs) - 1)
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

