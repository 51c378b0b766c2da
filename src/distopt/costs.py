"""Local cost functions, convexity constants, and the centralized oracle.

The scalar catalog ``f1`` .. ``f10`` contains the ten strongly convex costs
used throughout the bundled experiments; ``quadratic_cost`` builds members
of the family f(x) = (x'x + x'a + b)/2 whose gradient Lipschitz and strong
convexity constants are both exactly 1.  Each curved catalog gradient is one
expression in ``x``, compiled into its ``scalar_gradient`` and written inline by
the RK kernel, so both evaluate the same operations in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import OracleFailure, ValidationError

BRACKET_LIMIT = 1e6


@dataclass(frozen=True)
class CostModel:
    """Differentiable convex cost on R^d with optional convexity constants.

    ``m`` is a strong-convexity constant and ``M`` a global gradient Lipschitz constant when
    known.  ``value`` maps a (d,) array to a float, ``gradient`` to a (d,) array.  For d = 1
    the optional ``scalar_gradient`` maps a float to a float, which the RK kernel and
    :meth:`NetworkCost.grad_list` call on plain floats.  The optional ``affine = (H, c)``,
    H (d, d) and c (d,), states that the gradient is exactly H x + c.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    m: float | None = None
    M: float | None = None
    name: str = ""
    scalar_gradient: Callable[[float], float] | None = field(default=None, repr=False, compare=False)
    affine: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class NetworkCost:
    """A network of cost models with a common dimension.

    The aggregate objective is the sum of the members; the aggregate
    constants are ``m_lower = min m^i`` and ``M_upper = max M^i`` and exist
    only when every member provides them.
    """

    agents: tuple[CostModel, ...]

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def dim(self) -> int:
        return self.agents[0].dim

    @property
    def m_lower(self) -> float | None:
        ms = [a.m for a in self.agents]
        return None if any(v is None for v in ms) else float(min(ms))

    @property
    def M_upper(self) -> float | None:
        Ms = [a.M for a in self.agents]
        return None if any(v is None for v in Ms) else float(max(Ms))

    @cached_property
    def affine(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The stacked gradient as one affine map (H, c), block-diagonal H (N d, N d) and
        c (N d,), if every member carries ``affine``, else None."""
        if any(a.affine is None for a in self.agents):
            return None
        n, d = self.n_agents, self.dim
        big_h, diag = np.zeros((n, d, n, d)), np.arange(n)
        big_h[diag, :, diag] = [a.affine[0] for a in self.agents]
        return big_h.reshape(n * d, n * d), np.concatenate([a.affine[1] for a in self.agents])

    def grad_list(self, ys: list) -> list:
        """Per-agent gradients of the flat, row-major entries ``ys`` (N d floats), flat in
        the same order.  For d = 1 with every ``scalar_gradient`` present it is one
        comprehension over them; any other network, and any overflow, goes agent by agent
        through ``gradient``, an overflow mapping to inf signed as the agent's first entry."""
        if self.dim == 1 and all(a.scalar_gradient for a in self.agents):
            try:
                return [a.scalar_gradient(y) for a, y in zip(self.agents, ys)]
            except OverflowError:
                pass
        xs = np.array(ys, dtype=float).reshape(self.n_agents, self.dim)
        out = np.empty_like(xs)
        for i, (a, x) in enumerate(zip(self.agents, xs)):
            try:
                out[i] = a.gradient(x)
            except OverflowError:
                out[i] = math.copysign(math.inf, x[0])
        return out.ravel().tolist()

    def grad_stack(self, xs: np.ndarray) -> np.ndarray:
        """Stacked per-agent gradients, (N, d): :meth:`grad_list` as an array."""
        return np.array(self.grad_list(xs.ravel().tolist())).reshape(xs.shape)

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.grad_stack(np.tile(x, (self.n_agents, 1))).sum(axis=0)


def _entry(name, value, grad, m=None, M=None, affine=None):
    return CostModel(
        dim=1,
        value=lambda x, _f=value: _f(float(x[0])),
        gradient=lambda x, _g=grad: np.array([_g(float(x[0]))]),
        m=m,
        M=M,
        name=name,
        scalar_gradient=grad,
        affine=None if affine is None else (np.array([[affine[0]]]), np.array([affine[1]])),
    )


_EXPRESSIONS: dict[int, str] = {}  # id of a curved catalog gradient -> its expression in x


def _expression(text: str) -> Callable[[float], float]:
    """x -> ``text`` compiled once, the text recorded under its id for the RK kernel to inline."""
    grad = eval(f"lambda x: {text}", {"exp": math.exp, "log": math.log})
    _EXPRESSIONS[id(grad)] = text
    return grad


def _f1(x):
    return 0.5 * math.exp(-0.5 * x) + 0.4 * math.exp(0.3 * x)


def _f3(x):
    return 0.5 * x * x * math.log(1 + x * x) + x * x


def _f5(x):
    return math.log(math.exp(-0.1 * x) + math.exp(0.3 * x)) + 0.1 * x * x


def _f6(x):
    return x * x / math.log(2 + x * x)


def _f9(x):
    return x * x / math.sqrt(x * x + 1) + 0.1 * x * x


_CATALOG: dict[str, CostModel] = {
    "f1": _entry("f1", _f1, _expression("-0.25 * exp(-0.5 * x) + 0.12 * exp(0.3 * x)")),
    "f2": _entry("f2", lambda x: (x - 4) ** 2, lambda x: 2 * (x - 4), m=2.0, M=2.0,
                 affine=(2.0, -8.0)),
    "f3": _entry("f3", _f3, _expression("x * log(sq := 1.0 + x * x) + x**3.0 / sq + 2.0 * x")),
    "f4": _entry("f4", lambda x: x * x + math.exp(0.1 * x), _expression("2.0 * x + 0.1 * exp(0.1 * x)")),
    "f5": _entry("f5", _f5, _expression(
        "(-0.1 * (ea := exp(-0.1 * x)) + 0.3 * (eb := exp(0.3 * x))) / (ea + eb) + 0.2 * x")),
    "f6": _entry("f6", _f6, _expression(
        "2.0 * x / (lg := log(sq := 2.0 + x * x)) - 2.0 * x**3.0 / (sq * lg * lg)")),
    "f7": _entry("f7", lambda x: 0.2 * math.exp(-0.2 * x) + 0.4 * math.exp(0.4 * x),
                 _expression("-0.04 * exp(-0.2 * x) + 0.16 * exp(0.4 * x)")),
    "f8": _entry("f8", lambda x: x**4 + 2 * x * x + 2, _expression("4.0 * x**3.0 + 4.0 * x")),
    "f9": _entry("f9", _f9, _expression("(x**3.0 + 2.0 * x) / (x * x + 1.0) ** 1.5 + 0.2 * x")),
    "f10": _entry("f10", lambda x: (x + 2) ** 2, lambda x: 2 * (x + 2), m=2.0, M=2.0,
                  affine=(2.0, 4.0)),
}

CATALOG_NAMES = tuple(sorted(_CATALOG, key=lambda s: int(s[1:])))


def catalog(name: str) -> CostModel:
    """Look up a scalar catalog cost by name (``f1`` .. ``f10``)."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise ValidationError(f"unknown cost {name!r}; known: {', '.join(CATALOG_NAMES)}") from None


def quadratic_cost(a, b: float = 0.0) -> CostModel:
    """Member of the family f(x) = (x'x + x'a + b)/2 with unit curvature."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    d = a.shape[0]
    model = CostModel(
        dim=d,
        value=lambda x: 0.5 * (float(x @ x) + float(x @ a) + b),
        gradient=lambda x: x + 0.5 * a,
        m=1.0,
        M=1.0,
        name="quadratic",
        affine=(np.eye(d), 0.5 * a),
    )
    if d == 1:
        a0 = float(a[0])
        model = replace(
            model,
            scalar_gradient=lambda x: x + 0.5 * a0,
        )
    return model


def network_cost(models) -> NetworkCost:
    """Bundle per-agent costs, checking for a common dimension."""
    models = tuple(models)
    if not models:
        raise ValidationError("need at least one cost model")
    dims = {m.dim for m in models}
    if len(dims) != 1:
        raise ValidationError(f"cost dimensions differ: {sorted(dims)}")
    return NetworkCost(agents=models)


def minimize_global(nc: NetworkCost, tol: float = 1e-12) -> np.ndarray:
    """Solve sum_i grad f^i(x) = 0 for a strictly convex aggregate.

    An affine network (every member carries ``affine``) is solved exactly:
    x = -(sum_i H^i)^{-1} sum_i c^i, and a singular sum raises OracleFailure.
    Any other network with d = 1 has a strictly increasing aggregate
    gradient, so the solver expands a bracket outward from [-1, 1] (capped
    at +/- 1e6) and bisects; the result satisfies |sum grad| <= tol.
    OracleFailure is raised when no sign change exists inside the cap, when
    the bisection cannot meet the tolerance, and for non-affine networks
    with d > 1, which have no oracle.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if nc.affine is not None:
        n, d = nc.n_agents, nc.dim
        big_h, c = nc.affine  # block-diagonal, so summing all blocks sums the H^i
        try:
            return np.linalg.solve(big_h.reshape(n, d, n, d).sum(axis=(0, 2)),
                                   -c.reshape(n, d).sum(axis=0))
        except np.linalg.LinAlgError:
            raise OracleFailure("sum of the members' H is singular: no unique stationary point") from None
    if nc.dim == 1:
        return _bisect_1d(nc, tol)
    raise OracleFailure(f"no oracle for a non-affine network with d = {nc.dim}")


def _bisect_1d(nc: NetworkCost, tol: float) -> np.ndarray:
    g = lambda x: sum(nc.grad_list([x] * nc.n_agents))  # noqa: E731
    lo, hi = -1.0, 1.0
    while g(lo) > 0:
        lo *= 2.0
        if lo < -BRACKET_LIMIT:
            raise OracleFailure("no stationary point in [-1e6, 1e6] (left)")
    while g(hi) < 0:
        hi *= 2.0
        if hi > BRACKET_LIMIT:
            raise OracleFailure("no stationary point in [-1e6, 1e6] (right)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    if abs(g(root)) > tol:
        # endpoints straddle the root; pick the better one before giving up
        root = min((lo, hi, root), key=lambda x: abs(g(x)))
        if abs(g(root)) > tol:
            raise OracleFailure(f"bisection stalled at |grad| = {abs(g(root)):.3e} > {tol:.3e}")
    return np.array([root])


def check_convexity_constants(model: CostModel, box=(-10.0, 10.0), samples: int = 2000,
                              seed: int = 0) -> tuple[float, float]:
    """Empirical curvature range over sampled point pairs inside ``box``.

    Returns the min and max of (z-x)'(grad f(z)-grad f(x)) / ||z-x||^2,
    which bound the strong convexity and gradient Lipschitz constants on
    the box from inside.  Report-only: no exception on violations.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    lo, hi = float(box[0]), float(box[1])
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, size=(samples, model.dim))
    zs = rng.uniform(lo, hi, size=(samples, model.dim))
    m_est, M_est = math.inf, -math.inf
    for x, z in zip(xs, zs):
        dxz = z - x
        nrm2 = float(dxz @ dxz)
        if nrm2 < 1e-20:
            continue
        ratio = float(dxz @ (model.gradient(z) - model.gradient(x))) / nrm2
        m_est = min(m_est, ratio)
        M_est = max(M_est, ratio)
    return m_est, M_est


def with_estimated_constants(model: CostModel, box=(-10.0, 10.0)) -> CostModel:
    """Fill missing m/M with empirical estimates over ``box``."""
    if model.m is not None and model.M is not None:
        return model
    m_est, M_est = check_convexity_constants(model, box)
    return replace(
        model,
        m=model.m if model.m is not None else m_est,
        M=model.M if model.M is not None else M_est,
    )
