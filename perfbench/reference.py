"""Independent fixed-step reference for the benchmark's trajectory checks.

Integrates the coordination flow written out from its definition

    dx^i = -alpha grad f^i(x^i) - beta sum_j a_ij (xh^i - xh^j) - v^i
    dv^i =  alpha beta sum_j a_ij (xh^i - xh^j)

with classical RK4 on the same node grid as distopt, where ``xh`` is the
state itself under continuous information and the last broadcast value
otherwise.  Trigger laws are polled at every node, as distopt documents.
It is slow on purpose (per-agent gradient calls), so the benchmark runs it
once per run, on the warm-up repetition.
"""

from __future__ import annotations

import numpy as np
from distopt.costs import catalog, quadratic_cost
from distopt.graph import preset_graph


def _gradient(cost):
    """Scalar gradient of one d = 1 cost: the formula, not the network stacking."""
    if cost["kind"] == "catalog":
        return catalog(cost["name"]).scalar_gradient
    return quadratic_cost(cost["a"], float(cost.get("b", 0.0))).scalar_gradient


def _laplacians(cfg):
    if "switching" in cfg:
        names = cfg["switching"]["presets"]
    else:
        names = [cfg["graph"]["preset"]]
    return [preset_graph(nm).weights for nm in names]


def integrate(cfg: dict, scheme: dict, n_steps: int):
    """States at every node k = 0..n_steps and the broadcasts (k, agent).

    ``scheme`` is ``{"kind": "continuous"}``, ``{"kind": "centralized_event",
    "kappa", "tau"}`` or ``{"kind": "distributed_event", "eps"}``.
    """
    grads = [_gradient(c) for c in cfg["costs"]]
    weights = _laplacians(cfg)
    laps = [np.diag(w.sum(axis=1)) - w for w in weights]
    n = len(grads)
    alpha, beta, h = float(cfg["alpha"]), float(cfg["beta"]), float(cfg["h"])
    lo, hi = cfg["x0"]["box"]
    x = np.random.default_rng(int(cfg["seed"])).uniform(lo, hi, size=(n, 1))
    v = np.zeros((n, 1))
    dwell_steps = round(cfg["switching"]["dwell"] / h) if "switching" in cfg else None
    kind = scheme["kind"]
    eps2 = np.full(n, float(scheme["eps"]) ** 2) if kind == "distributed_event" else None

    def field(xs, vs, xh, lap):
        g = np.array([[grad(xi)] for grad, xi in zip(grads, xs[:, 0].tolist())])
        lx = lap @ xh
        return -alpha * g - beta * lx - vs, alpha * beta * lx

    X = np.empty((n_steps + 1, n))
    V = np.empty((n_steps + 1, n))
    events: list[tuple[int, int]] = []
    xh = x.copy()
    x_last, k_last = x.copy(), 0
    for k in range(n_steps + 1):
        gi = (k // dwell_steps) % len(laps) if dwell_steps else 0
        lap, w = laps[gi], weights[gi]
        if k == 0 and kind != "continuous":
            xh = x.copy()
            events += [(0, i) for i in range(n)]
        elif kind == "centralized_event":
            if (k - k_last) * h >= scheme["tau"]:
                pi_dev = (x_last - x) - (x_last - x).mean()
                pi_x = x - x.mean()
                if float((pi_dev**2).sum()) > scheme["kappa"] * float((pi_x**2).sum()):
                    xh, x_last, k_last = x.copy(), x.copy(), k
                    events += [(k, i) for i in range(n)]
        elif kind == "distributed_event":
            fired = set()
            # nobody fires while every drift term is under its floor eps_i^2
            changed = bool((4.0 * w.sum(axis=1) * ((xh - x) ** 2).sum(axis=1) > eps2).any())
            while changed:
                changed = False
                for i in range(n):
                    if i in fired:
                        continue
                    lhs = 4.0 * w[i].sum() * float(((xh[i] - x[i]) ** 2).sum())
                    rhs = float(w[i] @ ((xh[i] - xh) ** 2).sum(axis=1)) + eps2[i]
                    if lhs > rhs:
                        xh[i] = x[i]
                        fired.add(i)
                        changed = True
            events += [(k, i) for i in sorted(fired)]
        X[k], V[k] = x[:, 0], v[:, 0]
        if k == n_steps:
            break
        if kind == "continuous":
            k1 = field(x, v, x, lap)
            s2 = (x + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
            k2 = field(*s2, s2[0], lap)
            s3 = (x + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
            k3 = field(*s3, s3[0], lap)
            s4 = (x + h * k3[0], v + h * k3[1])
            k4 = field(*s4, s4[0], lap)
        else:
            k1 = field(x, v, xh, lap)
            k2 = field(x + 0.5 * h * k1[0], v + 0.5 * h * k1[1], xh, lap)
            k3 = field(x + 0.5 * h * k2[0], v + 0.5 * h * k2[1], xh, lap)
            k4 = field(x + h * k3[0], v + h * k3[1], xh, lap)
        x = x + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v = v + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return X, V, events
