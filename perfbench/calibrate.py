"""Host-speed probe of the distopt benchmark.

The shared host the benchmark was written on runs the same code 15-40%
slower for tens of seconds at a time, which no median over one run can
average out.  ``kernel`` is a fixed piece of work of the same kind as the
workloads (a Python loop of RK4 steps on ten agents: small matrix-vector
products, per-agent scalar gradients, CSV formatting), written here and
importing nothing from distopt, so a change to the program cannot move it.
The worker times it right before and right after the timed part of each
repetition; ``run.py`` reports ``run_s`` scaled by ``REFERENCE_S`` over
that time, i.e. the repetition's run time at the reference host speed.
"""

from __future__ import annotations

import math
import time

import numpy as np

N = 10
STEPS = 900
# median kernel time on the reference machine (2-vCPU Xeon VM, Python 3.11)
REFERENCE_S = 0.057


def _gradients():
    # smooth convex scalar costs, one per agent, as in the catalog
    return [lambda x, c=0.1 * (i + 1): 0.5 * math.exp(-0.5 * (x - c)) + 0.4 * math.exp(0.3 * x)
            for i in range(N)]


def kernel(steps: int = STEPS) -> float:
    """Integrate a fixed ten-agent flow; returns a checksum of the state."""
    ring = np.roll(np.eye(N), 1, axis=1) + np.roll(np.eye(N), -1, axis=1)
    lap = np.diag(ring.sum(axis=1)) - ring
    grads = _gradients()
    x = np.linspace(-3.0, 3.0, N).reshape(N, 1)
    v = np.zeros((N, 1))
    h, h2 = 1e-3, 5e-4
    rows = []

    def grad(xs):
        return np.array([[g(xi)] for g, xi in zip(grads, xs[:, 0].tolist())])

    for k in range(steps):
        lx = lap @ x
        k1x, k1v = -grad(x) - lx - v, lx
        x2 = x + h2 * k1x
        lx = lap @ x2
        k2x, k2v = -grad(x2) - lx - (v + h2 * k1v), lx
        x3 = x + h2 * k2x
        lx = lap @ x3
        k3x, k3v = -grad(x3) - lx - (v + h2 * k2v), lx
        x4 = x + h * k3x
        lx = lap @ x4
        k4x, k4v = -grad(x4) - lx - (v + h * k3v), lx
        x = x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if k % 10 == 0:
            rows += [f"{k * h:.17g},{a + 1},{x[a, 0]:.17g},{v[a, 0]:.17g}" for a in range(N)]
    return float(x.sum()) + len(rows)


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
