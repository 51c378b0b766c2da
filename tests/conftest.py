import numpy as np
import pytest
from hypothesis import strategies as st

from distopt.costs import catalog, network_cost
from distopt.diagnostics import to_analysis_coords
from distopt.dynamics import AlgorithmParams, equilibrium, flow_matrix
from distopt.graph import complement_basis, out_laplacian, preset_graph
from distopt.scenarios import AnalysisOptions, Scenario
from distopt.schedulers import Continuous


@pytest.fixture
def k2():
    return preset_graph("k2")


@pytest.fixture
def quad_pair():
    # (x - 4)^2 and (x + 2)^2: optimum of the sum at x = 1
    return (catalog("f2"), catalog("f10"))


@pytest.fixture
def quad_pair_nc(quad_pair):
    return network_cost(quad_pair)


@pytest.fixture
def ten_suite():
    return tuple(catalog(f"f{i}") for i in range(1, 11))


def col(values):
    """A column of agent states, shape (N, 1)."""
    return np.asarray(values, dtype=float).reshape(-1, 1)


def make_scenario(costs, graph=None, schedule=None, scheme=None, alpha=1.0, beta=1.0,
                  t_final=10.0, h=1e-3, stride=10, seed=1, x0=None, v0=None,
                  analysis=None, name="test"):
    n = len(costs)
    d = costs[0].dim
    if x0 is None:
        x0 = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(n, d))
    if v0 is None:
        v0 = np.zeros((n, d))
    return Scenario(
        name=name,
        costs=tuple(costs),
        alpha=alpha,
        beta=beta,
        scheme=scheme if scheme is not None else Continuous(),
        t_final=t_final,
        h=h,
        stride=stride,
        seed=seed,
        x0=np.asarray(x0, dtype=float).reshape(n, d),
        v0=np.asarray(v0, dtype=float).reshape(n, d),
        graph=graph,
        schedule=schedule,
        analysis=analysis if analysis is not None else AnalysisOptions(),
    )


@st.composite
def balanced_weights(draw, n):
    """Weight matrix of a weight-balanced, strongly connected digraph on
    ``n`` nodes: a Hamiltonian cycle plus up to three more weighted
    directed cycles."""
    cycles = [draw(st.permutations(range(n)))]
    cycles += draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True),
                            max_size=3))
    weights = np.zeros((n, n))
    for cycle in cycles:
        w = draw(st.floats(0.1, 5.0))
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            weights[i, j] += w
    return weights


def edge_list(g) -> list[tuple[int, int, float]]:
    """1-based (receiver, sender, weight) triples in row-major order."""
    ii, jj = np.nonzero(g.weights)
    return [(int(i) + 1, int(j) + 1, float(g.weights[i, j])) for i, j in zip(ii, jj)]


def dump_graph(g, path) -> None:
    """Write the edge-list format read back by ``distopt.graph.load_graph``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {g.n}\n")
        for i, j, w in edge_list(g):
            fh.write(f"{i} {j} {w:.17g}\n")


def matrix_F(alpha: float, phi: float, N: int, d: int = 1) -> np.ndarray:
    """Dense energy-coefficient matrix F, the cross-check of
    ``distopt.certificates.matrix_F_extremes``."""
    nd = (N - 1) * d
    top = 0.5 * (1.0 / 9.0) * alpha * (phi + 1) * np.eye(d)
    mid = 0.5 * np.block([
        [alpha * (phi + 1) * np.eye(nd), np.eye(nd)],
        [np.eye(nd), (1.0 / alpha) * np.eye(nd)],
    ])
    out = np.zeros((d + 2 * nd, d + 2 * nd))
    out[:d, :d] = top
    out[d:, d:] = mid
    return out


def linear_system_matrix(g, p: AlgorithmParams, d: int = 1) -> np.ndarray:
    """Closed-loop matrix on (x, v) for unit-curvature quadratic costs.

    Its spectrum is {-alpha with multiplicity N d} plus {-beta lambda_i}
    over the Laplacian eigenvalues, each with multiplicity d.
    """
    nd = g.n * d
    sys = np.kron(flow_matrix(out_laplacian(g), p), np.eye(d))
    sys[:nd, :nd] -= p.alpha * np.eye(nd)
    return sys


def isometry_violation(trace, nc, alpha: float, beta: float) -> float:
    """Worst gap between ||z|| and ||x - x_bar|| along the trace."""
    eq = equilibrium(nc, AlgorithmParams(alpha, beta))
    coords = to_analysis_coords(trace.x, trace.v, eq, complement_basis(trace.n_agents))
    z_norm = np.sqrt((coords.z1**2).sum(axis=-1) + (coords.z_rest**2).sum(axis=-1))
    y_norm = np.linalg.norm((trace.x - eq[0]).reshape(trace.t.size, -1), axis=1)
    return float(np.abs(z_norm - y_norm).max(initial=0.0))
