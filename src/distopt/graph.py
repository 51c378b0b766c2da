"""Weighted digraphs, Laplacian spectra, and the disagreement basis.

Edge convention: an edge ``(i, j)`` with weight ``a_ij > 0`` means agent j
sends information to agent i, so agent i uses ``x^i - x^j`` in its update.
Node indices are 1-based in files and edge lists, 0-based in matrices.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BALANCE_TOL = 1e-9

# Directed unit edges of the 10-node simulation digraph, as (receiver,
# sender) pairs.  The drawn figure has 14 links, two of them bidirectional,
# which yields the 16 directed edges below; every node then has matching
# in- and out-degree.
FIG2_EDGES = (
    (2, 1), (3, 2), (4, 3), (5, 4), (4, 5), (6, 5), (7, 6), (8, 7),
    (7, 8), (8, 9), (9, 10), (1, 10), (10, 2), (2, 4), (5, 7), (10, 8),
)


@dataclass(frozen=True)
class WeightedDigraph:
    """Immutable weighted digraph on ``n`` nodes.

    ``weights[i, j] = a_ij > 0`` iff node j sends to node i.  The weight
    matrix is made read-only so instances can be shared across runs.
    """

    n: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValidationError(f"weight matrix shape {w.shape} != ({self.n}, {self.n})")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValidationError("weights must be nonnegative and finite")
        if np.diagonal(w).any():
            raise ValidationError("self-loops are not allowed (nonzero diagonal)")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def out_degrees(self) -> np.ndarray:
        """Weighted out-degrees, d_out^i = sum_j a_ij (row sums)."""
        return self.weights.sum(axis=1)

    @property
    def in_degrees(self) -> np.ndarray:
        """Weighted in-degrees, d_in^i = sum_j a_ji (column sums)."""
        return self.weights.sum(axis=0)

    @property
    def is_undirected(self) -> bool:
        return bool(np.array_equal(self.weights, self.weights.T))

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.weights))


@dataclass(frozen=True)
class GraphSpectrum:
    """Eigenvalue summary of a digraph Laplacian.

    ``lambda_hat_2`` and ``lambda_hat_N`` come from the symmetric part of
    the Laplacian; ``lambda_N`` equals ``lambda_hat_N`` for undirected
    graphs and is the largest real part otherwise (not certified);
    ``re_lambda_2`` is the real part of the second Laplacian eigenvalue
    ordered by real part.  ``weight_balanced`` is False when the
    symmetric-part analysis is not certified for this graph.
    """

    lambda_hat_2: float
    lambda_hat_N: float
    lambda_N: float
    re_lambda_2: float
    weight_balanced: bool
    sym_eigenvalues: np.ndarray


@dataclass(frozen=True)
class DisagreementBasis:
    """Orthonormal split of R^n into the consensus line and its complement.

    ``r`` spans the consensus direction; the columns of ``R`` form an
    orthonormal basis of its orthogonal complement, so ``R @ R.T`` is the
    centering projector.
    """

    r: np.ndarray
    R: np.ndarray


def build_digraph(n: int, edges) -> WeightedDigraph:
    """Assemble a digraph from 1-based (receiver, sender, weight) triples.

    Raises ValidationError for self-loops, out-of-range nodes, nonpositive
    weights and repeated pairs.
    """
    if n < 1:
        raise ValidationError(f"need at least one node, got n={n}")
    w = np.zeros((n, n))
    for edge in edges:
        i, j, weight = edge
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValidationError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise ValidationError(f"self-loop at node {i}")
        if not (weight > 0 and math.isfinite(weight)):
            raise ValidationError(f"edge ({i}, {j}) has weight {weight}")
        if w[i - 1, j - 1] != 0.0:
            raise ValidationError(f"edge ({i}, {j}) given twice")
        w[i - 1, j - 1] = weight
    return WeightedDigraph(n, w)


def out_laplacian(g: WeightedDigraph) -> np.ndarray:
    """Out-Laplacian ``diag(d_out) - A``; its rows always sum to zero."""
    return np.diag(g.out_degrees) - g.weights


def is_weight_balanced(g: WeightedDigraph) -> bool:
    """True iff weighted in- and out-degrees agree at every node within BALANCE_TOL."""
    return bool(np.max(np.abs(g.in_degrees - g.out_degrees)) <= BALANCE_TOL)


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """Graph-search test: every node reaches every other along positive edges."""
    return _reaches_all(g.weights) and _reaches_all(g.weights.T)


def _reaches_all(w: np.ndarray) -> bool:
    n = w.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for nb in np.nonzero(w[u])[0]:
            if not seen[nb]:
                seen[nb] = True
                stack.append(int(nb))
    return bool(seen.all())


def spectral_summary(g: WeightedDigraph) -> GraphSpectrum:
    """Eigenvalue summary used by the convergence certificates.

    Eigenvalues of the symmetric part are sorted ascending; values whose
    magnitude is at most 1e-10 are reported as exact zeros.  For graphs
    that are not weight balanced the summary is still computed but flagged.
    """
    lap = out_laplacian(g)
    sym = 0.5 * (lap + lap.T)
    sym_eigs = np.linalg.eigvalsh(sym)
    sym_eigs = np.where(np.abs(sym_eigs) <= 1e-10, 0.0, sym_eigs)
    full = np.linalg.eigvals(lap)
    order = np.lexsort((full.imag, full.real))
    full = full[order]
    undirected = g.is_undirected
    return GraphSpectrum(
        lambda_hat_2=float(sym_eigs[1]) if g.n >= 2 else 0.0,
        lambda_hat_N=float(sym_eigs[-1]),
        lambda_N=float(sym_eigs[-1]) if undirected else float(full[-1].real),
        re_lambda_2=float(full[1].real) if g.n >= 2 else 0.0,
        weight_balanced=is_weight_balanced(g),
        sym_eigenvalues=sym_eigs,
    )


def complement_basis(n: int) -> DisagreementBasis:
    """Deterministic orthonormal basis of the subspace orthogonal to consensus.

    Column k-1 of ``R`` is the normalized vector (1, ..., 1, -(k-1), 0, ..., 0)
    with k-1 leading ones, which is orthogonal to the all-ones direction by
    construction.
    """
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    r = np.full(n, 1.0 / math.sqrt(n))
    R = np.zeros((n, n - 1))
    for k in range(2, n + 1):
        col = np.zeros(n)
        col[: k - 1] = 1.0
        col[k - 1] = -(k - 1.0)
        R[:, k - 2] = col / math.sqrt(k * (k - 1.0))
    return DisagreementBasis(r=r, R=R)


def reduced_laplacian(g: WeightedDigraph) -> np.ndarray:
    """Compress the Laplacian onto the disagreement subspace (R^T L R).

    Raises ValidationError when the smallest eigenvalue of the compressed
    matrix's symmetric part is at most 1e-10, which for undirected graphs
    happens exactly when the graph is disconnected.
    """
    r = complement_basis(g.n).R
    m = r.T @ out_laplacian(g) @ r
    if np.linalg.eigvalsh(0.5 * (m + m.T))[0] <= 1e-10:
        raise ValidationError("reduced Laplacian is singular; graph is not connected")
    return m


def load_graph(path) -> WeightedDigraph:
    """Read the plain-text edge-list format.

    The file starts with a header ``n <count>``; each following non-blank,
    non-comment line is ``i j w`` (receiver, sender, weight, 1-based).
    """
    n = None
    edges = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if n is None:
                if parts[0] != "n" or len(parts) != 2:
                    raise ValidationError(f"{path}:{lineno}: expected header 'n <count>'")
                try:
                    n = int(parts[1])
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: bad node count {parts[1]!r}") from exc
                continue
            if len(parts) != 3:
                raise ValidationError(f"{path}:{lineno}: expected 'i j w'")
            try:
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad edge {line!r}") from exc
    if n is None:
        raise ValidationError(f"{path}: missing 'n <count>' header")
    return build_digraph(n, edges)


def relabel(g: WeightedDigraph, shift: int) -> WeightedDigraph:
    """Cyclically rotate node labels; preserves balance and connectivity."""
    perm = np.roll(np.arange(g.n), shift)
    p = np.eye(g.n)[perm]
    return WeightedDigraph(g.n, p @ g.weights @ p.T)


def preset_graph(name: str) -> WeightedDigraph:
    """Named unit-weight topologies.

    ``fig2``       10-node simulation digraph (16 directed edges)
    ``fig2t``      same digraph with all edges reversed
    ``fig2r<s>``   fig2 with node labels rotated by s
    ``k<N>``       complete graph
    ``path<N>``    undirected path
    ``cycle<N>``   undirected ring
    ``dicycle<N>`` directed ring
    """
    if name == "fig2":
        return build_digraph(10, [(i, j, 1.0) for i, j in FIG2_EDGES])
    if name == "fig2t":
        return build_digraph(10, [(j, i, 1.0) for i, j in FIG2_EDGES])
    m = re.fullmatch(r"fig2r(\d+)", name)
    if m:
        return relabel(preset_graph("fig2"), int(m.group(1)))
    m = re.fullmatch(r"(k|path|cycle|dicycle)(\d+)", name)
    if not m:
        raise ValidationError(f"unknown graph preset {name!r}")
    kind, n = m.group(1), int(m.group(2))
    if n < 2:
        raise ValidationError(f"preset {name!r} needs at least 2 nodes")
    edges = []
    if kind == "k":
        edges = [(i, j, 1.0) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    elif kind == "path":
        for i in range(1, n):
            edges += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
    elif kind == "cycle":
        pairs = {(i, i % n + 1) for i in range(1, n + 1)}
        pairs |= {(j, i) for i, j in pairs}
        edges = [(i, j, 1.0) for i, j in sorted(pairs)]
    elif kind == "dicycle":
        edges = [(i % n + 1, i, 1.0) for i in range(1, n + 1)]
    return build_digraph(n, edges)
