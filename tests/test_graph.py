import math

import numpy as np
import pytest

from conftest import dump_graph, edge_list
from distopt.errors import ValidationError
from distopt.graph import (
    build_digraph,
    complement_basis,
    is_strongly_connected,
    is_weight_balanced,
    load_graph,
    out_laplacian,
    preset_graph,
    reduced_laplacian,
    relabel,
    spectral_summary,
)


def random_digraph(rng, n=None, p=0.4, balanced=False):
    n = n or rng.integers(2, 9)
    if balanced:
        # superpose directed cycles over random node permutations
        w = np.zeros((n, n))
        for _ in range(rng.integers(1, 4)):
            perm = rng.permutation(n)
            weight = rng.uniform(0.1, 2.0)
            for a, b in zip(perm, np.roll(perm, 1)):
                if a != b:
                    w[a, b] += weight
        return build_digraph(n, [(i + 1, j + 1, w[i, j]) for i in range(n)
                                 for j in range(n) if w[i, j] > 0])
    edges = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.random() < p:
                edges.append((i, j, float(rng.uniform(0.1, 2.0))))
    if not edges:
        edges = [(1, 2, 1.0)]
    return build_digraph(n, edges)


class TestBuild:
    def test_two_node_undirected_unit(self):
        g = build_digraph(2, [(1, 2, 1.0), (2, 1, 1.0)])
        assert np.array_equal(g.weights, [[0.0, 1.0], [1.0, 0.0]])
        assert g.is_undirected

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop at node 2"):
            build_digraph(3, [(1, 2, 1.0), (2, 2, 1.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            build_digraph(2, [(1, 3, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError, match="has weight 0.0"):
            build_digraph(2, [(1, 2, 0.0)])
        with pytest.raises(ValidationError, match="has weight -0.5"):
            build_digraph(2, [(1, 2, -0.5)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError, match="given twice"):
            build_digraph(2, [(1, 2, 1.0), (1, 2, 2.0)])

    def test_fig2_is_valid_balanced_strongly_connected(self):
        g = preset_graph("fig2")
        assert g.n == 10
        # the drawn figure has 14 links; the two bidirectional ones expand
        # to 16 directed edges, which is what balance requires
        assert g.n_edges == 16
        assert is_weight_balanced(g)
        assert is_strongly_connected(g)

    def test_weights_are_read_only(self):
        g = preset_graph("fig2")
        with pytest.raises(ValueError):
            g.weights[0, 0] = 1.0


class TestLaplacian:
    def test_two_node_unit(self):
        g = build_digraph(2, [(1, 2, 1.0), (2, 1, 1.0)])
        assert np.array_equal(out_laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_directed_three_cycle(self):
        # 1 sends to 2, 2 to 3, 3 to 1: receiver rows hold the -a_ij entries
        g = build_digraph(3, [(2, 1, 1.0), (3, 2, 1.0), (1, 3, 1.0)])
        expected = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(out_laplacian(g), expected)

    def test_row_sums_vanish_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_digraph(rng)
            assert np.abs(out_laplacian(g).sum(axis=1)).max() <= 1e-14


class TestBalanceAndConnectivity:
    def test_directed_cycle_balanced(self):
        assert is_weight_balanced(preset_graph("dicycle3"))

    def test_single_edge_unbalanced(self):
        g = build_digraph(2, [(1, 2, 1.0)])
        assert not is_weight_balanced(g)

    def test_balance_iff_zero_column_sums_of_laplacian(self):
        rng = np.random.default_rng(11)
        for k in range(1000):
            g = random_digraph(rng, balanced=bool(k % 2))
            lap = out_laplacian(g)
            via_columns = np.abs(lap.sum(axis=0)).max() <= 1e-9
            assert is_weight_balanced(g) == via_columns

    def test_strong_connectivity_cases(self):
        assert is_strongly_connected(preset_graph("dicycle3"))
        two = build_digraph(2, [(1, 2, 1.0)])
        assert not is_strongly_connected(two)
        directed_path = build_digraph(3, [(2, 1, 1.0), (3, 2, 1.0)])
        assert not is_strongly_connected(directed_path)


class TestSpectrum:
    def test_two_node_unit(self):
        # eigenvalues of [[1,-1],[-1,1]] are {0, 2} in closed form
        s = spectral_summary(build_digraph(2, [(1, 2, 1.0), (2, 1, 1.0)]))
        assert s.lambda_hat_2 == pytest.approx(2.0, abs=1e-12)
        assert s.lambda_N == pytest.approx(2.0, abs=1e-12)

    def test_path3(self):
        # path Laplacian eigenvalues are 2 - 2 cos(k pi / 3): {0, 1, 3}
        s = spectral_summary(preset_graph("path3"))
        assert s.lambda_hat_2 == pytest.approx(1.0, abs=1e-12)
        assert s.lambda_N == pytest.approx(3.0, abs=1e-12)
        assert s.re_lambda_2 == pytest.approx(1.0, abs=1e-12)

    def test_directed_three_cycle_sym_part(self):
        # sym part is circulant: eigenvalues 1 - cos(2 pi k / 3) = {0, 1.5, 1.5}
        s = spectral_summary(preset_graph("dicycle3"))
        assert np.allclose(s.sym_eigenvalues, [0.0, 1.5, 1.5], atol=1e-12)
        assert s.weight_balanced

    def test_unbalanced_graph_is_flagged(self):
        s = spectral_summary(build_digraph(2, [(1, 2, 1.0)]))
        assert not s.weight_balanced

    def test_connected_positive_disconnected_zero(self):
        rng = np.random.default_rng(3)
        for n in (3, 5, 8):
            s = spectral_summary(preset_graph(f"cycle{n}"))
            assert s.lambda_hat_2 > 0
        # two disjoint undirected edges
        g = build_digraph(4, [(1, 2, 1.0), (2, 1, 1.0), (3, 4, 1.0), (4, 3, 1.0)])
        s = spectral_summary(g)
        assert abs(s.sym_eigenvalues[1]) <= 1e-10
        del rng


class TestBasis:
    def test_two_node_closed_form(self):
        b = complement_basis(2)
        assert np.allclose(b.r, np.full(2, 1 / math.sqrt(2)), atol=1e-15)
        assert np.allclose(np.abs(b.R[:, 0]), np.full(2, 1 / math.sqrt(2)), atol=1e-15)
        assert b.R[0, 0] * b.R[1, 0] < 0  # opposite signs

    def test_orthonormal_and_projector(self):
        for n in (2, 3, 7, 40):
            b = complement_basis(n)
            assert np.abs(b.r @ b.R).max() <= 1e-12
            assert np.abs(b.R.T @ b.R - np.eye(n - 1)).max() <= 1e-12
            projector = np.eye(n) - np.ones((n, n)) / n  # centering
            assert np.abs(b.R @ b.R.T - projector).max() <= 1e-12

    def test_too_small(self):
        with pytest.raises(ValidationError, match="need n >= 2"):
            complement_basis(1)

    def test_basis_invariance_of_disagreement_norm(self):
        rng = np.random.default_rng(5)
        n = 6
        b1 = complement_basis(n)
        # second valid basis: rotate the columns by a random orthogonal map
        q, _ = np.linalg.qr(rng.normal(size=(n - 1, n - 1)))
        R2 = b1.R @ q
        for _ in range(100):
            y = rng.normal(size=n)
            assert np.linalg.norm(b1.R.T @ y) == pytest.approx(
                np.linalg.norm(R2.T @ y), abs=1e-12)

    def test_deterministic(self):
        assert np.array_equal(complement_basis(9).R, complement_basis(9).R)


class TestFileFormatAndPresets:
    def test_round_trip(self, tmp_path):
        g = preset_graph("fig2")
        path = tmp_path / "g.txt"
        dump_graph(g, path)
        g2 = load_graph(path)
        assert g2.n == g.n
        assert np.array_equal(g2.weights, g.weights)

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1 1.0\n")
        with pytest.raises(ValidationError, match="bad.txt:1: expected header 'n <count>'"):
            load_graph(bad)
        bad.write_text("n 2\n1 2\n")
        with pytest.raises(ValidationError, match="bad.txt:2: expected 'i j w'"):
            load_graph(bad)
        bad.write_text("# only a comment\n")
        with pytest.raises(ValidationError, match="bad.txt: missing 'n <count>' header"):
            load_graph(bad)

    def test_parametric_presets(self):
        assert preset_graph("k5").n_edges == 20
        assert preset_graph("path4").n_edges == 6
        assert preset_graph("cycle6").n_edges == 12
        assert preset_graph("dicycle6").n_edges == 6
        assert preset_graph("cycle2").n_edges == 2
        with pytest.raises(ValidationError, match="unknown graph preset 'torus3'"):
            preset_graph("torus3")

    def test_fig2_variants(self):
        t = preset_graph("fig2t")
        assert np.array_equal(t.weights, preset_graph("fig2").weights.T)
        r = preset_graph("fig2r3")
        assert is_weight_balanced(r) and is_strongly_connected(r)
        s0 = spectral_summary(preset_graph("fig2"))
        s3 = spectral_summary(r)
        assert s3.lambda_hat_2 == pytest.approx(s0.lambda_hat_2, abs=1e-12)

    def test_relabel_preserves_structure(self):
        g = relabel(preset_graph("fig2"), 4)
        assert is_weight_balanced(g) and is_strongly_connected(g)
        assert sorted(w for _, _, w in edge_list(g)) == [1.0] * 16


class TestReducedLaplacian:
    def test_disconnected_raises(self):
        g = build_digraph(4, [(1, 2, 1.0), (2, 1, 1.0), (3, 4, 1.0), (4, 3, 1.0)])
        with pytest.raises(ValidationError, match="not connected"):
            reduced_laplacian(g)

    def test_k2_value(self, k2):
        assert reduced_laplacian(k2) == pytest.approx(np.array([[2.0]]), abs=1e-12)
