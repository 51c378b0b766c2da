import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import balanced_weights, col, isometry_violation, make_scenario, matrix_F
from distopt.certificates import certify, matrix_E_extreme, matrix_F_extremes
from distopt.costs import CostModel, network_cost, quadratic_cost
from distopt.diagnostics import (
    _reduced_inv_quad,
    AnalysisCoordinates,
    conservation_violation,
    decay_check,
    lasalle_function,
    lyapunov_digraph,
    lyapunov_series,
    lyapunov_undirected,
    reconstruct_gradient,
    to_analysis_coords,
)
from distopt.dynamics import AlgorithmParams, equilibrium, simulate
from distopt.errors import InsufficientVisibility, ValidationError
from distopt.graph import (
    WeightedDigraph,
    build_digraph,
    complement_basis,
    preset_graph,
    reduced_laplacian,
    spectral_summary,
)
from distopt.scenarios import AnalysisOptions
from distopt.schedulers import CentralizedEvent, Periodic


def coords_of(z1, z_rest, w1, w_rest):
    return AnalysisCoordinates(
        z1=np.atleast_1d(np.asarray(z1, float)),
        z_rest=np.atleast_1d(np.asarray(z_rest, float)),
        w1=np.atleast_1d(np.asarray(w1, float)),
        w_rest=np.atleast_1d(np.asarray(w_rest, float)),
    )


class TestCoordinates:
    def test_zero_at_equilibrium(self, quad_pair_nc):
        eq = equilibrium(quad_pair_nc, AlgorithmParams(1.0, 1.0))
        c = to_analysis_coords(eq[0], eq[1], eq, complement_basis(2))
        assert c.p_norm_sq <= 1e-24
        assert np.abs(c.w1).max() <= 1e-12

    def test_two_agent_worked_case(self, quad_pair_nc):
        eq = equilibrium(quad_pair_nc, AlgorithmParams(1.0, 1.0))
        x = eq[0] + np.array([[1.0], [1.0]])
        c = to_analysis_coords(x, eq[1], eq, complement_basis(2))
        assert c.z1[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert abs(c.z_rest[0]) <= 1e-12

    def test_isometry_fuzz(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, 3))
            basis = complement_basis(n)
            x_bar = rng.normal(size=(n, d))
            v_bar = rng.normal(size=(n, d))
            x = rng.normal(size=(n, d))
            v = rng.normal(size=(n, d))
            c = to_analysis_coords(x, v, (x_bar, v_bar), basis)
            z_norm = math.sqrt(float(c.z1 @ c.z1 + c.z_rest @ c.z_rest))
            assert z_norm == pytest.approx(np.linalg.norm(x - x_bar), abs=1e-12)

    def test_w1_constant_along_zero_sum_trace(self, k2, quad_pair, quad_pair_nc):
        trace = simulate(make_scenario(quad_pair, graph=k2, t_final=3.0))
        eq = equilibrium(quad_pair_nc, AlgorithmParams(1.0, 1.0))
        basis = complement_basis(2)
        for k in range(trace.t.size):
            c = to_analysis_coords(trace.x[k], trace.v[k], eq, basis)
            assert np.abs(c.w1).max() <= 1e-9


class TestEnergyFunctions:
    def test_digraph_zero_at_origin(self):
        assert lyapunov_digraph(coords_of(0, 0, 0, 0), 1.0, 9.0) == 0.0

    def test_digraph_worked_value(self):
        # consensus-only deviation z1 = 3: (10/18) * 9 = 5
        val = lyapunov_digraph(coords_of(3.0, 0.0, 0.0, 0.0), 1.0, 9.0)
        assert val == pytest.approx(5.0, abs=1e-12)

    def test_digraph_sandwich(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            alpha, phi = rng.uniform(0.2, 5.0, size=2)
            n = int(rng.integers(2, 6))
            c = coords_of(rng.normal(), rng.normal(size=n - 1), 0.0,
                          rng.normal(size=n - 1))
            lo, hi = matrix_F_extremes(alpha, phi, n)
            val = lyapunov_digraph(c, alpha, phi)
            p_sq = c.p_norm_sq
            assert lo * p_sq - 1e-10 <= val <= hi * p_sq + 1e-10

    def test_digraph_matches_quadratic_form(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            alpha, phi = rng.uniform(0.2, 5.0, size=2)
            n = int(rng.integers(2, 6))
            c = coords_of(rng.normal(), rng.normal(size=n - 1), 0.0,
                          rng.normal(size=n - 1))
            p = np.concatenate([c.z1, c.z_rest, c.w_rest])
            form = float(p @ matrix_F(alpha, phi, n, 1) @ p)
            assert lyapunov_digraph(c, alpha, phi) == pytest.approx(form, rel=1e-10)

    def test_undirected_zero_and_positive(self, k2):
        assert lyapunov_undirected(coords_of(0, 0, 0, 0), 1.0, 1.0, 1.0, k2) == 0.0
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = coords_of(rng.normal(), rng.normal(), 0.0, rng.normal())
            assert lyapunov_undirected(c, 1.0, 2.0, 1.5, k2) >= 0.0

    def test_undirected_w2_only_closed_form(self, k2):
        # reduced Laplacian of K2 is [2]
        alpha, beta, phi = 1.0, 2.0, 3.0
        w2 = 1.7
        val = lyapunov_undirected(coords_of(0, 0, 0, w2), alpha, beta, phi, k2)
        expect = (1 / (2 * alpha)) * w2**2 + (phi + 1) / (4 * beta) * w2**2
        assert val == pytest.approx(expect, abs=1e-12)

    def test_undirected_bounded_by_matrix_extreme(self, k2):
        rng = np.random.default_rng(9)
        alpha, beta, phi = 1.0, 1.0, 1.0
        hi = matrix_E_extreme(alpha, beta, phi, k2)
        for _ in range(500):
            c = coords_of(rng.normal(), rng.normal(), 0.0, rng.normal())
            val = lyapunov_undirected(c, alpha, beta, phi, k2)
            assert val <= hi * c.p_norm_sq + 1e-10

    def test_undirected_needs_phi_at_least_one(self, k2):
        with pytest.raises(ValidationError):
            lyapunov_undirected(coords_of(1, 0, 0, 0), 1.0, 1.0, 0.5, k2)

    def test_lasalle_values(self, k2):
        assert lasalle_function(coords_of(0, 0, 0, 0), 1.0, 1.0, k2) == 0.0
        val = lasalle_function(coords_of(3.0, 4.0, 0.0, 0.0), 1.0, 1.0, k2)
        assert val == pytest.approx(0.5 * 25.0, abs=1e-12)

    def test_disconnected_raises(self):
        g = build_digraph(4, [(1, 2, 1.0), (2, 1, 1.0), (3, 4, 1.0), (4, 3, 1.0)])
        with pytest.raises(ValidationError, match="not connected"):
            lasalle_function(coords_of(1.0, [0, 0, 0], 0.0, [1.0, 0, 0]), 1.0, 1.0, g)

    def test_nonnegative_zero_only_at_origin(self, k2):
        rng = np.random.default_rng(12)
        for _ in range(200):
            c = coords_of(rng.normal(), rng.normal(), 0.0, rng.normal())
            if c.p_norm_sq < 1e-12:
                continue
            assert lyapunov_digraph(c, 1.0, 2.0) > 0
            assert lyapunov_undirected(c, 1.0, 1.0, 1.0, k2) > 0
            assert lasalle_function(c, 1.0, 1.0, k2) > 0


class TestDecayCheck:
    def test_certified_digraph_run_passes(self, k2, quad_pair, quad_pair_nc):
        sc = make_scenario(quad_pair, graph=k2, beta=3.0, t_final=8.0,
                           x0=np.array([[3.0], [-2.0]]))
        trace = simulate(sc)
        report = decay_check(trace, "digraph", min(7.0 / 16.0, 90.0 / 9.0),
                             g=k2, nc=quad_pair_nc, alpha=1.0, phi=9.0)
        assert report.passed
        assert report.fraction_ok == 1.0
        assert report.worst_margin <= 0.0

    def test_equilibrium_trace_within_slack(self, k2, quad_pair, quad_pair_nc):
        eq = equilibrium(quad_pair_nc, AlgorithmParams(1.0, 3.0))
        sc = make_scenario(quad_pair, graph=k2, beta=3.0, t_final=1.0,
                           x0=eq[0], v0=eq[1])
        trace = simulate(sc)
        report = decay_check(trace, "digraph", 0.4375, g=k2, nc=quad_pair_nc,
                             alpha=1.0, phi=9.0)
        assert report.passed  # dV/dt ~ 0 and p ~ 0 sit inside the slack

    def test_sparse_trace_rejected(self, k2, quad_pair, quad_pair_nc):
        sc = make_scenario(quad_pair, graph=k2, t_final=2.0, stride=20)
        trace = simulate(sc)
        with pytest.raises(ValidationError, match="exceeds 10 h"):
            decay_check(trace, "digraph", 0.4, g=k2, nc=quad_pair_nc,
                        alpha=1.0, phi=9.0)

    def test_lasalle_monotone_on_convex_run(self, k2):
        quartic = CostModel(dim=1, value=lambda x: float(x[0] ** 4),
                            gradient=lambda x: 4.0 * x**3, name="x4",
                            scalar_gradient=lambda x: 4 * x**3)
        shifted = CostModel(dim=1, value=lambda x: float((x[0] - 1) ** 4),
                            gradient=lambda x: 4.0 * (x - 1) ** 3, name="(x-1)^4",
                            scalar_gradient=lambda x: 4 * (x - 1) ** 3)
        nc = network_cost([quartic, shifted])
        sc = make_scenario([quartic, shifted], graph=k2, t_final=10.0,
                           x0=np.array([[2.0], [-1.0]]))
        trace = simulate(sc)
        V, _ = lyapunov_series(trace, "lasalle", g=k2, nc=nc, alpha=1.0, beta=1.0)
        assert (np.diff(V) <= 1e-10).all()


class TestReconstruction:
    def test_two_agent_quadratic_target(self, k2, quad_pair):
        sc = make_scenario(quad_pair, graph=k2, t_final=10.0, stride=1,
                           x0=np.array([[3.0], [-4.0]]))
        trace = simulate(sc)
        rec = reconstruct_gradient(0, 1, trace, k2, v_target_0=np.zeros(1))
        window = rec.times >= 1.0
        truth = 2.0 * (rec.x_target[window, 0] + 2.0)  # analytic d/dx (x+2)^2
        err = np.abs(rec.estimates[window, 0] - truth)
        assert err.max() <= 1e-3
        assert not rec.assumed_zero_v0

    def test_visibility_precondition(self, ten_suite):
        g = preset_graph("path3")
        sc = make_scenario(ten_suite[:3], graph=g, t_final=0.5, stride=1)
        trace = simulate(sc)
        # agent 0 does not receive from agent 2, one of agent 1's sources
        with pytest.raises(InsufficientVisibility):
            reconstruct_gradient(0, 1, trace, g, v_target_0=np.zeros(1))

    def test_not_receiving_target_raises(self):
        g = build_digraph(3, [(2, 1, 1.0), (3, 2, 1.0), (1, 3, 1.0)])
        sc = make_scenario([preset for preset in
                            (CostModel(1, lambda x: float(x[0] ** 2), lambda x: 2 * x),) * 3],
                           graph=g, t_final=0.2, stride=1)
        trace = simulate(sc)
        with pytest.raises(InsufficientVisibility):
            reconstruct_gradient(0, 1, trace, g, v_target_0=np.zeros(1))

    def test_wrong_v0_biases_by_constant(self, k2, quad_pair):
        alpha = 2.0
        sc = make_scenario(quad_pair, graph=k2, alpha=alpha, t_final=4.0, stride=1,
                           x0=np.array([[3.0], [-4.0]]))
        trace = simulate(sc)
        good = reconstruct_gradient(0, 1, trace, k2, v_target_0=np.zeros(1))
        c = 0.37
        bad = reconstruct_gradient(0, 1, trace, k2, v_target_0=np.array([c]))
        bias = bad.estimates - good.estimates
        assert np.abs(bias + c / alpha).max() <= 1e-12

    def test_missing_v0_flagged(self, k2, quad_pair):
        trace = simulate(make_scenario(quad_pair, graph=k2, t_final=1.0, stride=1))
        rec = reconstruct_gradient(0, 1, trace, k2, v_target_0=None)
        assert rec.assumed_zero_v0


class TestHelpers:
    def test_conservation_violation(self, k2, quad_pair):
        trace = simulate(make_scenario(quad_pair, graph=k2, t_final=2.0))
        assert conservation_violation(trace) <= 1e-9

    def test_isometry_violation(self, k2, quad_pair, quad_pair_nc):
        trace = simulate(make_scenario(quad_pair, graph=k2, t_final=2.0))
        assert isometry_violation(trace, quad_pair_nc, 1.0, 1.0) <= 1e-10


class TestWholeTrace:
    """The whole-trace evaluations agree with evaluating one state at a time."""

    @pytest.fixture
    def ring_run(self):
        costs = [quadratic_cost([2.0 * (i - 5)]) for i in range(1, 11)]
        g = preset_graph("cycle10")
        trace = simulate(make_scenario(costs, graph=g, t_final=2.0, stride=1, seed=3))
        return trace, g, network_cost(costs)

    @staticmethod
    def check_series_per_sample(run, which, phi):
        trace, g, nc = run
        V, p_sq = lyapunov_series(trace, which, g=g, nc=nc, alpha=1.0, phi=phi)
        eq = equilibrium(nc, AlgorithmParams(1.0, 1.0))
        basis = complement_basis(trace.n_agents)
        energy = {"digraph": lambda c: lyapunov_digraph(c, 1.0, phi),
                  "undirected": lambda c: lyapunov_undirected(c, 1.0, 1.0, phi, g),
                  "lasalle": lambda c: lasalle_function(c, 1.0, 1.0, g)}[which]
        coords = [to_analysis_coords(trace.x[k], trace.v[k], eq, basis)
                  for k in range(trace.t.size)]
        assert all(isinstance(energy(c), float) for c in coords[:2])
        assert V.shape == p_sq.shape == trace.t.shape
        assert np.allclose(V, [energy(c) for c in coords], rtol=1e-12, atol=0.0)
        assert np.allclose(p_sq, [c.p_norm_sq for c in coords], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("which, phi", [("digraph", 9.0), ("undirected", 2.0),
                                            ("lasalle", None)])
    def test_lyapunov_series_matches_per_sample(self, ring_run, which, phi):
        self.check_series_per_sample(ring_run, which, phi)

    @pytest.fixture
    def plane_run(self):
        # d = 2: the stack's coordinates go through the agent-axis product and back
        costs = [quadratic_cost([1.0 - i, 0.5 * i]) for i in range(4)]
        g = build_digraph(4, [(1, 2, 1.0), (2, 1, 1.0), (2, 3, 2.0), (3, 2, 2.0), (3, 4, 0.5),
                              (4, 3, 0.5), (4, 1, 1.5), (1, 4, 1.5)])
        trace = simulate(make_scenario(costs, graph=g, t_final=1.0, stride=1, seed=5))
        return trace, g, network_cost(costs)

    @pytest.mark.parametrize("which, phi", [("digraph", 9.0), ("undirected", 2.0),
                                            ("lasalle", None)])
    def test_lyapunov_series_matches_per_sample_in_the_plane(self, plane_run, which, phi):
        assert plane_run[0].x.shape[2] == 2
        self.check_series_per_sample(plane_run, which, phi)

    def test_stack_coords_match_per_state_in_the_plane(self, plane_run):
        # z_rest and w_rest keep the agent index slow: entry 2 i + c is coordinate c of row i
        trace, g, nc = plane_run
        eq = equilibrium(nc, AlgorithmParams(1.0, 1.0))
        basis = complement_basis(4)
        stack = to_analysis_coords(trace.x, trace.v, eq, basis)
        assert stack.z_rest.shape == stack.w_rest.shape == (trace.t.size, 6)
        assert stack.z1.shape == stack.w1.shape == (trace.t.size, 2)
        np.testing.assert_allclose(stack.z1, np.einsum("i,kic->kc", basis.r, trace.x - eq[0]),
                                   rtol=1e-12, atol=1e-14 * float(np.abs(trace.x - eq[0]).max()))
        scale = max(float(np.abs(trace.x - eq[0]).max()), float(np.abs(trace.v - eq[1]).max()))
        for k in range(trace.t.size):
            one = to_analysis_coords(trace.x[k], trace.v[k], eq, basis)
            for name in ("z1", "z_rest", "w1", "w_rest"):
                np.testing.assert_allclose(getattr(stack, name)[k], getattr(one, name),
                                           rtol=1e-12, atol=1e-14 * scale, err_msg=name)

    @pytest.mark.parametrize("d", [1, 2])
    def test_reduced_inv_quad_of_a_stack_matches_per_sample_solve(self, d):
        # the stack goes through one inverse; each sample here through its own solve
        g = build_digraph(4, [(1, 2, 1.0), (2, 3, 2.0), (3, 4, 0.5), (4, 1, 1.5), (2, 1, 1.0),
                              (3, 2, 2.0), (4, 3, 0.5), (1, 4, 1.5)])
        w2 = np.random.default_rng(d).normal(size=(40, 3 * d))
        red = reduced_laplacian(g)
        want = [float(np.sum(w.reshape(3, d) * np.linalg.solve(red, w.reshape(3, d)))) for w in w2]
        got = _reduced_inv_quad(g, w2)
        assert got.shape == (40,)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert float(_reduced_inv_quad(g, w2[7])) == pytest.approx(want[7], rel=1e-13)

    def test_isometry_violation_matches_per_sample(self, ring_run):
        # both sides are rounding gaps, quantized to ulps of ||x - x_bar||
        trace, g, nc = ring_run
        eq = equilibrium(nc, AlgorithmParams(1.0, 1.0))
        basis = complement_basis(10)
        worst = 0.0
        for k in range(trace.t.size):
            c = to_analysis_coords(trace.x[k], trace.v[k], eq, basis)
            z_norm = math.sqrt(float(c.z1 @ c.z1 + c.z_rest @ c.z_rest))
            worst = max(worst, abs(z_norm - float(np.linalg.norm(trace.x[k] - eq[0]))))
        assert isometry_violation(trace, nc, 1.0, 1.0) == pytest.approx(worst, rel=1e-12)


@st.composite
def certified_decay_cases(draw):
    """Unit-curvature quadratics on a random weight-balanced, strongly
    connected digraph (made undirected, W + W', for the sampled schemes,
    whose rates are certified on undirected graphs only), with a coupling
    drawn as a multiple of the algebraic connectivity and random analysis
    eps and delta."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["continuous", "periodic", "centralized_event"]))
    weights = draw(balanced_weights(n))
    g = WeightedDigraph(n, weights if kind == "continuous" else weights + weights.T)
    beta = draw(st.floats(0.2, 15.0)) / spectral_summary(g).lambda_hat_2
    a = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    x0 = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    analysis = AnalysisOptions(eps=draw(st.floats(0.1, 0.9)), delta=draw(st.floats(0.5, 5.0)))
    return kind, g, beta, a, x0, analysis


class TestCertifiedDecayProperty:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(certified_decay_cases())
    def test_feasible_scheme_decays_at_its_certified_rate(self, case):
        # whenever certify calls a scheme feasible, its energy decays along
        # the simulated trace at the certified rate: the digraph energy at
        # the margin min(7/16, gamma/9) for continuous information, the
        # undirected energy at rate_periodic / rate_centralized for Delta =
        # 0.9 tau and for (kappa, tau)
        kind, g, beta, a, x0, analysis = case
        sc = make_scenario([quadratic_cost([ai]) for ai in a], graph=g, beta=beta,
                           x0=col(x0), analysis=analysis)
        report = certify(sc)
        assume(report.feasible["digraph_rate" if kind == "continuous" else kind])
        if kind == "continuous":
            which, bound, phi = "digraph", min(7.0 / 16.0, report.gamma / 9.0), report.phi
            h, scheme = 1e-3, sc.scheme
        else:
            # the undirected energy is defined for phi >= 1 only
            assume(report.phi_step >= 1.0)
            which, phi = "undirected", report.phi_step
            if kind == "periodic":
                scheme, bound = Periodic(delta=report.suggested_delta_comm), report.rate_periodic
                h = min(1e-3, scheme.delta / math.ceil(scheme.delta / 1e-3))  # delta on the grid
            else:
                scheme = CentralizedEvent(kappa=report.kappa, tau=report.tau)
                h, bound = 1e-3, report.rate_centralized
        # keep RK4 inside its stability region at this coupling
        assume(beta * spectral_summary(g).lambda_N * h <= 1.0)
        trace = simulate(dataclasses.replace(sc, scheme=scheme, h=h, t_final=2000 * h, stride=1))
        result = decay_check(trace, which, bound, g=g, nc=sc.network, alpha=1.0, phi=phi)
        assert result.passed, result
