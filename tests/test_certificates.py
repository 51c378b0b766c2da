import dataclasses
import math

import numpy as np
import pytest

from conftest import make_scenario, matrix_F
from distopt.certificates import (
    ConvexityBounds,
    _tau_i_and_theta,
    certify,
    gamma,
    gamma_prime,
    kappa,
    matrix_E,
    matrix_E_extreme,
    matrix_F_extremes,
    maximize_tau,
    phi_from_delta,
    rate_digraph,
    rate_quadratic,
    suggest_beta,
    tau_period,
)
from distopt.costs import catalog, network_cost, quadratic_cost
from distopt.dynamics import SwitchingSchedule
from distopt.errors import Infeasible, ValidationError
from distopt.graph import build_digraph, complement_basis, preset_graph
from distopt.scenarios import AnalysisOptions, jsonable
from distopt.schedulers import DistributedEvent

B22 = ConvexityBounds(2.0, 2.0)


class TestGamma:
    def test_worked_example(self):
        # 1*10*2 + 9*3*2*9*1 - 4*(4 + 100) = 20 + 486 - 416
        assert gamma(1.0, 3.0, 9.0, B22, 2.0) == pytest.approx(90.0, abs=1e-12)

    def test_vanishing_coupling_is_negative(self):
        assert gamma(1.0, 1e-12, 9.0, B22, 2.0) == pytest.approx(-396.0, abs=1e-6)

    def test_identity_with_distributed_margin(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b, phi, lh2 = rng.uniform(0.1, 5.0, size=4)
            m = rng.uniform(0.1, 3.0)
            bounds = ConvexityBounds(m, m + rng.uniform(0.0, 3.0))
            g = gamma(a, b, phi, bounds, lh2)
            gp = gamma_prime(a, b, phi, bounds, lh2)
            assert gp == pytest.approx(g - 4.5 * b * lh2 * phi * a, abs=1e-9 * max(1, abs(g)))

    def test_gamma_prime_worked_examples(self):
        assert gamma_prime(1.0, 3.0, 9.0, B22, 2.0) == pytest.approx(-153.0, abs=1e-12)
        assert gamma_prime(1.0, 6.0, 9.0, B22, 2.0) == pytest.approx(90.0, abs=1e-12)


class TestSuggestBeta:
    def test_worked_example(self):
        assert suggest_beta(1.0, 9.0, 2.0) == pytest.approx(400.0 / 162.0, abs=1e-12)

    def test_bound_is_sufficient(self):
        val = suggest_beta(1.0, 9.0, 2.0)
        assert gamma(1.0, val + 1e-6, 9.0, B22, 2.0) > 0

    def test_linear_in_alpha(self):
        assert suggest_beta(3.0, 9.0, 2.0) == pytest.approx(3 * suggest_beta(1.0, 9.0, 2.0))

    def test_sufficiency_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a, lh2 = rng.uniform(0.1, 5.0, size=2)
            m = rng.uniform(0.1, 3.0)
            M = m + rng.uniform(0.0, 3.0)
            phi = 4 * M + rng.uniform(0.1, 5.0)  # keep phi + 1 > 4M
            bounds = ConvexityBounds(m, M)
            b = suggest_beta(a, phi, lh2) * (1 + 1e-9)
            assert gamma(a, b, phi, bounds, lh2) > 0


class TestPhiFromDelta:
    def test_worked_example(self):
        assert phi_from_delta(1.0, 1.0, B22) == pytest.approx(0.25, abs=1e-12)

    def test_boundary(self):
        # M^2 = 2m makes phi -> 0 as delta -> 0
        bounds = ConvexityBounds(2.0, 2.0)
        assert phi_from_delta(1.0, 1e-12, bounds) == pytest.approx(0.0, abs=1e-11)

    def test_linear_in_delta(self):
        lo = phi_from_delta(1.0, 1.0, B22)
        hi = phi_from_delta(1.0, 2.0, B22)
        assert hi - lo == pytest.approx(1.0 / (2 * 2.0), abs=1e-12)


class TestTauPeriod:
    def test_worked_example(self):
        zeta, tau = tau_period(1.0, 1.0, 0.5, 1.0, B22, 2.0, 2.0)
        # independent recomputation: phi = 1/4, zeta^2 = 1/13.5,
        # tau = ln(1 + 3 zeta / (3 + 2 sqrt2 (1+zeta))) / 3
        zeta_ref = math.sqrt(1.0 / 13.5)
        tau_ref = math.log(1 + 3 * zeta_ref / (3 + 2 * math.sqrt(2) * (1 + zeta_ref))) / 3
        assert zeta == pytest.approx(zeta_ref, abs=1e-15)
        assert tau == pytest.approx(tau_ref, abs=1e-15)
        assert zeta == pytest.approx(0.2721655, abs=1e-6)
        assert tau == pytest.approx(0.0388889, abs=1e-6)

    def test_tau_vanishes_with_zeta(self):
        # eps -> 0 drives zeta and tau to zero
        zeta, tau = tau_period(1.0, 1.0, 1e-12, 1.0, B22, 2.0, 2.0)
        assert zeta <= 1e-5 and 0 < tau <= 1e-5

    def test_monotone_in_eps_below_half(self):
        taus = [tau_period(1.0, 1.0, e, 1.0, B22, 2.0, 2.0)[1]
                for e in np.linspace(0.05, 0.5, 10)]
        assert all(t2 > t1 for t1, t2 in zip(taus, taus[1:]))

    def test_infeasible_phi_raises(self):
        # m = M = 1, alpha = 1, delta = 0.5 gives phi = -1/4
        with pytest.raises(Infeasible):
            tau_period(1.0, 1.0, 0.5, 0.5, ConvexityBounds(1.0, 1.0), 0.4, 4.0)

    def test_eps_range_validated(self):
        with pytest.raises(ValidationError):
            tau_period(1.0, 1.0, 1.5, 1.0, B22, 2.0, 2.0)


class TestKappa:
    def test_worked_example(self):
        # numerator 2*(0.5*1*2 + 2*0.25*4*0.25*0.5) = 2.5, denominator 7.25
        val = kappa(1.0, 1.0, 0.5, 1.0, 0.25, 2.0, 2.0)
        assert val == pytest.approx(2.5 / 7.25, abs=1e-12)

    def test_vanishes_with_eps(self):
        assert kappa(1.0, 1.0, 1e-9, 1.0, 0.25, 2.0, 2.0) <= 1e-8

    def test_below_one_fuzz(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(0.1, 5.0)
            eps = rng.uniform(1e-3, 1 - 1e-3)
            delta = rng.uniform(1e-3, 10.0)
            m = rng.uniform(0.1, 3.0)
            M = m + rng.uniform(0.0, 3.0)
            bounds = ConvexityBounds(m, M)
            phi = phi_from_delta(a, delta, bounds)
            if phi <= 0:
                continue
            l2 = rng.uniform(0.05, 5.0)
            lN = l2 + rng.uniform(0.0, 5.0)
            assert kappa(a, b, eps, delta, phi, l2, lN) < 1.0

    def test_value_above_one_raises(self):
        # evaluates to 100.005 / 2.0502 = 48.8; a ValidationError, not an
        # assert, so the check also holds under python -O
        with pytest.raises(ValidationError, match="kappa"):
            kappa(1, 1, 0.5, 100, 0.01, 1, 1)


class TestMatrixF:
    def test_worked_example_against_dense_solver(self):
        lo, hi = matrix_F_extremes(1.0, 9.0, 2)
        dense = np.linalg.eigvalsh(matrix_F(1.0, 9.0, 2, 1))
        assert lo == pytest.approx(dense[0], abs=1e-12)
        assert hi == pytest.approx(dense[-1], abs=1e-12)
        # closed forms: (11 - sqrt(85))/4 and (11 + sqrt(85))/4
        assert lo == pytest.approx((11 - math.sqrt(85)) / 4, abs=1e-12)
        assert hi == pytest.approx((11 + math.sqrt(85)) / 4, abs=1e-12)

    def test_first_block_value(self):
        lo, hi = matrix_F_extremes(2.0, 8.0, 3)
        dense = np.linalg.eigvalsh(matrix_F(2.0, 8.0, 3, 1))
        assert dense[0] == pytest.approx(lo, abs=1e-12)
        assert np.isclose(dense, 2.0 * 9.0 / 18.0, atol=1e-12).any()

    def test_positive_definite_fuzz(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, phi = rng.uniform(0.05, 10.0, size=2)
            n = int(rng.integers(2, 7))
            lo, hi = matrix_F_extremes(a, phi, n)
            dense = np.linalg.eigvalsh(matrix_F(a, phi, n, 1))
            assert lo > 0
            assert lo == pytest.approx(dense[0], abs=1e-10)
            assert hi == pytest.approx(dense[-1], abs=1e-10)


class TestMatrixE:
    def test_k2_against_hand_assembly(self, k2):
        alpha, beta, phi = 1.0, 1.0, 1.0
        val = matrix_E_extreme(alpha, beta, phi, k2)
        # reduced Laplacian of K2 is [2]; assemble the 3x3 by hand
        hand = 0.5 * np.array([
            [alpha * (phi + 1), 0.0, 0.0],
            [0.0, alpha * (phi + 1), 1.0],
            [0.0, 1.0, 1.0 / alpha + (phi + 1) / (beta * 2.0)],
        ])
        assert val == pytest.approx(np.linalg.eigvalsh(hand)[-1], abs=1e-12)

    def test_decreasing_in_beta(self, k2):
        vals = [matrix_E_extreme(1.0, b, 1.0, k2) for b in (0.5, 1.0, 2.0, 4.0)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    def test_basis_invariance(self):
        g = preset_graph("cycle5")
        base = matrix_E_extreme(1.0, 2.0, 1.5, g)
        # rebuild with a rotated basis by hand and compare
        basis = complement_basis(5)
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        R2 = basis.R @ q
        from distopt.graph import out_laplacian

        red = R2.T @ out_laplacian(g) @ R2
        lower = (1.0 / 1.0) * np.eye(4) + (1.5 + 1) / 2.0 * np.linalg.inv(red)
        hand = np.zeros((9, 9))
        hand[0, 0] = 1.0 * 2.5
        hand[1:5, 1:5] = 1.0 * 2.5 * np.eye(4)
        hand[1:5, 5:] = np.eye(4)
        hand[5:, 1:5] = np.eye(4)
        hand[5:, 5:] = lower
        hand *= 0.5
        assert base == pytest.approx(np.linalg.eigvalsh(hand)[-1], abs=1e-10)

    def test_disconnected_raises(self):
        g = build_digraph(4, [(1, 2, 1.0), (2, 1, 1.0), (3, 4, 1.0), (4, 3, 1.0)])
        with pytest.raises(ValidationError, match="not connected"):
            matrix_E_extreme(1.0, 1.0, 1.0, g)


class TestRates:
    def test_rate_digraph_worked_example(self):
        lamF_hi = (11 + math.sqrt(85)) / 4
        val = rate_digraph(90.0, lamF_hi)
        assert val == pytest.approx((7.0 / 16.0) / (2 * lamF_hi), abs=1e-12)
        assert val == pytest.approx(0.0432749611074645, abs=1e-12)

    def test_branch_point(self):
        # gamma/9 branch active below gamma = 63/16
        lamF_hi = 2.0
        assert rate_digraph(3.0, lamF_hi) == pytest.approx((3.0 / 9) / 4.0, abs=1e-15)
        assert rate_digraph(5.0, lamF_hi) == pytest.approx((7.0 / 16) / 4.0, abs=1e-15)

    def test_reciprocal_scaling(self):
        assert rate_digraph(90.0, 10.0) == pytest.approx(rate_digraph(90.0, 5.0) / 2)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            rate_digraph(-1.0, 5.0)

    def test_rate_quadratic(self):
        assert rate_quadratic(1.0, 1.0, 2.0) == 1.0
        assert rate_quadratic(5.0, 0.1, 2.0) == pytest.approx(0.2)


class TestTauI:
    def test_positive_and_shrinks_with_eps(self, k2, quad_pair):
        nc = network_cost(quad_pair)
        lamF_min, lamF_max = matrix_F_extremes(1.0, 9.0, 2)
        gp = gamma_prime(1.0, 6.0, 9.0, B22, 2.0)
        x0 = np.zeros((2, 1))
        v0 = np.zeros((2, 1))
        tau_i = _tau_i_and_theta(1.0, 6.0, [0.002, 0.002], nc, k2.out_degrees, x0, v0,
                                 9.0, gp, lamF_min, lamF_max)[0]
        assert (tau_i > 0).all()
        smaller = _tau_i_and_theta(1.0, 6.0, [2e-8, 2e-8], nc, k2.out_degrees, x0, v0,
                                   9.0, gp, lamF_min, lamF_max)[0]
        assert (smaller < tau_i).all()
        assert (smaller < 1e-10).all()

    def test_worked_value(self, k2, quad_pair):
        # theta = (lamF_max/lamF_min) sqrt(2 + 72) + bound; frozen from the
        # closed forms evaluated by hand
        nc = network_cost(quad_pair)
        lamF_min, lamF_max = matrix_F_extremes(1.0, 9.0, 2)
        tau_i = _tau_i_and_theta(1.0, 6.0, [0.002, 0.002], nc, k2.out_degrees,
                                 np.zeros((2, 1)), np.zeros((2, 1)),
                                 9.0, 90.0, lamF_min, lamF_max)[0]
        eta = 7.0 / 16.0
        bound = 9 * 6 * lamF_max / (4 * eta * lamF_min) * 8e-6
        theta = lamF_max / lamF_min * math.sqrt(74.0) + bound
        ref = math.log1p(2 * 0.002 / (2 * 1 * (2 + 12 + 1) * theta)) / 2
        assert tau_i[0] == pytest.approx(ref, rel=1e-12)
        assert tau_i[0] == pytest.approx(6.824e-07, rel=1e-3)

    def test_requires_lipschitz(self, k2):
        nc = network_cost([catalog("f8"), catalog("f2")])
        with pytest.raises(ValidationError, match="no global gradient Lipschitz constant for: f8"):
            _tau_i_and_theta(1.0, 6.0, [0.1, 0.1], nc, k2.out_degrees, np.zeros((2, 1)),
                             np.zeros((2, 1)), 9.0, 90.0, 0.4, 5.0)

    def test_requires_positive_margin(self, k2, quad_pair):
        nc = network_cost(quad_pair)
        with pytest.raises(Infeasible):
            _tau_i_and_theta(1.0, 6.0, [0.1, 0.1], nc, k2.out_degrees, np.zeros((2, 1)),
                             np.zeros((2, 1)), 9.0, -1.0, 0.4, 5.0)


class TestCertify:
    def test_quadratic_pair_report(self, k2, quad_pair):
        sc = make_scenario(quad_pair, graph=k2, beta=6.0,
                           scheme=DistributedEvent(eps=np.full(2, 0.002)),
                           x0=np.zeros((2, 1)), analysis=AnalysisOptions(phi=9.0))
        rep = certify(sc)
        assert rep.gamma == pytest.approx(576.0, abs=1e-9)
        assert rep.gamma_prime == pytest.approx(90.0, abs=1e-9)
        assert rep.feasible["digraph_rate"] and rep.feasible["distributed_event"]
        assert rep.kappa is not None and rep.kappa < 1
        assert rep.tau is not None and rep.tau > 0
        assert rep.rate_digraph > 0 and rep.rate_quadratic == 1.0
        assert rep.rate_periodic > 0 and rep.rate_centralized > 0
        assert rep.eta == pytest.approx(0.4375)
        assert rep.steady_state_bound == pytest.approx(0.0028034, rel=1e-4)
        assert (np.asarray(rep.tau_i) > 0).all()
        assert rep.topology_certified
        d = jsonable(vars(rep))
        for key in ("gamma", "gamma_prime", "phi", "zeta", "kappa", "tau", "tau_i",
                    "eta", "theta", "lamF_min", "lamF_max", "lamE_max"):
            assert key in d
        assert d["tau_i"] == [float(t) for t in rep.tau_i]

    def test_distributed_verdict_at_gamma_prime_maximizer(self, k2, quad_pair):
        # without analysis.phi the distributed verdict takes the maximizer of
        # gamma', phi' + 1 = m/8 + 9 beta lhat2 / (16 alpha) = 7, clipped into
        # phi' + 1 > 4M = 8; at the digraph maximizer phi = 12.75, gamma' < 0
        sc = make_scenario(quad_pair, graph=k2, beta=6.0,
                           scheme=DistributedEvent(eps=np.full(2, 0.002)), x0=np.zeros((2, 1)))
        rep = certify(sc)
        assert rep.phi == pytest.approx(12.75)
        assert rep.phi_distributed == pytest.approx(7.0)
        assert rep.phi_distributed + 1 > 4 * rep.M_upper
        assert rep.gamma_prime == pytest.approx(122.0)
        assert rep.feasible["distributed_event"]
        assert rep.eta == pytest.approx(7.0 / 16.0)
        assert (np.asarray(rep.tau_i) > 0).all() and rep.rate_distributed > 0
        # a given analysis.phi serves both verdicts
        sc = dataclasses.replace(sc, analysis=AnalysisOptions(phi=9.0))
        assert certify(sc).phi_distributed == 9.0

    def test_low_beta_fails_digraph_flag(self, k2, quad_pair):
        sc = make_scenario(quad_pair, graph=k2, beta=1.0,
                           analysis=AnalysisOptions(phi=9.0))
        rep = certify(sc)
        assert rep.beta < rep.suggested_beta
        assert not rep.feasible["digraph_rate"]

    def test_auto_phi_respects_feasibility_region(self, k2, quad_pair):
        sc = make_scenario(quad_pair, graph=k2, beta=50.0)
        rep = certify(sc)
        assert rep.phi + 1 > 4 * rep.M_upper
        assert rep.feasible["digraph_rate"]

    def test_zero_eps_rejected_at_scheme_construction(self):
        with pytest.raises(ValidationError):
            DistributedEvent(eps=np.zeros(2))

    def test_missing_lipschitz_without_box(self, ten_suite):
        sc = make_scenario(ten_suite, graph=preset_graph("fig2"))
        with pytest.raises(ValidationError, match="convexity constants unavailable"):
            certify(sc)

    def test_estimation_box_fills_constants(self, ten_suite):
        sc = make_scenario(ten_suite, graph=preset_graph("fig2"),
                           analysis=AnalysisOptions(box=(-6.0, 6.0)))
        rep = certify(sc)
        assert rep.m_lower > 0 and rep.M_upper >= rep.m_lower
        assert not rep.topology_certified  # directed topology

    def test_digraph_periodic_not_certified(self, ten_suite):
        sc = make_scenario(ten_suite, graph=preset_graph("fig2"),
                           analysis=AnalysisOptions(box=(-6.0, 6.0)))
        rep = certify(sc)
        assert rep.lamE_max is None and rep.rate_periodic is None

    def test_switching_set_certified_at_its_worst_case_in_any_order(self):
        costs = [quadratic_cost([2.0 * (i - 5)]) for i in range(1, 11)]
        graphs = {name: preset_graph(name) for name in ("cycle10", "k10")}

        def report(names, switching=True):
            topology = ({"schedule": SwitchingSchedule(tuple(graphs[g] for g in names), dwell=0.5)}
                        if switching else {"graph": graphs[names[0]]})
            return certify(make_scenario(costs, **topology, beta=30.0,
                                         scheme=DistributedEvent(eps=np.full(10, 0.05)),
                                         analysis=AnalysisOptions(delta=4.0)))

        rep = report(["cycle10", "k10"])
        assert jsonable(vars(rep)) == jsonable(vars(report(["k10", "cycle10"])))
        singles = [report([name], switching=False) for name in graphs]
        assert rep.lambda_hat_2 == min(r.lambda_hat_2 for r in singles)
        assert rep.lambda_N == max(r.lambda_N for r in singles)
        assert rep.lamE_max == max(r.lamE_max for r in singles)
        assert rep.feasible["distributed_event"] and rep.tau_i is not None


class TestMaximizeTau:
    def test_beats_default_parameters(self):
        _, tau_default = tau_period(1.0, 1.0, 0.5, 1.0, B22, 2.0, 2.0)
        eps, delta, tau = maximize_tau(1.0, 1.0, B22, 2.0, 2.0)
        assert tau >= tau_default
        assert 0 < eps < 1 and delta > 0

    def test_infeasible_grid(self):
        bounds = ConvexityBounds(1.0, 1.0)
        with pytest.raises(Infeasible):
            maximize_tau(1.0, 1.0, bounds, 0.4, 4.0,
                         eps_grid=[0.5], delta_grid=[1e-4])
