import ast
import dataclasses
import dis
import functools
import math
import operator
import re
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import balanced_weights, col, linear_system_matrix, make_scenario
from distopt import dynamics, schedulers
from distopt.costs import (
    _EXPRESSIONS,
    CATALOG_NAMES,
    CostModel,
    NetworkCost,
    catalog,
    minimize_global,
    network_cost,
    quadratic_cost,
)
from distopt.dynamics import (
    EULER_TABLEAU,
    RK4_TABLEAU,
    AffineRK,
    AlgorithmParams,
    SwitchingSchedule,
    equilibrium,
    flow,
    held_terms,
    rk4,
    rk_kernel,
    simulate,
)
from distopt.errors import NumericalBlowup, ValidationError
from distopt.graph import (
    WeightedDigraph,
    build_digraph,
    complement_basis,
    out_laplacian,
    preset_graph,
)
from distopt.scenarios import preset_dict, scenario_from_dict
from distopt.schedulers import (
    CentralizedEvent,
    Continuous,
    DistributedEvent,
    EulerScheme,
    Periodic,
)
from test_acceptance import ring_certificates


def stack(x, v):
    """The (2N, d) state z = [x; v] the kernels step."""
    return np.concatenate([np.asarray(x, dtype=float), np.asarray(v, dtype=float)])


def kernel_step(nc, p, lap, h, tableau, z):
    """One step from ``z`` of the kernel ``simulate`` builds for ``nc`` over ``lap``."""
    return rk_kernel(nc, p, lap, h, tableau).advance(z, 1)[0]


def sampled_step(nc, p, lap, x_hat, h):
    """One step of the RK4 kernel ``simulate`` steps under sampled information,
    holding ``x_hat``, as a function of the state."""
    kernel = rk_kernel(nc, p, 0 * lap, h, RK4_TABLEAU)
    kernel.hold(held_terms(lap, p, x_hat))
    return lambda z: kernel.advance(z, 1)[0]


def rk4_factor(w):
    """RK4's amplification factor for y' = w y / h over one step."""
    return 1 + w + w**2 / 2 + w**3 / 6 + w**4 / 24


class TestFields:
    def test_continuous_zero_at_equilibrium(self, k2, quad_pair_nc):
        p = AlgorithmParams(1.0, 1.0)
        x_bar, v_bar = equilibrium(quad_pair_nc, p)
        dz = flow(quad_pair_nc, p, out_laplacian(k2))(stack(x_bar, v_bar))
        assert np.abs(dz[:2]).max() <= 1e-10
        assert np.abs(dz[2:]).max() <= 1e-10

    def test_continuous_on_consensus(self, k2, quad_pair_nc):
        p = AlgorithmParams(2.0, 3.0)
        x, v = col([0.5, 0.5]), col([0.0, 0.0])
        dz = flow(quad_pair_nc, p, out_laplacian(k2))(stack(x, v))
        assert np.abs(dz[2:]).max() == 0.0
        grads = quad_pair_nc.grad_stack(x)
        assert np.allclose(dz[:2], -p.alpha * grads, atol=1e-14)

    def test_continuous_worked_example(self, k2, quad_pair_nc):
        z = stack(col([0.0, 0.0]), col([0.0, 0.0]))
        dz = flow(quad_pair_nc, AlgorithmParams(1.0, 1.0), out_laplacian(k2))(z)
        assert np.allclose(dz[2:].ravel(), [0.0, 0.0], atol=1e-15)
        assert np.allclose(dz[:2].ravel(), [8.0, -4.0], atol=1e-15)

    def test_sampled_equals_continuous_after_sync(self, k2, quad_pair_nc):
        # right after a broadcast (x_hat = x) the held field equals the
        # continuous one, so one step of each differs only at O(h^2)
        rng = np.random.default_rng(0)
        p = AlgorithmParams(1.3, 0.7)
        lap = out_laplacian(k2)
        x = rng.normal(size=(2, 1))
        z = stack(x, rng.normal(size=(2, 1)))
        field = flow(quad_pair_nc, p, lap)
        gaps = [np.abs(sampled_step(quad_pair_nc, p, lap, x.copy(), h)(z) - rk4(field, z, h)).max()
                for h in (1e-3, 5e-4)]
        assert gaps[0] <= 10 * 1e-3**2
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5

    def test_sampled_with_equal_broadcasts(self, k2, quad_pair_nc):
        # consensus broadcasts: L x_hat = 0, so v is frozen and each agent
        # solves x' = -2 (x - c) - v on its own, c = 4 or -2
        p = AlgorithmParams(1.0, 1.0)
        x, v, x_hat = col([2.0, -1.0]), col([0.3, -0.3]), col([1.0, 1.0])
        h = 0.05
        z1 = sampled_step(quad_pair_nc, p, out_laplacian(k2), x_hat, h)(stack(x, v))
        assert np.array_equal(z1[2:], v)
        rest = col([4.0, -2.0]) - v / 2
        assert np.allclose(z1[:2], rest + rk4_factor(-2 * h) * (x - rest), atol=1e-14)

    def test_sampled_worked_example(self, k2, quad_pair_nc):
        # from x = v = 0 toward the local minimizers (4, -2): x(h) = (4, -2) (1 - R(-2h))
        z = stack(col([0.0, 0.0]), col([0.0, 0.0]))
        p = AlgorithmParams(1.0, 1.0)
        z1 = sampled_step(quad_pair_nc, p, out_laplacian(k2), col([1.0, 1.0]), 0.1)(z)
        assert np.allclose(z1[2:].ravel(), [0.0, 0.0], atol=1e-15)
        assert np.allclose(z1[:2].ravel(), [0.72506667, -0.36253333], atol=1e-8)


def held_rk4_reference(nc, p):
    """The sampled-information RK4 step written out, one numpy expression
    per stage, with ``held = held_terms(L, p, x_hat)`` = [-beta L x_hat;
    alpha beta L x_hat]: dx = -alpha grad f(x) - (beta L x_hat + v) and
    dv = alpha beta L x_hat."""
    grad, alpha, n = nc.grad_stack, p.alpha, nc.n_agents

    def step(z, held, h):
        x, v, dv = z[:n], z[n:], held[n:]
        h2 = 0.5 * h
        w = v - held[:n]
        k1 = -alpha * grad(x) - w
        w += h2 * dv
        k2 = -alpha * grad(x + h2 * k1) - w
        k3 = -alpha * grad(x + h2 * k2) - w
        w += h2 * dv
        k4 = -alpha * grad(x + h * k3) - w
        out = np.empty_like(z)
        np.add(x, h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), out=out[:n])
        np.add(v, h * dv, out=out[n:])
        return out

    return step


@st.composite
def held_cases(draw):
    """One sampled-information step: catalog costs or quadratics for d = 1
    (the scalar gradient path), quadratics for d = 2 (the per-agent path),
    over a random weight-balanced digraph with random gains, step and
    state, and x_hat a perturbation of x."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 2))
    weights = draw(balanced_weights(n))
    if d == 1 and draw(st.booleans()):
        costs = [catalog(nm) for nm in draw(st.lists(st.sampled_from(CATALOG_NAMES),
                                                     min_size=n, max_size=n))]
    else:
        a = draw(st.lists(st.floats(-5.0, 5.0), min_size=n * d, max_size=n * d))
        costs = [quadratic_cost(a[i * d:(i + 1) * d]) for i in range(n)]
    p = AlgorithmParams(draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 10.0)))
    h = draw(st.floats(1e-4, 0.1))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    z = np.concatenate([x, rng.uniform(-3.0, 3.0, size=(n, d))])
    x_hat = x + rng.normal(scale=0.5, size=(n, d))
    return network_cost(costs), out_laplacian(WeightedDigraph(n, weights)), p, h, z, x_hat


class TestKernelProperty:
    """One kernel step of each scheme against the step it must take:
    rk4 over flow (continuous), the written-out sampled RK4 step (x_hat
    held) and z + h flow(z) (Euler).  The kernel's products reorder the
    sums, so agreement is to rounding; a wrong or missing term is off by
    O(h) of that term."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(held_cases())
    def test_every_scheme_matches_its_reference(self, case):
        nc, lap, p, h, z, x_hat = case
        field, held = flow(nc, p, lap), held_terms(lap, p, x_hat)
        with np.errstate(invalid="ignore"):  # inf times a zero map entry, see below
            pairs = [(kernel_step(nc, p, lap, h, RK4_TABLEAU, z), rk4(field, z, h)),
                     (sampled_step(nc, p, lap, x_hat, h)(z), held_rk4_reference(nc, p)(z, held, h)),
                     (kernel_step(nc, p, lap, h, EULER_TABLEAU, z), z + h * field(z))]
        for got, want in pairs:
            assert got.shape == z.shape and got.dtype == np.float64
            if not dynamics._within_limit(want[None]):
                # past the blowup limit simulate stops either way (an
                # overflowed gradient times a zero map entry gives nan, not inf)
                assert not dynamics._within_limit(got[None])
                continue
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@st.composite
def affine_cases(draw):
    """Like :func:`held_cases`, but every member is affine: quadratics for
    d = 1 or 2, with the catalog's f2 and f10 (curvature 2) mixed in for
    d = 1."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 2))
    weights = draw(balanced_weights(n))
    a = draw(st.lists(st.floats(-5.0, 5.0), min_size=n * d, max_size=n * d))
    costs = [quadratic_cost(a[i * d:(i + 1) * d]) for i in range(n)]
    if d == 1:
        costs = [draw(st.sampled_from([c, catalog("f2"), catalog("f10")])) for c in costs]
    p = AlgorithmParams(draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 10.0)))
    h = draw(st.floats(1e-4, 0.1))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    z = np.concatenate([x, rng.uniform(-3.0, 3.0, size=(n, d))])
    x_hat = x + rng.normal(scale=0.5, size=(n, d))
    return network_cost(costs), out_laplacian(WeightedDigraph(n, weights)), p, h, z, x_hat


class TestAffineFold:
    """An affine network's gradients are folded into FoldedRK's step map: the
    kernel calls no gradient, and its step is still the tableau's step over
    ``flow`` (RK4 as ``rk4``, Euler as z + h flow(z)), under continuous
    information and with a held b alike."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(affine_cases())
    def test_folded_step_matches_the_flow(self, case):
        nc, lap, p, h, z, x_hat = case
        held = held_terms(lap, p, x_hat)
        sampled = flow(nc, p, 0 * lap)
        fields = [(lap, None, flow(nc, p, lap)),
                  (0 * lap, held, lambda y: sampled(y) + held)]
        for a, b, field in fields:
            for tableau, want in ((RK4_TABLEAU, rk4(field, z, h)),
                                  (EULER_TABLEAU, z + h * field(z))):
                with mock.patch.object(NetworkCost, "grad_list",
                                       side_effect=AssertionError("gradient called")):
                    kernel = rk_kernel(nc, p, a, h, tableau)
                    if b is not None:
                        kernel.hold(b)
                    got = kernel.advance(z, 1)[0]
                assert got.shape == z.shape
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


CURVED = [name for name in CATALOG_NAMES if catalog(name).affine is None]


def log_cosh_cost(a) -> CostModel:
    """A curved cost on R^d with no affine form and no scalar gradient:
    f(x) = x'x / 2 + log cosh(a'x), so the kernel calls its gradient."""
    a = np.asarray(a, dtype=float)
    return CostModel(dim=a.size, value=lambda x: 0.5 * float(x @ x) + math.log(math.cosh(a @ x)),
                     gradient=lambda x: x + a * math.tanh(a @ x), m=1.0, name="log cosh")


@st.composite
def mixed_cases(draw):
    """Like :func:`held_cases`, but the network mixes affine members with
    curved ones: catalog costs and quadratics for d = 1, quadratics and
    :func:`log_cosh_cost` for d = 2."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 2))
    weights = draw(balanced_weights(n))
    a = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * d, max_size=n * d))
    quad = [quadratic_cost(a[i * d:(i + 1) * d]) for i in range(n)]
    if d == 1:
        curved = [catalog(nm) for nm in draw(st.lists(st.sampled_from(CURVED), min_size=n,
                                                      max_size=n))]
    else:
        curved = [log_cosh_cost(a[i * d:(i + 1) * d]) for i in range(n)]
    picks = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda b: 0 < sum(b) < n))
    costs = [c if curve else q for c, q, curve in zip(curved, quad, picks)]
    p = AlgorithmParams(draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 10.0)))
    h = draw(st.floats(1e-4, 0.1))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    z = np.concatenate([x, rng.uniform(-3.0, 3.0, size=(n, d))])
    x_hat = x + rng.normal(scale=0.5, size=(n, d))
    return network_cost(costs), out_laplacian(WeightedDigraph(n, weights)), p, h, z, x_hat


class TestPartialFold:
    """A network with affine and curved members writes the affine ones' H y + c
    out and calls the curved ones' gradients only, each at its own entries,
    and its step is still the tableau's step over ``flow``."""

    @staticmethod
    def recorded(monkeypatch):
        """Every list ``NetworkCost.grad_list`` receives, with its network's size."""
        seen, grad_list = [], NetworkCost.grad_list

        def record(nc, ys):
            seen.append((nc.n_agents, list(ys)))
            return grad_list(nc, ys)

        monkeypatch.setattr(NetworkCost, "grad_list", record)
        return seen

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(mixed_cases())
    def test_mixed_step_matches_its_reference(self, case):
        nc, lap, p, h, z, x_hat = case
        field, held = flow(nc, p, lap), held_terms(lap, p, x_hat)
        pairs = [(kernel_step(nc, p, lap, h, RK4_TABLEAU, z), rk4(field, z, h)),
                 (sampled_step(nc, p, lap, x_hat, h)(z), held_rk4_reference(nc, p)(z, held, h)),
                 (kernel_step(nc, p, lap, h, EULER_TABLEAU, z), z + h * field(z))]
        for got, want in pairs:
            assert got.shape == z.shape
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_vector_members_select_their_entries(self, monkeypatch):
        # d = 2: the curved member is agent 1, its entries are 2 and 3 of x
        nc = network_cost([quadratic_cost([1.0, -2.0]), log_cosh_cost([0.5, 1.5]),
                           quadratic_cost([0.3, 0.0])])
        lap, p, h = out_laplacian(WeightedDigraph(3, np.roll(np.eye(3), 1, axis=1))), \
            AlgorithmParams(1.2, 2.0), 0.05
        z = np.random.default_rng(3).uniform(-2.0, 2.0, size=(6, 2))
        seen = self.recorded(monkeypatch)
        got = kernel_step(nc, p, lap, h, RK4_TABLEAU, z)
        assert len(seen) == 4 and seen[0] == (1, z[1].tolist())
        np.testing.assert_allclose(got, rk4(flow(nc, p, lap), z, h), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("scheme", [Continuous(), Periodic(delta=0.05),
                                        DistributedEvent(eps=np.full(10, 0.05))])
    def test_first_step_of_each_scheme(self, scheme, ten_suite):
        # f1 .. f10 with f3 and f6 swapped for quadratics: four affine members
        costs = [quadratic_cost([1.0]) if i in (2, 5) else c for i, c in enumerate(ten_suite)]
        g, h = preset_graph("cycle10"), 1e-2
        sc = make_scenario(costs, graph=g, scheme=scheme, alpha=1.5, beta=2.0, t_final=h, h=h,
                           stride=1, v0=np.linspace(-1.0, 1.0, 10))
        nc, p, lap = sc.network, AlgorithmParams(1.5, 2.0), out_laplacian(g)
        z = stack(sc.x0, sc.v0)
        if isinstance(scheme, Continuous):
            want = rk4(flow(nc, p, lap), z, h)
        else:  # everyone broadcasts at t = 0, so the first step holds x_hat = x0
            want = held_rk4_reference(nc, p)(z, held_terms(lap, p, sc.x0), h)
        trace = simulate(sc)
        got = stack(trace.x[-1], trace.v[-1])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("scheme", [Continuous(), Periodic(delta=0.05)])
    def test_grad_list_gets_the_curved_entries(self, monkeypatch, scheme, ten_suite):
        # f3 and f6 (agents 2 and 5) without a scalar gradient go through one grad_list
        # call per stage: 2 floats per call, 4 calls per RK4 step; the others never do
        costs = [dataclasses.replace(c, scalar_gradient=None) if i in (2, 5) else c
                 for i, c in enumerate(ten_suite)]
        sc = make_scenario(costs, graph=preset_graph("cycle10"), scheme=scheme,
                           t_final=0.5, h=1e-2, stride=1)
        seen = self.recorded(monkeypatch)
        trace = simulate(sc)
        steps = [ys for size, ys in seen if size == 2]
        assert {size for size, _ in seen} == {2, 10}  # 10: the oracle's bisection
        assert len(steps) == 4 * 50 and all(len(ys) == 2 for ys in steps)
        for k in (0, 1, 49):  # each step's first call gets x[[2, 5]] at its node
            assert steps[4 * k] == trace.x[k, [2, 5], 0].tolist()


class TestGeneratedKernel:
    """The kernel of a network with a curved member is a function generated per
    network, graph, h and tableau: d > 1 members through grad_list, catalog
    members under Euler, and coefficients that overflow to inf."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vector_curved_network_matches_its_reference(self, seed):
        # every member a d = 2 log-cosh cost: no affine form, no scalar gradient
        rng = np.random.default_rng(seed)
        nc = network_cost([log_cosh_cost(rng.uniform(-2.0, 2.0, 2)) for _ in range(4)])
        lap = out_laplacian(WeightedDigraph(4, np.roll(np.eye(4), 1, axis=1) + np.eye(4)[::-1]))
        p, h = AlgorithmParams(*rng.uniform(0.5, 2.0, 2)), 0.02
        z = rng.uniform(-2.0, 2.0, size=(8, 2))
        x_hat = z[:4] + rng.normal(scale=0.3, size=(4, 2))
        field, held = flow(nc, p, lap), held_terms(lap, p, x_hat)
        pairs = [(kernel_step(nc, p, lap, h, RK4_TABLEAU, z), rk4(field, z, h)),
                 (sampled_step(nc, p, lap, x_hat, h)(z), held_rk4_reference(nc, p)(z, held, h)),
                 (kernel_step(nc, p, lap, h, EULER_TABLEAU, z), z + h * field(z))]
        for got, want in pairs:
            assert got.shape == z.shape
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_catalog_euler_matches_its_reference(self):
        # fig4b: forward Euler at delta = 0.2 over fig2, two steps through simulate
        sc = scenario_from_dict(preset_dict("fig4b") | {"t_final": 0.4})
        nc, p, lap = sc.network, AlgorithmParams(sc.alpha, sc.beta), out_laplacian(preset_graph("fig2"))
        field, z = flow(nc, p, lap), stack(sc.x0, sc.v0)
        np.testing.assert_allclose(kernel_step(nc, p, lap, 0.2, EULER_TABLEAU, z),
                                   z + 0.2 * field(z), rtol=1e-13, atol=1e-13)
        for _ in range(2):
            z = z + 0.2 * field(z)
        trace = simulate(sc)
        np.testing.assert_allclose(stack(trace.x[-1], trace.v[-1]), z, rtol=1e-13, atol=1e-13)

    def test_overflowing_coefficient_round_trips(self, ten_suite):
        # beta L_ii = 2e308 overflows to inf from finite gains: the source writes it as inf
        nc, lap, h = network_cost(ten_suite), out_laplacian(preset_graph("cycle10")), 1e-3
        p = AlgorithmParams(1.0, 1e308)
        z = np.random.default_rng(5).uniform(-1.0, 1.0, size=(20, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            want = rk4(flow(nc, p, lap), z, h)
        assert not dynamics._within_limit(want[None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not dynamics._within_limit(kernel_step(nc, p, lap, h, RK4_TABLEAU, z)[None])

    def test_only_the_sampled_kernel_holds_a_term(self, ten_suite):
        nc, lap = network_cost(ten_suite), out_laplacian(preset_graph("cycle10"))
        kernel = AffineRK(nc, AlgorithmParams(1.0, 1.0), lap, 1e-3, RK4_TABLEAU)
        kernel.hold(np.zeros((20, 1)))
        with pytest.raises(ValueError, match="holds no term"):
            kernel.hold(np.ones((20, 1)))
        with pytest.raises(ValueError, match="no stop test"):
            kernel.hold(np.zeros((20, 1)), lambda *x: True)


def counting(model: CostModel, counts: list, j: int) -> CostModel:
    """``model`` with its scalar gradient counted in ``counts[j]``."""
    def counted(x, _g=model.scalar_gradient):
        counts[j] += 1
        return _g(x)

    return dataclasses.replace(model, scalar_gradient=counted)


def ring_quadratics():
    """Ten unit-curvature quadratics, a_i = 2 (i - 5), as on the benchmark ring."""
    return [quadratic_cost([2.0 * (i - 5)]) for i in range(1, 11)]


class TestGradientCalls:
    """``simulate`` takes the folded path whenever every member is affine,
    and the gradient path otherwise: counted ``NetworkCost.grad_list``
    calls, so neither can drop out unnoticed."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count, grad_list = [0], NetworkCost.grad_list

        def counted(nc, ys):
            count[0] += 1
            return grad_list(nc, ys)

        monkeypatch.setattr(NetworkCost, "grad_list", counted)
        return count

    @pytest.mark.parametrize("scheme", [Continuous(), CentralizedEvent(kappa=0.06, tau=0.02)])
    def test_quadratic_network_calls_no_gradient(self, calls, scheme):
        simulate(make_scenario(ring_quadratics(), graph=preset_graph("cycle10"), scheme=scheme,
                               t_final=0.5, h=1e-2))
        assert calls[0] == 0

    @pytest.mark.parametrize("scheme", [Continuous(), Periodic(delta=0.05)])
    def test_catalog_network_calls_four_per_rk4_step(self, calls, scheme, ten_suite):
        # counted f1 and f2: the curved f1 is called once per stage, the affine f2 never;
        # simulate's oracle bisects x* through them as well: count it apart
        counts = [0, 0]
        costs = [counting(c, counts, j) for j, c in enumerate(ten_suite[:2])] + [*ten_suite[2:]]
        minimize_global(network_cost(costs))
        oracle, counts[:], calls[0] = list(counts), [0, 0], 0
        simulate(make_scenario(costs, graph=preset_graph("cycle10"), scheme=scheme,
                               t_final=0.5, h=1e-2))
        assert counts == [oracle[0] + 4 * 50, oracle[1]]
        assert calls[0] == oracle[0]  # grad_list: the oracle's calls only, one per member call

    def test_folded_path_still_stops_at_blowup(self):
        # L of cycle10 has eigenvalue 4, so h = 1 puts -beta h 4 = -4 outside
        # RK4's stability interval: that mode grows by |R(-4)| = 5 per step.
        # The folded step overflows in numpy, not in a gradient, so the
        # block's bound check is the only guard.
        assert rk4_factor(-4.0) == pytest.approx(5.0)
        sc = make_scenario(ring_quadratics(), graph=preset_graph("cycle10"), t_final=100.0,
                           h=1.0, stride=1)
        with pytest.raises(NumericalBlowup) as excinfo:
            simulate(sc)
        partial = excinfo.value.trace
        assert partial is not None and 2 <= partial.t.size < 101
        assert np.isfinite(partial.x).all() and np.isfinite(partial.v).all()


@st.composite
def block_cases(draw, curved=False, mixed=False):
    """An affine network (as :func:`affine_cases`), with ``curved`` one of
    non-affine catalog costs, or with ``mixed`` one of catalog costs and
    quadratics (d = 1), over one to three random balanced digraphs,
    switched when more than one, under a random scheme: continuous, periodic
    (on or off the step grid), centralized events, distributed events or Euler."""
    n = draw(st.integers(2, 6))
    d = 1 if curved or mixed else draw(st.integers(1, 2))
    graphs = [WeightedDigraph(n, draw(balanced_weights(n))) for _ in range(draw(st.integers(1, 3)))]
    a = draw(st.lists(st.floats(-5.0, 5.0), min_size=n * d, max_size=n * d))
    costs = [quadratic_cost(a[i * d:(i + 1) * d]) for i in range(n)]
    if curved:
        costs = [catalog(draw(st.sampled_from(CURVED))) for _ in costs]
    elif mixed:
        costs = [draw(st.sampled_from([c, *map(catalog, CATALOG_NAMES)])) for c in costs]
    elif d == 1:
        costs = [draw(st.sampled_from([c, catalog("f2"), catalog("f10")])) for c in costs]
    h = draw(st.sampled_from([1e-3, 4e-3]))
    scheme = draw(st.sampled_from([
        Continuous(),
        Periodic(delta=h * draw(st.sampled_from([7.0, 7.5, 90.5]))),
        CentralizedEvent(kappa=draw(st.floats(0.02, 0.5)), tau=h * draw(st.floats(0.5, 20.0))),
        DistributedEvent(eps=np.full(n, draw(st.floats(0.01, 0.3)))),
        EulerScheme(delta=h),
    ]))
    topology = {"graph": graphs[0]} if len(graphs) == 1 else {
        "schedule": SwitchingSchedule(tuple(graphs), dwell=h * draw(st.integers(5, 80)))}
    seed = draw(st.integers(0, 2**16))
    v0 = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, d))
    return make_scenario(costs, **topology, scheme=scheme, alpha=draw(st.floats(0.5, 2.0)),
                         beta=draw(st.floats(0.5, 2.0)), t_final=300 * h, h=h,
                         stride=draw(st.sampled_from([1, 3])), seed=seed, v0=v0 - v0.mean(axis=0))


class TestBlockAdvance:
    """Every network advances blocks of RK4 (or Euler) steps, an affine one per
    product, the screens clear the quiet nodes and the exact law decides at
    the others: the same run with one step per block (BLOCK_STEPS = 1 and
    AffineRK.block = 1) gives the same event log and states, to rounding on
    an affine network and exactly on a curved one, whose blocks take the
    same steps."""

    @staticmethod
    def per_node(sc):
        with mock.patch.object(dynamics, "BLOCK_STEPS", 1), mock.patch.object(AffineRK, "block", 1):
            return simulate(sc)

    @staticmethod
    def outcome(run, sc):
        """The trace of a run and None, or the partial trace and message of its blowup."""
        try:
            return run(sc), None
        except NumericalBlowup as exc:
            return exc.trace, str(exc)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(block_cases())
    def test_block_run_matches_per_node_run(self, sc):
        got, want = simulate(sc), self.per_node(sc)
        np.testing.assert_array_equal(got.event_agents, want.event_agents)
        np.testing.assert_array_equal(got.event_times, want.event_times)
        np.testing.assert_array_equal(got.t, want.t)
        scale = max(1.0, float(np.abs(want.x).max()), float(np.abs(want.v).max()))
        for name in ("x", "v", "x_hat"):
            assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-12 * scale, name
        assert np.abs(got.v.sum(axis=1)).max() <= 1e-12 * scale

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(block_cases(curved=True))
    def test_curved_block_run_equals_per_node_run(self, sc):
        (got, err), (want, want_err) = self.outcome(simulate, sc), self.outcome(self.per_node, sc)
        assert err == want_err
        for name in ("t", "x", "v", "x_hat", "event_agents", "event_times"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    def test_curved_blocks_drop_at_most_a_tail_per_flagged_node(self, monkeypatch, ten_suite):
        # f1 counted: four calls per RK4 step taken, kept or dropped; the kernel's stop test
        # ends each block at the node the distributed screen flags (d = 1), so none is dropped
        grads, polls, cascade = [0], [0], schedulers._cascade

        def counted_cascade(*args):
            polls[0] += 1
            return cascade(*args)

        monkeypatch.setattr(schedulers, "_cascade", counted_cascade)
        costs = [counting(ten_suite[0], grads, 0), *ten_suite[1:]]
        minimize_global(network_cost(costs))  # simulate's oracle, counted apart
        oracle, grads[0] = grads[0], 0
        sc = make_scenario(costs, graph=preset_graph("cycle10"),
                           scheme=DistributedEvent(eps=np.full(10, 0.05)), t_final=1.0, h=1e-2)
        trace = simulate(sc)
        assert polls[0] > 0 and np.unique(trace.event_times).size == polls[0] + 1
        assert grads[0] == oracle + 4 * 100

    def test_wide_state_block_run_equals_per_node_run(self):
        # d = 8: numpy sums ||x_hat^i - x^i||^2 pairwise there, the kernel's stop test left
        # to right, so the two may round apart; the screen still judges every state
        rng = np.random.default_rng(3)
        sc = make_scenario([log_cosh_cost(rng.uniform(-1.0, 1.0, 8)) for _ in range(4)],
                           graph=WeightedDigraph(4, np.roll(np.eye(4), 1, axis=1)),
                           scheme=DistributedEvent(eps=np.full(4, 0.01)), t_final=0.5, stride=1,
                           x0=np.full((4, 8), 0.5))  # at consensus: the threshold starts at eps^2
        got, want = simulate(sc), self.per_node(sc)
        assert np.unique(want.event_times).size > 50
        for name in ("t", "x", "v", "x_hat", "event_agents", "event_times"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    @pytest.mark.parametrize("name", ["fig1a", "fig5", "fig3a"])
    def test_curved_blowup_stops_the_run_quietly(self, name):
        # h = 0.5 throws every catalog preset out of range in its first step; the
        # steps the block takes past that state warn nothing
        sc = scenario_from_dict(preset_dict(name) | {"h": 0.5})
        with warnings.catch_warnings(record=True) as caught, pytest.raises(NumericalBlowup) as exc:
            warnings.simplefilter("always")
            simulate(sc)
        assert str(exc.value) == "state escaped finite range at t = 0.5"
        partial = exc.value.trace
        assert partial.t.size == 1 and np.isfinite(partial.x).all() and np.isfinite(partial.v).all()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_screen_leaves_few_nodes_to_the_exact_law(self, monkeypatch):
        _, _, _, _, tau, kap = ring_certificates()
        sc = make_scenario(ring_quadratics(), graph=preset_graph("cycle10"),
                           scheme=CentralizedEvent(kappa=kap, tau=tau), t_final=2.0, stride=1)
        polls, due = [0], schedulers._centralized_due

        def counted(*args):
            polls[0] += 1
            return due(*args)

        monkeypatch.setattr(schedulers, "_centralized_due", counted)
        broadcasts = np.unique(simulate(sc).event_times).size - 1  # t = 0 is not polled
        # the per-node loop polls all 2,000 nodes; here only the flagged ones, and each fires
        assert polls[0] == broadcasts > 0

    @pytest.mark.parametrize("cls, affine, scheme, block", [
        pytest.param(AffineRK, False, Continuous(), dynamics.BLOCK_STEPS, id="AffineRK-False"),
        pytest.param(AffineRK, False, Periodic(delta=0.9), dynamics.BLOCK_STEPS, id="AffineRK-sampled"),
        pytest.param(AffineRK, False, DistributedEvent(eps=np.full(10, 0.05)), dynamics.BLOCK_STEPS,
                     id="AffineRK-distributed"),
        pytest.param(AffineRK, False, CentralizedEvent(kappa=0.06, tau=0.02), AffineRK.block,
                     id="AffineRK-centralized"),
        pytest.param(dynamics.FoldedRK, True, Continuous(), dynamics.BLOCK_STEPS, id="FoldedRK-True")])
    def test_per_node_run_steps_one_node_per_advance(self, monkeypatch, ten_suite, cls, affine,
                                                     scheme, block):
        # per_node's patches reach the kernel simulate builds, else it compares blocks to blocks;
        # a kernel takes BLOCK_STEPS (periodic: 90 steps apart), a sampled AffineRK under the
        # centralized law, whose flagged nodes it cannot stop at, its block
        seen, advance = [], cls.advance
        monkeypatch.setattr(cls, "advance", lambda kernel, z, steps: seen.append(steps)
                            or advance(kernel, z, steps))
        sc = make_scenario(ring_quadratics() if affine else ten_suite, graph=preset_graph("cycle10"),
                           scheme=scheme, t_final=1.0, h=1e-2)
        self.per_node(sc)
        assert set(seen) == {1}
        seen.clear()
        simulate(sc)
        assert max(seen) == block > 1

    @staticmethod
    def overflow_case(scheme, limit: float):
        """Two agents on k2 rising from x = 0 toward 4, whose gradient raises OverflowError
        past x = ``limit``."""
        def brittle(x):
            if x > limit:
                raise OverflowError("math range error")
            return 2.0 * (x - 4.0)

        cost = CostModel(dim=1, value=lambda x: float(x[0] - 4.0) ** 2,
                         gradient=lambda x: np.array([brittle(float(x[0]))]), scalar_gradient=brittle)
        return make_scenario([cost, cost], graph=preset_graph("k2"), scheme=scheme, t_final=1.0,
                             h=1e-3, stride=1, x0=np.zeros((2, 1)))

    @classmethod
    def overflow_node(cls, scheme, limit: float) -> int:
        """The node whose step first overflows in :meth:`overflow_case`, once the block run
        and the per-node run gave the same message and partial trace, and no warning from
        the steps a block would have taken after it."""
        sc, outcomes = cls.overflow_case(scheme, limit), []
        for run in (simulate, cls.per_node):
            with warnings.catch_warnings(record=True) as caught, pytest.raises(NumericalBlowup) as exc:
                warnings.simplefilter("always")
                run(sc)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            outcomes.append((str(exc.value), exc.value.trace))
        (msg, got), (want_msg, want) = outcomes
        assert msg == want_msg
        k = round(float(msg.rsplit("= ", 1)[1]) / 1e-3)
        assert got.t.size == k
        for name in ("t", "x", "v", "x_hat", "event_agents", "event_times"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        return k

    @staticmethod
    def overflow_block(scheme) -> int:
        """Steps per block of the overflow runs: BLOCK_STEPS, or 50 between periodic nodes."""
        return dynamics.BLOCK_STEPS if isinstance(scheme, Continuous) else 50

    @pytest.mark.parametrize("scheme", [Continuous(), Periodic(delta=0.05)])
    def test_mid_block_overflow_stops_as_the_per_node_run(self, scheme):
        # past x = 1.5, reached mid-block at t = 0.236
        k, block = self.overflow_node(scheme, 1.5), self.overflow_block(scheme)
        assert 200 < k < 300 and 0 < (k - 1) % block < block - 1, "mid-block"

    @pytest.mark.parametrize("scheme", [Continuous(), Periodic(delta=0.05)])
    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_block_edge_overflow_stops_as_the_per_node_run(self, scheme, edge):
        # the limit halfway between nodes k - 1 and k of the unbroken run: every stage input
        # of the step to k - 1 lies below it, the last of the step to k above, so the kernel
        # overflows at the first step of a block (k = 4 blocks + 1) or at its last (k = 4 blocks)
        block = self.overflow_block(scheme)
        want = 4 * block + (edge == "first")
        x = simulate(self.overflow_case(scheme, math.inf)).x[:, 0, 0]
        k = self.overflow_node(scheme, 0.5 * (x[want - 1] + x[want]))
        assert k == want and (k - 1) % block == (0 if edge == "first" else block - 1), edge

    @pytest.mark.parametrize("scheme", [Continuous(), CentralizedEvent(kappa=0.06, tau=0.5)])
    def test_blowup_at_the_same_node(self, scheme):
        # h = 1 on cycle10 grows a mode by 5 per step (see the folded-path test)
        sc = make_scenario(ring_quadratics(), graph=preset_graph("cycle10"), scheme=scheme,
                           t_final=100.0, h=1.0, stride=1)
        partial = []
        for run in (simulate, self.per_node):
            with pytest.raises(NumericalBlowup) as excinfo:
                run(sc)
            partial.append((str(excinfo.value), excinfo.value.trace.t.size))
        assert partial[0] == partial[1]
        assert 2 <= partial[0][1] < dynamics.BLOCK_STEPS


def called(model: CostModel) -> CostModel:
    """``model`` with its scalar gradient wrapped: same values, but not a catalog function,
    so the kernel calls it rather than writing it inline."""
    return dataclasses.replace(model, scalar_gradient=lambda x, _g=model.scalar_gradient: _g(x))


class TestInlineGradients:
    """The kernel writes a catalog member's gradient inline from the catalog's own
    expression text, found by the function's identity; it calls any other callable."""

    TEMPORARIES = {node.target.id for text in _EXPRESSIONS.values()
                   for node in ast.walk(ast.parse(text)) if isinstance(node, ast.NamedExpr)}
    GENERATED = re.compile(r"(x|v|y|w|q|c\d+_|u\d+_|kx\d+_|m\d+_)\d+|run|z|steps|held|out|stop|s"
                           r"|range|OverflowError")
    SCOPE = re.compile(r"exp|log|inf|nan|grads|g\d+|pack")

    @staticmethod
    def source(monkeypatch, costs, lap) -> str:
        """The source AffineRK generates for ``costs`` over ``lap`` under RK4."""
        seen = []
        monkeypatch.setattr(dynamics, "exec", lambda src, scope: seen.append(src) or exec(src, scope),
                            raising=False)
        AffineRK(network_cost(costs), AlgorithmParams(1.5, 2.0), lap, 1e-3, RK4_TABLEAU)
        return seen[0]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(block_cases(mixed=True))
    def test_inlined_run_equals_the_called_run(self, sc):
        wrapped = dataclasses.replace(sc, costs=tuple(map(called, sc.costs)))
        runs = [TestBlockAdvance.outcome(simulate, s) for s in (sc, wrapped)]
        (got, err), (want, want_err) = runs
        assert err == want_err
        for name in ("t", "x", "v", "x_hat", "err", "event_agents", "event_times"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    @pytest.mark.parametrize("network", ["ten", "mixed"])
    def test_source_holds_generated_names_and_catalog_text(self, monkeypatch, ten_suite, network):
        # mixed: a quadratic, a called gradient (agent 3) and one through grads (agent 4)
        costs = list(ten_suite) if network == "ten" else [
            catalog("f5"), quadratic_cost([1.0]), catalog("f6"), called(catalog("f1")),
            dataclasses.replace(catalog("f9"), scalar_gradient=None), catalog("f5")]
        n = len(costs)
        tree = ast.parse(self.source(monkeypatch, costs, out_laplacian(
            WeightedDigraph(n, np.roll(np.eye(n), 1, axis=1)))))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert all(self.GENERATED.fullmatch(nm) or self.SCOPE.fullmatch(nm) for nm in
                   names - self.TEMPORARIES), names
        assert self.TEMPORARIES <= names and {"exp", "log"} <= names
        assert all(type(node.value) in (int, float) for node in ast.walk(tree)
                   if isinstance(node, ast.Constant))
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        calls = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)}
        inlined = {f"g{i}" for i, c in enumerate(costs) if id(c.scalar_gradient) in _EXPRESSIONS}
        assert not calls & inlined
        assert calls - {"exp", "log", "range", "pack"} == (set() if network == "ten"
                                                            else {"g3", "grads"})

    def test_only_catalog_functions_are_inlined(self, monkeypatch):
        # neither a src attribute nor a member's name is read: a function named f1 that
        # carries src is called, a catalog function under an odd name is written inline
        def doubled(x):
            counts[0] += 1
            return 2.0 * x

        counts, src = [0], "__import__('os').getcwd()"
        doubled.src = src
        costs = [CostModel(dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: 2.0 * x,
                           name="f1", scalar_gradient=doubled),
                 dataclasses.replace(catalog("f7"), name="x) + (1")]
        lap = out_laplacian(preset_graph("k2"))
        text = self.source(monkeypatch, costs, lap)
        assert "g0(y0)" in text and "g1(" not in text and "exp(-0.2 * y1)" in text
        assert src not in text and "x) + (1" not in text
        kernel = AffineRK(network_cost(costs), AlgorithmParams(1.0, 1.0), lap, 1e-2, RK4_TABLEAU)
        kernel.advance(np.ones((4, 1)), 3)
        assert counts[0] == 4 * 3


class TestNegationFree:
    """The kernel negates nothing at run time: it carries m = -beta L y, a sampled one
    b - u, and :func:`dynamics._lin` writes a negative first term after a positive second,
    which leaves every sum the float its terms give from left to right."""

    @pytest.mark.parametrize("tableau", [RK4_TABLEAU, EULER_TABLEAU], ids=["rk4", "euler"])
    @pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "sampled"])
    @pytest.mark.parametrize("network", ["ten", "mixed"])
    @pytest.mark.parametrize("gains", [(1.0, 1.0), (1.5, 2.0)], ids=["unit", "gains"])
    def test_kernel_has_no_unary_negative(self, ten_suite, tableau, coupled, network, gains):
        # mixed: a quadratic, a called gradient (agent 3) and one through grads (agent 4)
        costs = list(ten_suite) if network == "ten" else [
            catalog("f5"), quadratic_cost([1.0]), catalog("f6"), called(catalog("f1")),
            dataclasses.replace(catalog("f9"), scalar_gradient=None), catalog("f2")]
        n = len(costs)
        graph = (preset_graph("fig2") if network == "ten"
                 else WeightedDigraph(n, np.roll(np.eye(n), 1, axis=1) + 2.0 * np.eye(n)[::-1]))
        lap = out_laplacian(graph) * coupled
        kernel = AffineRK(network_cost(costs), AlgorithmParams(*gains), lap, 1e-3, tableau)
        ops = [ins.opname for ins in dis.get_instructions(kernel._run)]
        assert "BINARY_OP" in ops and "UNARY_NEGATIVE" not in ops

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3)),
                              st.floats(-1e100, 1e100)), max_size=6))
    def test_lin_source_sums_its_terms_left_to_right(self, pairs):
        text = dynamics._lin([(c, f"y{k}") for k, (c, _) in enumerate(pairs)])
        got = eval(text, {f"y{k}": v for k, (_, v) in enumerate(pairs)})
        # the c != 0 products added left to right (not by sum, which compensates from Python 3.12)
        products = [c * v for c, v in pairs if c]
        want = functools.reduce(operator.add, products) if products else 0.0
        assert struct.pack("<d", got) == struct.pack("<d", want), text

    @pytest.mark.parametrize("scheme", [Continuous(), Periodic(delta=0.05),
                                        CentralizedEvent(kappa=0.5, tau=0.01),
                                        DistributedEvent(eps=np.full(4, 0.05))], ids=lambda s: s.kind)
    def test_zero_start_writes_no_negative_zero(self, tmp_path, scheme):
        # every gradient is 0 at x = 0, so the run rests there and writes +0 throughout (a
        # start at -0.0 is where the kernel's order decides the sign a zero is written with)
        costs = [catalog(nm) for nm in ("f3", "f6", "f8", "f9")]
        sc = make_scenario(costs, graph=preset_graph("cycle4"), scheme=scheme, t_final=0.5,
                           h=1e-2, stride=1, x0=np.zeros((4, 1)), v0=np.zeros((4, 1)))
        simulate(sc).to_csv(tmp_path / "trace.csv")
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == 51 * 4
        assert not [row for row in rows if "-0" in row.split(",")[2:4]]


class TestPackedRows:
    """Each step packs its state into its row of a fresh (steps, 2N, d) array with one
    ``pack_into`` and calls the held stop test on its own x locals: the step loop builds no
    row list or tuple, no lambda, and ``advance`` flattens nothing."""

    @staticmethod
    def loop(kernel) -> list:
        """The instructions of one pass of the generated step loop."""
        ins = list(dis.get_instructions(kernel._run))
        start = next(j for j, i in enumerate(ins) if i.opname == "FOR_ITER")
        return ins[start:max(j for j, i in enumerate(ins) if i.opname == "JUMP_BACKWARD")]

    @pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "sampled"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_step_loop_builds_no_row(self, ten_suite, coupled, d):
        # d = 1: ten catalog costs, every gradient inline; d = 2: a grads([...]) list per stage
        costs = list(ten_suite) if d == 1 else [log_cosh_cost([0.5 * i, 1.0]) for i in range(4)]
        graph = preset_graph("fig2") if d == 1 else WeightedDigraph(4, np.roll(np.eye(4), 1, axis=1))
        kernel = AffineRK(network_cost(costs), AlgorithmParams(1.0, 1.0),
                          out_laplacian(graph) * coupled, 1e-3, RK4_TABLEAU)
        loop = self.loop(kernel)
        ops = [i.opname for i in loop]
        assert ops.count("BUILD_LIST") == (0 if d == 1 else 4)
        assert not {"BUILD_TUPLE", "LIST_APPEND", "MAKE_FUNCTION", "CALL_FUNCTION_EX"} & set(ops)
        assert [i.argval for i in loop if i.opname == "LOAD_GLOBAL"].count("pack") == 1
        assert [i.argval for i in loop if i.opname == "LOAD_FAST"].count("stop") == 2 * (not coupled)

    def test_each_block_is_a_fresh_array(self, ten_suite):
        kernel = AffineRK(network_cost(ten_suite), AlgorithmParams(1.0, 1.0),
                          out_laplacian(preset_graph("fig2")), 1e-3, RK4_TABLEAU)
        z = np.linspace(-1.0, 1.0, 20)[:, None]
        first = kernel.advance(z, 5)
        kept = first.copy()
        second = kernel.advance(first[-1], 5)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(second[0], kernel.advance(kept[-1], 1)[0])

    def test_stop_takes_the_x_entries_of_each_new_state(self):
        # d = 2 rows of four agents: the test sees x's Nd entries row-major, the block ends
        # with the first state where it holds
        nc = network_cost([log_cosh_cost([0.5 * i, 1.0]) for i in range(4)])
        kernel = AffineRK(nc, AlgorithmParams(1.0, 1.0), np.zeros((4, 4)), 1e-2, RK4_TABLEAU)
        seen = []
        kernel.hold(np.zeros((8, 2)), lambda *x: seen.append(x) or len(seen) == 3)
        z = np.arange(16.0).reshape(8, 2) / 16.0
        zs = kernel.advance(z, 10)
        assert len(zs) == 3 and [list(x) for x in seen] == zs[:, :4].reshape(3, 8).tolist()
        kernel.hold(np.zeros((8, 2)))
        np.testing.assert_array_equal(kernel.advance(z, 10)[:3], zs)


class TestBlowupCheck:
    """``_within_limit`` counts the leading states of a block within +-1e12."""

    def test_large_sum_of_squares_within_the_limit_passes(self):
        # each state's sum of squares reads 1.62e25 > 1e24, but every entry is within
        assert dynamics._within_limit(np.full((3, 20, 1), 0.9e12)) == 3

    def test_limit_is_inclusive(self):
        z = stack(col([1e12, -1e12]), col([0.0, 0.0]))
        assert dynamics._within_limit(np.stack([z, -z])) == 2

    @pytest.mark.parametrize("bad", [1.0000001e12, -1.0000001e12, np.nan, np.inf, -np.inf])
    def test_one_bad_entry_fails(self, bad):
        zs = np.zeros((5, 6, 2))
        zs[2, 4, 1] = bad
        assert dynamics._within_limit(zs) == 2
        assert dynamics._within_limit(zs[2:]) == 0


class TestRk4:
    def test_zero_field_only_advances_time(self):
        z = stack(col([1.0, 2.0]), col([3.0, -3.0]))
        assert np.array_equal(rk4(np.zeros_like, z, 0.25), z)

    def test_scalar_exponential_decay(self):
        # dy/dt = -y from 1: y(0.1) = exp(-0.1) = 0.90483741803...
        z1 = rk4(lambda z: -z, col([1.0]), 0.1)
        assert z1[0, 0] == pytest.approx(math.exp(-0.1), abs=1e-7)
        assert z1[0, 0] == pytest.approx(0.9048375, abs=1e-7)

    def test_linear_system_step_matches_matrix_exponential(self, k2):
        # quadratic costs make the flow linear: one step vs expm oracle
        p = AlgorithmParams(1.0, 1.0)
        nc = network_cost([quadratic_cost([4.0]), quadratic_cost([-2.0])])
        sys = linear_system_matrix(k2, p)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 1))
        v = rng.normal(size=(2, 1))
        v -= v.mean()
        h = 0.05

        z1 = rk4(flow(nc, p, out_laplacian(k2)), stack(x, v), h)
        # affine flow: evolve the deviation from equilibrium linearly
        x_bar, v_bar = equilibrium(nc, p)
        z0 = np.concatenate([(x - x_bar).ravel(), (v - v_bar).ravel()])
        want = expm(sys * h) @ z0
        got = (z1 - stack(x_bar, v_bar)).ravel()
        norm0 = np.linalg.norm(np.concatenate([x.ravel(), v.ravel()]))
        assert np.linalg.norm(got - want) <= 10 * h**5 * max(1.0, norm0)

    def test_nonpositive_step_rejected(self, k2, quad_pair):
        with pytest.raises(ValidationError, match="h must be positive"):
            make_scenario(quad_pair, graph=k2, h=0.0)


class TestEquilibrium:
    def test_two_quadratics_closed_form(self, quad_pair_nc):
        x_bar, v_bar = equilibrium(quad_pair_nc, AlgorithmParams(1.0, 1.0))
        assert np.allclose(x_bar.ravel(), [1.0, 1.0], atol=1e-10)
        assert np.allclose(v_bar.ravel(), [6.0, -6.0], atol=1e-10)

    def test_identical_costs_zero_integral_state(self):
        nc = network_cost([catalog("f2"), catalog("f2")])
        _, v_bar = equilibrium(nc, AlgorithmParams(1.0, 1.0))
        assert np.abs(v_bar).max() <= 1e-10

    def test_ten_suite_integral_states_sum_to_zero(self, ten_suite):
        nc = network_cost(ten_suite)
        _, v_bar = equilibrium(nc, AlgorithmParams(2.0, 1.0))
        assert np.abs(v_bar.sum(axis=0)).max() <= 1e-10

    def test_alpha_scales_integral_state(self, quad_pair_nc):
        _, v1 = equilibrium(quad_pair_nc, AlgorithmParams(1.0, 1.0))
        _, v3 = equilibrium(quad_pair_nc, AlgorithmParams(3.0, 1.0))
        assert np.allclose(v3, 3.0 * v1, atol=1e-10)


class TestQuadraticSpectrum:
    def test_k2_system_eigenvalues(self, k2):
        p = AlgorithmParams(1.0, 1.0)
        sys = linear_system_matrix(k2, p)
        got = np.sort_complex(np.linalg.eigvals(sys))
        lam = np.sort(np.linalg.eigvalsh(np.array([[1.0, -1.0], [-1.0, 1.0]])))
        want = np.sort_complex(np.concatenate([-p.alpha * np.ones(2), -p.beta * lam]))
        assert np.abs(got - want).max() <= 1e-8

    def test_rate_matches_quadratic_formula(self, k2):
        # observed tail decay of the linear flow vs min(alpha, beta re lambda_2)
        nc = network_cost([quadratic_cost([4.0]), quadratic_cost([-2.0])])
        sc = make_scenario(nc.agents, graph=k2, t_final=12.0, seed=3)
        trace = simulate(sc)
        err = trace.err.max(axis=1)
        window = (trace.t >= 2.0) & (err > 1e-12)
        slope = np.polyfit(trace.t[window], np.log(err[window]), 1)[0]
        assert -slope >= 0.95 * min(sc.alpha, sc.beta * 2.0)


class TestSimulate:
    def test_converges_and_conserves(self, k2, quad_pair):
        # slowest closed-loop mode here is -(2 - sqrt(2)); t = 20 gives ~1e-5
        sc = make_scenario(quad_pair, graph=k2, t_final=20.0)
        trace = simulate(sc)
        assert trace.err[-1].max() <= 1e-4
        assert np.abs(trace.v.sum(axis=1)).max() <= 1e-9
        assert (np.diff(trace.t) > 0).all()

    def test_bad_initial_v_rejected(self, k2, quad_pair):
        sc = make_scenario(quad_pair, graph=k2, v0=[[1.0], [-1.0]])
        simulate(sc)  # zero-sum pair accepted
        with pytest.raises(ValidationError, match="v0"):
            make_scenario(quad_pair, graph=k2, v0=[[1.0], [0.0]])

    def test_trace_has_x_star_and_err(self, k2, quad_pair):
        trace = simulate(make_scenario(quad_pair, graph=k2, t_final=1.0))
        assert trace.x_star[0] == pytest.approx(1.0, abs=1e-10)
        expect = np.abs(trace.x[:, :, 0] - 1.0)
        assert np.allclose(trace.err, expect, atol=1e-12)

    def test_switching_schedule_validation(self):
        unbalanced = build_digraph(2, [(1, 2, 1.0)])
        with pytest.raises(ValidationError):
            SwitchingSchedule(graphs=(unbalanced,), dwell=1.0)
        disconnected = build_digraph(3, [(1, 2, 1.0), (2, 1, 1.0)])
        with pytest.raises(ValidationError):
            SwitchingSchedule(graphs=(disconnected,), dwell=1.0)

    def test_disconnected_fixed_graph_rejected(self, quad_pair):
        two = build_digraph(4, [(1, 2, 1.0), (2, 1, 1.0), (3, 4, 1.0), (4, 3, 1.0)])
        with pytest.raises(ValidationError, match="graph is not strongly connected"):
            simulate(make_scenario(quad_pair * 2, graph=two, t_final=0.1))

    def test_unbalanced_fixed_graph_rejected(self):
        # strongly connected, but 1^T L != 0: sum v would drift (by 0.6 to t = 30)
        skewed = build_digraph(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (1, 3, 2.0)])
        costs = [quadratic_cost([float(a)]) for a in (1, 2, 3)]
        with pytest.raises(ValidationError, match="graph is not weight balanced"):
            simulate(make_scenario(costs, graph=skewed, t_final=0.1))

    def test_switching_dwell_must_align_with_step(self, quad_pair):
        sched = SwitchingSchedule(graphs=(preset_graph("k2"), preset_graph("cycle2")), dwell=0.0105)
        with pytest.raises(ValidationError, match="dwell"):  # the scenario checks it when built
            make_scenario(quad_pair, schedule=sched, t_final=0.1, h=1e-3)

    def test_network_without_oracle_has_nan_err(self, k2):
        # a non-affine d = 2 network has no oracle: x* is None and err is NaN
        kinked = CostModel(dim=2, value=lambda x: float(x @ x),
                           gradient=lambda x: 2 * x + 1e-3 * np.where(x >= 0, 1.0, -1.0))
        trace = simulate(make_scenario([kinked, kinked], graph=k2, t_final=0.1, stride=1))
        assert trace.x_star is None
        assert trace.err.shape == (101, 2) and np.isnan(trace.err).all()
        assert np.isfinite(trace.x).all()

    def test_switching_run_converges(self, ten_suite):
        sched = SwitchingSchedule(
            graphs=tuple(preset_graph(nm) for nm in ("fig2", "fig2r3", "fig2r7")),
            dwell=2.0)
        sc = make_scenario(ten_suite, schedule=sched, t_final=20.0, beta=5.0, seed=42)
        trace = simulate(sc)
        assert trace.err[-1].max() <= 1e-4
        assert np.abs(trace.v.sum(axis=1)).max() <= 1e-9

    def test_equilibrium_is_fixed_point(self, k2, quad_pair_nc, quad_pair):
        x_bar, v_bar = equilibrium(quad_pair_nc, AlgorithmParams(1.0, 1.0))
        sc = make_scenario(quad_pair, graph=k2, t_final=1.0, x0=x_bar, v0=v_bar)
        trace = simulate(sc)
        assert np.abs(trace.x - x_bar[None]).max() <= 1e-12

    def test_final_sample_recorded_when_stride_misaligned(self, k2, quad_pair):
        sc = make_scenario(quad_pair, graph=k2, t_final=0.025, h=1e-3, stride=10)
        trace = simulate(sc)
        assert trace.t[-1] == pytest.approx(0.025, abs=1e-12)


class TestKernelPerCoupling:
    """``simulate`` builds one kernel per coupling: under sampled information one over
    L = 0 serves every graph, since the held b carries the graph, while continuous
    information builds one per graph.  The schedule is its graph list, cycled in order:
    a graph listed three times runs as that graph held fixed."""

    @pytest.mark.parametrize("affine", [False, True], ids=["catalog", "quadratic"])
    @pytest.mark.parametrize("scheme, built", [
        (Continuous(), 3), (Periodic(delta=0.05), 1), (DistributedEvent(eps=np.full(10, 0.05)), 1),
        (CentralizedEvent(kappa=0.06, tau=0.02), 1)])
    def test_three_graph_set_builds_a_kernel_per_coupling(self, monkeypatch, ten_suite, affine,
                                                          scheme, built):
        laps = []
        monkeypatch.setattr(dynamics, "rk_kernel",
                            lambda nc, p, lap, *args: laps.append(lap) or rk_kernel(nc, p, lap, *args))
        sched = SwitchingSchedule(tuple(preset_graph(g) for g in ("fig2", "fig2r3", "fig2r7")),
                                  dwell=0.02)
        simulate(make_scenario(ring_quadratics() if affine else ten_suite, schedule=sched,
                               scheme=scheme, t_final=0.1))
        assert len(laps) == built
        want = [out_laplacian(g) for g in sched.graphs] if built > 1 else [np.zeros((10, 10))]
        for got, lap in zip(laps, want):
            np.testing.assert_array_equal(got, lap)

    @pytest.mark.parametrize("scheme", [Continuous(), Periodic(delta=0.05),
                                        DistributedEvent(eps=np.full(10, 0.05))])
    def test_graph_listed_thrice_runs_as_the_fixed_graph(self, ten_suite, scheme):
        # the dwell is 30 steps, but no boundary between equal graphs is a switch
        g = preset_graph("fig2")
        runs = [simulate(make_scenario(ten_suite, scheme=scheme, t_final=0.5, **topology))
                for topology in ({"graph": g},
                                 {"schedule": SwitchingSchedule((g, g, g), dwell=0.03)})]
        assert runs[0].event_times.size > 10 or isinstance(scheme, Continuous)
        for name in ("t", "x", "v", "x_hat", "err", "event_agents", "event_times"):
            np.testing.assert_array_equal(getattr(runs[1], name), getattr(runs[0], name),
                                          err_msg=name)

    @pytest.mark.parametrize("scheme", [Continuous(), Periodic(delta=0.05),
                                        DistributedEvent(eps=np.full(10, 0.05)),
                                        CentralizedEvent(kappa=0.06, tau=0.02)])
    def test_equal_graphs_poll_and_build_as_one_graph(self, monkeypatch, ten_suite, scheme):
        # fig2 and an equal copy, listed three times: a boundary between equal graphs is no
        # switch, so the law is polled, kernels are built and blocks end as for fig2 held fixed
        counts, trigger_law = [], schedulers.trigger_law

        def counted_law(*args):
            law = trigger_law(*args)
            if law is not None:
                law.fire = lambda *a, _fire=law.fire: counts.append("fire") or _fire(*a)
            return law

        monkeypatch.setattr(schedulers, "trigger_law", counted_law)
        def counted_kernel(*args):
            kernel = rk_kernel(*args)
            kernel.advance = lambda *a, _advance=kernel.advance: (counts.append("advance")
                                                                 or _advance(*a))
            return counts.append("kernel") or kernel

        monkeypatch.setattr(dynamics, "rk_kernel", counted_kernel)
        g = preset_graph("fig2")
        copy = WeightedDigraph(g.n, g.weights.copy())
        runs = []
        for topology in ({"graph": g}, {"schedule": SwitchingSchedule((g, copy, g), dwell=0.03)}):
            counts.clear()
            simulate(make_scenario(ten_suite, scheme=scheme, t_final=0.5, **topology))
            runs.append((counts.count("fire"), counts.count("kernel"), counts.count("advance")))
        assert runs[1] == runs[0] and runs[0][1] == 1
        assert runs[0][0] > 1 or isinstance(scheme, Continuous)
        assert runs[0][2] > 1


class TestEuler:
    def test_fixed_point_preserved(self, k2, quad_pair, quad_pair_nc):
        x_bar, v_bar = equilibrium(quad_pair_nc, AlgorithmParams(1.0, 1.0))
        sc = make_scenario(quad_pair, graph=k2, scheme=EulerScheme(delta=0.2),
                           t_final=4.0, x0=x_bar, v0=v_bar, stride=1)
        trace = simulate(sc)
        assert np.abs(trace.x - x_bar[None]).max() <= 1e-12

    def test_first_order_accuracy(self, k2, quad_pair):
        # error vs the RK4 reference at t = 1 shrinks linearly in the step
        x0 = np.array([[3.0], [-2.0]])
        ref = simulate(make_scenario(quad_pair, graph=k2, t_final=1.0, h=1e-4,
                                     stride=10**4, x0=x0))
        errs = []
        for delta in (0.02, 0.01):
            sc = make_scenario(quad_pair, graph=k2, scheme=EulerScheme(delta=delta),
                               t_final=1.0, stride=round(1.0 / delta), x0=x0)
            tr = simulate(sc)
            errs.append(np.abs(tr.x[-1] - ref.x[-1]).max())
        ratio = errs[1] / errs[0]
        assert 0.3 <= ratio <= 0.7  # halving the step about halves the error

    def test_blowup_detected_with_partial_trace(self, k2, quad_pair):
        sc = make_scenario(quad_pair, graph=k2, scheme=EulerScheme(delta=2.5),
                           t_final=200.0, x0=np.array([[5.0], [-5.0]]), stride=1)
        with pytest.raises(NumericalBlowup) as excinfo:
            simulate(sc)
        partial = excinfo.value.trace
        assert partial is not None and partial.t.size >= 1

    def test_conservation_under_euler(self, k2, quad_pair):
        sc = make_scenario(quad_pair, graph=k2, scheme=EulerScheme(delta=0.1),
                           t_final=20.0, stride=1)
        trace = simulate(sc)
        assert np.abs(trace.v.sum(axis=1)).max() <= 1e-9


class TestAnalysisInvariants:
    def test_isometry_along_trace(self, k2, quad_pair, quad_pair_nc):
        trace = simulate(make_scenario(quad_pair, graph=k2, t_final=2.0))
        basis = complement_basis(2)
        x_bar, v_bar = equilibrium(quad_pair_nc, AlgorithmParams(1.0, 1.0))
        for k in range(trace.t.size):
            y = trace.x[k] - x_bar
            z = np.concatenate([[basis.r @ y[:, 0]], basis.R.T @ y[:, 0]])
            assert abs(np.linalg.norm(z) - np.linalg.norm(y)) <= 1e-10


@st.composite
def linear_cases(draw):
    """Unit-curvature quadratics over a random weight-balanced, strongly
    connected digraph, with random gains and a zero-sum start."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 2))
    weights = draw(balanced_weights(n))
    a = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n * d, max_size=n * d)))
    alpha = draw(st.floats(0.5, 2.0))
    beta = draw(st.floats(0.5, 2.0))
    seed = draw(st.integers(0, 2**16))
    return WeightedDigraph(n, weights), a.reshape(n, d), alpha, beta, seed


class TestLinearFlowProperty:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(linear_cases())
    def test_simulate_matches_matrix_exponential(self, case):
        g, a, alpha, beta, seed = case
        n, d = a.shape
        costs = [quadratic_cost(ai) for ai in a]
        v0 = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(n, d))
        v0 -= v0.mean(axis=0)
        t_final = 1.0
        trace = simulate(make_scenario(costs, graph=g, alpha=alpha, beta=beta, t_final=t_final,
                                       h=1e-3, stride=1000, seed=seed, v0=v0))
        p = AlgorithmParams(alpha, beta)
        x_bar, v_bar = equilibrium(network_cost(costs), p)
        # the flow is affine: the deviation from equilibrium evolves by expm
        z0 = np.concatenate([(trace.x[0] - x_bar).ravel(), (trace.v[0] - v_bar).ravel()])
        z1 = expm(linear_system_matrix(g, p, d) * t_final) @ z0
        got = np.concatenate([(trace.x[-1] - x_bar).ravel(), (trace.v[-1] - v_bar).ravel()])
        # RK4 at h = 1e-3 is ~1e-12 off here; a wrong flow term is off by O(|z0|)
        assert np.abs(got - z1).max() <= 1e-9 * max(1.0, np.abs(z0).max())
        assert np.abs(trace.v.sum(axis=1) - v0.sum(axis=0)).max() <= 1e-9
        # the oracle stops at |sum grad| <= 1e-12, i.e. within 1e-12 / n of -mean(a)/2
        assert np.abs(trace.x_star + a.mean(axis=0) / 2).max() <= 1e-12


def reference_csv(trace) -> str:
    """``trace.csv`` written one row at a time, the reference for ``Trace.to_csv``."""
    flags = np.zeros((trace.t.size, trace.n_agents), dtype=int)
    for a, te in zip(trace.event_agents, trace.event_times):
        k = int(np.searchsorted(trace.t, te - 1e-12))
        if k < trace.t.size:
            flags[k, a] = 1
    lines = ["t,agent,x,v,err,event\n"]
    for k, tk in enumerate(trace.t):
        for a in range(trace.n_agents):
            xs = ";".join(f"{c:.17g}" for c in trace.x[k, a])
            vs = ";".join(f"{c:.17g}" for c in trace.v[k, a])
            lines.append(f"{tk:.17g},{a + 1},{xs},{vs},{trace.err[k, a]:.17g},{flags[k, a]}\n")
    return "".join(lines)


class TestTraceCsv:
    @pytest.mark.parametrize("chunk", [1, 3, 1000])
    def test_matches_row_by_row_reference(self, tmp_path, monkeypatch, chunk):
        # vector states over many decades, inf, -0 and NaN errors; events on
        # nodes, between them, repeated and past the last sample
        monkeypatch.setattr(dynamics, "CSV_CHUNK", chunk)
        rng = np.random.default_rng(4)
        s, n, d = 11, 3, 2
        x = rng.normal(size=(s, n, d)) * 10.0 ** rng.integers(-300, 300, size=(s, n, d))
        x[0, 0, 0], x[-1, -1, -1] = np.inf, -0.0
        err = np.abs(rng.normal(size=(s, n)))
        err[2, 1] = np.nan
        times = np.concatenate([[0.0, 0.0, 0.03, 0.03], rng.uniform(0.0, 0.12, 20)])
        trace = dynamics.Trace(t=0.01 * np.arange(s), x=x, v=-x, x_hat=x, err=err,
                               event_agents=rng.integers(0, n, times.size),
                               event_times=np.sort(times), h=0.01, alpha=1.0, beta=1.0)
        trace.to_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text() == reference_csv(trace)
