import ast
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from distopt.costs import (
    _EXPRESSIONS,
    CATALOG_NAMES,
    CostModel,
    catalog,
    check_convexity_constants,
    minimize_global,
    network_cost,
    quadratic_cost,
    with_estimated_constants,
)
from distopt.errors import OracleFailure, ValidationError

X = sympy.Symbol("x")
SYMBOLIC = {
    "f1": 0.5 * sympy.exp(-0.5 * X) + 0.4 * sympy.exp(0.3 * X),
    "f2": (X - 4) ** 2,
    "f3": 0.5 * X**2 * sympy.log(1 + X**2) + X**2,
    "f4": X**2 + sympy.exp(0.1 * X),
    "f5": sympy.log(sympy.exp(-0.1 * X) + sympy.exp(0.3 * X)) + 0.1 * X**2,
    "f6": X**2 / sympy.log(2 + X**2),
    "f7": 0.2 * sympy.exp(-0.2 * X) + 0.4 * sympy.exp(0.4 * X),
    "f8": X**4 + 2 * X**2 + 2,
    "f9": X**2 / sympy.sqrt(X**2 + 1) + 0.1 * X**2,
    "f10": (X + 2) ** 2,
}


class TestCatalog:
    def test_names(self):
        assert CATALOG_NAMES == tuple(f"f{i}" for i in range(1, 11))
        with pytest.raises(ValidationError, match="unknown cost 'f11'"):
            catalog("f11")

    def test_f2_minimum(self):
        f2 = catalog("f2")
        assert f2.value(np.array([4.0])) == 0.0
        assert f2.gradient(np.array([4.0]))[0] == 0.0

    def test_f10_minimum(self):
        assert catalog("f10").gradient(np.array([-2.0]))[0] == 0.0

    def test_f8_gradient_symbolic(self):
        # d/dx (x^4 + 2 x^2 + 2) at 1 is 8
        dsym = sympy.diff(SYMBOLIC["f8"], X)
        assert float(dsym.subs(X, 1)) == 8.0
        assert catalog("f8").gradient(np.array([1.0]))[0] == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_values_and_gradients_match_symbolic(self, name):
        fsym = SYMBOLIC[name]
        dsym = sympy.diff(fsym, X)
        model = catalog(name)
        for xv in np.linspace(-6.0, 6.0, 13):
            assert model.value(np.array([xv])) == pytest.approx(float(fsym.subs(X, xv)), rel=1e-10)
            assert model.gradient(np.array([xv]))[0] == pytest.approx(float(dsym.subs(X, xv)), rel=1e-10)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_gradient_matches_finite_differences(self, name):
        model = catalog(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        h = 1e-5
        for xv in rng.uniform(-10.0, 10.0, size=100):
            fd = (model.value(np.array([xv + h])) - model.value(np.array([xv - h]))) / (2 * h)
            grad = model.gradient(np.array([xv]))[0]
            assert abs(grad - fd) <= 1e-6 * max(1.0, abs(grad))

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_gradient_monotone(self, name):
        model = catalog(name)
        rng = np.random.default_rng(99)
        for _ in range(200):
            a, b = rng.uniform(-10.0, 10.0, size=2)
            ga = model.gradient(np.array([a]))[0]
            gb = model.gradient(np.array([b]))[0]
            assert (b - a) * (gb - ga) >= -1e-12

    def test_lipschitz_flags(self):
        assert catalog("f2").m == catalog("f2").M == 2.0
        assert catalog("f10").m == catalog("f10").M == 2.0
        assert catalog("f3").m is None

    @pytest.mark.parametrize("text", sorted(_EXPRESSIONS.values()))
    def test_expression_constants_are_floats(self, text):
        # the kernel writes these inline, and CPython specializes only float-float operations;
        # an int converts to the same double, so the values do not change
        consts = [node.value for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Constant)]
        assert consts and all(type(c) is float for c in consts), consts

    # the texts before the sum 1.0 + x * x (f3) and 2.0 + x * x (f6) was named and reused
    PRIOR_TEXTS = {"f3": "x * log(1.0 + x * x) + x**3.0 / (1.0 + x * x) + 2.0 * x",
                   "f6": "2.0 * x / (lg := log(2.0 + x * x)) - 2.0 * x**3.0 / ((2.0 + x * x) * lg * lg)"}

    @pytest.mark.parametrize("name", sorted(PRIOR_TEXTS))
    def test_named_subexpression_keeps_every_bit(self, name):
        # same operations on the same operands: the values agree bit for bit on a dense grid
        # over [-10, 10] and on draws over 400 decades of magnitude
        prior = eval(f"lambda x: {self.PRIOR_TEXTS[name]}", {"exp": math.exp, "log": math.log})
        rng = np.random.default_rng(24)
        draws = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-300.0, 100.0, 20_000)
        xs = np.concatenate([np.linspace(-10.0, 10.0, 200_001), rng.uniform(-10.0, 10.0, 20_000),
                             draws, [0.0, -0.0]]).tolist()
        grad = catalog(name).scalar_gradient
        assert self.PRIOR_TEXTS[name] != _EXPRESSIONS[id(grad)]
        got, want = np.array([grad(x) for x in xs]), np.array([prior(x) for x in xs])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_scalar_fast_path_agrees(self):
        for name in CATALOG_NAMES:
            model = catalog(name)
            assert model.scalar_gradient(1.7) == model.gradient(np.array([1.7]))[0]


class TestQuadraticFamily:
    def test_gradient_and_constants(self):
        q = quadratic_cost([3.0], b=1.0)
        assert q.m == q.M == 1.0
        assert q.gradient(np.array([2.0]))[0] == pytest.approx(3.5)
        assert q.value(np.array([2.0])) == pytest.approx(0.5 * (4 + 6 + 1))

    def test_vector_case(self):
        q = quadratic_cost([1.0, -2.0])
        assert q.dim == 2
        assert np.allclose(q.gradient(np.array([0.0, 0.0])), [0.5, -1.0])


class TestAffineForms:
    """``affine = (H, c)`` claims grad f(x) = H x + c exactly; the simulation
    steps on that claim instead of calling ``gradient``."""

    @pytest.mark.parametrize("kind", ["quadratic d=1", "quadratic d=2", "f2", "f10"])
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(a=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
           xs=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))
    def test_affine_form_is_the_gradient(self, kind, a, xs):
        model = quadratic_cost(a[:int(kind[-1])]) if kind.startswith("quadratic") else catalog(kind)
        h, c = model.affine
        assert h.shape == (model.dim, model.dim) and c.shape == (model.dim,)
        x = np.array(xs[:model.dim])
        np.testing.assert_allclose(h @ x + c, model.gradient(x), rtol=1e-15, atol=1e-12)

    def test_only_the_affine_catalog_members_carry_a_form(self):
        assert [n for n in CATALOG_NAMES if catalog(n).affine is not None] == ["f2", "f10"]

    def test_network_form_is_the_stacked_gradient(self):
        costs = [quadratic_cost([1.0, -2.0]), quadratic_cost([0.5, 4.0]), quadratic_cost([3.0, 0.0])]
        nc = network_cost(costs)
        h, c = nc.affine
        xs = np.arange(6.0).reshape(3, 2) - 2.5
        np.testing.assert_allclose(h @ xs.ravel() + c, nc.grad_stack(xs).ravel(), rtol=1e-15)
        assert network_cost([catalog("f2"), catalog("f10")]).affine is not None
        assert network_cost([catalog("f2"), catalog("f3")]).affine is None



class TestNetworkCost:
    def test_aggregates(self, quad_pair):
        nc = network_cost(quad_pair)
        assert nc.m_lower == nc.M_upper == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="need at least one cost model"):
            network_cost([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="cost dimensions differ"):
            network_cost([quadratic_cost([1.0]), quadratic_cost([1.0, 2.0])])

    def test_missing_constant_propagates(self):
        nc = network_cost([catalog("f2"), catalog("f8")])
        assert nc.M_upper is None

    def test_grad_stack_matches_members(self, ten_suite):
        nc = network_cost(ten_suite)
        xs = np.linspace(-3, 3, 10).reshape(10, 1)
        stacked = nc.grad_stack(xs)
        for i, model in enumerate(ten_suite):
            assert stacked[i, 0] == pytest.approx(model.gradient(xs[i])[0], abs=1e-15)

    def test_grad_list_matches_grad_stack(self, ten_suite):
        # f8's x**3 overflows at +-1e200: both map it to the signed inf
        nc = network_cost(ten_suite)
        xs = np.linspace(-3, 3, 10).reshape(10, 1)
        xs[7, 0] = 1e200
        for ys in (xs, -xs):
            got = nc.grad_list(ys.ravel().tolist())
            assert np.array_equal(np.array(got), nc.grad_stack(ys).ravel())
            assert all(type(g) is float for g in got)
        assert nc.grad_list(xs.ravel().tolist())[7] == math.inf
        assert nc.grad_list((-xs).ravel().tolist())[7] == -math.inf
        for i, model in enumerate(ten_suite):
            if i != 7:
                assert nc.grad_list(xs.ravel().tolist())[i] == model.gradient(xs[i])[0]

    def test_dispatcher_equals_the_members_scalar_gradients(self, ten_suite):
        nc = network_cost(ten_suite)
        for ys in (np.linspace(-3, 3, 10).tolist(), [0.0] * 10, [-1e3] * 10):
            got = nc.grad_list(ys)
            assert got == [m.scalar_gradient(y) for m, y in zip(ten_suite, ys)]
            assert all(type(g) is float for g in got)

    def test_dispatcher_of_one_member(self):
        nc = network_cost([catalog("f3")])
        assert nc.grad_list([0.7]) == [catalog("f3").scalar_gradient(0.7)]
        assert nc.grad_list([1e200]) == [math.inf]  # x**3 overflows: the per-agent path
        assert nc.grad_list([-1e200]) == [-math.inf]

    def test_dispatcher_source_holds_no_member_text(self):
        # names and reprs never reach the generated source
        odd = dataclasses.replace(catalog("f4"), name='") or __import__("os") #')
        nc = network_cost([odd, catalog("f5")])
        assert nc.grad_list([0.5, -0.5]) == [catalog("f4").scalar_gradient(0.5),
                                              catalog("f5").scalar_gradient(-0.5)]

    def test_no_dispatcher_without_scalar_gradients(self):
        # d = 2, or a member without a scalar gradient: agent by agent through gradient
        boom = mock.Mock(side_effect=AssertionError("scalar gradient called"))
        quad = dataclasses.replace(quadratic_cost([1.0, 2.0]), scalar_gradient=boom)
        assert network_cost([quad]).grad_list([0.5, -0.5]) == [0.5 + 0.5, -0.5 + 1.0]
        affine = network_cost([catalog("f2"), quadratic_cost([3.0])])
        assert affine.grad_list([0.5, -0.5]) == [catalog("f2").scalar_gradient(0.5), -0.5 + 1.5]
        plain = dataclasses.replace(catalog("f3"), scalar_gradient=None)
        nc = network_cost([dataclasses.replace(catalog("f3"), scalar_gradient=boom), plain])
        assert nc.grad_list([0.3, 0.3]) == [catalog("f3").gradient(np.array([0.3]))[0]] * 2
        boom.assert_not_called()

    def test_grad_list_vector_costs_are_row_major(self):
        costs = [quadratic_cost([1.0, -2.0]), quadratic_cost([0.5, 4.0]), quadratic_cost([3.0, 0.0])]
        nc = network_cost(costs)
        xs = np.arange(6.0).reshape(3, 2) - 2.5
        got = nc.grad_list(xs.ravel().tolist())
        assert np.array_equal(np.array(got), nc.grad_stack(xs).ravel())
        assert got == [float(g) for c, x in zip(costs, xs) for g in c.gradient(x)]

    def test_grad_stack_overflow_maps_to_inf(self):
        nc = network_cost([catalog("f7"), catalog("f7")])
        out = nc.grad_stack(np.array([[1e6], [-1e6]]))
        assert out[0, 0] == math.inf
        assert out[1, 0] == -math.inf


class TestOracle:
    def test_two_quadratics_closed_form(self, quad_pair_nc):
        # stationarity: 2(x-4) + 2(x+2) = 0 at x = 1
        assert minimize_global(quad_pair_nc)[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_parabola_vertex(self):
        nc = network_cost([catalog("f2")])
        assert minimize_global(nc)[0] == pytest.approx(4.0, abs=1e-12)

    def test_ten_suite_gradient_at_root(self, ten_suite):
        nc = network_cost(ten_suite)
        x_star = minimize_global(nc, tol=1e-12)
        assert abs(nc.global_gradient(x_star)[0]) <= 1e-12
        # independent root-finder on the same aggregate gradient
        root = brentq(lambda x: nc.global_gradient(np.array([x]))[0], -10.0, 10.0,
                      xtol=1e-14)
        assert x_star[0] == pytest.approx(root, abs=1e-10)

    def test_unbounded_detected(self):
        linear = CostModel(dim=1, value=lambda x: float(x[0]),
                           gradient=lambda x: np.ones(1), name="linear")
        with pytest.raises(OracleFailure, match="no stationary point in"):
            minimize_global(network_cost([linear]))

    def test_two_dimensional_quadratics_closed_form(self):
        # sum of (x'x + x'a^i)/2 has optimum at -mean(a)/2
        a1, a2 = np.array([2.0, -4.0]), np.array([6.0, 0.0])
        nc = network_cost([quadratic_cost(a1), quadratic_cost(a2)])
        x_star = minimize_global(nc, tol=1e-10)
        np.testing.assert_allclose(x_star, -(a1 + a2) / 4.0, rtol=0, atol=1e-15)

    def test_benchmark_ring_optimum_is_exact(self):
        # c^i = i - 5 for i = 1..10 sum to 5 and the H^i = 1 to 10: one exact division
        nc = network_cost([quadratic_cost([2.0 * (i - 5)]) for i in range(1, 11)])
        assert minimize_global(nc)[0] == -0.5

    def test_singular_affine_sum_is_unbounded(self):
        flat = CostModel(dim=2, value=lambda x: float(x[0]), gradient=lambda x: np.array([1.0, 0.0]),
                         name="flat", affine=(np.zeros((2, 2)), np.array([1.0, 0.0])))
        with pytest.raises(OracleFailure, match="singular: no unique stationary point"):
            minimize_global(network_cost([flat, flat]))

    def test_non_affine_two_dimensional_network_raises(self):
        # the oracle is exact for affine networks and bisects for d = 1 only;
        # a kinked d = 2 gradient is neither, so there is no x* to report
        bad = CostModel(dim=2, value=lambda x: float(x @ x),
                        gradient=lambda x: 2 * x + 1e-3 * np.where(x >= 0, 1.0, -1.0),
                        name="kinked")
        with pytest.raises(OracleFailure, match="d = 2"):
            minimize_global(network_cost([bad]), tol=1e-16)


class TestConvexityConstants:
    def test_parabola_exact(self):
        m_est, M_est = check_convexity_constants(catalog("f2"), box=(-10, 10))
        assert m_est == pytest.approx(2.0, abs=1e-9)
        assert M_est == pytest.approx(2.0, abs=1e-9)

    def test_f8_bounds_on_unit_box(self):
        # curvature of x^4 + 2x^2 + 2 is 12 x^2 + 4, at most 16 on [-1, 1]
        m_est, M_est = check_convexity_constants(catalog("f8"), box=(-1, 1), samples=4000)
        assert M_est <= 16.0 + 1e-9
        assert m_est >= 4.0 - 1e-9

    def test_linear_cost_zero_curvature(self):
        linear = CostModel(dim=1, value=lambda x: float(x[0]),
                           gradient=lambda x: np.ones(1), name="linear")
        m_est, M_est = check_convexity_constants(linear, box=(-5, 5))
        assert m_est == pytest.approx(0.0, abs=1e-12)
        assert M_est == pytest.approx(0.0, abs=1e-12)

    def test_with_estimated_constants_fills_missing(self):
        est = with_estimated_constants(catalog("f8"), box=(-2, 2))
        assert est.m is not None and est.M is not None
        assert 4.0 - 1e-9 <= est.m <= est.M <= 12 * 4 + 4 + 1e-9
        # already-complete models pass through untouched
        assert with_estimated_constants(catalog("f2")) is catalog("f2")
