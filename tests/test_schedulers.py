import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import balanced_weights, col, make_scenario
from distopt import dynamics, schedulers
from distopt.certificates import certify
from distopt.costs import catalog, quadratic_cost
from distopt.dynamics import SwitchingSchedule, simulate
from distopt.errors import ValidationError
from distopt.graph import WeightedDigraph, preset_graph, spectral_summary
from distopt.scenarios import AnalysisOptions, preset_dict, scenario_from_dict
from distopt.schedulers import (
    CentralizedEvent,
    DistributedEvent,
    EulerScheme,
    Periodic,
    _cascade,
    _centralized_due,
    _threshold,
    centralized_g,
    distributed_g,
    distributed_stop,
    event_stats,
    periodic_due,
    trigger_law,
)


class TestSchemeValidation:
    def test_periodic_needs_positive_delta(self):
        with pytest.raises(ValidationError):
            Periodic(delta=0.0)

    def test_centralized_constraints(self):
        with pytest.raises(ValidationError):
            CentralizedEvent(kappa=1.0, tau=0.1)
        with pytest.raises(ValidationError):
            CentralizedEvent(kappa=0.5, tau=0.0)
        CentralizedEvent(kappa=0.999, tau=0.1)

    def test_distributed_needs_positive_thresholds(self):
        with pytest.raises(ValidationError):
            DistributedEvent(eps=np.array([0.1, 0.0]))
        with pytest.raises(ValidationError):
            DistributedEvent(eps=np.array([]))

    def test_euler_needs_positive_delta(self):
        with pytest.raises(ValidationError):
            EulerScheme(delta=-0.1)


class TestPeriodicDue:
    def test_initial_broadcast(self):
        assert periodic_due(0.0, 0.5, -math.inf)
        assert periodic_due(0.0, 0.5, math.nan)

    def test_threshold(self):
        assert not periodic_due(1.4999, 0.5, 1.0)
        assert periodic_due(1.5, 0.5, 1.0)

    def test_grid_products_fire_on_time(self):
        # node times formed as k*h must not miss the period by rounding
        h = 1e-3
        last = 500 * h
        assert periodic_due(1000 * h, 0.5, last)

    def test_event_grid_alignment(self, k2, quad_pair):
        sc = make_scenario(quad_pair, graph=k2, scheme=Periodic(delta=0.5),
                           t_final=10.0, h=1e-3)
        trace = simulate(sc)
        stats = event_stats(trace)
        assert (stats.counts == 21).all()  # t = 0, 0.5, ..., 10.0
        assert stats.global_min_gap == pytest.approx(0.5, abs=1e-9)
        for te in trace.event_times:
            assert te / 0.5 == pytest.approx(round(te / 0.5), abs=1e-9)

    def test_off_grid_delta_never_lengthens_the_period(self, k2, quad_pair):
        # two steps of 0.01 fit in delta = 0.025: broadcasts at 0, 0.02, ...,
        # never at 0.03, 0.06, ..., which would stretch the certified period
        sc = make_scenario(quad_pair, graph=k2, scheme=Periodic(delta=0.025),
                           t_final=0.1, h=0.01, stride=1)
        times = np.unique(simulate(sc).event_times)
        assert np.allclose(times, 0.02 * np.arange(6), atol=1e-12)
        assert np.diff(times).max() <= 0.025

    def test_delta_shorter_than_step_rejected(self, k2, quad_pair):
        with pytest.raises(ValidationError, match="scheme.delta"):
            make_scenario(quad_pair, graph=k2, scheme=Periodic(delta=0.005),
                          t_final=0.1, h=0.01)
        make_scenario(quad_pair, graph=k2, scheme=Periodic(delta=0.01), t_final=0.1, h=0.01)


def due(x, x_hat, g, eps2):
    """The distributed node poll, g > 0, on a graph, its threshold built from ``x_hat``."""
    return distributed_g(x, x_hat, _threshold(x_hat, g.weights, eps2), g.out_degrees) > 0


def cascade(x, x_hat, g, eps2):
    """``_cascade`` on a graph, its threshold built from ``x_hat``."""
    return _cascade(x, x_hat, _threshold(x_hat, g.weights, eps2), g.weights, eps2,
                    g.out_degrees)


class TestCentralizedTrigger:
    def test_dwell_blocks(self):
        assert not _centralized_due(col([5.0, -5.0]), col([9.0, -9.0]), 0.5, 0.0, 0.1, 0.05)

    def test_no_drift_no_fire(self):
        x = col([1.0, 2.0])
        assert not _centralized_due(x, x.copy(), 0.5, 0.0, 0.1, 1.0)

    def test_worked_two_agent_case(self):
        # centered drift norm^2 = 2 exceeds kappa * 0 once past the dwell
        assert _centralized_due(col([0.0, 0.0]), col([1.0, -1.0]), 0.3, 0.0, 0.5, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            CentralizedEvent(kappa=1.5, tau=0.5)
        with pytest.raises(ValidationError):
            CentralizedEvent(kappa=0.5, tau=-1.0)


class TestDistributedTrigger:
    def test_zero_drift_never_fires(self, k2):
        x = col([3.0, 1.0])
        assert not due(x, x.copy(), k2, 1e-9**2)[0]

    def test_threshold_with_two_out_neighbors(self):
        # d_out = 2 and all broadcasts equal: fires iff drift > eps / (2 sqrt 2)
        g = preset_graph("k3")
        eps = 0.002
        threshold = eps / (2 * math.sqrt(2))  # 7.0710678e-4
        for drift, expect in ((0.99 * threshold, False), (1.01 * threshold, True)):
            x_hat = np.zeros((3, 1))
            x = x_hat.copy()
            x[0, 0] = drift
            assert due(x, x_hat, g, eps**2)[0] == expect

    def test_neighbor_disagreement_suppresses(self, k2):
        # large broadcast disagreement dominates a moderate drift
        assert not due(col([1.0, 10.0]), col([0.0, 10.0]), k2, 0.002**2)[0]

    def test_eps_validation(self):
        with pytest.raises(ValidationError):
            DistributedEvent(eps=0.0)


class TestCascade:
    def test_empty_when_quiet(self, k2):
        x = col([0.1, -0.1])
        eps2 = np.array([0.5, 0.5]) ** 2
        assert cascade(x, x.copy(), k2, eps2) == []

    def test_singleton(self, k2):
        x_hat = col([0.0, 0.0])
        eps2 = np.array([0.1, 0.1]) ** 2
        fired = cascade(col([2.0, 0.0]), x_hat, k2, eps2)
        assert fired == [0]
        assert x_hat[0, 0] == 2.0  # refreshed in place

    def test_two_agent_chain(self, k2):
        # agent 0 fires; its refresh shrinks agent 1's protection and fires it too
        x, x_hat = col([1.05, 1.2]), col([0.0, 1.0])
        eps2 = np.array([0.1, 0.1]) ** 2
        assert not due(x, x_hat, k2, eps2)[1]
        fired = cascade(x, x_hat, k2, eps2)
        assert fired == [0, 1]
        assert np.allclose(x_hat.ravel(), [1.05, 1.2])

    def test_later_agent_fires_first_earlier_in_next_sweep(self, k2):
        # agent 0 is protected by its disagreement with agent 1's broadcast;
        # agent 1 fires in the first sweep, after agent 0 was passed over,
        # and its refresh leaves agent 0 due in the second sweep
        x, x_hat = col([1.0, 0.5]), col([0.0, 3.0])
        eps2 = np.array([0.1, 0.1]) ** 2
        mask = due(x, x_hat, k2, eps2)
        assert not mask[0]
        assert mask[1]
        assert cascade(x, x_hat, k2, eps2) == [0, 1]
        assert np.array_equal(x_hat.ravel(), [1.0, 0.5])


def sweep_reference(x, x_hat, weights, eps2):
    """Per-agent ascending sweeps until one fires nothing; mutates x_hat."""
    n = x.shape[0]
    fired = []
    while True:
        fired_in_sweep = False
        for i in range(n):
            if i in fired:
                continue
            drift = np.sum((x_hat[i] - x[i]) ** 2)
            disagreement = np.sum(weights[i] * np.sum((x_hat[i] - x_hat) ** 2, axis=1))
            if 4.0 * weights[i].sum() * drift > disagreement + eps2[i]:
                x_hat[i] = x[i]
                fired.append(i)
                fired_in_sweep = True
        if not fired_in_sweep:
            return sorted(fired)


@st.composite
def cascade_cases(draw):
    """A weight-balanced, strongly connected digraph with random states,
    broadcasts and thresholds."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 2))
    weights = draw(balanced_weights(n))
    values = st.lists(st.floats(-3.0, 3.0), min_size=n * d, max_size=n * d)
    x = np.array(draw(values)).reshape(n, d)
    x_hat = np.array(draw(values)).reshape(n, d)
    eps = np.array(draw(st.lists(st.floats(1e-3, 3.0), min_size=n, max_size=n)))
    return weights, x, x_hat, eps


class TestCascadeProperty:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(cascade_cases())
    def test_matches_per_agent_sweep_reference(self, case):
        weights, x, x_hat, eps = case
        assert np.allclose(weights.sum(axis=0), weights.sum(axis=1))  # balanced
        expect_hat = x_hat.copy()
        expected = sweep_reference(x, expect_hat, weights, eps**2)
        thr = _threshold(x_hat, weights, eps**2)
        got = _cascade(x, x_hat, thr, weights, eps**2, weights.sum(axis=1))
        assert got == expected
        assert np.array_equal(x_hat, expect_hat)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(cascade_cases(), st.floats(0.0, 1.0))
    def test_cached_threshold_carries_to_the_next_node(self, case, move):
        # the threshold _cascade leaves behind equals a fresh one, and a
        # later node that reuses it fires what a fresh evaluation fires
        weights, x, x_hat, eps = case
        eps2, dout = eps**2, weights.sum(axis=1)
        thr = _threshold(x_hat, weights, eps2)
        _cascade(x, x_hat, thr, weights, eps2, dout)
        assert np.array_equal(thr, _threshold(x_hat, weights, eps2))
        x_next = x + move * (x[::-1] - x)
        expect_hat = x_hat.copy()
        expected = sweep_reference(x_next, expect_hat, weights, eps2)
        assert _cascade(x_next, x_hat, thr, weights, eps2, dout) == expected
        assert np.array_equal(x_hat, expect_hat)
        assert np.array_equal(thr, _threshold(x_hat, weights, eps2))


@st.composite
def screen_cases(draw):
    """A (kb, N, d) stack of states around a broadcast ``x_hat``, their node
    times, a dwell, and one state j put on the boundary of each law: kappa
    and the thresholds are set from state j, a hair inside the firing side."""
    kb, n, d = draw(st.integers(1, 12)), draw(st.integers(2, 6)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shift = draw(st.sampled_from([0.0, 1.0, 1e3]))  # a common offset the projector removes
    x_hat = rng.uniform(-3.0, 3.0, size=(n, d)) + shift
    xs = x_hat + np.cumsum(rng.normal(scale=0.3, size=(kb, n, d)), axis=0)
    j = draw(st.integers(0, kb - 1))
    ts = 1e-3 * np.arange(1, kb + 1)
    pi = np.eye(n) - 1.0 / n
    xc, dev = pi @ xs[j], pi @ (x_hat - xs[j])
    kappa = float(np.vdot(dev, dev)) / float(np.vdot(xc, xc)) * (1.0 - 4e-16)
    dout = rng.uniform(0.5, 3.0, size=n)
    drift = x_hat - xs[j]
    thr = 4.0 * dout * (drift * drift).sum(axis=1) * (1.0 - 4e-16)
    thr[draw(st.integers(0, n - 1))] *= draw(st.sampled_from([1.0, 1e6]))
    return xs, x_hat, ts, draw(st.sampled_from([0.0, 2.5e-3, 1.0])), kappa, thr, dout


def centralized_law(kappa, tau, x_hat, h=1e-3):
    """The centralized law of a run stepped by ``h``, past its t = 0 broadcast of
    ``x_hat``.  The law reads ``kappa`` and ``tau`` only, so a plain namespace stands
    in for the scheme and admits the draws' tau = 0 (no dwell)."""
    law = schedulers._CentralizedLaw(SimpleNamespace(kappa=kappa, tau=tau), h, ())
    law.fire(0, x_hat, x_hat.copy(), 0)
    return law


def distributed_screen_law(thr, dout):
    """A distributed law holding the threshold ``thr`` and out-degrees ``dout``, for its
    screen only (its graph plays no part in the screen)."""
    law = trigger_law(DistributedEvent(eps=np.ones(len(dout))), 1e-3, ())
    law.thr, law.dout = thr, dout
    return law


def first_true(flags) -> int:
    """Index of the first True in ``flags``, its length if none."""
    flags = list(flags)
    return flags.index(True) if True in flags else len(flags)


class TestScreens:
    """A law's block screen names exactly the first node where its node poll fires,
    ties included: each screen tests g > 0 as the poll does, and g over a stack
    rounds as at each state."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(screen_cases())
    def test_centralized_screen_never_passes_a_firing_node(self, case):
        xs, x_hat, ts, tau, kappa, _, _ = case
        assume(kappa < 1.0)
        fires = [_centralized_due(x, x_hat, kappa, 0.0, tau, t) for x, t in zip(xs, ts)]
        # the screen covers nodes 1 .. kb, at the times ts, after the broadcast at node 0
        assert centralized_law(kappa, tau, x_hat).screen(xs, 0, x_hat) == first_true(fires)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(screen_cases())
    def test_distributed_screen_never_passes_a_firing_node(self, case):
        xs, x_hat, _, _, _, thr, dout = case
        fires = [(distributed_g(x, x_hat, thr, dout) > 0).any() for x in xs]
        assert distributed_screen_law(thr, dout).screen(xs, 0, x_hat) == first_true(fires)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(2, 8), st.sampled_from([1, 2, 3]),
           st.integers(0, 2**16), st.sampled_from([0.0, 1.0, 1e3]))
    def test_distributed_g_of_a_stack_is_bitwise_per_state(self, kb, n, d, seed, shift):
        # the screens' g > 0 carries no margin: over a (kb, N, d) stack, the
        # distributed and the centralized g round exactly as at each (N, d) state
        # the node poll sees
        rng = np.random.default_rng(seed)
        x_hat = rng.uniform(-3.0, 3.0, size=(n, d)) + shift
        xs = x_hat + np.cumsum(rng.normal(scale=0.3, size=(kb, n, d)), axis=0)
        thr, dout = rng.uniform(0.0, 5.0, size=n), rng.uniform(0.5, 3.0, size=n)
        per_state = np.stack([distributed_g(x, x_hat, thr, dout) for x in xs])
        assert np.array_equal(distributed_g(xs, x_hat, thr, dout), per_state)
        kappa = rng.uniform(0.0, 1.0)
        per_state = np.array([centralized_g(x, x_hat, kappa) for x in xs])
        assert np.array_equal(centralized_g(xs, x_hat, kappa), per_state)

    def test_quiet_block_is_cleared(self):
        x_hat = col([0.0, 1.0, 2.0])
        xs = np.stack([x_hat + 1e-3 * k for k in range(1, 6)])  # a common drift only
        assert centralized_law(0.1, 0.0, x_hat).screen(xs, 0, x_hat) == 5
        assert distributed_screen_law(np.ones(3), np.ones(3)).screen(xs, 0, x_hat) == 5


class TestStopTest:
    """The RK kernel's stop tests are the laws' g > 0 on Python floats: the distributed
    one, :func:`distributed_stop`, bit for bit for d < 8, where numpy sums left to right;
    for d >= 8 and for the centralized law, whose numpy g rounds in another order, they
    flag every state where g > 0, within a relative margin below it."""

    @staticmethod
    def distributed_cases(d: int):
        """200 draws of a threshold, a (6, N, d) stack and the stop test, with the threshold
        at, just above and just below state 0's own 4 d_out ||drift||^2, or random."""
        rng = np.random.default_rng(d)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            x_hat = rng.uniform(-3.0, 3.0, size=(n, d)) * 10.0 ** rng.integers(-3, 4)
            xs = x_hat + rng.normal(size=(6, n, d)) * 10.0 ** rng.integers(-4, 2, size=(6, n, 1))
            dout = rng.uniform(0.5, 3.0, size=n)
            drift = x_hat - xs[0]
            g0 = 4.0 * dout * np.add.reduce(drift * drift, axis=-1)
            for thr in (g0, np.nextafter(g0, np.inf), np.nextafter(g0, -np.inf),
                        rng.uniform(0.0, 2.0, size=n) * g0.max()):
                yield x_hat, xs, thr, dout, g0

    @pytest.mark.parametrize("d", range(1, 8))
    def test_stop_equals_the_sign_of_g(self, d):
        for x_hat, xs, thr, dout, g0 in self.distributed_cases(d):
            stop = distributed_stop(x_hat, thr, dout)
            for x in xs:
                want = bool((distributed_g(x, x_hat, thr, dout) > 0).any())
                assert stop(*x.ravel().tolist()) == want
            assert not distributed_stop(x_hat, g0, dout)(*xs[0].ravel().tolist())

    @pytest.mark.parametrize("d", [8, 9, 16])
    def test_wide_stop_flags_every_state_with_g_above_zero(self, d):
        # numpy sums d >= 8 entries pairwise: the test may round apart, never to a miss
        for x_hat, xs, thr, dout, _ in self.distributed_cases(d):
            stop = distributed_stop(x_hat, thr, dout)
            for x in xs:
                g = distributed_g(x, x_hat, thr, dout)
                flagged = stop(*x.ravel().tolist())
                assert flagged or not (g > 0).any()
                assert not flagged or (g > -2e-6 * thr).any()  # the margin is relative

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(screen_cases())
    def test_centralized_stop_flags_every_state_with_g_above_zero(self, case):
        xs, x_hat, _, _, kappa, _, _ = case
        assume(kappa < 1.0)
        stop = centralized_law(kappa, 0.0, x_hat).watch(x_hat)
        pi = np.eye(len(x_hat)) - 1.0 / len(x_hat)
        for x in xs:
            g, flagged = centralized_g(x, x_hat, kappa), stop(*x.ravel().tolist())
            assert flagged or not g > 0
            dev, xc = pi @ (x_hat - x), pi @ x
            assert not flagged or g > -2e-6 * (np.vdot(dev, dev) + kappa * np.vdot(xc, xc))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(screen_cases(), st.integers(1, 3))
    def test_dwell_counts_the_nodes_the_poll_refuses(self, case, fire):
        # from each node k after a broadcast at node `fire`, the stop test passes over
        # exactly the nodes where _centralized_due refuses a state with g > 0
        xs, x_hat, _, tau, _, _, _ = case
        law, h = centralized_law(0.0, tau, x_hat), 1e-3  # kappa = 0: g > 0 off consensus
        x = x_hat.copy()
        x[0] += 1.0
        law.last = -math.inf  # no dwell holds the broadcast at node `fire` back
        law.fire(fire, x, x_hat.copy(), 0)
        assert law.last == fire * h
        for k in range(fire, fire + 30):
            refused = [not _centralized_due(x, x_hat, 0.0, law.last, tau, (k + 1 + j) * h)
                       for j in range(len(xs))]
            assert law.dwell(k, len(xs)) == sum(refused) == first_true([not r for r in refused])

    def test_law_watches_its_held_threshold(self):
        weights = preset_graph("fig2").weights
        law = trigger_law(DistributedEvent(eps=np.full(10, 0.1)), 1e-3,
                          (WeightedDigraph(10, weights),))
        x_hat = np.zeros((10, 1))  # consensus: thr = eps^2, so g_3 > 0 iff |x_3| > eps / 2 / d_out^0.5
        law.fire(0, x_hat, x_hat.copy(), 0)
        stop, x, edge = law.watch(x_hat), x_hat.copy(), 0.1 / 2 / math.sqrt(weights[3].sum())
        x[3] = 0.999 * edge
        assert not stop(*x.ravel().tolist())
        x[3] = 1.001 * edge
        assert stop(*x.ravel().tolist())
        assert trigger_law(Periodic(delta=0.1), 1e-3, ()).watch(x_hat) is None


class TestPollIsSignOfG:
    """Each event law's node poll fires exactly where its signed g is positive (past the
    dwell, for the centralized law), and a periodic run polls at its periodic nodes only."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(screen_cases(), st.integers(1, 12))
    def test_centralized_poll(self, case, k):
        xs, x_hat, _, tau, kappa, _, _ = case
        assume(kappa < 1.0)
        for x in xs:
            fired = centralized_law(kappa, tau, x_hat).fire(k, x, x_hat.copy(), 0)
            assert bool(fired) == (k * 1e-3 >= tau and centralized_g(x, x_hat, kappa) > 0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(cascade_cases())
    def test_distributed_poll(self, case):
        weights, x, x_hat, eps = case
        law = trigger_law(DistributedEvent(eps=eps), 1e-3, (WeightedDigraph(len(x), weights),))
        law.fire(0, x_hat, x_hat.copy(), 0)  # the t = 0 broadcast builds the threshold
        g = distributed_g(x, x_hat, _threshold(x_hat, weights, eps**2), weights.sum(axis=1))
        assert bool(law.fire(1, x, x_hat.copy(), 0)) == (g > 0).any()

    @pytest.mark.parametrize("delta", [0.005, 0.0075, 0.03])
    def test_periodic_run_polls_at_each_cap_node(self, monkeypatch, k2, quad_pair, delta):
        # a block ends at each periodic node by its length, and the run polls there and
        # nowhere else: at the nodes where a law polled at every node fires, t_final too
        law, x = trigger_law(Periodic(delta=delta), 1e-3, ()), col([1.0, 2.0])
        fires = [k for k in range(41) if law.fire(k, x, x.copy(), 0)]
        assert fires[0] == 0
        polled, due = [], periodic_due
        monkeypatch.setattr(schedulers, "periodic_due",
                            lambda t, *a: polled.append(round(t / 1e-3)) or due(t, *a))
        for costs in (quad_pair, [catalog("f1"), catalog("f3")]):  # FoldedRK, AffineRK
            polled.clear()
            trace = simulate(make_scenario(costs, graph=k2, scheme=Periodic(delta=delta),
                                           t_final=0.04, h=1e-3))
            assert polled == fires == np.rint(trace.event_times[::2] / 1e-3).astype(int).tolist()


class TestEventStats:
    def test_periodic_arithmetic(self, k2, quad_pair):
        sc = make_scenario(quad_pair, graph=k2, scheme=Periodic(delta=0.5), t_final=10.0)
        stats = event_stats(simulate(sc))
        assert stats.counts.tolist() == [21, 21]
        assert stats.min_gaps.min() == pytest.approx(0.5, abs=1e-9)
        assert not stats.zeno_flag

    def test_empty_log(self, k2, quad_pair):
        trace = simulate(make_scenario(quad_pair, graph=k2, t_final=1.0))
        stats = event_stats(trace)
        assert stats.counts.sum() == 0
        assert (stats.min_gaps == stats.horizon).all()
        assert not stats.zeno_flag

    def test_zeno_proxy_flags_dense_events(self, k2, quad_pair):
        # a period equal to the step makes every gap equal h, tripping the proxy
        sc = make_scenario(quad_pair, graph=k2, scheme=Periodic(delta=1e-3),
                           t_final=0.1, h=1e-3)
        stats = event_stats(simulate(sc))
        assert stats.zeno_flag

    @pytest.mark.parametrize("nodes_apart, flagged", [(2, True), (3, False)])
    def test_zeno_proxy_at_two_node_gap_despite_rounding(self, nodes_apart, flagged):
        # (1 + 2) h - 1 h rounds to just above 2 h at h = 2e-4
        h = 2e-4
        trace = SimpleNamespace(n_agents=1, h=h, t=np.array([0.0, 5 * h]),
                                event_agents=np.array([0, 0]),
                                event_times=np.array([1 * h, (1 + nodes_apart) * h]))
        assert event_stats(trace).zeno_flag is flagged


class TestTraceEventConsistency:
    def test_broadcast_values_match_states_at_events(self, k2, quad_pair):
        sc = make_scenario(quad_pair, graph=k2, scheme=Periodic(delta=0.05),
                           t_final=1.0, stride=1)
        trace = simulate(sc)
        for agent, te in zip(trace.event_agents, trace.event_times):
            k = int(np.searchsorted(trace.t, te - 1e-12))
            assert trace.t[k] == pytest.approx(te, abs=1e-12)
            assert np.allclose(trace.x_hat[k, agent], trace.x[k, agent], atol=1e-15)

    def test_dwell_enforced_exactly(self, quad_pair):
        g = preset_graph("k2")
        sc = make_scenario(quad_pair, graph=g,
                           scheme=CentralizedEvent(kappa=0.3, tau=0.037),
                           t_final=5.0, stride=1)
        trace = simulate(sc)
        stats = event_stats(trace)
        assert stats.counts.sum() > 2  # events actually happen
        assert stats.global_min_gap >= 0.037 - 1e-12

    def test_centralized_condition_sound_between_events(self, quad_pair):
        g = preset_graph("k2")
        kappa, tau = 0.3, 0.037
        sc = make_scenario(quad_pair, graph=g,
                           scheme=CentralizedEvent(kappa=kappa, tau=tau),
                           t_final=5.0, stride=1)
        trace = simulate(sc)
        times = np.unique(trace.event_times)
        for k, tk in enumerate(trace.t):
            prev_events = times[times <= tk + 1e-12]
            if prev_events.size == 0:
                continue
            t_last = prev_events[-1]
            if tk <= t_last + tau or np.any(np.isclose(times, tk, atol=1e-12)):
                continue
            k_last = int(np.searchsorted(trace.t, t_last - 1e-12))
            dev = trace.x[k_last] - trace.x[k]
            dev = dev - dev.mean(axis=0)
            xc = trace.x[k] - trace.x[k].mean(axis=0)
            assert np.sum(dev * dev) <= kappa * np.sum(xc * xc) + 1e-12

    def test_distributed_condition_sound_at_samples(self, ten_suite):
        g = preset_graph("fig2")
        eps = np.full(10, 0.01)
        sc = make_scenario(ten_suite, graph=g, scheme=DistributedEvent(eps=eps),
                           t_final=2.0, stride=1, seed=4)
        trace = simulate(sc)
        dout = g.out_degrees
        for k in range(trace.t.size):
            drift2 = np.sum((trace.x_hat[k] - trace.x[k]) ** 2, axis=1)
            lhs = 4.0 * dout * drift2
            diffs = trace.x_hat[k][:, None, :] - trace.x_hat[k][None, :, :]
            rhs = (g.weights * np.sum(diffs**2, axis=2)).sum(axis=1) + eps**2
            assert (lhs <= rhs + 1e-12).all()


@st.composite
def certified_distributed_cases(draw):
    """Unit-curvature quadratics over a random weight-balanced, strongly
    connected digraph, with the coupling drawn as a multiple of the
    algebraic connectivity and phi at the maximizer of gamma'.  The start
    lies within 0.03 of the equilibrium, which keeps the certified
    trajectory bound small, so most tau_i exceed the step."""
    n = draw(st.integers(2, 5))
    g = WeightedDigraph(n, draw(balanced_weights(n)))
    lh2 = spectral_summary(g).lambda_hat_2
    beta = draw(st.floats(7.5, 15.0)) / lh2
    a = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    near = st.lists(st.floats(-0.03, 0.03), min_size=n, max_size=n)
    x0 = -a.mean() / 2 + np.array(draw(near))
    dv = np.array(draw(near))
    v0 = (a.mean() - a) / 2 + dv - dv.mean()  # equilibrium v_i = -grad f_i(x*)
    eps = draw(st.lists(st.floats(1e-3, 3e-2), min_size=n, max_size=n))
    return g, a, beta, (1.0 + 4.5 * beta * lh2) / 8.0 - 1.0, eps, x0, v0


class TestDistributedGapProperty:
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(certified_distributed_cases())
    def test_observed_gaps_respect_certified_tau_i(self, case):
        g, a, beta, phi, eps, x0, v0 = case
        h = 2.5e-4
        # keep RK4 inside its stability region at this coupling
        assume(beta * spectral_summary(g).lambda_N * h < 2.0)
        sc = make_scenario([quadratic_cost([ai]) for ai in a], graph=g, beta=beta,
                           scheme=DistributedEvent(eps=np.asarray(eps)), t_final=0.5, h=h,
                           stride=2000, x0=col(x0), v0=col(v0), analysis=AnalysisOptions(phi=phi))
        report = certify(sc)
        assume(report.feasible["distributed_event"])
        # triggers are polled at nodes, so a gap can undershoot tau_i by one step
        stats = event_stats(simulate(sc))
        assert (stats.min_gaps >= np.asarray(report.tau_i) - h).all()


def sampled_reference(sc):
    """Per-node recomputation of a sampled-information run on a switching
    schedule: the trigger law and the coupling L x_hat are formed afresh
    from the active graph at every node, and RK4 steps the held field as
    written.  Returns the stacked [x; v] at every node and the events as
    (agent, node) pairs."""
    nc, h, scheme = sc.network, sc.h, sc.scheme
    alpha, beta = sc.alpha, sc.beta
    graphs, spd = sc.schedule.graphs, round(sc.schedule.dwell / h)
    x, v = sc.x0.copy(), sc.v0.copy()
    x_hat = x.copy()
    n = x.shape[0]
    states, events, t_last = [], [], -math.inf
    for k in range(round(sc.t_final / h) + 1):
        t = k * h
        g = graphs[(k // spd) % len(graphs)]
        if k == 0:
            fired = list(range(n))
        elif scheme.kind == "centralized_event":
            dev = (x_hat - x) - (x_hat - x).mean(axis=0)
            xc = x - x.mean(axis=0)
            due = t - t_last >= scheme.tau and np.sum(dev * dev) > scheme.kappa * np.sum(xc * xc)
            fired = list(range(n)) if due else []
        else:
            fired = sweep_reference(x, x_hat, g.weights, scheme.eps**2)
        x_hat[fired] = x[fired]
        t_last = t if fired else t_last
        events += [(i, k) for i in fired]
        states.append(np.concatenate([x, v]))
        coupling = g.weights.sum(axis=1)[:, None] * x_hat - g.weights @ x_hat

        def dx(y, w):
            return -alpha * nc.grad_stack(y) - beta * coupling - w

        dv = alpha * beta * coupling
        k1 = dx(x, v)
        k2 = dx(x + h / 2 * k1, v + h / 2 * dv)
        k3 = dx(x + h / 2 * k2, v + h / 2 * dv)
        k4 = dx(x + h * k3, v + h * dv)
        x, v = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), v + h * dv
    return np.array(states), events


def switching_scenario(scheme):
    """Three quadratics on two different balanced digraphs, switched every
    50 steps: a directed 3-cycle with a light reverse cycle, and a heavy
    3-cycle alone."""
    cycle = np.roll(np.eye(3), 1, axis=1)
    graphs = (WeightedDigraph(3, cycle + 0.5 * cycle.T), WeightedDigraph(3, 3.0 * cycle))
    return make_scenario([quadratic_cost([a]) for a in (4.0, -2.0, 1.0)], beta=2.0,
                         schedule=SwitchingSchedule(graphs=graphs, dwell=0.05),
                         scheme=scheme, t_final=0.6, h=1e-3, stride=1,
                         x0=col([3.0, -1.0, 0.5]))


def count_calls(monkeypatch):
    """Count calls of the cached-term builders and of the cascade."""
    counts = dict.fromkeys(("_threshold", "held_terms", "_cascade"), 0)
    for owner, name in ((schedulers, "_threshold"), (dynamics, "held_terms"),
                        (schedulers, "_cascade")):
        def counted(*args, _orig=getattr(owner, name), _name=name):
            counts[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(owner, name, counted)
    return counts


class TestCachedTerms:
    """The threshold and the held coupling are cached between broadcasts
    and topology switches; a run must match one that recomputes them at
    every node."""

    @pytest.mark.parametrize("scheme", [DistributedEvent(eps=np.full(3, 0.05)),
                                        CentralizedEvent(kappa=0.05, tau=0.004)],
                             ids=["distributed", "centralized"])
    def test_switching_run_matches_per_node_recomputation(self, scheme):
        sc = switching_scenario(scheme)
        trace = simulate(sc)
        states, events = sampled_reference(sc)
        nodes = np.rint(trace.event_times / sc.h).astype(int)
        assert list(zip(trace.event_agents.tolist(), nodes.tolist())) == events
        # broadcasts happen in most dwells, under both graphs, not only at t = 0
        dwells = set((nodes[nodes > 0] // 50).tolist())
        assert len(dwells) >= 8 and {i % 2 for i in dwells} == {0, 1}
        assert np.abs(np.concatenate([trace.x, trace.v], axis=1) - states).max() <= 1e-12

    def test_rebuilt_once_per_broadcast_and_switch(self, monkeypatch):
        sc = switching_scenario(DistributedEvent(eps=np.full(3, 0.05)))
        counts = count_calls(monkeypatch)
        trace = simulate(sc)
        nodes = np.rint(trace.event_times / sc.h).astype(int)
        switches = set(range(50, 601, 50))
        # each fire after t = 0 changes x_hat, so the threshold is rebuilt
        # per fire (the cascade tests the next agent against it); t = 0
        # builds the first one
        assert counts["_threshold"] == 1 + np.count_nonzero(nodes) + len(switches)
        assert counts["held_terms"] == len(set(nodes.tolist()) | switches)

    def test_fig5_threshold_built_per_broadcast(self, monkeypatch):
        sc = scenario_from_dict(preset_dict("fig5") | {"t_final": 0.4})
        counts = count_calls(monkeypatch)
        trace = simulate(sc)
        nodes = np.rint(trace.event_times / sc.h).astype(int)
        assert np.count_nonzero(nodes) > np.unique(nodes[nodes > 0]).size > 0  # cascades too
        assert counts["_threshold"] == 1 + np.count_nonzero(nodes)  # fig5 never switches
        assert counts["held_terms"] == np.unique(nodes).size
        # polled only at the nodes the kernel's stop test flags past t = 0, and each poll fires
        assert counts["_cascade"] == np.unique(nodes[nodes > 0]).size
