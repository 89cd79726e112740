"""Equilibrium assignment: shortest paths, path shifts, gap, full solves."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    TOY_BECKMANN,
    TOY_RGAP_DIRECT,
    TOY_TARGETS,
    TOY_V,
    TOY_X,
    quadratic_toy_document,
    random_network,
    toy_document,
)
from odadjust import (
    aggregate_flows,
    beckmann_objective,
    parse_network,
    relative_gap,
    solve_tap,
)
from odadjust.errors import DimensionMismatch, Unreachable
from odadjust import network, oracles, tap
from odadjust.network import _dijkstra, _path_links
from odadjust.tap import _gap_bound, _shift_onto

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def net():
    return parse_network(json.dumps(toy_document()))


# -- shortest paths ------------------------------------------------------------

def test_shortest_paths_exact_tree(net):
    res = _dijkstra(net, [1.0, 3.0, 1.0, 1.0], net.node_index[1])
    assert_array_equal(res.dist, [0.0, 1.0, 2.0])
    assert_array_equal(res.pred, [-1, 0, 2])


def test_shortest_paths_at_equilibrium_times(net):
    res = _dijkstra(net, net.link_times(TOY_V).tolist(), net.node_index[1])
    assert_allclose(res.dist, [0.0, 19.0 / 12.0, 5.0 / 3.0], rtol=1e-12)
    assert res.pred[0] == -1


def test_shortest_paths_deterministic(net):
    costs = [1.0, 1.0, 0.0, 0.0]     # two equal-cost routes everywhere
    first = _dijkstra(net, costs, net.node_index[1])
    for _ in range(5):
        res = _dijkstra(net, costs, net.node_index[1])
        assert_array_equal(res.pred, first.pred)
        assert_array_equal(res.dist, first.dist)


def test_shortest_paths_stop_at_destination():
    # a search that stops once its destination settles keeps that label and
    # its tree path bit for bit, for every origin and destination, with
    # distinct and with tied costs
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng(5)
    for costs in (rng.uniform(1.0, 2.0, gnet.n_links).tolist(), [1.0] * gnet.n_links):
        for o in range(gnet.n_nodes):
            full = _dijkstra(gnet, costs, o)
            for dest in range(gnet.n_nodes):
                part = _dijkstra(gnet, costs, o, dest)
                assert part.dist[dest] == full.dist[dest]
                assert (_path_links(gnet, part, o, dest)
                        == _path_links(gnet, full, o, dest))


# -- objective, path shift, gap -------------------------------------------------

def test_beckmann_objective_closed_form(net):
    assert_allclose(beckmann_objective(net, TOY_V), TOY_BECKMANN, rtol=1e-15)
    with pytest.raises(DimensionMismatch):
        beckmann_objective(net, np.zeros(3))


def _kept_lists(net, v):
    """The flows, times and derivatives a sweep keeps, as lists."""
    return (list(v), net.link_times(v).tolist(), net.link_time_derivs(v).tolist())


def test_path_shift_lands_on_equal_costs(net):
    # commodity 2 all on its direct link 1->3 (path 0, links (1,)); its other
    # route 1->2->3 is path 1, links (0, 2).  Linear costs make the diagonal
    # Newton step exact: one shift of 1/12 equalizes both routes at 5/3.
    v, t, dt = _kept_lists(net, [1.5, 1.75, 0.0, 0.0])
    evals, links = net.link_evals, [(1,), (0, 2)]
    moved, flows = _shift_onto(evals, v, t, dt, {0: 1.75, 1: 0.0}, 1, links, {})
    assert moved and list(flows) == [0, 1]
    assert_allclose(flows[1], 1.0 / 12.0, rtol=1e-15)
    assert_allclose(flows[0], 5.0 / 3.0, rtol=1e-15)
    assert_allclose(v, TOY_V, rtol=1e-15, atol=1e-15)
    t = net.link_times(v)
    assert_allclose(t[1], t[0] + t[2], rtol=1e-15)
    again = _shift_onto(evals, v, t, dt, dict(flows), 1, links, {})
    assert again == (False, flows)      # nothing left to gain


def test_path_shift_capped_at_path_flow(net):
    # commodity 1 has 0.1 on 1->3->2 (path 1, links (1, 3)); the Newton step
    # 0.55/3 exceeds it, so all of it moves to the direct link (path 0) and
    # the path empties, leaving the flows
    v, t, dt = _kept_lists(net, [1.4, 1.85, 0.0, 0.1])
    diffs = {}
    moved, flows = _shift_onto(net.link_evals, v, t, dt, {0: 1.4, 1: 0.1}, 0,
                               [(0,), (1, 3)], diffs)
    assert moved and list(flows) == [0]
    assert_allclose(flows[0], 1.5, rtol=1e-15)
    assert_allclose(v, [1.5, 1.75, 0.0, 0.0], atol=1e-15)
    assert diffs == {1: ([1, 3], [0], [1, 3, 0])}


def test_path_shifts_keep_times_of_the_running_flows():
    # after any series of shifts, the kept lists are t(v) and t'(v) of the
    # shifted flows bit for bit, as net.link_times and link_time_derivs give;
    # each shift moves flow between random nodes, from a random path to the
    # shortest one under t
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng(7)
    ids, links, diffs = {}, [], []

    def path(costs, o, dest):
        p = _path_links(gnet, _dijkstra(gnet, costs, o, dest), o, dest)
        if p not in ids:
            ids[p] = len(links)
            links.append(p)
            diffs.append({})
        return ids[p]

    for _ in range(5):
        v, t, dt = _kept_lists(gnet, rng.uniform(0.0, 6.0, gnet.n_links))
        moves = 0
        for _ in range(100):
            o, dest = rng.choice(gnet.n_nodes, size=2, replace=False).tolist()
            p = path(rng.uniform(1.0, 2.0, gnet.n_links).tolist(), o, dest)
            q = path(t, o, dest)
            if p != q:
                moves += _shift_onto(gnet.link_evals, v, t, dt,
                                     {p: rng.uniform(0.0, 2.0), q: 0.0}, q, links,
                                     diffs[q])[0]
        assert moves > 20
        va = np.array(v)
        assert_array_equal(np.array(t).view(np.int64), gnet.link_times(va).view(np.int64))
        assert_array_equal(np.array(dt).view(np.int64),
                           gnet.link_time_derivs(va).view(np.int64))


def test_relative_gap_values(net):
    v_direct = np.array([1.5, 1.75, 0.0, 0.0])
    assert_allclose(relative_gap(net, TOY_TARGETS, v_direct),
                    TOY_RGAP_DIRECT, rtol=1e-14)
    assert relative_gap(net, TOY_TARGETS, TOY_V) <= 1e-12
    assert relative_gap(net, np.zeros(2), np.zeros(4)) == 0.0


def test_relative_gap_validation(net):
    # shapes and demands are checked as solve_tap and beckmann_objective
    # check them; negative flows on the toy's cycle 2->3->2 give negative
    # times, around which a full search would not end
    with pytest.raises(DimensionMismatch):
        relative_gap(net, [1.0], TOY_V)
    with pytest.raises(DimensionMismatch):
        relative_gap(net, TOY_TARGETS, TOY_V[:3])
    for d in ([np.nan, 1.0], [np.inf, 1.0], [-1.0, 1.0]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            relative_gap(net, d, TOY_V)
    with pytest.raises(ValueError, match="times must be nonnegative"):
        relative_gap(net, TOY_TARGETS, [0.0, 0.0, -5.0, -5.0])


def _full_tree_gap(net, d, v):
    """relative_gap's value from full shortest-path trees."""
    t = net.link_times(v)
    best = 0.0
    for i in range(net.n_commodities):
        if d[i] != 0.0:
            tree = _dijkstra(net, t.tolist(), net.origin_idx[i])
            best += d[i] * tree.dist[net.destination_idx[i]]
    total = float(t @ v)
    return (total - best) / max(total, 1e-30)


def test_relative_gap_matches_full_trees():
    # the gap is bit for bit the one read off a full tree per commodity,
    # also with a zero demand
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    one_off = gnet.target_demands.copy()
    one_off[1] = 0.0
    for d in (gnet.target_demands, one_off):
        for sweeps in (0, 1, 5, 20):
            v = solve_tap(gnet, d, tol=0.0, max_iter=sweeps).v
            assert relative_gap(gnet, d, v) == _full_tree_gap(gnet, d, v)


# -- full solves -----------------------------------------------------------------

def test_solve_tap_reference_equilibrium(net):
    sol = solve_tap(net, TOY_TARGETS, tol=1e-8)
    assert sol.converged
    assert sol.rgap <= 1e-8
    assert_allclose(sol.v, TOY_V, atol=1e-8)
    assert_allclose(sol.X, TOY_X, atol=1e-8)
    assert_allclose(sol.beckmann, TOY_BECKMANN, rtol=1e-10)
    assert_allclose(net.M_dot(sol.X), net.Gamma_dot(TOY_TARGETS), atol=1e-12)
    assert_allclose(aggregate_flows(net, sol.X), sol.v, atol=1e-12)


def test_solve_tap_zero_demand(net):
    sol = solve_tap(net, np.zeros(2))
    assert sol.converged and sol.iterations == 0
    assert_array_equal(sol.v, np.zeros(4))
    assert sol.rgap == 0.0
    sol = solve_tap(net, np.array([1.5, 0.0]))
    assert sol.converged
    assert_array_equal(sol.X[4:], np.zeros(4))
    # lone commodity splits 2:1 so the direct link matches the two-link route
    assert_allclose(sol.v, [1.0, 0.5, 0.0, 0.5], atol=1e-8)


def test_solve_tap_validation(net):
    with pytest.raises(DimensionMismatch):
        solve_tap(net, np.zeros(3))
    with pytest.raises(ValueError):
        solve_tap(net, np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        solve_tap(net, np.array([1.0, np.nan]))


def test_overflowing_path_cost_is_unreachable():
    # each link time is finite, but the only path 1 -> 2 -> 3 costs more than
    # a float holds, so the search leaves node 3 without a tree link
    doc = {"nodes": [1, 2, 3],
           "links": [{"id": 1, "from": 1, "to": 2, "coeffs": [1e308]},
                     {"id": 2, "from": 2, "to": 3, "coeffs": [1e308]},
                     {"id": 3, "from": 2, "to": 1, "coeffs": [1.0]}],
           "commodities": [{"origin": 1, "destination": 3, "target": 1.0}]}
    snet = parse_network(json.dumps(doc))
    with pytest.raises(Unreachable, match="no path to the destination"):
        solve_tap(snet, snet.target_demands)


def test_link_time_overflowing_mid_sweep_is_unreachable():
    # the first commodity's shift loads the quartic link until its time
    # overflows; the second commodity's search would read it, so the solve
    # stops there with the cause named and no NumPy warning
    doc = {"nodes": [1, 2],
           "links": [{"id": 1, "from": 1, "to": 2, "coeffs": [1, 1]},
                     {"id": 2, "from": 1, "to": 2, "coeffs": [2, 0, 0, 0, 1e305]}],
           "commodities": [{"origin": 1, "destination": 2, "target": 10.0},
                           {"origin": 1, "destination": 2, "target": 1.0}]}
    snet = parse_network(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Unreachable, match="not finite"):
            solve_tap(snet, snet.target_demands)
    assert caught == []


def test_infinite_derivative_ends_the_sweeps():
    # t' overflows to inf on the loaded link, so the Newton step onto the
    # cheap detour is 0: no flow moves, and the first sweep ends the solve
    doc = {"nodes": [1, 2, 3],
           "links": [{"id": "a", "from": 1, "to": 2, "coeffs": [0, 1e308, 8e307]},
                     {"id": "b", "from": 1, "to": 3, "coeffs": [1]},
                     {"id": "c", "from": 3, "to": 2, "coeffs": [1]}],
           "commodities": [{"origin": 1, "destination": 2, "target": 0.5}]}
    snet = parse_network(json.dumps(doc))
    sol = solve_tap(snet, snet.target_demands)
    assert sol.iterations == 1 and not sol.converged
    assert_array_equal(sol.v, [0.5, 0.0, 0.0])


def test_solve_tap_beckmann_descends_across_budgets():
    # the 3x3 grid takes 8 iterations to 1e-10, 4 of them Newton steps (86
    # sweeps alone); the last budget converges
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    beck = []
    for budget in [*range(25), 50, 100, 50000]:
        sol = solve_tap(gnet, gnet.target_demands, tol=1e-10, max_iter=budget)
        assert sol.iterations <= budget
        assert_allclose(sol.X.reshape(gnet.n_commodities, -1).sum(axis=0), sol.v,
                        rtol=0, atol=1e-12)
        beck.append(sol.beckmann)
    assert sol.converged
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(beck, beck[1:]))


def test_solve_tap_budget_exhaustion():
    qnet = parse_network(json.dumps(quadratic_toy_document()))
    sol = solve_tap(qnet, TOY_TARGETS, tol=1e-30, max_iter=1)
    assert not sol.converged
    assert sol.iterations <= 1


def _cold_start(net, d):
    """X with each commodity's demand on its shortest path under the
    zero-flow link times."""
    t0 = net.link_times(np.zeros(net.n_links)).tolist()
    X = np.zeros(net.n_commodities * net.n_links)
    for i in range(net.n_commodities):
        o, dest = int(net.origin_idx[i]), int(net.destination_idx[i])
        for a in _path_links(net, _dijkstra(net, t0, o, dest), o, dest):
            X[i * net.n_links + a] += d[i]
    return X


@pytest.mark.parametrize("max_iter", [0, -1, -50000])
def test_solve_tap_without_a_budget_makes_no_sweep(max_iter):
    # the budget is tested before every sweep, the first included
    gnet = parse_network((DATA / "grid2x2_1.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    sol = solve_tap(gnet, d, max_iter=max_iter)
    assert sol.iterations == 0 and not sol.converged
    assert sol.X.tobytes() == _cold_start(gnet, d).tobytes()
    assert sol.rgap == pytest.approx(0.334022, rel=0, abs=5e-7)


def test_solve_tap_stops_once_a_sweep_moves_no_flow():
    # at tol 1e-30 the benchmark generator's 3x3 grid, instance 0, does not
    # converge: its Newton steps take the gap to roundoff, the sixth does
    # not lower the bound and is undone, and the sweep after it, the 11th
    # iteration, moves no flow; the solve stops there, far below the budget,
    # where a budget of 10 iterations ends at the same flows
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    sol = solve_tap(gnet, d, tol=1e-30)
    assert sol.iterations == 11 and sol.newton_steps == 6 and not sol.converged
    assert solve_tap(gnet, d, tol=1e-30, max_iter=10).X.tobytes() == sol.X.tobytes()


def test_solve_tap_deterministic():
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    first = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    again = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    assert first.X.tobytes() == again.X.tobytes()
    assert_array_equal(first.v, again.v)
    assert first.iterations == again.iterations


def test_sweep_searches_once_per_commodity(monkeypatch):
    # one search per commodity for the starting paths and one per commodity
    # in every sweep, each stopping at the commodity's destination, and none
    # in a Newton step; the exact gap builds one full tree per origin and
    # runs twice: at the cold start, where each commodity has one path and
    # the bound is 0 up to roundoff, and at the Newton step that converges
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    searches = []

    def spy(net_, costs, o, dest=-1):
        searches.append(dest)
        return _dijkstra(net_, costs, o, dest)

    # the sweep calls tap's binding, the gap's full trees network's own
    monkeypatch.setattr(tap, "_dijkstra", spy)
    monkeypatch.setattr(network, "_dijkstra", spy)
    sol = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    active = gnet.n_commodities
    origins = len(set(gnet.origin_idx.tolist()))
    sweeps = sol.iterations - sol.newton_steps
    assert active >= 2 and sol.converged and sweeps > 0 and sol.newton_steps > 0
    assert sum(dest >= 0 for dest in searches) == active + sweeps * active
    assert searches.count(-1) == 2 * origins
    assert len(searches) == active + sweeps * active + 2 * origins


def _spy_gap_tests(monkeypatch):
    """Record each bound solve_tap computes, with the gap at the same flows,
    and each exact gap it runs, in call order."""
    events = []

    def bound(net_, d, v, flows, links):
        b, costs = _gap_bound(net_, d, v, flows, links)
        events.append(("bound", b, relative_gap(net_, d, v)))
        return b, costs

    def gap(net_, d, v):
        events.append(("gap",))
        return relative_gap(net_, d, v)

    monkeypatch.setattr(tap, "_gap_bound", bound)
    monkeypatch.setattr(tap, "relative_gap", gap)
    return events


@pytest.mark.parametrize("name", ["grid3x3_0.json", "grid5x5_0.json"])
def test_gap_bound_never_exceeds_the_gap(name, monkeypatch):
    # after every iteration, cold and warm-started from the paths of other
    # demands (one commodity then starts cold), the bound from the used
    # paths is at most the exact gap, bit for bit; it is a usable bound,
    # above the tolerance after most sweeps.  After a Newton step it can
    # fall within the tolerance while the gap does not: the step equalizes
    # the used paths, and a cheaper unused one is left to the next sweep
    gnet = parse_network((DATA / name).read_text(encoding="utf-8"))
    d = gnet.target_demands
    other = 0.8 * d
    other[1] = 0.0
    warm = solve_tap(gnet, other, tol=1e-8).paths
    events = _spy_gap_tests(monkeypatch)
    newton_flows = tap._newton_flows
    monkeypatch.setattr(tap, "_newton_flows", lambda *args: (
        lambda step: events.append(("step", step is not None)) or step)(newton_flows(*args)))
    for start in (None, warm):
        del events[:]
        sol = solve_tap(gnet, d, tol=1e-10, start=start)
        assert sol.converged and sol.iterations > 5
        bounds = [e for e in events if e[0] == "bound"]
        assert len(bounds) == sol.iterations + 1
        assert all(b <= g for _, b, g in bounds)
        # the bounds after sweeps: those not right after a step taken
        after_sweeps = [e[1] for k, e in enumerate(events[1:], 1) if e[0] == "bound"
                        and events[k - 1] != ("step", True)]
        assert len(after_sweeps) == sol.iterations - sol.newton_steps
        assert sum(b > 1e-10 for b in after_sweeps) >= len(after_sweeps) - 1


def test_exact_gap_runs_only_where_the_bound_allows(monkeypatch):
    # the exact gap runs right after each bound at or below the tolerance,
    # never after one above it, and once more at the end when the last
    # bound was above it: when the budget runs out and when no flow moves
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    events = _spy_gap_tests(monkeypatch)
    for tol, budget in ((1e-8, 50000), (1e-8, 3), (0.0, 3), (1e-30, 50000)):
        del events[:]
        sol = solve_tap(gnet, d, tol=tol, max_iter=budget)
        kinds = [e[0] for e in events]
        assert kinds.count("bound") == sol.iterations + 1
        for k, e in enumerate(events):
            if e[0] == "bound":
                follows = kinds[k + 1:k + 2] == ["gap"]
                assert follows == (not e[1] > tol) or (follows and k == len(events) - 2)
            else:
                assert kinds[k - 1] == "bound"
        assert kinds[-1] == "gap"
        assert kinds.count("gap") <= sum(not e[1] > tol for e in events
                                         if e[0] == "bound") + 1
        assert sol.rgap == relative_gap(gnet, d, sol.v)
        assert sol.converged == (sol.rgap <= tol)


def test_path_pair_differences_once_per_solve(monkeypatch):
    # the links where two paths differ are found once per distinct (p, q)
    # pair a solve shifts between, and again by the next solve
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    diffs, shifts = [], []
    pair_diff, shift_onto = tap._pair_diff, tap._shift_onto

    def spy(evals, v, t, dt, flows, q, links, pair_diffs):
        shifts.extend((links[p], links[q]) for p in flows if p != q)
        return shift_onto(evals, v, t, dt, flows, q, links, pair_diffs)

    monkeypatch.setattr(tap, "_pair_diff", lambda p, q:
                        diffs.append((p, q)) or pair_diff(p, q))
    monkeypatch.setattr(tap, "_shift_onto", spy)
    first = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    assert len(shifts) > 2 * len(diffs) > 0
    assert len(set(diffs)) == len(diffs) == len(set(shifts))
    once = len(diffs)
    again = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    assert len(diffs) == 2 * once
    assert again.X.tobytes() == first.X.tobytes()


def test_solve_tap_grid_sweeps():
    # the benchmark generator's 3x3 grid, instance 0, takes 8 iterations, 4
    # of them Newton steps; sweeps alone take 65, and 112 without the
    # restricted pass; a count well above that means the path shifts lost
    # their step or the pass its moves
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    sol = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    assert sol.converged and sol.rgap <= 1e-8
    assert sol.iterations <= 80
    assert_allclose(gnet.M_dot(sol.X), gnet.Gamma_dot(gnet.target_demands), rtol=0, atol=1e-10)
    assert np.all(sol.X >= 0.0)
    assert_array_equal(sol.v, aggregate_flows(gnet, sol.X))


def test_every_sweep_conserves_flow_cold_and_warm():
    # after every sweep and every Newton step, cold, warm-started from the
    # paths of other demands (one commodity then starts cold), and from a
    # start where every commodity starts warm, each commodity's path
    # flows sum to its demand and are positive, and X and v are assembled
    # from them: X bit for bit as np.add.at sums them, path by path in dict
    # order.  The Newton steps reach the gap's roundoff within the budget,
    # where a sweep that moves no flow ends the solve
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    other = 0.8 * d
    other[1] = 0.0
    warm = solve_tap(gnet, other, tol=1e-8).paths
    newton = solve_tap(gnet, 0.9 * d, tol=1e-8).paths
    for start in (None, warm, newton):
        for sweeps in range(12):
            sol = solve_tap(gnet, d, tol=0.0, max_iter=sweeps, start=start)
            assert sol.iterations == sweeps or (start is newton and sol.iterations < sweeps)
            assert_allclose(gnet.M_dot(sol.X), gnet.Gamma_dot(d), rtol=0, atol=1e-10)
            assert np.all(sol.X >= 0.0)
            assert_array_equal(sol.v, aggregate_flows(gnet, sol.X))
            X = np.zeros(gnet.n_commodities * gnet.n_links)
            for i, flows in sol.paths.items():
                assert min(flows.values()) > 0.0
                assert_allclose(sum(flows.values()), d[i], rtol=1e-14)
                for p, h in flows.items():
                    np.add.at(X, [i * gnet.n_links + a for a in p], h)
            assert sol.X.tobytes() == X.tobytes()


def _spy_newton(monkeypatch, steps=True):
    """Record each used-path system solve_tap assembles; with steps False,
    every Newton step is refused, so a solve makes sweeps alone."""
    systems = []
    path_system, newton_flows = tap._path_system, tap._newton_flows
    monkeypatch.setattr(tap, "_path_system", lambda *args: systems.append(args[1])
                        or path_system(*args))
    monkeypatch.setattr(tap, "_newton_flows", lambda *args: newton_flows(*args)
                        if steps else None)
    return systems


def _spy_iterations(monkeypatch):
    """Record, in call order, each bound solve_tap computes, ("bound",), each
    path shift, ("shift", whether its target path is new to the commodity),
    and each used-path system it assembles, ("system",)."""
    events = []
    gap_bound, shift_onto, path_system = tap._gap_bound, tap._shift_onto, tap._path_system

    def shift(evals, v, t, dt, flows, q, links, diffs):
        events.append(("shift", flows[q] == 0.0))
        return shift_onto(evals, v, t, dt, flows, q, links, diffs)

    monkeypatch.setattr(tap, "_gap_bound", lambda *args: events.append(("bound",))
                        or gap_bound(*args))
    monkeypatch.setattr(tap, "_shift_onto", shift)
    monkeypatch.setattr(tap, "_path_system", lambda *args: events.append(("system",))
                        or path_system(*args))
    return events


def _steps_follow_sweeps_that_add_no_path(events):
    """Whether every used-path system in events comes after a sweep, and the
    last sweep before it added no path; and how many systems there are."""
    added, sweep = None, []     # None until the first sweep ends
    for e in events:
        if e[0] == "shift":
            sweep.append(e[1])
        elif e[0] == "bound" and sweep:
            added, sweep = any(sweep), []
        elif e[0] == "system" and added is not False:
            return False, None
    return True, events.count(("system",))


def test_cold_solve_takes_no_newton_step(monkeypatch):
    # a cold start, and a warm one where a commodity starts cold, sweeps
    # from the first iteration on, and takes no Newton step before a sweep
    # whose searches add no path; on the 3x3 grid both then step, and 5
    # random networks converge in at most two sweeps
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    other = 0.8 * d
    other[1] = 0.0
    warm = solve_tap(gnet, other, tol=1e-8).paths
    events = _spy_iterations(monkeypatch)
    for start in (None, warm):
        del events[:]
        sol = solve_tap(gnet, d, tol=1e-8, start=start)
        assert sol.converged and sol.iterations > 5
        assert _steps_follow_sweeps_that_add_no_path(events) == (True, sol.newton_steps)
        assert sol.newton_steps > 0
    rng = np.random.default_rng(3)
    for _ in range(5):
        rnet = random_network(rng)
        del events[:]
        sol = solve_tap(rnet, rnet.target_demands, tol=1e-8)
        assert sol.converged
        assert _steps_follow_sweeps_that_add_no_path(events) == (True, sol.newton_steps)


def test_cold_steps_start_after_the_first_sweep_that_adds_no_path(monkeypatch):
    # the 3x3 grid's cold solve adds a path in each of its first sweeps; up
    # to the first sweep that adds none, its iterations are the sweeps of a
    # solve that never steps, bit for bit, and the next iteration is a
    # Newton step
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    events = _spy_iterations(monkeypatch)
    solve_tap(gnet, d, tol=1e-8)
    added, bounds = {}, 0       # per sweep k, after k bounds: whether it added a path
    for e in events:
        if e[0] == "bound":
            bounds += 1
        elif e[0] == "shift":
            added[bounds] = added.get(bounds, False) or e[1]
        else:
            break
    first = min(k for k, new in added.items() if not new)
    assert first > 1 and all(added[k] for k in range(1, first))
    sol = solve_tap(gnet, d, tol=1e-8, max_iter=first)
    assert sol.newton_steps == 0
    _spy_newton(monkeypatch, steps=False)
    alone = solve_tap(gnet, d, tol=1e-8, max_iter=first)
    assert alone.X.tobytes() == sol.X.tobytes() and alone.paths == sol.paths
    monkeypatch.undo()
    assert solve_tap(gnet, d, tol=1e-8, max_iter=first + 1).newton_steps == 1


def _oracle_flows(monkeypatch, net, d):
    """oracle_tap's link flows; the 3x3 grids have 9 nodes, one more than
    its path enumeration allows by default, and few enough simple paths."""
    monkeypatch.setattr(oracles, "_MAX_ORACLE_NODES", 9)
    return oracles.oracle_tap(net, d)


def test_warm_newton_solve_beats_sweeps_and_matches_the_oracle(monkeypatch):
    # from the paths of an equilibrium at its targets, the 3x3 grid at 0.9
    # times them converges by Newton steps on the used paths in 3
    # iterations, against 39 sweeps alone, to the oracle's equilibrium
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = 0.9 * gnet.target_demands
    start = solve_tap(gnet, gnet.target_demands, tol=1e-8).paths
    systems = _spy_newton(monkeypatch)
    sol = solve_tap(gnet, d, tol=1e-8, start=start)
    assert sol.converged and 0 < sol.iterations == len(systems) <= 3
    assert all(used == [(i, p) for i, flows in start.items() for p in flows]
               for used in systems)
    _spy_newton(monkeypatch, steps=False)
    sweeps = solve_tap(gnet, d, tol=1e-8, start=start)
    assert sweeps.converged and sweeps.iterations > 10 * sol.iterations
    assert_allclose(sol.v, _oracle_flows(monkeypatch, gnet, d), rtol=0, atol=1e-6)


def test_warm_start_that_needs_a_new_path_still_converges(monkeypatch):
    # from the paths of an equilibrium at half its targets, the 3x3 grid
    # takes Newton steps until the bound from its used paths is within the
    # tolerance; the exact gap is then above it, and sweeps find the paths
    # the start lacks
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    start = solve_tap(gnet, 0.5 * d, tol=1e-8).paths
    events = _spy_newton(monkeypatch)
    gap = tap.relative_gap
    monkeypatch.setattr(tap, "relative_gap", lambda *args: events.append("gap") or gap(*args))
    sol = solve_tap(gnet, d, tol=1e-8, start=start)
    systems = [e for e in events if e != "gap"]
    assert sol.converged and sol.iterations > len(systems) > 0
    # no Newton step follows the first exact gap
    assert set(events[events.index("gap"):]) == {"gap"}
    assert any(p not in start[i] for i, flows in sol.paths.items() for p in flows)
    assert_allclose(sol.v, _oracle_flows(monkeypatch, gnet, d), rtol=0, atol=1e-6)


def test_newton_step_that_does_not_lower_the_bound_is_undone(monkeypatch):
    # at tol 0 the 3x3 grid's fifth Newton step, at the gap's roundoff,
    # raises the bound: it is undone, so a budget of 5 ends at the flows of
    # a budget of 4, bit for bit, and the next iteration is a sweep
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    start = solve_tap(gnet, 0.9 * d, tol=1e-8).paths
    systems = _spy_newton(monkeypatch)
    four = solve_tap(gnet, d, tol=0.0, max_iter=4, start=start)
    assert len(systems) == four.iterations == 4
    del systems[:]
    five = solve_tap(gnet, d, tol=0.0, max_iter=5, start=start)
    assert len(systems) == five.iterations == 5
    assert five.X.tobytes() == four.X.tobytes() and five.paths == four.paths
    del systems[:]
    assert solve_tap(gnet, d, tol=0.0, max_iter=6, start=start).iterations == 6
    assert len(systems) == 5


def test_warm_start_with_one_path_per_commodity_takes_no_newton_step(monkeypatch):
    # at a fifth of its targets each commodity of the 3x3 grid uses one
    # path, so no commodity can split its flow: the solve sweeps
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    start = solve_tap(gnet, 0.2 * d, tol=1e-8).paths
    assert all(len(flows) == 1 for flows in start.values())
    systems = _spy_newton(monkeypatch)
    sol = solve_tap(gnet, d, tol=1e-8, start=start)
    assert sol.converged and sol.iterations > 5 and systems == []


def test_newton_steps_only_where_the_shifts_couple(net, monkeypatch):
    # a Newton step on one split commodity's two paths, or on split
    # commodities whose paths differ on no common link, makes each the
    # shift that a sweep makes twice: the toy and a 2x2 grid, with one
    # split commodity each, warm-start by sweeps alone
    links = [(0,), (1, 2), (3,), (4, 5), (0, 6), (0, 7), (2, 8), (9,), (10,)]
    assert not tap._coupled({0: {0: 1.0}, 1: {2: 1.0}}, links)
    # link 0 is on both paths of the third commodity, so no shift moves it
    assert not tap._coupled({0: {0: 1.0, 1: 1.0}, 1: {2: 1.0, 3: 1.0},
                             2: {4: 1.0, 5: 1.0}}, links)
    assert tap._coupled({0: {0: 1.0, 1: 1.0}, 1: {6: 1.0, 7: 1.0}}, links)
    assert tap._coupled({0: {0: 1.0, 1: 1.0, 8: 1.0}}, links)
    systems = _spy_newton(monkeypatch)
    for gnet in (net, parse_network((DATA / "grid2x2_1.json").read_text(encoding="utf-8"))):
        start = solve_tap(gnet, gnet.target_demands, tol=1e-8).paths
        assert sum(len(flows) > 1 for flows in start.values()) == 1
        d = gnet.target_demands.copy()
        d[0] *= 1.2
        sol = solve_tap(gnet, d, tol=1e-8, start=start)
        assert sol.converged and sol.iterations > 0
    assert systems == []


@pytest.mark.parametrize("kappa", [1e-6, 1e4, 1e8])
def test_newton_steps_independent_of_cost_units(kappa, monkeypatch):
    # every cost times kappa leaves the equilibrium as it was, and the
    # scaled used-path system takes the same steps to it
    doc = json.loads((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    gnet = parse_network(doc)
    for link in doc["links"]:
        link["coeffs"] = [kappa * c for c in link["coeffs"]]
    knet = parse_network(doc)
    d = 0.9 * gnet.target_demands
    start = solve_tap(gnet, gnet.target_demands, tol=1e-8).paths
    systems = _spy_newton(monkeypatch)
    sol = solve_tap(gnet, d, tol=1e-8, start=start)
    steps = len(systems)
    scaled = solve_tap(knet, d, tol=1e-8, start=start)
    assert sol.converged and scaled.converged and steps > 0
    assert scaled.iterations == sol.iterations == len(systems) - steps
    assert_allclose(scaled.v, sol.v, rtol=1e-10, atol=0)


def test_cold_newton_solve_beats_sweeps_and_matches_the_oracle(monkeypatch):
    # the 3x3 grid, cold at its targets, converges in at most 10 iterations
    # with Newton steps, against 65 sweeps alone, to the oracle's equilibrium
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    sol = solve_tap(gnet, d, tol=1e-8)
    assert sol.converged and 0 < sol.newton_steps < sol.iterations <= 10
    _spy_newton(monkeypatch, steps=False)
    sweeps = solve_tap(gnet, d, tol=1e-8)
    assert sweeps.converged and sweeps.iterations == 65 and sweeps.newton_steps == 0
    monkeypatch.undo()
    assert_allclose(sol.v, _oracle_flows(monkeypatch, gnet, d), rtol=0, atol=1e-6)


@pytest.mark.parametrize("name, scale", [("grid4x4_0.json", 1.0), ("grid5x5_0.json", 1.0),
                                         ("grid5x5_0.json", 1.5), ("grid6x6_2.json", 1.5)])
def test_cut_step_leaves_no_dust(name, scale, monkeypatch):
    # a cold solve's step that would empty a path stops where the first
    # path empties: that path leaves at exactly 0, and after every step
    # each path kept carries a flow far above roundoff of its demand
    gnet = parse_network((DATA / name).read_text(encoding="utf-8"))
    d = scale * gnet.target_demands
    steps, cuts = [], 0
    newton_flows = tap._newton_flows

    def spy(net_, d_, v, flows, links, t, cut):
        nonlocal cuts
        out = newton_flows(net_, d_, v, flows, links, t, cut)
        if out is not None:
            steps.append(out)
            cuts += any(len(out[i]) < len(flows[i]) for i in flows)
        return out

    monkeypatch.setattr(tap, "_newton_flows", spy)
    sol = solve_tap(gnet, d, tol=1e-10)
    assert sol.converged and cuts > 0
    for out in steps + [sol.paths]:
        for i, flows in out.items():
            assert min(flows.values()) > 1e-8 * d[i]
            assert_allclose(sum(flows.values()), d[i], rtol=1e-14)


@pytest.mark.parametrize("kappa", [1e-6, 1e4, 1e8])
def test_cold_solve_independent_of_cost_units(kappa):
    # every cost times kappa leaves the equilibrium as it was, and a cold
    # solve of the 5x5 grid, whose Newton steps cut at emptied paths, takes
    # the same sweeps and steps to it
    doc = json.loads((DATA / "grid5x5_0.json").read_text(encoding="utf-8"))
    gnet = parse_network(doc)
    for link in doc["links"]:
        link["coeffs"] = [kappa * c for c in link["coeffs"]]
    knet = parse_network(doc)
    d = gnet.target_demands
    sol, scaled = solve_tap(gnet, d, tol=1e-8), solve_tap(knet, d, tol=1e-8)
    assert sol.converged and scaled.converged and sol.newton_steps > 0
    assert (scaled.iterations, scaled.newton_steps) == (sol.iterations, sol.newton_steps)
    assert [list(f) for f in scaled.paths.values()] == [list(f) for f in sol.paths.values()]
    assert_allclose(scaled.v, sol.v, rtol=1e-12, atol=0)


def test_small_demand_adjustments_build_no_path_system(net, monkeypatch):
    # the toy and the 2x2 grids, the benchmark's small runs, never couple:
    # their cold and warm restorations sweep, and so assemble no used-path
    # system, bit for bit as before cold solves stepped
    from odadjust import IRConfig, solve_dap

    systems = _spy_newton(monkeypatch)
    runs = [(net, d0) for d0 in ([1.0, 2.0], [1.0, 1.5], [1.8, 2.0])]
    runs += [(parse_network((DATA / name).read_text(encoding="utf-8")), None)
             for name in ("grid2x2_1.json", "grid2x2_4.json", "grid2x2_5.json")]
    for gnet, d0 in runs:
        res = solve_dap(gnet, IRConfig(max_outer=30), d0=d0)
        assert res.outer_iterations > 1
    assert systems == []


def test_warm_start_at_its_own_demands_takes_no_sweep():
    # a solve at the same demands, started from a solution's paths, is
    # within the tolerance before any sweep; an empty start is a cold one,
    # bit for bit
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    sol = solve_tap(gnet, d, tol=1e-8)
    again = solve_tap(gnet, d, tol=1e-8, start=sol.paths)
    assert again.converged and again.iterations == 0
    assert_allclose(again.X, sol.X, rtol=0, atol=1e-12)
    assert solve_tap(gnet, d, tol=1e-8, start={}).X.tobytes() == sol.X.tobytes()


def test_start_path_off_its_commodity_is_rejected(net):
    # link index 2 runs from node 2 to node 3: no path of commodity 0, which
    # runs from node 1 to node 2
    with pytest.raises(ValueError, match=r"\(2,\) of commodity 0"):
        solve_tap(net, TOY_TARGETS, start={0: {(2,): 1.0}})


def test_start_outside_the_network_is_rejected(net):
    # a bool is no commodity key or link index, though True == 1
    for path in ((99,), (True,)):
        with pytest.raises(DimensionMismatch, match=r"\(%s,\) of commodity 0" % (path[0],)):
            solve_tap(net, TOY_TARGETS, start={0: {path: 1.0}})
    for key in (2, -1, "0", True):
        with pytest.raises(DimensionMismatch, match="not a commodity"):
            solve_tap(net, TOY_TARGETS, start={key: {(0,): 1.0}})


def test_start_flow_must_be_finite_and_nonnegative(net):
    for h in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"\(0,\) of commodity 0"):
            solve_tap(net, TOY_TARGETS, start={0: {(0,): h}})


def test_start_flow_must_be_a_real_number(net):
    for h in ("1", None):
        with pytest.raises(ValueError, match=r"\(0,\) of commodity 0"):
            solve_tap(net, TOY_TARGETS, start={0: {(0,): h}})


def test_warm_solve_evaluates_no_zero_flow_times(monkeypatch):
    # the zero-flow link times are taken only where a commodity starts cold
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    d = gnet.target_demands
    paths = solve_tap(gnet, d, tol=1e-8).paths
    link_times, flows = gnet.link_times, []
    monkeypatch.setattr(gnet, "link_times", lambda v: flows.append(v) or link_times(v))
    solve_tap(gnet, d * 0.9, tol=1e-8, start=paths)
    assert flows and all(v.any() for v in flows)
    solve_tap(gnet, d * 0.9, tol=1e-8)
    assert not all(v.any() for v in flows)      # the cold solve's


def test_warm_start_from_a_subnormal_total_starts_cold(net):
    # commodity 0's earlier paths carry 1e-320 in all, so d_0 / total
    # overflows: it starts cold, bit for bit as with no earlier paths, and
    # commodity 1 starts warm
    earlier = solve_tap(net, np.array([1e-320, 1.75]), tol=1e-8).paths
    assert sum(earlier[0].values()) == 1e-320
    d = np.array([0.5, 1.75])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_tap(net, d, tol=1e-8, start=earlier)
    assert caught == []
    assert sol.converged and np.all(np.isfinite(sol.X))
    cold_0 = solve_tap(net, d, tol=1e-8, start={1: earlier[1]})
    assert sol.X.tobytes() == cold_0.X.tobytes()
    assert sol.paths == cold_0.paths


def test_solve_tap_random_instances_reach_gap():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rnet = random_network(rng)
        sol = solve_tap(rnet, rnet.target_demands, tol=1e-8)
        assert sol.converged
        assert sol.rgap <= 1e-8
        assert_allclose(rnet.M_dot(sol.X), rnet.Gamma_dot(rnet.target_demands), atol=1e-10)
        assert np.all(sol.X >= 0.0)
