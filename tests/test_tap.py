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
    build_structure,
    parse_network,
    relative_gap,
    solve_tap,
)
from odadjust.errors import DimensionMismatch, Unreachable
from odadjust import tap
from odadjust.tap import _dijkstra, _gap_bound, _path_links, _shift

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def net():
    return parse_network(json.dumps(toy_document()))


# -- shortest paths ------------------------------------------------------------

def test_shortest_paths_exact_tree(net):
    res = _dijkstra(net, np.array([1.0, 3.0, 1.0, 1.0]), net.node_index[1])
    assert_array_equal(res.dist, [0.0, 1.0, 2.0])
    assert_array_equal(res.pred, [-1, 0, 2])


def test_shortest_paths_at_equilibrium_times(net):
    res = _dijkstra(net, net.link_times(TOY_V), net.node_index[1])
    assert_allclose(res.dist, [0.0, 19.0 / 12.0, 5.0 / 3.0], rtol=1e-12)
    assert res.pred[0] == -1


def test_shortest_paths_deterministic(net):
    costs = np.array([1.0, 1.0, 0.0, 0.0])     # two equal-cost routes everywhere
    first = _dijkstra(net, costs, net.node_index[1])
    for _ in range(5):
        res = _dijkstra(net, costs, net.node_index[1])
        assert_array_equal(res.pred, first.pred)
        assert_array_equal(res.dist, first.dist)


def test_shortest_paths_stop_at_destination():
    # stopping once the targets settle keeps their distances and tree paths
    # bit for bit, with distinct and with tied costs: single destinations,
    # each origin's destinations, and random node sets
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng(5)
    for costs in (rng.uniform(1.0, 2.0, gnet.n_links), np.ones(gnet.n_links)):
        for o in range(gnet.n_nodes):
            full = _dijkstra(gnet, costs, o)
            sets = [{dest} for dest in range(gnet.n_nodes)]
            sets.append({int(dest) for org, dest in zip(gnet.origin_idx,
                                                       gnet.destination_idx)
                         if org == o})
            sets += [set(rng.choice(gnet.n_nodes, size=k, replace=False).tolist())
                     for k in (1, 2, 3, 5, gnet.n_nodes) for _ in range(3)]
            for targets in sets:
                part = _dijkstra(gnet, costs.tolist(), o, targets)
                for dest in targets:
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
    # commodity 2 all on its direct link 1->3 (path (1,)); its other route
    # 1->2->3 is (0, 2).  Linear costs make the diagonal Newton step exact:
    # one shift of 1/12 equalizes both routes at 5/3.
    v, t, dt = _kept_lists(net, [1.5, 1.75, 0.0, 0.0])
    polys = net.link_polys
    flows = {(1,): 1.75, (0, 2): 0.0}
    assert _shift(polys, v, t, dt, flows, (1,), (0, 2), {})
    assert_allclose(flows[(0, 2)], 1.0 / 12.0, rtol=1e-15)
    assert_allclose(flows[(1,)], 5.0 / 3.0, rtol=1e-15)
    assert_allclose(v, TOY_V, rtol=1e-15, atol=1e-15)
    t = net.link_times(v)
    assert_allclose(t[1], t[0] + t[2], rtol=1e-15)
    assert not _shift(polys, v, t, dt, flows, (1,), (0, 2), {})     # nothing left to gain


def test_path_shift_capped_at_path_flow(net):
    # commodity 1 has 0.1 on 1->3->2 (path (1, 3)); the Newton step 0.55/3
    # exceeds it, so all of it moves to the direct link and the path empties
    v, t, dt = _kept_lists(net, [1.4, 1.85, 0.0, 0.1])
    flows = {(0,): 1.4, (1, 3): 0.1}
    assert _shift(net.link_polys, v, t, dt, flows, (1, 3), (0,), {})
    assert flows[(1, 3)] == 0.0
    assert_allclose(flows[(0,)], 1.5, rtol=1e-15)
    assert_allclose(v, [1.5, 1.75, 0.0, 0.0], atol=1e-15)


def test_path_shifts_keep_times_of_the_running_flows():
    # after any series of shifts, the kept lists are t(v) and t'(v) of the
    # shifted flows bit for bit, as net.link_times and link_time_derivs give;
    # each shift moves flow between random nodes, from a random path to the
    # shortest one under t
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng(7)
    polys = gnet.link_polys
    pairs = {}

    def path(costs, o, dest):
        return tuple(_path_links(gnet, _dijkstra(gnet, costs, o, {dest}), o, dest))

    for _ in range(5):
        v, t, dt = _kept_lists(gnet, rng.uniform(0.0, 6.0, gnet.n_links))
        moves = 0
        for _ in range(100):
            o, dest = rng.choice(gnet.n_nodes, size=2, replace=False).tolist()
            p = path(rng.uniform(1.0, 2.0, gnet.n_links), o, dest)
            q = path(t, o, dest)
            if p != q:
                moves += _shift(polys, v, t, dt, {p: rng.uniform(0.0, 2.0), q: 0.0}, p, q,
                                pairs)
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


def _full_tree_gap(net, d, v):
    """relative_gap's value from full shortest-path trees."""
    t = net.link_times(v)
    best = 0.0
    for i in range(net.n_commodities):
        if d[i] != 0.0:
            tree = _dijkstra(net, t, net.origin_idx[i])
            best += d[i] * tree.dist[net.destination_idx[i]]
    total = float(t @ v)
    return (total - best) / max(total, 1e-30)


def test_relative_gap_matches_full_trees():
    # the gap's searches stop at each origin's destinations, and the gap is
    # bit for bit the one read off full trees, also with a zero demand
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
    S = build_structure(net)
    assert_allclose(S.M_dot(sol.X), S.Gamma_dot(TOY_TARGETS), atol=1e-12)
    assert_allclose(aggregate_flows(S, sol.X), sol.v, atol=1e-12)


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
    # the 3x3 grid takes 86 sweeps to 1e-10; the last budget converges
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


def test_solve_tap_deterministic():
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    first = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    again = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    assert first.X.tobytes() == again.X.tobytes()
    assert_array_equal(first.v, again.v)
    assert first.iterations == again.iterations


def test_sweep_searches_once_per_commodity(monkeypatch):
    # one search per commodity for the starting paths and one per commodity
    # in every sweep, each stopping at the commodity's destination; the
    # exact gap searches once per origin, and runs twice: at the cold start,
    # where each commodity has one path and the bound is 0 up to roundoff,
    # and at the sweep that converges
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    searches = []
    monkeypatch.setattr(tap, "_dijkstra", lambda net_, costs, o, targets=None:
                        searches.append(targets) or _dijkstra(net_, costs, o, targets))
    sol = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    active = gnet.n_commodities
    origins = len(set(gnet.origin_idx.tolist()))
    assert active >= 2 and sol.converged and sol.iterations > 0
    assert (sum(isinstance(t, tuple) for t in searches)
            == active + sol.iterations * active)
    assert sum(isinstance(t, set) for t in searches) == 2 * origins
    assert len(searches) == active + sol.iterations * active + 2 * origins


def _spy_gap_tests(monkeypatch):
    """Record each bound solve_tap computes, with the gap at the same flows,
    and each exact gap it runs, in call order."""
    events = []

    def bound(net_, d, v, paths):
        b, costs = _gap_bound(net_, d, v, paths)
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
    # after every sweep, cold and warm-started from the paths of other
    # demands (one commodity then starts cold), the bound from the used
    # paths is at most the exact gap, bit for bit; it is a usable bound,
    # above the tolerance in most sweeps
    gnet = parse_network((DATA / name).read_text(encoding="utf-8"))
    d = gnet.target_demands
    other = 0.8 * d
    other[1] = 0.0
    warm = solve_tap(gnet, other, tol=1e-8).paths
    events = _spy_gap_tests(monkeypatch)
    for start in (None, warm):
        del events[:]
        sol = solve_tap(gnet, d, tol=1e-10, start=start)
        assert sol.converged and sol.iterations > 5
        bounds = [e for e in events if e[0] == "bound"]
        assert len(bounds) == sol.iterations + 1
        assert all(b <= g for _, b, g in bounds)
        assert sum(b > 1e-10 for _, b, _ in bounds) >= sol.iterations - 2


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
    pair_diff, shift = tap._pair_diff, tap._shift
    monkeypatch.setattr(tap, "_pair_diff", lambda p, q:
                        diffs.append((p, q)) or pair_diff(p, q))
    monkeypatch.setattr(tap, "_shift", lambda *args:
                        shifts.append(args[5:7]) or shift(*args))
    first = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    assert len(shifts) > 2 * len(diffs) > 0
    assert len(set(diffs)) == len(diffs) == len(set(shifts))
    once = len(diffs)
    again = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    assert len(diffs) == 2 * once
    assert again.X.tobytes() == first.X.tobytes()


def test_solve_tap_grid_sweeps():
    # the benchmark generator's 3x3 grid, instance 0, takes 65 sweeps, and
    # 112 without the restricted pass; a sweep count well above that means
    # the path shifts lost their step or the pass its moves
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    sol = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    assert sol.converged and sol.rgap <= 1e-8
    assert sol.iterations <= 80
    S = build_structure(gnet)
    assert_allclose(S.M_dot(sol.X), S.Gamma_dot(gnet.target_demands), rtol=0, atol=1e-10)
    assert np.all(sol.X >= 0.0)
    assert_array_equal(sol.v, aggregate_flows(S, sol.X))


def test_every_sweep_conserves_flow_cold_and_warm():
    # after every sweep, cold or warm-started from the paths of other
    # demands (one commodity then starts cold), each commodity's path flows
    # sum to its demand and are positive, and X and v are assembled from
    # them: X bit for bit as np.add.at sums them, path by path in dict order
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    S = build_structure(gnet)
    d = gnet.target_demands
    other = 0.8 * d
    other[1] = 0.0
    warm = solve_tap(gnet, other, tol=1e-8).paths
    for start in (None, warm):
        for sweeps in range(12):
            sol = solve_tap(gnet, d, tol=0.0, max_iter=sweeps, start=start)
            assert sol.iterations == sweeps
            assert_allclose(S.M_dot(sol.X), S.Gamma_dot(d), rtol=0, atol=1e-10)
            assert np.all(sol.X >= 0.0)
            assert_array_equal(sol.v, aggregate_flows(S, sol.X))
            X = np.zeros(S.n_commodities * S.n_links)
            for i, flows in sol.paths.items():
                assert min(flows.values()) > 0.0
                assert_allclose(sum(flows.values()), d[i], rtol=1e-14)
                for p, h in flows.items():
                    np.add.at(X, [i * S.n_links + a for a in p], h)
            assert sol.X.tobytes() == X.tobytes()


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


def test_solve_tap_random_instances_reach_gap():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rnet = random_network(rng)
        sol = solve_tap(rnet, rnet.target_demands, tol=1e-8)
        assert sol.converged
        assert sol.rgap <= 1e-8
        S = build_structure(rnet)
        assert_allclose(S.M_dot(sol.X), S.Gamma_dot(rnet.target_demands), atol=1e-10)
        assert np.all(sol.X >= 0.0)
