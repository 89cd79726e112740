"""Equilibrium assignment: shortest paths, path shifts, gap, full solves."""

import json
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
from odadjust.tap import _dijkstra, _path_links, _shift

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
    # stopping once the destination settles keeps its distance and tree path,
    # with distinct and with tied costs
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng(5)
    for costs in (rng.uniform(1.0, 2.0, gnet.n_links), np.ones(gnet.n_links)):
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


def test_path_shift_lands_on_equal_costs(net):
    # commodity 2 all on its direct link 1->3 (path (1,)); its other route
    # 1->2->3 is (0, 2).  Linear costs make the diagonal Newton step exact:
    # one shift of 1/12 equalizes both routes at 5/3.
    v = np.array([1.5, 1.75, 0.0, 0.0])
    flows = {(1,): 1.75, (0, 2): 0.0}
    assert _shift(net, v, flows, (1,), (0, 2))
    assert_allclose(flows[(0, 2)], 1.0 / 12.0, rtol=1e-15)
    assert_allclose(flows[(1,)], 5.0 / 3.0, rtol=1e-15)
    assert_allclose(v, TOY_V, rtol=1e-15, atol=1e-15)
    t = net.link_times(v)
    assert_allclose(t[1], t[0] + t[2], rtol=1e-15)
    assert not _shift(net, v, flows, (1,), (0, 2))     # nothing left to gain


def test_path_shift_capped_at_path_flow(net):
    # commodity 1 has 0.1 on 1->3->2 (path (1, 3)); the Newton step 0.55/3
    # exceeds it, so all of it moves to the direct link and the path empties
    v = np.array([1.4, 1.85, 0.0, 0.1])
    flows = {(0,): 1.4, (1, 3): 0.1}
    assert _shift(net, v, flows, (1, 3), (0,))
    assert flows[(1, 3)] == 0.0
    assert_allclose(flows[(0,)], 1.5, rtol=1e-15)
    assert_allclose(v, [1.5, 1.75, 0.0, 0.0], atol=1e-15)


def test_relative_gap_values(net):
    v_direct = np.array([1.5, 1.75, 0.0, 0.0])
    assert_allclose(relative_gap(net, TOY_TARGETS, v_direct),
                    TOY_RGAP_DIRECT, rtol=1e-14)
    assert relative_gap(net, TOY_TARGETS, TOY_V) <= 1e-12
    assert relative_gap(net, np.zeros(2), np.zeros(4)) == 0.0


# -- full solves -----------------------------------------------------------------

def test_solve_tap_reference_equilibrium(net):
    sol = solve_tap(net, TOY_TARGETS, tol=1e-8)
    assert sol.converged
    assert sol.rgap <= 1e-8
    assert_allclose(sol.v, TOY_V, atol=1e-8)
    assert_allclose(sol.X, TOY_X, atol=1e-8)
    assert_allclose(sol.beckmann, TOY_BECKMANN, rtol=1e-10)
    S = build_structure(net)
    assert_allclose(S.M @ sol.X, S.Gamma @ TOY_TARGETS, atol=1e-12)
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


def test_solve_tap_beckmann_descends_across_budgets():
    # the 3x3 grid takes 144 sweeps to 1e-10; the last budget converges
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
    sol = solve_tap(qnet, TOY_TARGETS, tol=1e-30, max_iter=2)
    assert not sol.converged
    assert sol.iterations <= 2


def test_solve_tap_deterministic():
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    first = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    again = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    assert first.X.tobytes() == again.X.tobytes()
    assert_array_equal(first.v, again.v)
    assert first.iterations == again.iterations


def test_solve_tap_grid_sweeps():
    # the benchmark generator's 3x3 grid, instance 0, takes 112 sweeps; a
    # sweep count well above that means the path shifts lost their step
    gnet = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    sol = solve_tap(gnet, gnet.target_demands, tol=1e-8)
    assert sol.converged and sol.rgap <= 1e-8
    assert sol.iterations <= 150
    S = build_structure(gnet)
    assert_allclose(S.M @ sol.X, S.Gamma @ gnet.target_demands, rtol=0, atol=1e-10)
    assert np.all(sol.X >= 0.0)
    assert_array_equal(sol.v, aggregate_flows(S, sol.X))


def test_solve_tap_random_instances_reach_gap():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rnet = random_network(rng)
        sol = solve_tap(rnet, rnet.target_demands, tol=1e-8)
        assert sol.converged
        assert sol.rgap <= 1e-8
        S = build_structure(rnet)
        assert_allclose(S.M @ sol.X, S.Gamma @ rnet.target_demands, atol=1e-10)
        assert np.all(sol.X >= 0.0)
