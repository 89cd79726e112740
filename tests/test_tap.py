"""Equilibrium assignment: shortest paths, line search, gap, full solves."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    TOY_BECKMANN,
    TOY_RGAP_DIRECT,
    TOY_TARGETS,
    TOY_V,
    TOY_X,
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
from odadjust.errors import DimensionMismatch
from odadjust.tap import _dijkstra, _exact_step


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


# -- objective, line search, gap ------------------------------------------------

def test_beckmann_objective_closed_form(net):
    assert_allclose(beckmann_objective(net, TOY_V), TOY_BECKMANN, rtol=1e-15)
    with pytest.raises(DimensionMismatch):
        beckmann_objective(net, np.zeros(3))


def test_line_search_quadratic_minimum(net):
    # t(x) = x makes the restriction quadratic: minimizer of
    # |v + lam * (y - v)|^2 / 2 over [0, 1]
    v = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0, 0.0])
    assert_allclose(_exact_step(net, v, y - v, 1.0), 0.5, atol=1e-10)
    # already optimal: moving toward y cannot help
    assert _exact_step(net, y, y - y, 1.0) == 0.0


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


def test_solve_tap_iteration_callback(net):
    seen = []

    def watch(iteration, X, v, beckmann, rgap):
        seen.append((iteration, X.copy(), v.copy(), beckmann, rgap))

    sol = solve_tap(net, TOY_TARGETS, tol=1e-10, on_iteration=watch)
    assert sol.converged
    assert seen[0][0] == 0 and seen[-1][0] == sol.iterations
    beck = [rec[3] for rec in seen]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(beck, beck[1:]))
    for _, X, v, _, _ in seen:
        assert_allclose(X.reshape(2, 4).sum(axis=0), v, atol=1e-12)


def test_solve_tap_budget_exhaustion(net):
    sol = solve_tap(net, TOY_TARGETS, tol=1e-30, max_iter=2)
    assert not sol.converged
    assert sol.iterations <= 2


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
