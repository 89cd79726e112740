"""The slow reference implementations must themselves be trustworthy."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (TOY_TARGETS, TOY_V, random_network, scipy_modules_after,
                      toy_document)
from odadjust import parse_network
from odadjust.errors import DimensionMismatch, TooLarge
from odadjust.oracles import (
    _project_simplex,
    enumerate_paths,
    fd_gradient,
    oracle_path_costs,
    oracle_project,
    oracle_tap,
)
from odadjust.tap import beckmann_objective, solve_tap


@pytest.fixture
def net():
    return parse_network(json.dumps(toy_document()))


def test_enumerate_paths_reference_instance(net):
    assert enumerate_paths(net, 1, 2) == [(0,), (1, 3)]
    assert enumerate_paths(net, 1, 3) == [(0, 2), (1,)]
    assert enumerate_paths(net, 2, 3) == [(2,)]


def test_enumerate_paths_guard():
    nodes = list(range(1, 10))
    links = [{"id": i, "from": i, "to": i % 9 + 1, "coeffs": [0.0, 1.0]}
             for i in nodes]
    doc = {"nodes": nodes, "links": links,
           "commodities": [{"origin": 1, "destination": 2, "target": 1.0}]}
    big = parse_network(json.dumps(doc))
    with pytest.raises(TooLarge):
        enumerate_paths(big, 1, 2)


def test_project_simplex():
    out = _project_simplex(np.array([0.4, 0.6, 1.0]), 1.0)
    assert_allclose(out, [0.4 - 1.0 / 3.0, 0.6 - 1.0 / 3.0, 1.0 - 1.0 / 3.0],
                    rtol=1e-12)
    assert _project_simplex(np.array([1.0, 2.0]), 0.0).tolist() == [0.0, 0.0]
    rng = np.random.default_rng(17)
    for _ in range(20):
        y = rng.normal(size=rng.integers(1, 8)) * 3.0
        total = float(rng.uniform(0.1, 5.0))
        h = _project_simplex(y, total)
        assert np.all(h >= 0.0)
        assert_allclose(h.sum(), total, rtol=1e-10)
        assert_allclose(_project_simplex(h, total), h, atol=1e-12)


def test_oracle_tap_reference_equilibrium(net):
    v = oracle_tap(net, TOY_TARGETS)
    assert_allclose(v, TOY_V, atol=1e-7)
    assert_allclose(oracle_tap(net, np.zeros(2)), np.zeros(4), atol=1e-15)


@pytest.mark.parametrize("d", [[1.0], [1.0, 2.0, 3.0]])
def test_oracle_tap_checks_the_demand_length(net, d):
    # one demand per commodity of the two-commodity toy
    with pytest.raises(DimensionMismatch, match="expected 2 demands"):
        oracle_tap(net, d)


def test_oracle_path_costs_equalize_used_routes(net):
    per_com, costs, v = oracle_path_costs(net, TOY_TARGETS)
    assert [len(p) for p in per_com] == [2, 2]
    # commodity 2 uses both routes, so their costs agree at equilibrium
    assert abs(costs[1][0] - costs[1][1]) <= 1e-6
    # commodity 1 keeps its direct route strictly cheaper
    assert costs[0][0] < costs[0][1] - 1e-3
    assert_allclose(v, TOY_V, atol=1e-7)


def test_oracle_agrees_with_solver_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(10):
        rnet = random_network(rng)
        sol = solve_tap(rnet, rnet.target_demands, tol=1e-10)
        assert sol.converged
        v_ref = oracle_tap(rnet, rnet.target_demands)
        b_ref = beckmann_objective(rnet, v_ref)
        assert abs(sol.beckmann - b_ref) <= 1e-6 * max(1.0, abs(b_ref))
        assert np.abs(sol.v - v_ref).max() <= 1e-3


def test_oracle_project_analytic_cases():
    w = oracle_project(np.zeros(2), np.array([[1.0, 1.0]]),
                       np.full(2, -np.inf), None, np.array([1.0, 0.0]))
    assert_allclose(w, [0.5, -0.5], atol=1e-7)
    w = oracle_project(np.zeros(3), np.zeros((0, 3)), np.zeros(3), None,
                       np.array([1.0, -2.0, 0.5]))
    assert_allclose(w, [1.0, 0.0, 0.5], atol=1e-7)


def test_only_oracle_project_loads_scipy(toy_file):
    # path enumeration, the path-based equilibrium, its path costs and
    # finite differences run on NumPy alone; SLSQP loads on first use
    oracles = (
        "import numpy as np\n"
        "from odadjust import parse_network\n"
        "from odadjust.oracles import (enumerate_paths, fd_gradient,\n"
        "                              oracle_path_costs, oracle_project, oracle_tap)\n"
        "net = parse_network(open(%r).read())\n"
        "assert enumerate_paths(net, 1, 3) == [(0, 2), (1,)]\n"
        "v = oracle_tap(net, net.target_demands)\n"
        "assert np.allclose(v, %r, atol=1e-6)\n"
        "oracle_path_costs(net, net.target_demands)\n"
        "g = fd_gradient(lambda x: float(net.link_time_integrals(x).sum()), v)\n"
        "assert np.allclose(g, net.link_times(v), atol=1e-6)\n"
        % (toy_file, TOY_V.tolist()))
    assert scipy_modules_after(oracles) == []
    project = ("w = oracle_project(np.zeros(2), np.array([[1.0, 1.0]]),\n"
               "                   np.full(2, -np.inf), None, np.array([1.0, 0.0]))\n"
               "assert np.allclose(w, [0.5, -0.5], atol=1e-7), w\n")
    assert "scipy.optimize" in scipy_modules_after(oracles + project)


def test_fd_gradient_on_quadratic():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    x0 = np.array([0.3, -1.2])
    g = fd_gradient(lambda x: 0.5 * float(x @ A @ x), x0)
    assert_allclose(g, A @ x0, atol=1e-8)
