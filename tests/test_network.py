"""Network model, validation, structure matrices, JSON parsing."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import TOY_TARGETS, TOY_V, TOY_X, random_state, toy_document
from odadjust import (
    Commodity,
    CostFunction,
    Link,
    Network,
    aggregate_flows,
    build_structure,
    eval_C_jacobian,
    parse_network,
)
from odadjust.errors import (
    DanglingReference,
    DimensionMismatch,
    DuplicateId,
    MalformedInput,
    NegativeCoefficient,
    UnreachableDestination,
)
from odadjust.network import _decode


# -- cost polynomials ---------------------------------------------------------

def test_cost_function_values():
    f = CostFunction((1.0, 2.0, 3.0))      # 1 + 2x + 3x^2
    assert f.value(0.0) == 1.0
    assert f.value(2.0) == 17.0
    assert f.derivative(2.0) == 14.0       # 2 + 6x
    assert f.integral(2.0) == 14.0         # x + x^2 + x^3
    lin = CostFunction((0.0, 1.0))
    assert lin.value(3.0) == 3.0
    assert lin.derivative(3.0) == 1.0
    assert lin.integral(3.0) == 4.5


def test_cost_function_validation():
    with pytest.raises(MalformedInput):
        CostFunction(())
    with pytest.raises(NegativeCoefficient):
        CostFunction((1.0, -0.5))
    # coefficients are normalized to floats
    assert CostFunction((1, 2)).coeffs == (1.0, 2.0)


def test_overflowing_derivative_coefficient_rejected():
    # 2 * 1e308 is not a float, so t' has no value even where no flow runs;
    # 1 * 1e308 and 2 * 8e307 are floats
    with pytest.raises(MalformedInput, match="derivative coefficient"):
        CostFunction((5.0, 1e308, 1e308))
    assert CostFunction((0.0, 1e308, 8e307)).coeffs == (0.0, 1e308, 8e307)
    doc = {"nodes": [1, 2],
           "links": [{"id": "a", "from": 1, "to": 2, "coeffs": [5, 1e308, 1e308]}],
           "commodities": [{"origin": 1, "destination": 2, "target": 0.5}]}
    with pytest.raises(MalformedInput, match="derivative coefficient"):
        parse_network(json.dumps(doc))


def test_commodity_validation():
    with pytest.raises(MalformedInput):
        Commodity(origin=1, destination=1, target_demand=1.0)
    with pytest.raises(MalformedInput):
        Commodity(origin=1, destination=2, target_demand=-1.0)
    with pytest.raises(MalformedInput):
        Commodity(origin=1, destination=2, target_demand=float("inf"))


# -- network construction and validation --------------------------------------

def _lk(i, u, w, coeffs=(0.0, 1.0)):
    return Link(id=i, tail=u, head=w, cost=CostFunction(coeffs))


def test_duplicate_ids_rejected():
    with pytest.raises(DuplicateId):
        Network([1, 1, 2], [_lk(1, 1, 2)], [Commodity(1, 2, 1.0)])
    with pytest.raises(DuplicateId):
        Network([1, 2], [_lk(1, 1, 2), _lk(1, 2, 1)], [Commodity(1, 2, 1.0)])


def test_dangling_references_rejected():
    with pytest.raises(DanglingReference):
        Network([1, 2], [_lk(1, 1, 3)], [Commodity(1, 2, 1.0)])
    with pytest.raises(DanglingReference):
        Network([1, 2], [_lk(1, 1, 2)], [Commodity(1, 5, 1.0)])
    with pytest.raises(DanglingReference):
        Network([1, 2], [_lk(1, 1, 2)], [Commodity(1, 2, 1.0)],
                observations={9: 1.0})


def test_self_loops_and_weights():
    with pytest.raises(MalformedInput):
        Network([1, 2], [_lk(1, 1, 1), _lk(2, 1, 2)], [Commodity(1, 2, 1.0)])
    with pytest.raises(MalformedInput):
        Network([1, 2], [_lk(1, 1, 2)], [Commodity(1, 2, 1.0)], eta1=-1.0)
    with pytest.raises(MalformedInput):
        Network([1, 2], [_lk(1, 1, 2)], [Commodity(1, 2, 1.0)],
                observations={1: -2.0})


def test_unreachable_destination_rejected():
    # only 2 -> 1 exists, so commodity 1 -> 2 cannot be routed
    with pytest.raises(UnreachableDestination):
        Network([1, 2], [_lk(1, 2, 1)], [Commodity(1, 2, 1.0)])


def test_vectorized_costs_match_scalar():
    rng = np.random.default_rng(7)
    net = parse_network(json.dumps(toy_document()))
    for _ in range(5):
        v = rng.uniform(0.0, 3.0, size=net.n_links)
        t_ref = np.array([lk.cost.value(x) for lk, x in zip(net.links, v)])
        dt_ref = np.array([lk.cost.derivative(x) for lk, x in zip(net.links, v)])
        it_ref = np.array([lk.cost.integral(x) for lk, x in zip(net.links, v)])
        assert_allclose(net.link_times(v), t_ref, rtol=1e-14)
        assert_allclose(net.link_time_derivs(v), dt_ref, rtol=1e-14)
        assert_allclose(net.link_time_integrals(v), it_ref, rtol=1e-14)


def test_mixed_degree_cost_table():
    net = Network([1, 2], [_lk(1, 1, 2, (1.0,)), _lk(2, 1, 2, (0.5, 0.0, 2.0))],
                  [Commodity(1, 2, 1.0)])
    v = np.array([4.0, 3.0])
    assert_allclose(net.link_times(v), [1.0, 0.5 + 2.0 * 9.0])
    assert_allclose(net.link_time_derivs(v), [0.0, 12.0])
    assert_allclose(net.link_time_integrals(v), [4.0, 1.5 + 2.0 * 9.0])


# -- structure matrices -------------------------------------------------------

def test_structure_matrices_on_reference_instance():
    net = parse_network(json.dumps(toy_document()))
    S = build_structure(net)
    # J holds the structure matrices at any state: Gamma and -M in the
    # conservation rows, M' in the stationarity rows
    J = eval_C_jacobian(net, S, random_state(np.random.default_rng(2), S)).toarray()
    stat, cons, _ = S.residual_slices
    sl_d, sl_x, sl_alpha, _ = S.slices
    A_expect = np.array([[-1.0, -1.0, 0.0, 0.0],
                         [1.0, 0.0, -1.0, 1.0],
                         [0.0, 1.0, 1.0, -1.0]])
    Gamma_expect = np.zeros((6, 2))
    Gamma_expect[0, 0] = -1.0
    Gamma_expect[1, 0] = 1.0
    Gamma_expect[3, 1] = -1.0
    Gamma_expect[5, 1] = 1.0
    assert_array_equal(J[cons, sl_d], Gamma_expect)
    M = -J[cons, sl_x]
    assert M.shape == (6, 8)
    assert_array_equal(M[:3, :4], A_expect)
    assert_array_equal(M[3:, 4:], A_expect)
    assert_array_equal(M[:3, 4:], np.zeros((3, 4)))
    assert_array_equal(J[stat, sl_alpha], M.T)
    # the products of S apply the same matrices
    x = np.arange(8.0)
    assert_array_equal(S.M_dot(x), M @ x)
    assert_array_equal(S.Mt_dot(np.arange(6.0)), M.T @ np.arange(6.0))
    assert_array_equal(S.Gamma_dot(np.array([1.0, 2.0])), Gamma_expect @ [1.0, 2.0])
    assert_array_equal(aggregate_flows(S, np.arange(8.0)), [4.0, 6.0, 8.0, 10.0])
    assert S.state_dim == 24
    assert S.n_constraints == 22


def test_state_slices_partition():
    net = parse_network(json.dumps(toy_document()))
    S = build_structure(net)
    sl_d, sl_x, sl_a, sl_b = S.slices
    assert (sl_d.stop - sl_d.start, sl_x.stop - sl_x.start) == (2, 8)
    assert (sl_a.stop - sl_a.start, sl_b.stop - sl_b.start) == (6, 8)
    assert sl_b.stop == S.state_dim
    r_st, r_co, r_cm = S.residual_slices
    assert (r_st.stop - r_st.start, r_co.stop - r_co.start) == (8, 6)
    assert r_cm.stop == S.n_constraints


def test_structure_layout_is_built_once():
    S = build_structure(parse_network(json.dumps(toy_document())))
    assert S.lower is S.lower
    assert S.slices is S.slices and S.residual_slices is S.residual_slices
    with pytest.raises(ValueError):
        S.lower[0] = 1.0
    for blocks, size in ((S.slices, S.state_dim), (S.residual_slices, S.n_constraints)):
        covered = np.concatenate([np.arange(size)[sl] for sl in blocks])
        assert_array_equal(covered, np.arange(size))


def test_aggregate_and_conservation_identities():
    net = parse_network(json.dumps(toy_document()))
    S = build_structure(net)
    assert_allclose(aggregate_flows(S, TOY_X), TOY_V, rtol=1e-15)
    # the closed-form equilibrium satisfies per-commodity conservation
    assert_allclose(S.M_dot(TOY_X), S.Gamma_dot(TOY_TARGETS), atol=1e-15)
    with pytest.raises(DimensionMismatch):
        aggregate_flows(S, np.zeros(7))


# -- JSON parsing --------------------------------------------------------------

def test_parse_round_trip():
    # the document as text and as the object _decode makes of it parse alike
    text = json.dumps(toy_document())
    net, again = parse_network(text), parse_network(_decode(text))
    for name in ("nodes", "links", "commodities", "observations", "eta1", "eta2"):
        assert getattr(again, name) == getattr(net, name), name
    assert again.eta1 == 0.5 and again.eta2 == 0.5
    assert_allclose(again.obs_flows, [1.5833333, 1.6666667])
    assert_array_equal(again.obs_links, [0, 1])


def test_parse_defaults_and_extra_keys():
    doc = toy_document()
    del doc["observations"]
    del doc["weights"]
    doc["solver"] = {"max_outer": 5}       # unknown top-level keys are ignored
    net = parse_network(json.dumps(doc))
    assert net.eta1 == 1.0 and net.eta2 == 1.0
    assert len(net.observations) == 0


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("nodes"),
    lambda d: d.pop("links"),
    lambda d: d.pop("commodities"),
    lambda d: d["links"][0].pop("coeffs"),
    lambda d: d["commodities"][0].pop("target"),
    lambda d: d["commodities"].__setitem__(0, "not an object"),
    lambda d: d.__setitem__("observations", {"link": 1}),
    lambda d: d.__setitem__("weights", [1, 2]),
    lambda d: d["commodities"][0].__setitem__("target", True),
    lambda d: d["weights"].__setitem__("eta1", "heavy"),
    lambda d: d["nodes"].__setitem__(0, {"a": 1}),
    lambda d: d["nodes"].__setitem__(0, [4]),
    lambda d: d["links"][0].__setitem__("coeffs", ["x", 1]),
    lambda d: d["links"][0].__setitem__("coeffs", [float("nan"), 1.0]),
    lambda d: d["links"][0].__setitem__("coeffs", [0.0, float("inf")]),
    lambda d: d["weights"].__setitem__("eta1", float("nan")),
    # whole numbers too large for a float
    lambda d: d["links"][0].__setitem__("coeffs", [10**400, 1.0]),
    lambda d: d["commodities"][0].__setitem__("target", 10**400),
    lambda d: d["observations"][0].__setitem__("flow", 10**400),
    lambda d: d["weights"].__setitem__("eta1", 10**400),
])
def test_parse_malformed_documents(mangle):
    doc = toy_document()
    mangle(doc)
    with pytest.raises(MalformedInput):
        parse_network(json.dumps(doc))


def test_parse_bad_json_and_duplicates():
    with pytest.raises(MalformedInput):
        parse_network("{not json")
    with pytest.raises(MalformedInput):
        parse_network(json.dumps([1, 2, 3]))
    doc = toy_document()
    doc["observations"].append({"link": 1, "flow": 2.0})
    with pytest.raises(DuplicateId):
        parse_network(json.dumps(doc))


def test_network_repr():
    net = parse_network(json.dumps(toy_document()))
    assert "2 commodities" in repr(net)
