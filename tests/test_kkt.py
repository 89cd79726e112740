"""Objective, lifted optimality system, multiplier recovery, derivatives."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    TOY_ALPHA,
    TOY_BETA,
    TOY_TARGETS,
    TOY_V,
    TOY_X,
    incidence_matrices,
    random_state,
    state_vector,
    toy_document,
)
from odadjust import (
    eval_C,
    eval_C_jacobian,
    eval_F,
    eval_L,
    eval_L_grad,
    parse_network,
    recover_multipliers,
    solve_tap,
    tangent_space,
)
from odadjust.errors import DimensionMismatch, ResidualTooLarge
from odadjust.driver import IRConfig, restore
from odadjust.kkt import equilibrium_sensitivity, grad_F_state
from odadjust.network import Commodity, CostFunction, Link, Network, aggregate_flows
from odadjust.oracles import fd_gradient

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def net():
    return parse_network(json.dumps(toy_document()))


def _equilibrium_state(net):
    return state_vector(net, TOY_TARGETS, TOY_X, TOY_ALPHA, TOY_BETA)


# -- state layout -----------------------------------------------------------------

def test_state_lower_bounds(net):
    lower = net.lower
    assert lower.shape == (net.state_dim,)
    free = np.zeros(net.state_dim, dtype=bool)
    free[net.slices[2]] = True
    assert np.all(np.isneginf(lower[free]))               # alpha free
    assert_array_equal(lower[~free], np.zeros(18))        # d, X and beta
    with pytest.raises(ValueError):
        lower[0] = 1.0                                    # read-only


def test_state_functions_reject_wrong_length(net):
    for fn in (eval_C, eval_C_jacobian, grad_F_state):
        with pytest.raises(DimensionMismatch):
            fn(net, np.zeros(net.state_dim + 1))


# -- objective -------------------------------------------------------------------

def test_eval_F_closed_form(net):
    # flows hitting the observations exactly leave only the demand penalty:
    # 0.5 * ((1.625-1.5)^2 + (1.625-1.75)^2) = 0.015625
    X = np.zeros(8)
    X[0] = net.obs_flows[0]
    X[5] = net.obs_flows[1]
    assert eval_F(net, np.array([1.625, 1.625]), X) == 0.015625
    assert eval_F(net, TOY_TARGETS, X) == 0.0
    # pure observation mismatch: flows one unit high on both observed links
    X2 = X.copy()
    X2[0] += 1.0
    X2[5] += 1.0
    assert_allclose(eval_F(net, TOY_TARGETS, X2), 0.5 * 2.0, rtol=1e-15)


def test_eval_F_rejects_wrong_demand_shape(net):
    # one demand per commodity: a scalar or a vector of another length does
    # not broadcast against the two targets
    for d in (1.0, [1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]):
        with pytest.raises(DimensionMismatch):
            eval_F(net, d, np.zeros(8))


def test_grad_F_state_closed_form(net):
    sl_d, sl_x, _, _ = net.slices
    X = np.zeros(8)
    X[0] = net.obs_flows[0]
    X[5] = net.obs_flows[1]
    rng = np.random.default_rng(3)
    alpha, beta = rng.normal(size=6), rng.uniform(size=8)
    g = grad_F_state(net, state_vector(net, np.array([1.0, 2.0]), X, alpha, beta))
    assert_array_equal(g[sl_d], [-0.5, 0.25])
    assert_array_equal(g[sl_x], np.zeros(8))
    assert_array_equal(g[sl_x.stop:], np.zeros(14))      # alpha and beta
    # observation error of +1 on link 1 gives 2*eta1 = 1.0, tiled per commodity
    X[0] += 1.0
    g = grad_F_state(net, state_vector(net, np.array([1.0, 2.0]), X, alpha, beta))
    expect = np.zeros(8)
    expect[0] = expect[4] = 1.0
    assert_allclose(g[sl_x], expect, rtol=1e-9)


def test_grad_F_state_matches_finite_differences(net):
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = random_state(rng, net)
        g = grad_F_state(net, s)
        g_fd = fd_gradient(
            lambda vec: eval_F(net, vec[net.slices[0]], vec[net.slices[1]]), s)
        assert_allclose(g, g_fd, atol=1e-7 * (1.0 + np.abs(g).max()))


# -- constraint residual ----------------------------------------------------------

def test_eval_C_vanishes_at_equilibrium(net):
    res = eval_C(net, _equilibrium_state(net))
    assert res.shape == (22,)
    stationarity, conservation, complementarity = (res[sl] for sl in net.residual_slices)
    assert_allclose(stationarity, np.zeros(8), atol=1e-12)
    assert_allclose(conservation, np.zeros(6), atol=1e-12)
    assert_allclose(complementarity, np.zeros(8), atol=1e-12)


def test_eval_C_block_structure(net):
    sl_stat, sl_cons, sl_comp = net.residual_slices
    s = _equilibrium_state(net)
    s[net.slices[3]][0] = 2.0             # beta on link 1, which holds flow 1.5
    res = eval_C(net, s)
    assert_allclose(res[sl_comp][0], 3.0, rtol=1e-15)
    # stationarity of that same entry picks up the extra beta
    assert_allclose(res[sl_stat][0], -2.0, atol=1e-12)
    s2 = _equilibrium_state(net)
    s2[net.slices[0]][0] += 1.0           # conservation unbalanced at commodity 1
    res2 = eval_C(net, s2)
    assert_allclose(res2[sl_cons][0], -1.0, atol=1e-12)
    assert_allclose(res2[sl_cons][1], 1.0, atol=1e-12)


def _signed_vector(rng, m, scale):
    """m normal entries of the given scale, about a fifth of them +0.0 and a
    fifth -0.0."""
    x = rng.normal(size=m) * scale
    x[rng.random(m) < 0.2] = 0.0
    x[rng.random(m) < 0.2] = -0.0
    return x


def test_incidence_products_match_csr_bit_for_bit(net):
    # the network's products add each row's terms in CSR order, so they
    # equal scipy's CSR products exactly, signed zeros included
    rng = np.random.default_rng(7)
    grid = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    for nt in (net, _cubic_network(), grid):
        Gamma, M = incidence_matrices(nt)
        Mt = M.T.tocsr()
        for _ in range(20):
            scale = 10.0 ** rng.uniform(-20.0, 20.0)
            X, alpha, d = (_signed_vector(rng, m, scale) for m in (
                M.shape[1], M.shape[0], Gamma.shape[1]))
            for got, ref in ((nt.M_dot(X), M @ X), (nt.Mt_dot(alpha), Mt @ alpha),
                             (nt.Gamma_dot(d), Gamma @ d)):
                assert got.dtype == ref.dtype == np.float64
                assert_array_equal(got.view(np.int64), ref.view(np.int64))


def test_eval_C_jacobian_matches_taylor(net):
    rng = np.random.default_rng(5)
    s = random_state(rng, net)
    J = eval_C_jacobian(net, s)
    assert J.shape == (22, 24)
    c0 = eval_C(net, s)
    w = rng.normal(size=net.state_dim)
    w /= np.linalg.norm(w)

    def residual(h):
        c1 = eval_C(net, s + h * w)
        return np.linalg.norm(c1 - c0 - h * (J @ w))

    r1, r2 = residual(1e-3), residual(5e-4)
    assert r1 <= 1e-14 or 3.0 <= r1 / max(r2, 1e-300) <= 5.0


def _cubic_network():
    return Network(
        [1, 2, 3],
        [Link(1, 1, 2, CostFunction((1.0, 0.5, 0.0, 0.2))),
         Link(2, 2, 3, CostFunction((0.5, 1.0))),
         Link(3, 1, 3, CostFunction((2.0, 0.0, 0.3)))],
        [Commodity(1, 3, 2.0)],
    )


def test_eval_C_jacobian_on_cubic_costs():
    net = _cubic_network()
    rng = np.random.default_rng(13)
    s = state_vector(net, np.array([2.0]), rng.uniform(0.5, 2.0, size=3),
                     rng.normal(size=3), rng.uniform(0.0, 1.0, size=3))
    J = eval_C_jacobian(net, s)
    c0 = eval_C(net, s)
    w = rng.normal(size=net.state_dim)
    w /= np.linalg.norm(w)

    def residual(h):
        c1 = eval_C(net, s + h * w)
        return np.linalg.norm(c1 - c0 - h * (J @ w))

    assert 3.0 <= residual(1e-3) / residual(5e-4) <= 5.0


def _dense_jacobian(net, s):
    """C'(s), differentiated block by block from the kkt module docstring, dense."""
    n, a, c = net.n_nodes, net.n_links, net.n_commodities
    _, X, _, beta = (s[sl] for sl in net.slices)
    A = np.zeros((n, a))
    A[net.tails, np.arange(a)] = -1.0
    A[net.heads, np.arange(a)] = 1.0
    Gamma = np.zeros((c * n, c))
    Gamma[np.arange(c) * n + net.origin_idx, np.arange(c)] = -1.0
    Gamma[np.arange(c) * n + net.destination_idx, np.arange(c)] = 1.0
    M = np.kron(np.eye(c), A)
    v = X.reshape(c, a).sum(axis=0)
    # T(X) = R' t(R X) with R = [I ... I], so T'(X) = R' diag(t'(v)) R
    Tp = np.kron(np.ones((c, c)), np.diag(net.link_time_derivs(v)))
    ca, cn = c * a, c * n
    return np.block([
        [np.zeros((ca, c)), Tp, M.T, -np.eye(ca)],
        [Gamma, -M, np.zeros((cn, cn)), np.zeros((cn, ca))],
        [np.zeros((ca, c)), np.diag(beta), np.zeros((ca, cn)), np.diag(X)],
    ])


def test_eval_C_jacobian_matches_dense_reference(net):
    rng = np.random.default_rng(7)
    for _ in range(3):
        s = random_state(rng, net)
        assert_array_equal(eval_C_jacobian(net, s).toarray(),
                           _dense_jacobian(net, s))
    cubic = _cubic_network()
    s = random_state(rng, cubic)
    assert_array_equal(eval_C_jacobian(cubic, s).toarray(), _dense_jacobian(cubic, s))


def _coo_jacobian(net, s):
    """C'(s) assembled from its blocks in COO form and converted to CSR."""
    a, c = net.n_links, net.n_commodities
    Gamma, M = incidence_matrices(net)
    _, X, _, beta = (s[sl] for sl in net.slices)
    stat, cons, comp = net.residual_slices
    sl_d, sl_x, sl_alpha, sl_beta = net.slices
    I = sp.identity(c * a)

    def diag(x):                                   # keeps zeros, as J does
        return sp.coo_matrix((x, (np.arange(x.size), np.arange(x.size))))

    i, j, link = np.indices((c, c, a)).reshape(3, -1)
    t_prime = net.link_time_derivs(X.reshape(c, a).sum(axis=0))
    Tp = sp.coo_matrix((t_prime[link], (i * a + link, j * a + link)), shape=I.shape)
    blocks = [(sp.coo_matrix(B), r.start, col.start) for B, r, col in (
        (Gamma, cons, sl_d), (-M, cons, sl_x), (M.T, stat, sl_alpha),
        (-I, stat, sl_beta), (Tp, stat, sl_x), (diag(beta), comp, sl_x),
        (diag(X), comp, sl_beta))]
    rows = np.concatenate([B.row + r0 for B, r0, _ in blocks])
    cols = np.concatenate([B.col + c0 for B, _, c0 in blocks])
    data = np.concatenate([B.data for B, _, _ in blocks])
    return sp.csr_matrix((data, (rows, cols)), shape=(net.n_constraints, net.state_dim))


def test_eval_C_jacobian_layout_matches_coo_assembly(net):
    # at every state, J is the matrix a COO assembly of its blocks converts
    # to: same data, indices and indptr, canonical
    rng = np.random.default_rng(11)
    cubic = _cubic_network()
    flat = random_state(rng, cubic)
    flat[cubic.slices[1]] = 0.0
    flat[cubic.slices[3]] = 0.0
    cases = [(net, _equilibrium_state(net)), (net, random_state(rng, net)),
             (cubic, random_state(rng, cubic)), (cubic, flat)]
    for nt, s in cases:
        J, ref = eval_C_jacobian(nt, s), _coo_jacobian(nt, s)
        assert ref.has_canonical_format and J.has_canonical_format
        assert J.shape == ref.shape
        assert_array_equal(J.indptr, ref.indptr)
        assert_array_equal(J.indices, ref.indices)
        assert_array_equal(J.data, ref.data)


def test_eval_C_jacobian_pattern_is_fixed(net):
    rng = np.random.default_rng(9)
    s = random_state(rng, net)
    J = eval_C_jacobian(net, s)
    s0 = s.copy()
    s0[net.slices[3]][[0, 3, 6]] = 0.0
    s0[net.slices[1]][[1, 4]] = 0.0
    J0 = eval_C_jacobian(net, s0)
    assert J0.nnz == J.nnz == 76
    assert_array_equal(J0.indptr, J.indptr)
    assert_array_equal(J0.indices, J.indices)
    assert_array_equal(J0.toarray(), _dense_jacobian(net, s0))
    # at zero flow the cubic network's third link has t' = 0 as well
    cubic = _cubic_network()
    s = random_state(rng, cubic)
    flat = s.copy()
    flat[cubic.slices[1]] = 0.0
    flat[cubic.slices[3]] = 0.0
    Jc, Jf = eval_C_jacobian(cubic, s), eval_C_jacobian(cubic, flat)
    assert_array_equal(Jf.indptr, Jc.indptr)
    assert_array_equal(Jf.indices, Jc.indices)
    assert_array_equal(Jf.toarray(), _dense_jacobian(cubic, flat))


# -- Lagrangian -------------------------------------------------------------------

def test_eval_L_consistency(net):
    rng = np.random.default_rng(21)
    s = random_state(rng, net)
    mu = rng.normal(size=net.n_constraints)
    F = eval_F(net, s[net.slices[0]], s[net.slices[1]])
    expect = F + float(eval_C(net, s) @ mu)
    assert_allclose(eval_L(net, s, mu), expect, rtol=1e-14)
    assert eval_L(net, s, np.zeros(22)) == F
    for fn in (eval_L, eval_L_grad):
        with pytest.raises(DimensionMismatch):
            fn(net, s, np.zeros(21))


def test_eval_L_grad_matches_finite_differences(net):
    rng = np.random.default_rng(23)
    for _ in range(5):
        s = random_state(rng, net)
        mu = rng.normal(size=net.n_constraints)
        g = eval_L_grad(net, s, mu)
        g_fd = fd_gradient(
            lambda vec: eval_L(net, vec, mu), s)
        assert_allclose(g, g_fd, atol=1e-6 * (1.0 + np.abs(g).max()))


# -- multiplier recovery ------------------------------------------------------------

def _cost_scaled(doc, kappa):
    """doc with every cost coefficient multiplied by kappa."""
    for link in doc["links"]:
        link["coeffs"] = [kappa * c for c in link["coeffs"]]
    return doc


def test_recover_multipliers_at_equilibrium(net):
    t = net.link_times(TOY_V)
    alpha, beta = recover_multipliers(net, TOY_X, t)
    assert_allclose(alpha, TOY_ALPHA, atol=1e-12)
    assert_allclose(beta, TOY_BETA, atol=1e-12)
    assert np.all(beta >= 0.0)
    assert abs(beta @ TOY_X) <= 1e-12
    # the recovered state zeroes the whole optimality system
    s = state_vector(net, TOY_TARGETS, TOY_X, alpha, beta)
    assert np.abs(eval_C(net, s)).max() <= 1e-12


@pytest.mark.parametrize("kappa", [1e-6, 1.0, 1e4])
def test_recover_multipliers_rejects_non_equilibrium(kappa):
    # every cost times kappa.  Commodity 1 forced onto its long route and
    # commodity 2 onto the congested direct link, or all demand on the direct
    # links (relative gap 7/85): far from equilibrium, so complementarity
    # cannot close.  The slip is measured against t . |X|, so it is refused
    # at every scale, also where the slip itself is tiny
    net = parse_network(json.dumps(_cost_scaled(toy_document(), kappa)))
    for X in (np.array([0.0, 1.5, 0.0, 1.5, 0.0, 1.75, 0.0, 0.0]),
              np.array([1.5, 0.0, 0.0, 0.0, 0.0, 1.75, 0.0, 0.0])):
        with pytest.raises(ResidualTooLarge, match="slip"):
            recover_multipliers(net, X, net.link_times(aggregate_flows(net, X)))


def test_recover_multipliers_certifies_large_constant_costs():
    # constant terms of 1e8-3e8 put the potentials of the 4x4 grid near 1e9,
    # where one rounding is 6e-8: the reduced costs may dip by that much
    doc = json.loads((DATA / "grid4x4_0.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng(0)
    for _ in range(5):
        for link in doc["links"]:
            link["coeffs"][0] = float(rng.uniform(1e8, 3e8))
        net = parse_network(json.dumps(doc))
        sol = solve_tap(net, net.target_demands, tol=1e-8)
        alpha, beta = recover_multipliers(net, sol.X, net.link_times(sol.v))
        assert np.abs(alpha).max() > 1e8
        assert beta.min() >= 0.0


def test_recover_multipliers_validation(net):
    # X holds one flow per commodity and link, link_times one nonnegative
    # time per link; the toy's links 2->3 and 3->2 form a cycle, which
    # negative times would make a full search go round for ever
    t = net.link_times(TOY_V)
    for X, times in ((TOY_X[:-1], t), (np.append(TOY_X, 0.0), t), (TOY_X.reshape(2, 4), t),
                     (TOY_X, t[:-1]), (TOY_X, np.append(t, 1.0))):
        with pytest.raises(DimensionMismatch):
            recover_multipliers(net, X, times)
    for times in (-t, np.full(4, np.nan)):
        with pytest.raises(ValueError, match="nonnegative"):
            recover_multipliers(net, TOY_X, times)


def test_recover_multipliers_with_unreachable_node():
    net = Network(
        [1, 2, 3],
        [Link(1, 1, 2, CostFunction((0.0, 1.0))),
         Link(2, 3, 1, CostFunction((0.0, 1.0)))],
        [Commodity(1, 2, 1.0)],
    )
    X = np.array([1.0, 0.0])
    t = net.link_times(X)
    alpha, beta = recover_multipliers(net, X, t)
    assert np.all(np.isfinite(alpha))
    assert np.all(beta >= 0.0)
    assert abs(beta @ X) <= 1e-12


# -- tangent space -----------------------------------------------------------------

# -- equilibrium sensitivity ----------------------------------------------------

_TIGHT = IRConfig(tap_tol=1e-12)


def _restored(net, d):
    """The restored point at d, tap tolerance 1e-12, and its path flows."""
    return restore(net, np.asarray(d, dtype=float), _TIGHT)


def _used(paths):
    return {i: set(flows) for i, flows in paths.items()}


def _sensitivity_cases():
    grid = parse_network((DATA / "grid2x2_1.json").read_text(encoding="utf-8"))
    toy = parse_network(json.dumps(toy_document()))
    # the toy with a node 4 that origin 1 cannot reach: its potential follows
    # the farthest reachable node
    doc = toy_document()
    doc["nodes"].append(4)
    doc["links"].append({"id": 5, "from": 4, "to": 1, "coeffs": [1.0, 1.0]})
    toy4 = parse_network(json.dumps(doc))
    return [(toy, [1.0, 2.0]), (toy, TOY_TARGETS * 0.9),
            (grid, grid.target_demands), (grid, grid.target_demands * 0.8),
            (toy4, [1.0, 2.0])]


def test_equilibrium_sensitivity_matches_central_differences():
    # Z's d, v, alpha and beta rows against central differences of restore;
    # the step is small enough that no used path set changes
    h = 1e-6
    for net_, d in _sensitivity_cases():
        sl_d, sl_x, sl_a, sl_b = net_.slices
        z, paths = _restored(net_, d)
        Z = equilibrium_sensitivity(net_, z, paths)
        assert Z.shape == (net_.state_dim, net_.n_commodities)
        for j in range(net_.n_commodities):
            e = np.zeros(net_.n_commodities)
            e[j] = h
            zp, paths_p = _restored(net_, d + e)
            zm, paths_m = _restored(net_, d - e)
            assert _used(paths_p) == _used(paths) == _used(paths_m)
            fd = (zp - zm) / (2.0 * h)
            col = Z[:, j]
            assert_array_equal(col[sl_d], e / h)
            assert_allclose(aggregate_flows(net_, col[sl_x]),
                            aggregate_flows(net_, fd[sl_x]), rtol=0.0, atol=1e-6)
            assert_allclose(col[sl_a], fd[sl_a], rtol=0.0, atol=1e-6)
            assert_allclose(col[sl_b], fd[sl_b], rtol=0.0, atol=1e-6)


def test_reduced_gradient_matches_central_differences():
    # g_d = Z' grad F(z) is the gradient of F(d, v_eq(d)) on the piece
    h = 1e-6

    def reduced_F(net_, d):
        z, _ = _restored(net_, d)
        return eval_F(net_, z[net_.slices[0]], z[net_.slices[1]])

    for net_, d in _sensitivity_cases():
        z, paths = _restored(net_, d)
        g_d = equilibrium_sensitivity(net_, z, paths).T @ grad_F_state(net_, z)
        fd = [(reduced_F(net_, d + h * e) - reduced_F(net_, d - h * e))
              / (2.0 * h) for e in np.eye(net_.n_commodities)]
        assert np.abs(g_d).max() > 1e-2
        assert_allclose(g_d, fd, rtol=0.0, atol=1e-8)


def test_equilibrium_sensitivity_at_zero_demand(net):
    # a commodity without demand has no used path and takes its shortest
    # one: its column is the one-sided derivative of restore
    h = 1e-7
    d = np.array([0.0, 2.0])
    z, paths = _restored(net, d)
    assert 0 not in paths
    col = equilibrium_sensitivity(net, z, paths)[:, 0]
    fd = (restore(net, d + [h, 0.0], _TIGHT)[0] - z) / h
    sl_d, sl_x, sl_a, sl_b = net.slices
    assert_allclose(aggregate_flows(net, col[sl_x]), aggregate_flows(net, fd[sl_x]),
                    rtol=0.0, atol=1e-5)
    assert_allclose(col[sl_a], fd[sl_a], rtol=0.0, atol=1e-5)
    assert_allclose(col[sl_b], fd[sl_b], rtol=0.0, atol=1e-5)


def test_tangent_space_layout(net):
    z = _equilibrium_state(net)
    space = tangent_space(net, z)
    assert_array_equal(space.z, z)
    assert space.J.shape == (22, 24)
    lower = space.lower
    assert_array_equal(lower[:10], np.zeros(10))          # d and X
    assert np.all(np.isneginf(lower[10:16]))              # alpha free
    assert_array_equal(lower[16:], np.zeros(8))           # beta
