"""Objective, lifted optimality system and multiplier recovery.

The adjustment problem is treated as an equality-constrained program in the
variable s = (d, X, alpha, beta): the lower-level equilibrium conditions are
written as the residual

    C(s) = [ T(X) + M' alpha - beta ]   (stationarity, per commodity and link)
           [ Gamma d - M X          ]   (flow conservation)
           [ beta * X               ]   (componentwise complementarity)

where T(X) = R' t(R X).  C(s) = 0 together with d, X, beta >= 0 characterizes
user equilibrium for every commodity simultaneously.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, ResidualTooLarge
from .network import aggregate_flows
from .projection import TangentSpace
from .tap import _origin_trees


def _blocks(S, s):
    """Views (d, X, alpha, beta) of a flat state vector, laid out by S.slices."""
    s = np.asarray(s, dtype=float)
    if s.shape != (S.state_dim,):
        raise DimensionMismatch("expected state vector of length %d, got %r"
                                % (S.state_dim, s.shape))
    return tuple(s[sl] for sl in S.slices)


def eval_F(net, d, X):
    """Weighted fit eta1 * |(RX)_obs - vtilde|^2 + eta2 * |d - dtilde|^2."""
    d = np.asarray(d, dtype=float)
    e_obs = aggregate_flows(net, X)[net.obs_links] - net.obs_flows
    e_dem = d - net.target_demands
    return float(net.eta1 * (e_obs @ e_obs) + net.eta2 * (e_dem @ e_dem))


def grad_F_state(net, S, s):
    """Gradient of eval_F at the flat state s; alpha and beta do not enter F."""
    d, X, _, _ = _blocks(S, s)
    sl_d, sl_x, _, _ = S.slices
    v = aggregate_flows(S, X)
    g_link = np.zeros(S.n_links)
    g_link[net.obs_links] = 2.0 * net.eta1 * (v[net.obs_links] - net.obs_flows)
    g = np.zeros(S.state_dim)
    g[sl_d] = 2.0 * net.eta2 * (d - net.target_demands)
    g[sl_x] = np.tile(g_link, S.n_commodities)    # R' applied to the link gradient
    return g


def eval_C(net, S, s):
    """Flat residual of the lifted equilibrium system at the flat state s.

    Its blocks are read through S.residual_slices.
    """
    d, X, alpha, beta = _blocks(S, s)
    t = net.link_times(aggregate_flows(S, X))
    return np.concatenate([np.tile(t, S.n_commodities) + S.Mt @ alpha - beta,
                           S.Gamma @ d - S.M @ X,
                           beta * X])


def eval_C_jacobian(net, S, s):
    """Exact Jacobian of eval_C at s, sparse, on the fixed layout of S.

    Zeros stay stored, so all states of a network share one sparsity pattern.
    """
    _, X, _, beta = _blocks(S, s)
    t_prime = net.link_time_derivs(aggregate_flows(S, X))
    data = np.concatenate([S.jac_fixed, t_prime[S.jac_links], beta, X])
    return sp.csr_matrix((data, (S.jac_rows, S.jac_cols)),
                         shape=(S.n_constraints, S.state_dim))


def eval_L(net, S, s, mu):
    """Lagrangian F(s) + mu . C(s)."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (S.n_constraints,):
        raise DimensionMismatch("expected %d multipliers, got %r"
                                % (S.n_constraints, mu.shape))
    d, X, _, _ = _blocks(S, s)
    return eval_F(net, d, X) + float(eval_C(net, S, s) @ mu)


def eval_L_grad(net, S, s, mu):
    """Gradient of the Lagrangian in the full state layout."""
    mu = np.asarray(mu, dtype=float)
    return grad_F_state(net, S, s) + eval_C_jacobian(net, S, s).T @ mu


def recover_multipliers(net, S, X, link_times):
    """Multipliers (alpha, beta) certifying an equilibrium flow X.

    With costs frozen at t = link_times, per-commodity node potentials are the
    shortest-path distances from the commodity origin: alpha_i = -pi_i, and
    beta = T(X) + M' alpha collects the nonnegative reduced costs.  Unreachable
    nodes get a potential one unit beyond the largest finite distance so they
    never look attractive.  Raises ResidualTooLarge when the complementarity
    slip |beta . X| exceeds 1e-6 * (1 + |X|_1), i.e. when X is not close enough
    to equilibrium for this construction to be valid.
    """
    X = np.asarray(X, dtype=float)
    t = np.asarray(link_times, dtype=float)
    c, n = S.n_commodities, S.n_nodes

    alpha = np.zeros(c * n)
    trees = _origin_trees(net, t, range(c))
    for i in range(c):
        pi = trees[net.origin_idx[i]].dist.copy()
        finite = np.isfinite(pi)
        if not finite.all():
            pi[~finite] = pi[finite].max() + 1.0
        alpha[i * n:(i + 1) * n] = -pi

    beta = np.tile(t, c) + S.Mt @ alpha
    worst = float(beta.min()) if beta.size else 0.0
    if worst < -1e-8:
        raise ResidualTooLarge(
            "reduced cost dips to %.3e; potentials do not certify this flow" % worst
        )
    beta = np.maximum(beta, 0.0)

    slip = abs(float(beta @ X))
    if slip > 1e-6 * (1.0 + np.abs(X).sum()):
        raise ResidualTooLarge(
            "complementarity slip %.3e too large; flow is not an equilibrium" % slip
        )
    return alpha, beta


def tangent_space(net, S, z):
    """Linearized feasible set at z: J(w-z)=0 and the sign constraints, no box.

    Building it finds the coordinates that single-entry rows of J pin and takes
    one sparse LU of the KKT matrix of the rest (see projection).  The
    optimization phase passes its trust radius to project(space, b, delta),
    which reuses the Jacobian and that factorization.
    """
    return TangentSpace(z=z, J=eval_C_jacobian(net, S, z), lower=S.lower)
