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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, ResidualTooLarge
from .network import aggregate_flows
from .projection import TangentSpace
from .tap import _dijkstra


@dataclass
class StatePoint:
    """One point of the lifted variable space, kept in named blocks."""

    d: np.ndarray
    X: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def pack(self):
        return np.concatenate([self.d, self.X, self.alpha, self.beta])

    @classmethod
    def from_vector(cls, vec, S):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (S.state_dim,):
            raise DimensionMismatch("expected state vector of length %d, got %r"
                                    % (S.state_dim, vec.shape))
        sl_d, sl_x, sl_a, sl_b = S.slices
        return cls(d=vec[sl_d].copy(), X=vec[sl_x].copy(),
                   alpha=vec[sl_a].copy(), beta=vec[sl_b].copy())

    def copy(self):
        return StatePoint(self.d.copy(), self.X.copy(),
                          self.alpha.copy(), self.beta.copy())

    def max_bound_violation(self):
        """How far the sign-constrained blocks dip below zero."""
        worst = 0.0
        for block in (self.d, self.X, self.beta):
            if block.size:
                worst = max(worst, float(-block.min()))
        return worst


@dataclass
class ConstraintResidual:
    stationarity: np.ndarray
    conservation: np.ndarray
    complementarity: np.ndarray

    def pack(self):
        return np.concatenate([self.stationarity, self.conservation,
                               self.complementarity])


def eval_F(net, d, X):
    """Weighted fit eta1 * |(RX)_obs - vtilde|^2 + eta2 * |d - dtilde|^2."""
    d = np.asarray(d, dtype=float)
    X = np.asarray(X, dtype=float)
    v = X.reshape(net.n_commodities, net.n_links).sum(axis=0)
    e_obs = v[net.obs_links] - net.obs_flows
    e_dem = d - net.target_demands
    return float(net.eta1 * (e_obs @ e_obs) + net.eta2 * (e_dem @ e_dem))


def eval_F_grad(net, d, X):
    """Gradient of eval_F in the (d, X) blocks; alpha and beta do not enter F."""
    d = np.asarray(d, dtype=float)
    X = np.asarray(X, dtype=float)
    v = X.reshape(net.n_commodities, net.n_links).sum(axis=0)
    g_link = np.zeros(net.n_links)
    g_link[net.obs_links] = 2.0 * net.eta1 * (v[net.obs_links] - net.obs_flows)
    g_X = np.tile(g_link, net.n_commodities)     # R' applied to the link gradient
    g_d = 2.0 * net.eta2 * (d - net.target_demands)
    return g_d, g_X


def grad_F_state(net, S, s):
    """eval_F gradient embedded in the full state layout."""
    g_d, g_X = eval_F_grad(net, s.d, s.X)
    return np.concatenate([g_d, g_X,
                           np.zeros(S.n_commodities * S.n_nodes),
                           np.zeros(S.n_commodities * S.n_links)])


def eval_C(net, S, s):
    """Residual of the lifted equilibrium system at a state point."""
    v = aggregate_flows(S, s.X)
    t = net.link_times(v)
    stationarity = np.tile(t, S.n_commodities) + S.M.T @ s.alpha - s.beta
    conservation = S.Gamma @ s.d - S.M @ s.X
    complementarity = s.beta * s.X
    return ConstraintResidual(stationarity, conservation, complementarity)


def eval_C_jacobian(net, S, s):
    """Exact Jacobian of eval_C at s, sparse, rows and columns in block order."""
    c, a = S.n_commodities, S.n_links
    v = aggregate_flows(S, s.X)
    # every commodity pair sees the same diagonal of link-time derivatives
    Tp = sp.kron(np.ones((c, c)), sp.diags(net.link_time_derivs(v)), format="csr")
    I = sp.identity(c * a, format="csr")
    zero_d = sp.csr_matrix((c * a, c))
    J = sp.bmat(
        [
            [zero_d, Tp, S.M.T, -I],
            [S.Gamma, -S.M, None, None],
            [None, sp.diags(s.beta), None, sp.diags(s.X)],
        ],
        format="csr",
    )
    return J


def eval_L(net, S, s, mu):
    """Lagrangian F(s) + mu . C(s)."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (S.n_constraints,):
        raise DimensionMismatch("expected %d multipliers, got %r"
                                % (S.n_constraints, mu.shape))
    return eval_F(net, s.d, s.X) + float(eval_C(net, S, s).pack() @ mu)


def eval_L_grad(net, S, s, mu):
    """Gradient of the Lagrangian in the full state layout."""
    mu = np.asarray(mu, dtype=float)
    return grad_F_state(net, S, s) + eval_C_jacobian(net, S, s).T @ mu


def recover_multipliers(net, S, d, X, link_times):
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
    for i in range(c):
        sp_res = _dijkstra(net, t, net.origin_idx[i])
        pi = sp_res.dist.copy()
        finite = np.isfinite(pi)
        if not finite.all():
            pi[~finite] = pi[finite].max() + 1.0
        alpha[i * n:(i + 1) * n] = -pi

    beta = np.tile(t, c) + S.M.T @ alpha
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

    The optimization phase boxes it with dataclasses.replace(space,
    box_radius=delta), which reuses the Jacobian.
    """
    lower = np.concatenate([
        np.zeros(S.n_commodities),
        np.zeros(S.n_commodities * S.n_links),
        np.full(S.n_commodities * S.n_nodes, -np.inf),
        np.zeros(S.n_commodities * S.n_links),
    ])
    return TangentSpace(z=z.pack(), J=eval_C_jacobian(net, S, z), lower=lower)
