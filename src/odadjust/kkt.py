"""Objective, lifted optimality system and multiplier recovery.

The adjustment problem is treated as an equality-constrained program in the
variable s = (d, X, alpha, beta): the lower-level equilibrium conditions are
written as the residual

    C(s) = [ T(X) + M' alpha - beta ]   (stationarity, per commodity and link)
           [ Gamma d - M X          ]   (flow conservation)
           [ beta * X               ]   (componentwise complementarity)

where T(X) = R' t(R X).  C(s) = 0 together with d, X, beta >= 0 characterizes
user equilibrium for every commodity simultaneously.

Every function takes the network alone: it carries the layout of s and of
C(s), net.slices and net.residual_slices, and the entries of M, M' and
Gamma.  eval_C, recover_multipliers and equilibrium_sensitivity take their
products from those entries or from NumPy alone, so none of them loads
scipy, and neither does the solver, which evaluates no Jacobian.
scipy.sparse is imported on first use, by eval_C_jacobian (and so
eval_L_grad and tangent_space), which no odadjust command calls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteObjective, ResidualTooLarge
from .network import _origin_trees, _path_links, _vector, aggregate_flows
from .projection import TangentSpace


def _blocks(net, s):
    """Views (d, X, alpha, beta) of a flat state vector, laid out by net.slices."""
    s = _vector(s, net.state_dim, "state coordinates")
    return tuple(s[sl] for sl in net.slices)


def eval_F(net, d, X):
    """Weighted fit eta1 * |(RX)_obs - vtilde|^2 + eta2 * |d - dtilde|^2.

    Raises DimensionMismatch unless d holds one demand per commodity, and
    NonFiniteObjective, without a NumPy warning, when F overflows.
    """
    d = _vector(d, net.n_commodities, "demands")
    e_obs = aggregate_flows(net, X)[net.obs_links] - net.obs_flows
    e_dem = d - net.target_demands
    with np.errstate(over="ignore", invalid="ignore"):
        F = float(net.eta1 * (e_obs @ e_obs) + net.eta2 * (e_dem @ e_dem))
    if not math.isfinite(F):
        raise NonFiniteObjective("the objective F is not finite: the weights, "
                                 "observed flows or flows are too large")
    return F


def grad_F_state(net, s):
    """Gradient of eval_F at the flat state s; alpha and beta do not enter F.

    Raises NonFiniteObjective, without a NumPy warning, when an entry
    overflows.
    """
    d, X, _, _ = _blocks(net, s)
    sl_d, sl_x, _, _ = net.slices
    v = aggregate_flows(net, X)
    g_link = np.zeros(net.n_links)
    g = np.zeros(net.state_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        g_link[net.obs_links] = 2.0 * net.eta1 * (v[net.obs_links] - net.obs_flows)
        g[sl_d] = 2.0 * net.eta2 * (d - net.target_demands)
    g[sl_x] = np.tile(g_link, net.n_commodities)  # R' applied to the link gradient
    if not np.isfinite(g).all():
        raise NonFiniteObjective("the gradient of the objective F is not "
                                 "finite: the weights, observed flows or "
                                 "flows are too large")
    return g


def eval_C(net, s):
    """Flat residual of the lifted equilibrium system at the flat state s.

    Its blocks are read through net.residual_slices.
    """
    d, X, alpha, beta = _blocks(net, s)
    t = net.link_times(aggregate_flows(net, X))
    return np.concatenate([np.tile(t, net.n_commodities) + net.Mt_dot(alpha) - beta,
                           net.Gamma_dot(d) - net.M_dot(X),
                           beta * X])


def eval_C_jacobian(net, s):
    """Exact Jacobian of eval_C at s, in canonical CSR.

    Its blocks are the network's M, M' and Gamma entries, -I, the t'(v)
    entries that join stationarity row (i, l) to flow column (j, l) for
    every pair of commodities i, j, and the complementarity rows' beta and
    X diagonals.
    Entries that are zero at s stay stored, so J has one pattern at every
    state of the network.
    """
    import scipy.sparse as sp
    _, X, _, beta = _blocks(net, s)
    t_prime = net.link_time_derivs(aggregate_flows(net, X))
    c, a = net.n_commodities, net.n_links
    d0, x0, alpha0, beta0 = (sl.start for sl in net.slices)
    stat, cons, comp = (sl.start for sl in net.residual_slices)
    diag = np.arange(c * a)
    i, j, link = np.indices((c, c, a)).reshape(3, -1)
    blocks = [(net.Gamma[0] + cons, net.Gamma[1] + d0, net.Gamma[2]),
              (net.M[0] + cons, net.M[1] + x0, -net.M[2]),
              (net.Mt[0] + stat, net.Mt[1] + alpha0, net.Mt[2]),
              (diag + stat, diag + beta0, np.full(c * a, -1.0)),
              (i * a + link + stat, j * a + link + x0, t_prime[link]),
              (diag + comp, diag + x0, beta),
              (diag + comp, diag + beta0, X)]
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    return sp.csr_matrix((vals, (rows, cols)), shape=(net.n_constraints, net.state_dim))


def eval_L(net, s, mu):
    """Lagrangian F(s) + mu . C(s)."""
    mu = _vector(mu, net.n_constraints, "multipliers")
    d, X, _, _ = _blocks(net, s)
    return eval_F(net, d, X) + float(eval_C(net, s) @ mu)


def eval_L_grad(net, s, mu):
    """Gradient of the Lagrangian in the full state layout."""
    mu = _vector(mu, net.n_constraints, "multipliers")
    return grad_F_state(net, s) + eval_C_jacobian(net, s).T @ mu


def recover_multipliers(net, X, link_times):
    """Multipliers (alpha, beta) certifying an equilibrium flow X.

    With costs frozen at t = link_times, per-commodity node potentials are the
    shortest-path distances from the commodity origin: alpha_i = -pi_i, and
    beta = T(X) + M' alpha collects the nonnegative reduced costs.  Unreachable
    nodes get a potential one unit beyond the largest finite distance so they
    never look attractive.  Raises ResidualTooLarge when X is not close
    enough to equilibrium for this construction to be valid: a reduced cost
    dips below -1e-8 max(1, max|alpha|), more than a rounding of the
    potentials, or the complementarity slip |beta . X| (t . v less the
    demands times their shortest-path costs) exceeds 1e-6 t . |X|, a
    relative gap of about 1e-6.  Both tests are relative, so scaling every
    cost leaves their outcome as it was.  Raises DimensionMismatch
    unless X holds one flow per commodity and link and link_times one time
    per link, and ValueError when a link time is negative or NaN.
    """
    c, n = net.n_commodities, net.n_nodes
    X = _vector(X, c * net.n_links, "disaggregated link flows")
    t = _vector(link_times, net.n_links, "link times")

    alpha = np.zeros(c * n)
    trees = _origin_trees(net, t, range(c))
    for i in range(c):
        pi = np.array(trees[net.origin_idx[i]].dist)
        finite = np.isfinite(pi)
        if not finite.all():
            pi[~finite] = pi[finite].max() + 1.0
        alpha[i * n:(i + 1) * n] = -pi

    t_i = np.tile(t, c)   # t for every commodity
    beta = t_i + net.Mt_dot(alpha)
    worst = float(beta.min()) if beta.size else 0.0
    if worst < -1e-8 * float(np.abs(alpha).max(initial=1.0)):
        raise ResidualTooLarge(
            "reduced cost dips to %.3e; potentials do not certify this flow" % worst
        )
    beta = np.maximum(beta, 0.0)

    slip = abs(float(beta @ X))
    if slip > 1e-6 * float(t_i @ np.abs(X)):
        raise ResidualTooLarge(
            "complementarity slip %.3e too large; flow is not an equilibrium" % slip
        )
    return alpha, beta


def _potential_derivs(net, tree, origin, link_dv):
    """d pi / dd of the shortest-path distances of one origin's tree.

    link_dv holds t'_a dv_a / dd, one row per link.  Along the tree,
    dpi(head) = dpi(tail) + link_dv[a] for the tree link a entering head,
    taken from the origin outward; an unreachable node follows the farthest
    reachable one, whose distance plus one recover_multipliers gives it.
    """
    n = net.n_nodes
    dpi = np.zeros((n, link_dv.shape[1]))
    children = [[] for _ in range(n)]
    for w, a in enumerate(tree.pred):
        if a >= 0:
            children[net.tails[a]].append(w)
    order = [origin]
    for u in order:
        for w in children[u]:
            dpi[w] = dpi[u] + link_dv[tree.pred[w]]
            order.append(w)
    dist = np.array(tree.dist)
    finite = np.isfinite(dist)
    if not finite.all():
        dpi[~finite] = dpi[np.flatnonzero(finite)[np.argmax(dist[finite])]]
    return dpi


def equilibrium_sensitivity(net, z, paths):
    """Z = dz/dd at a restored point z, of shape state_dim x c.

    Z moves z with the demands on the piece of the equilibrium set where
    each commodity's used paths stay used and its other paths unused
    (Tobin & Friesz, Transp. Sci. 22, 1988).  paths maps a commodity to its
    path flows, as solve_tap returns them; the used paths are those with
    positive flow, and a commodity with none takes its shortest path.  With
    Delta the link-path and E the commodity-path incidence of the used
    paths, and D = diag t'(v), the path-flow derivatives H solve

        [[Delta' D Delta, -E'], [E, 0]] [H; Pi] = [0; I_c]

    by np.linalg.lstsq: the dense system of P + c rows is singular where
    t' vanishes or used paths cost the same to every order, and lstsq takes
    its minimum-norm solution.  Then dX_i = Delta_i H_i and dv = Delta H.
    The potentials follow recover_multipliers' trees, dalpha_i = -dpi_i,
    and dbeta_i = t' dv + dalpha_i[head] - dalpha_i[tail].  Raises
    NonFiniteObjective, without a NumPy warning, when t'(v) is not finite.
    """
    _, X, _, _ = _blocks(net, z)
    c, a, n = net.n_commodities, net.n_links, net.n_nodes
    if not c:
        return np.zeros((net.state_dim, 0))   # no demand to move z with
    v = aggregate_flows(net, X)
    t = net.link_times(v)
    with np.errstate(over="ignore", invalid="ignore"):
        t_prime = net.link_time_derivs(v)
    if not np.isfinite(t_prime).all():
        raise NonFiniteObjective("a link's travel time derivative is not finite "
                                 "at the restored flows, so the gradient of F "
                                 "along the equilibrium set has no value")
    trees = _origin_trees(net, t, range(c))

    owner, cols = [], []
    for i in range(c):
        used = [p for p, h in paths.get(i, {}).items() if h > 0.0]
        if not used:
            o = int(net.origin_idx[i])
            used = [_path_links(net, trees[o], o, int(net.destination_idx[i]))]
        owner += [i] * len(used)
        cols += used
    P = len(cols)
    Delta = np.zeros((a, P))
    for j, p in enumerate(cols):
        Delta[list(p), j] = 1.0
    E = np.zeros((c, P))
    E[owner, np.arange(P)] = 1.0
    A = np.zeros((P + c, P + c))
    A[:P, :P] = Delta.T @ (t_prime[:, None] * Delta)
    A[:P, P:] = -E.T
    A[P:, :P] = E
    rhs = np.zeros((P + c, c))
    rhs[P:] = np.eye(c)
    H = np.linalg.lstsq(A, rhs, rcond=None)[0][:P]

    dX = np.stack([Delta @ (E[i][:, None] * H) for i in range(c)])
    dv = dX.sum(axis=0)
    link_dv = t_prime[:, None] * dv
    dpi = {o: _potential_derivs(net, tree, o, link_dv) for o, tree in trees.items()}
    dalpha = np.stack([-dpi[int(net.origin_idx[i])] for i in range(c)])
    dbeta = link_dv + dalpha[:, net.heads] - dalpha[:, net.tails]

    Z = np.empty((net.state_dim, c))
    for sl, block in zip(net.slices, (np.eye(c), dX, dalpha, dbeta)):
        Z[sl] = block.reshape(-1, c)
    return Z


def tangent_space(net, z):
    """Linearized feasible set at z: J(w-z)=0 and the sign constraints, no box.

    Building it finds the coordinates that single-entry rows of J pin and takes
    one sparse LU of the KKT matrix of the rest, assembled from J's nonzero
    entries (see projection).  project(space, b, radius) reuses the Jacobian
    and that factorization for every point and radius; the solver itself
    steps in reduced coordinates and builds no tangent space.
    """
    return TangentSpace(z=z, J=eval_C_jacobian(net, z), lower=net.lower)
