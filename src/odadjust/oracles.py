"""Brute-force reference implementations used to cross-check the fast solvers.

Everything here trades speed for transparency: equilibria are computed over an
explicit path enumeration, projections go through a general-purpose NLP solver,
and derivatives come from central differences.  None of it shares code with the
production solvers it checks.

Only oracle_project needs SciPy's optimizer, and scipy.optimize is imported
on first use, inside it: enumerate_paths, oracle_tap, oracle_path_costs and
fd_gradient run on NumPy alone.  A fresh interpreter imports this module in
about 0.15 s and 29 MB of peak RSS, against about 0.7 s and 76.5 MB with the
optimizer loaded at import (Python 3.11, NumPy 2.4, SciPy 1.17, x86-64).
"""

from __future__ import annotations

import numpy as np

from .errors import TooLarge, Unreachable

_MAX_ORACLE_NODES = 8
_PG_TOL = 1e-10          # oracle_tap's stopping size of the projected gradient
_MAX_PG_ITER = 1000000   # oracle_tap's cap on projected-gradient steps
_FD_STEP = 1e-6          # fd_gradient's central-difference step


def enumerate_paths(net, origin, destination):
    """All simple paths origin -> destination as tuples of link indices.

    Ordered lexicographically by node sequence so the enumeration is stable.
    Guarded by a node-count limit; this is strictly a small-instance tool.
    """
    if net.n_nodes > _MAX_ORACLE_NODES:
        raise TooLarge("path enumeration limited to %d nodes" % _MAX_ORACLE_NODES)
    o = net.node_index[origin]
    t = net.node_index[destination]
    paths = []

    def extend(u, visited, links):
        if u == t:
            paths.append(tuple(links))
            return
        # sort candidate moves by head node position, then link position
        moves = sorted(net.out_links[u], key=lambda aw: (aw[1], aw[0]))
        for a, w in moves:
            if w in visited:
                continue
            visited.add(w)
            links.append(a)
            extend(w, visited, links)
            links.pop()
            visited.remove(w)

    extend(o, {o}, [])
    return paths


def _project_simplex(y, total):
    """Euclidean projection of y onto {h >= 0, sum h = total}."""
    if total <= 0.0:
        return np.zeros_like(y)
    n = y.size
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - total
    rho = np.nonzero(u * np.arange(1, n + 1) > css)[0][-1]
    lam = css[rho] / (rho + 1.0)
    return np.maximum(y - lam, 0.0)


def oracle_tap(net, d):
    """Equilibrium aggregate link flows by projected gradient over path flows.

    Enumerates every simple path per commodity and minimizes the Beckmann
    objective over the product of scaled simplices.  Steps are spectral
    (Barzilai-Borwein) safeguarded by nonmonotone Armijo backtracking; the
    loop stops when the unit-step projected gradient is below _PG_TOL, or
    after _MAX_PG_ITER steps.
    """
    d = np.asarray(d, dtype=float)
    paths = []
    owner = []
    for i, com in enumerate(net.commodities):
        plist = enumerate_paths(net, com.origin, com.destination)
        if not plist and d[i] > 0.0:
            raise Unreachable("no path for commodity %d" % i)
        paths.extend(plist)
        owner.extend([i] * len(plist))
    owner = np.array(owner, dtype=np.intp)
    n_paths = len(paths)
    if n_paths == 0:
        return np.zeros(net.n_links)

    # incidence: D[p, a] = 1 when path p uses link a
    D = np.zeros((n_paths, net.n_links))
    for p, links in enumerate(paths):
        for a in links:
            D[p, a] += 1.0

    groups = [np.nonzero(owner == i)[0] for i in range(net.n_commodities)]

    def project(h):
        out = np.empty_like(h)
        for i, idx in enumerate(groups):
            if idx.size:
                out[idx] = _project_simplex(h[idx], d[i])
        return out

    # start from an even split per commodity
    h = np.zeros(n_paths)
    for i, idx in enumerate(groups):
        if idx.size:
            h[idx] = d[i] / idx.size

    def objective(hh):
        return float(net.link_time_integrals(D.T @ hh).sum())

    def gradient(hh):
        return D @ net.link_times(D.T @ hh)

    obj = objective(h)
    g = gradient(h)
    recent = [obj]
    step = 1.0
    for _ in range(_MAX_PG_ITER):
        if np.abs(project(h - g) - h).max(initial=0.0) <= _PG_TOL:
            break
        delta = project(h - step * g) - h
        if not np.any(delta):
            # fixed point of the projected step implies stationarity
            break
        gd = float(g @ delta)
        ref = max(recent)
        lam = 1.0
        while True:
            cand = h + lam * delta
            new_obj = objective(cand)
            if new_obj <= ref + 1e-4 * lam * gd or lam < 1e-16:
                break
            lam *= 0.5
        g_new = gradient(cand)
        s = cand - h
        y = g_new - g
        sy = float(s @ y)
        # zero curvature along s means the objective is locally linear there
        step = min(max(float(s @ s) / sy, 1e-10), 1e10) if sy > 1e-30 else 1e10
        h, obj, g = cand, new_obj, g_new
        recent.append(obj)
        if len(recent) > 10:
            recent.pop(0)

    return D.T @ h


def oracle_path_costs(net, d):
    """Per-commodity path lists and their costs at the oracle equilibrium."""
    d = np.asarray(d, dtype=float)
    per_com = [enumerate_paths(net, com.origin, com.destination)
               for com in net.commodities]
    v = oracle_tap(net, d)
    t = net.link_times(v)
    costs = [np.array([sum(t[a] for a in p) for p in plist])
             for plist in per_com]
    return per_com, costs, v


def oracle_project(z, J, lower, box_radius, b):
    """Reference projection: minimize |w-b|^2 on the same feasible set.

    Uses SLSQP on an orthonormalized basis of the constraint rows; the feasible
    set is identical, only better conditioned for the general-purpose solver.
    A small-instance reference: on a 4x4 grid (about 450 states) SLSQP stops
    short of the projection.
    """
    from scipy.optimize import minimize

    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    J = np.asarray(J if not hasattr(J, "toarray") else J.toarray(), dtype=float)
    n = z.size

    # orthonormal row basis; drops zero and duplicate rows without changing the set
    if J.size and np.abs(J).max() > 0:
        u, sv, vt = np.linalg.svd(J, full_matrices=False)
        rank = int(np.sum(sv > 1e-12 * sv[0]))
        Q = vt[:rank]
    else:
        Q = np.zeros((0, n))

    lo = np.array(lower, dtype=float)
    hi = np.full(n, np.inf)
    if box_radius is not None:
        lo = np.maximum(lo, z - box_radius)
        hi = z + box_radius
    bounds = [(None if not np.isfinite(l) else l, None if not np.isfinite(h) else h)
              for l, h in zip(lo, hi)]

    cons = ()
    if Q.shape[0]:
        cons = ({"type": "eq", "fun": lambda w: Q @ (w - z),
                 "jac": lambda w: Q},)
    res = minimize(lambda w: float((w - b) @ (w - b)),
                   x0=z.copy(), jac=lambda w: 2.0 * (w - b),
                   method="SLSQP", bounds=bounds, constraints=cons,
                   options={"maxiter": 500, "ftol": 1e-14})
    return res.x


def fd_gradient(f, x):
    """Central-difference gradient of a scalar function, step _FD_STEP."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = _FD_STEP
        g[j] = (f(x + e) - f(x - e)) / (2.0 * _FD_STEP)
    return g
