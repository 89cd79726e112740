"""User-equilibrium traffic assignment and its building blocks.

solve_tap runs a commodity-disaggregated Frank-Wolfe scheme.  Each commodity
keeps the set of all-or-nothing flow patterns generated so far and its current
flow is a convex combination of them, which makes away steps available; plain
Frank-Wolfe zigzags sublinearly once the optimum sits on a face of the feasible
polytope and cannot reach tight relative gaps in reasonable time.  Conservation
holds to roundoff at every iterate because every atom routes the full demand.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Unreachable

_EPS_DEN = 1e-30  # guards relative-gap denominators on zero-cost networks


@dataclass
class ShortestPathResult:
    """Distances and predecessor links of a one-to-all shortest path tree.

    dist is indexed by node position (np.inf where unreachable); pred holds the
    index into net.links of the tree link entering each node, -1 at the origin
    and at unreachable nodes.
    """

    dist: np.ndarray
    pred: np.ndarray


@dataclass
class TapSolution:
    X: np.ndarray          # commodity-major disaggregated link flows
    v: np.ndarray          # aggregate link flows
    beckmann: float
    rgap: float
    iterations: int
    converged: bool


def _dijkstra(net, costs, origin_idx):
    """Label-setting shortest paths; ties settle the lowest node index first."""
    n = net.n_nodes
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.intp)
    dist[origin_idx] = 0.0
    heap = [(0.0, origin_idx)]
    done = np.zeros(n, dtype=bool)
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for link_idx, w in net.out_links[u]:
            nd = du + costs[link_idx]
            if nd < dist[w]:
                dist[w] = nd
                pred[w] = link_idx
                heapq.heappush(heap, (nd, w))
    return ShortestPathResult(dist=dist, pred=pred)


def _path_links(net, sp_res, origin_idx, dest_idx):
    """Link indices along the tree path origin -> dest, in travel order."""
    if dest_idx != origin_idx and sp_res.pred[dest_idx] < 0:
        raise Unreachable("destination not reachable under the given costs")
    path = []
    u = dest_idx
    while u != origin_idx:
        a = sp_res.pred[u]
        path.append(a)
        u = net.tails[a]
    path.reverse()
    return path


def beckmann_objective(net, v):
    """sum_a int_0^{v_a} t_a(u) du."""
    v = np.asarray(v, dtype=float)
    if v.shape != (net.n_links,):
        raise DimensionMismatch("expected %d link flows, got shape %r"
                                % (net.n_links, v.shape))
    return float(net.link_time_integrals(v).sum())


def _exact_step(net, v, direction, lam_max):
    """Minimize phi(lam) = T(v + lam*direction) over [0, lam_max].

    phi is convex, so bisection on phi'(lam) = t(v+lam*dir) . dir suffices.
    """
    def dphi(lam):
        vv = np.maximum(v + lam * direction, 0.0)
        return float(net.link_times(vv) @ direction)

    if dphi(0.0) >= 0.0:
        return 0.0
    if dphi(lam_max) <= 0.0:
        return lam_max
    lo, hi = 0.0, lam_max
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        dm = dphi(mid)
        if abs(dm) <= 1e-12:
            return mid
        if dm > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def relative_gap(net, d, v):
    """(t(v).v - sum_i d_i * sp_i) / t(v).v, the standard equilibrium gap."""
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    t = net.link_times(v)
    total = float(t @ v)
    best = 0.0
    for i in range(net.n_commodities):
        if d[i] == 0.0:
            continue
        sp_res = _dijkstra(net, t, net.origin_idx[i])
        best += d[i] * sp_res.dist[net.destination_idx[i]]
    return (total - best) / max(total, _EPS_DEN)


class _CommodityFlow:
    """Convex combination of all-or-nothing patterns for one commodity."""

    __slots__ = ("demand", "keys", "atoms", "weights", "flow")

    def __init__(self, demand):
        self.demand = demand
        self.keys = []          # path signatures, insertion order
        self.atoms = []         # flow vectors, one per key
        self.weights = []
        self.flow = None

    def rebuild(self):
        w = np.array(self.weights)
        w = np.maximum(w, 0.0)
        w /= w.sum()
        self.weights = list(w)
        self.flow = np.array(self.atoms).T @ w

    def add_atom(self, key, atom):
        self.keys.append(key)
        self.atoms.append(atom)
        self.weights.append(0.0)
        return len(self.keys) - 1

    def prune(self):
        keep = [j for j, w in enumerate(self.weights) if w > 1e-14]
        if len(keep) != len(self.keys):
            self.keys = [self.keys[j] for j in keep]
            self.atoms = [self.atoms[j] for j in keep]
            self.weights = [self.weights[j] for j in keep]


def solve_tap(net, d, tol=1e-8, max_iter=50000, on_iteration=None):
    """Solve the user-equilibrium assignment for fixed demand d.

    Parameters
    ----------
    net : Network
    d : array of per-commodity demands, nonnegative
    tol : target relative gap
    max_iter : cap on improvement cycles over all commodities
    on_iteration : optional callback (iteration, X, v, beckmann, rgap), invoked
        once per cycle; used by diagnostics and tests

    Returns a TapSolution; `converged` is False when the budget ran out, in
    which case the best iterate found is returned rather than raising.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (net.n_commodities,):
        raise DimensionMismatch("expected %d demands, got shape %r"
                                % (net.n_commodities, d.shape))
    if np.any(d < 0.0) or not np.all(np.isfinite(d)):
        raise ValueError("demands must be finite and nonnegative")

    n_links = net.n_links
    active = [i for i in range(net.n_commodities) if d[i] > 0.0]
    if not active:
        X = np.zeros(net.n_commodities * n_links)
        v = np.zeros(n_links)
        return TapSolution(X=X, v=v, beckmann=beckmann_objective(net, v),
                           rgap=0.0, iterations=0, converged=True)

    blocks = {}
    t0 = net.link_times(np.zeros(n_links))
    v = np.zeros(n_links)
    for i in active:
        blk = _CommodityFlow(d[i])
        sp_res = _dijkstra(net, t0, net.origin_idx[i])
        key = tuple(_path_links(net, sp_res, net.origin_idx[i], net.destination_idx[i]))
        atom = np.zeros(n_links)
        for a in key:
            atom[a] += d[i]
        j = blk.add_atom(key, atom)
        blk.weights[j] = 1.0
        blk.rebuild()
        blocks[i] = blk
        v = v + blk.flow

    def assemble():
        X = np.zeros(net.n_commodities * n_links)
        for i in active:
            X[i * n_links:(i + 1) * n_links] = blocks[i].flow
        return X

    def gap_now():
        return relative_gap(net, d, v)

    rgap = gap_now()
    iterations = 0
    converged = rgap <= tol
    if on_iteration is not None:
        on_iteration(0, assemble(), v.copy(), beckmann_objective(net, v), rgap)

    while not converged and iterations < max_iter:
        iterations += 1
        moved = False
        for i in active:
            blk = blocks[i]
            t = net.link_times(v)
            sp_res = _dijkstra(net, t, net.origin_idx[i])
            key = tuple(_path_links(net, sp_res, net.origin_idx[i],
                                    net.destination_idx[i]))
            if key in blk.keys:
                fw_idx = blk.keys.index(key)
                fw_atom = blk.atoms[fw_idx]
            else:
                fw_atom = np.zeros(n_links)
                for a in key:
                    fw_atom[a] += blk.demand
                fw_idx = None

            atom_costs = [float(t @ atom) for atom in blk.atoms]
            away_j = int(np.argmax(atom_costs))
            cur_cost = float(t @ blk.flow)
            g_fw = float(t @ fw_atom) - cur_cost       # <= 0
            g_aw = cur_cost - atom_costs[away_j]       # <= 0

            scale = 1e-15 * (1.0 + abs(cur_cost))
            use_away = g_aw < g_fw and len(blk.keys) > 1 and blk.weights[away_j] < 1.0
            if use_away:
                direction = blk.flow - blk.atoms[away_j]
                w_a = blk.weights[away_j]
                lam_max = min(w_a / (1.0 - w_a), 1e12)
                gain = g_aw
            else:
                direction = fw_atom - blk.flow
                lam_max = 1.0
                gain = g_fw
            if gain >= -scale or lam_max <= 0.0:
                continue

            lam = _exact_step(net, v, direction, lam_max)
            if lam <= 0.0:
                continue
            moved = True
            if use_away:
                blk.weights = [w * (1.0 + lam) for w in blk.weights]
                blk.weights[away_j] -= lam
            else:
                if fw_idx is None:
                    fw_idx = blk.add_atom(key, fw_atom)
                blk.weights = [w * (1.0 - lam) for w in blk.weights]
                blk.weights[fw_idx] += lam
            blk.prune()
            blk.rebuild()
            v = np.zeros(n_links)
            for ii in active:
                v = v + blocks[ii].flow

        rgap = gap_now()
        if on_iteration is not None:
            on_iteration(iterations, assemble(), v.copy(),
                         beckmann_objective(net, v), rgap)
        if rgap <= tol:
            converged = True
        elif not moved:
            # no commodity can improve; stuck at the attainable accuracy
            break

    X = assemble()
    return TapSolution(X=X, v=v, beckmann=beckmann_objective(net, v),
                       rgap=rgap, iterations=iterations, converged=converged)

