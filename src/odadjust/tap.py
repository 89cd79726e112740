"""User-equilibrium traffic assignment and its building blocks.

solve_tap runs path-based gradient projection with a diagonal Newton step
(Jayakrishnan et al., Transp. Res. Rec. 1443, 1994).  Each commodity keeps the
paths it uses and the flow on each.  A sweep visits the commodities in order:
it finds the commodity's shortest path under the current link times and moves
flow to it from every other used path, by that path's excess cost over the
summed cost derivatives of the links where the two paths differ, and at most
all of its flow.  Only those links change, so only their times and derivatives
are evaluated.  Conservation holds to roundoff at every iterate because a move
keeps the commodity's total path flow.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Unreachable
from .network import aggregate_flows

_EPS_DEN = 1e-30  # guards relative-gap denominators on zero-cost networks
_EPS_SHIFT = 1e-15  # excess costs below this share of the compared times are roundoff


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


def _dijkstra(net, costs, origin_idx, dest_idx=None):
    """Label-setting shortest paths; ties settle the lowest node index first.

    With dest_idx the search stops once that node is settled: its distance
    and the tree path to it are final, other labels may not be.
    """
    n = net.n_nodes
    costs = np.asarray(costs, dtype=float).tolist()
    dist = [np.inf] * n
    pred = [-1] * n
    done = [False] * n
    dist[origin_idx] = 0.0
    heap = [(0.0, origin_idx)]
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == dest_idx:
            break
        for link_idx, w in net.out_links[u]:
            nd = du + costs[link_idx]
            if nd < dist[w]:
                dist[w] = nd
                pred[w] = link_idx
                heapq.heappush(heap, (nd, w))
    return ShortestPathResult(dist=np.array(dist), pred=np.array(pred, dtype=np.intp))


def _origin_trees(net, costs, commodities):
    """Shortest-path trees under costs, one per distinct origin of the given
    commodities, keyed by origin index."""
    origins = dict.fromkeys(int(net.origin_idx[i]) for i in commodities)
    return {o: _dijkstra(net, costs, o) for o in origins}


def _path_links(net, sp_res, origin_idx, dest_idx):
    """Link indices along the tree path origin -> dest, in travel order."""
    # Network rejects unreachable destinations and _link_times infinite link
    # times, so only a path cost that overflows as it sums leaves no tree path
    if dest_idx != origin_idx and sp_res.pred[dest_idx] < 0:
        raise Unreachable("link travel times are too large: no path to the "
                          "destination has a finite cost")
    path = []
    u = dest_idx
    while u != origin_idx:
        a = sp_res.pred[u]
        path.append(a)
        u = net.tails[a]
    path.reverse()
    return path


def _link_times(net, v):
    """t(v) for the path searches and the gap; a time that overflows raises
    Unreachable, without a NumPy warning."""
    with np.errstate(over="ignore"):
        t = net.link_times(v)
    if not t.max(initial=0.0) < np.inf:     # NaN fails as well
        raise Unreachable("link travel times are not finite at these flows, so "
                          "no path to the destination has a finite cost")
    return t


def beckmann_objective(net, v):
    """sum_a int_0^{v_a} t_a(u) du.

    Raises Unreachable when the sum is not finite.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (net.n_links,):
        raise DimensionMismatch("expected %d link flows, got shape %r"
                                % (net.n_links, v.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        out = float(net.link_time_integrals(v).sum())
    if not math.isfinite(out):
        raise Unreachable("link travel times are too large: the Beckmann "
                          "integral of these flows is not finite")
    return out


def relative_gap(net, d, v):
    """(t(v).v - sum_i d_i * sp_i) / t(v).v, the standard equilibrium gap.

    Raises Unreachable when a link time t(v), the total t(v).v or the sum of
    the shortest-path costs is not finite.
    """
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    t = _link_times(net, v)
    active = [i for i in range(net.n_commodities) if d[i] != 0.0]
    trees = _origin_trees(net, t, active)
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(t @ v)
        for i in active:
            best += d[i] * trees[net.origin_idx[i]].dist[net.destination_idx[i]]
        if not math.isfinite(total + best):
            raise Unreachable("link travel times are too large: the total "
                              "travel time of these flows, or of their "
                              "shortest paths, is not finite")
    return (total - best) / max(total, _EPS_DEN)


def _shift(net, v, flows, p, q):
    """Move flow of one commodity from path p to path q by a diagonal Newton
    step on the Beckmann objective, capped at p's flow; v follows.  Returns
    whether any flow moved."""
    q_set, p_set = set(q), set(p)
    only_p = [a for a in p if a not in q_set]
    only_q = [a for a in q if a not in p_set]
    t_p = sum(net.links[a].cost.value(float(v[a])) for a in only_p)
    t_q = sum(net.links[a].cost.value(float(v[a])) for a in only_q)
    excess = t_p - t_q
    if not excess > _EPS_SHIFT * (t_p + t_q):
        return False
    curv = sum(net.links[a].cost.derivative(float(v[a])) for a in only_p + only_q)
    h = flows[p]
    step = h if excess >= h * curv else excess / curv
    flows[p] = h - step
    flows[q] += step
    v[only_p] -= step
    v[only_q] += step
    return True


def solve_tap(net, d, tol=1e-8, max_iter=50000):
    """Solve the user-equilibrium assignment for fixed demand d.

    Parameters
    ----------
    net : Network
    d : array of per-commodity demands, nonnegative
    tol : target relative gap
    max_iter : cap on sweeps over all commodities

    Returns a TapSolution; `converged` is False when the budget ran out, in
    which case the best iterate found is returned rather than raising.
    Every link time the sweep computes is checked before a path search or the
    gap uses it: Unreachable is raised on the first that is not finite.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (net.n_commodities,):
        raise DimensionMismatch("expected %d demands, got shape %r"
                                % (net.n_commodities, d.shape))
    if np.any(d < 0.0) or not np.all(np.isfinite(d)):
        raise ValueError("demands must be finite and nonnegative")

    n_links = net.n_links
    active = [i for i in range(net.n_commodities) if d[i] > 0.0]

    def shortest(i, t):
        o = net.origin_idx[i]
        dest = net.destination_idx[i]
        return tuple(_path_links(net, _dijkstra(net, t, o, dest), o, dest))

    def assemble():
        # X from the path flows; v is its exact per-link sum
        X = np.zeros(net.n_commodities * n_links)
        for i in active:
            for p, h in paths[i].items():
                X[i * n_links + np.array(p, dtype=np.intp)] += h
        return X, aggregate_flows(net, X)

    t0 = net.link_times(np.zeros(n_links))
    paths = {i: {shortest(i, t0): d[i]} for i in active}
    X, v = assemble()
    rgap = relative_gap(net, d, v)
    iterations = 0
    converged = rgap <= tol

    while not converged and iterations < max_iter:
        iterations += 1
        moved = False
        for i in active:
            q = shortest(i, _link_times(net, v))
            flows = paths[i]
            flows.setdefault(q, 0.0)
            for p in list(flows):
                if p != q:
                    moved = _shift(net, v, flows, p, q) or moved
            paths[i] = {p: h for p, h in flows.items() if h > 0.0}

        X, v = assemble()
        rgap = relative_gap(net, d, v)
        if rgap <= tol:
            converged = True
        elif not moved:
            # no commodity can improve; stuck at the attainable accuracy
            break

    return TapSolution(X=X, v=v, beckmann=beckmann_objective(net, v),
                       rgap=rgap, iterations=iterations, converged=converged)
