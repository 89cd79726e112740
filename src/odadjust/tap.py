"""User-equilibrium traffic assignment and its building blocks.

solve_tap runs path-based gradient projection with a diagonal Newton step
(Jayakrishnan et al., Transp. Res. Rec. 1443, 1994).  Each commodity keeps the
paths it uses and the flow on each.  A sweep visits the commodities in order:
it finds the commodity's shortest path under the current link times and moves
flow to it from every other used path, by that path's excess cost over the
summed cost derivatives of the links where the two paths differ, and at most
all of its flow.  The sweep then makes one restricted pass, which searches
no path: each commodity with two or more used paths moves flow, by the same
step, from every other used path to the cheapest of them under the running
link times (Chen, Lee & Jayakrishnan, Math. Comput. Simul. 59, 2002).
Conservation holds to roundoff at every iterate because a move keeps the
commodity's total path flow.

A solve starts cold, each commodity's demand on its shortest path under
the zero-flow link times, or warm from the path flows of an earlier solve: a commodity with a
positive total there starts from its paths, their flows scaled to its new
demand.

Each sweep starts from the flows v assembled from the path flows, and takes
the link times t(v) and derivatives t'(v) once, from net.link_times and
net.link_time_derivs, as Python lists.  The times are those the sweep's
convergence test has just evaluated at the same v.  A move changes v only
on the links where its two paths differ, and only those links' entries are
re-evaluated, by Horner's rule in the same order, so the lists stay t and
t' of the running flows bit for bit.  Which links those are is worked out
once per pair of paths in a solve.  The lists are rebuilt from the
assembled v at every sweep rather than carried over, as the running v and
the assembled v differ in the last bits.  Flows stay Python floats, so a
time that overflows is inf without a NumPy warning; it is caught just
before the next path search or the convergence test reads it, not where it
arises, since a later move of the same commodity can bring it back.  The
restricted pass moves no flow off a path whose time is inf, so the test
that follows it raises.  A path search stops as soon as the nodes it is
asked for have settled, whose labels are then final.

The convergence test first bounds the relative gap from below by the used
paths alone, with no search: each commodity's cheapest used path stands in
for its shortest path.  Only where that bound is within the tolerance does
relative_gap search, so in most sweeps no gap search runs; a solve that
stops on a bound takes the exact gap once at the end.
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
_NOT_FINITE = ("link travel times are not finite at these flows, so no path "
               "to the destination has a finite cost")


@dataclass
class ShortestPathResult:
    """Distances and predecessor links of a one-to-all shortest path tree.

    Both are lists indexed by node position.  dist is inf where unreachable;
    pred holds the index into net.links of the tree link entering each node,
    -1 at the origin and at unreachable nodes.
    """

    dist: list
    pred: list


@dataclass
class TapSolution:
    X: np.ndarray          # commodity-major disaggregated link flows
    v: np.ndarray          # aggregate link flows
    beckmann: float
    rgap: float
    iterations: int
    converged: bool
    # per commodity with nonzero demand, its used paths (tuples of link
    # indices, in travel order) and their flows
    paths: dict


def _dijkstra(net, costs, origin_idx, targets=None):
    """Label-setting shortest paths; ties settle the lowest node index first.

    costs holds the link times, as a list or an array.  With targets, a
    collection of node indices, the search stops once all of them have
    settled.  Under nonnegative costs a settled label never changes, so
    their distances and tree paths equal those of the full search bit for
    bit; other labels may not be final.
    """
    if isinstance(costs, np.ndarray):
        costs = costs.tolist()
    n = net.n_nodes
    out_links, pop, push = net.out_links, heapq.heappop, heapq.heappush
    dist = [math.inf] * n
    pred = [-1] * n
    done = [False] * n
    wanted = [False] * n
    for x in range(n) if targets is None else targets:
        wanted[x] = True
    left = wanted.count(True)
    dist[origin_idx] = 0.0
    heap = [(0.0, origin_idx)]
    while heap:
        du, u = pop(heap)
        if done[u]:
            continue
        done[u] = True
        if wanted[u]:
            left -= 1
            if not left:
                break
        for link_idx, w in out_links[u]:
            nd = du + costs[link_idx]
            if nd < dist[w]:
                dist[w] = nd
                pred[w] = link_idx
                push(heap, (nd, w))
    return ShortestPathResult(dist=dist, pred=pred)


def _origin_trees(net, costs, commodities):
    """Full shortest-path trees under costs, one per distinct origin of the
    given commodities, keyed by origin index."""
    origins = dict.fromkeys(int(net.origin_idx[i]) for i in commodities)
    return {o: _dijkstra(net, costs, o) for o in origins}


def _path_links(net, sp_res, origin_idx, dest_idx):
    """Link indices along the tree path origin -> dest, in travel order."""
    # Network rejects unreachable destinations, and the sweep and the gap
    # infinite link times, so only a path cost that overflows as it sums
    # leaves no tree path
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


def _check_times(t):
    """Raise Unreachable when a link time in the list t is not finite.

    Flows are finite and cost coefficients nonnegative, so a time can
    overflow to inf but never be NaN.
    """
    if not max(t, default=0.0) < math.inf:
        raise Unreachable(_NOT_FINITE)


def _link_times(net, v):
    """t(v) for the gap; a time that overflows raises Unreachable, without a
    NumPy warning."""
    with np.errstate(over="ignore"):
        t = net.link_times(v)
    if not t.max(initial=0.0) < np.inf:     # NaN fails as well
        raise Unreachable(_NOT_FINITE)
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

    Each origin's search stops once the destinations of its commodities with
    nonzero demand have settled.  Raises Unreachable when a link time t(v),
    the total t(v).v or the sum of the shortest-path costs is not finite.
    solve_tap calls it only where _gap_bound, which needs no search, cannot
    rule out that the gap is within the tolerance.
    """
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    t = _link_times(net, v)
    active = [i for i in range(net.n_commodities) if d[i] != 0.0]
    targets = {}
    for i in active:
        targets.setdefault(int(net.origin_idx[i]), set()).add(int(net.destination_idx[i]))
    costs = t.tolist()
    trees = {o: _dijkstra(net, costs, o, dests) for o, dests in targets.items()}
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


def _gap_bound(net, d, v, paths):
    """A lower bound on relative_gap(net, d, v) from the used paths alone,
    and t(v) as a list.

    paths maps each commodity with nonzero demand, in index order, to the
    paths it uses.  The bound is relative_gap's expression with each
    shortest-path cost sp_i replaced by the cheapest used path's cost, each
    path's times summed in travel order from 0.0.  A search's label is that
    same in-order sum along its tree path, and rounding is monotone, so the
    label is at most every path's sum, and the bound at most relative_gap,
    bit for bit.  The bound is NaN or -inf, above no tolerance, where t(v).v
    or a used path's cost overflows; raises Unreachable when a link time is
    not finite.
    """
    t = _link_times(net, v)
    costs = t.tolist()
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(t @ v)
        for i, flows in paths.items():
            cheapest = math.inf
            for p in flows:
                cost = 0.0
                for a in p:
                    cost += costs[a]
                if cost < cheapest:
                    cheapest = cost
            best += d[i] * cheapest
        return (total - best) / max(total, _EPS_DEN), costs


def _pair_diff(p, q):
    """The links of path p not on path q and those of q not on p, each in
    its path's order, and the two joined: what _shift reads of a pair."""
    q_set, p_set = set(q), set(p)
    only_p = [a for a in p if a not in q_set]
    only_q = [a for a in q if a not in p_set]
    return only_p, only_q, only_p + only_q


def _shift(polys, v, t, dt, flows, p, q, pairs):
    """Move flow of one commodity from path p to path q by a diagonal Newton
    step on the Beckmann objective, capped at p's flow.  v, t and dt are
    lists of the link flows, times and time derivatives; on a move v follows,
    and t and dt are re-evaluated on the links where p and q differ, by
    Horner's rule over polys, the network's link_polys.  pairs
    is a dict of _pair_diff results keyed by (p, q); a pair missing from it
    is added.  Returns whether any flow moved: none does when the step is
    0, as it is where t' is infinite on a link that p and q do not share."""
    diff = pairs.get((p, q))
    if diff is None:
        diff = pairs[p, q] = _pair_diff(p, q)
    only_p, only_q, changed = diff
    t_p = sum([t[a] for a in only_p])
    t_q = sum([t[a] for a in only_q])
    excess = t_p - t_q
    if not excess > _EPS_SHIFT * (t_p + t_q):
        return False
    curv = sum([dt[a] for a in changed])
    h = flows[p]
    step = h if excess >= h * curv else excess / curv
    flows[p] = h - step
    flows[q] += step
    for a in only_p:
        v[a] -= step
    for a in only_q:
        v[a] += step
    for a in changed:
        x = v[a]
        tc, dc = polys[a]
        out = 0.0
        for c in tc:
            out = out * x + c
        t[a] = out
        out = 0.0
        for c in dc:
            out = out * x + c
        dt[a] = out
    return step > 0.0


def _shift_onto(polys, v, t, dt, flows, q, pairs):
    """_shift every path of flows but q onto q, in the dict's order; returns
    whether any flow moved, and flows without the paths it emptied."""
    moved = False
    for p in list(flows):
        if p != q:
            moved = _shift(polys, v, t, dt, flows, p, q, pairs) or moved
    return moved, {p: h for p, h in flows.items() if h > 0.0}


def solve_tap(net, d, tol=1e-8, max_iter=50000, start=None):
    """Solve the user-equilibrium assignment for fixed demand d.

    Parameters
    ----------
    net : Network
    d : array of per-commodity demands, nonnegative
    tol : target relative gap
    max_iter : cap on sweeps over all commodities
    start : path flows shaped like TapSolution.paths, of this network, or
        None; an active commodity with a positive total in start starts
        from those paths, their flows scaled by d_i / total, and the others
        start cold, all their demand on the shortest path under the
        zero-flow link times

    Returns a TapSolution; `converged` is False when the budget ran out, in
    which case the best iterate found is returned rather than raising.
    Its `paths` are the path flows X is assembled from, and its `rgap` is
    relative_gap at its v.
    Each sweep takes t(v) and t'(v) once as lists and keeps them current
    through its path shifts; each commodity's path search stops once the
    destination settles.  After the searches, one restricted pass shifts
    each commodity's used paths onto the cheapest of them, their times
    summed in path order, the first in the dict winning a tie.  The links
    where two paths differ are found once per (p, q) pair and kept for the
    rest of the solve.  At the start and after every sweep, _gap_bound
    bounds the gap from the used paths; relative_gap runs only where the
    bound is at most tol, as only there can the solve have converged, and
    once at the end if the last bound was above tol.  The bound never
    exceeds the gap, so the sweeps are those that a test of the exact gap
    after every sweep would make.  Every link time is checked just before a
    path search or the bound reads it: Unreachable is raised on the first
    that is not finite.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (net.n_commodities,):
        raise DimensionMismatch("expected %d demands, got shape %r"
                                % (net.n_commodities, d.shape))
    if np.any(d < 0.0) or not np.all(np.isfinite(d)):
        raise ValueError("demands must be finite and nonnegative")

    n_links = net.n_links
    active = [i for i in range(net.n_commodities) if d[i] > 0.0]
    polys = net.link_polys

    def shortest(i, t):
        o = int(net.origin_idx[i])
        dest = int(net.destination_idx[i])
        return tuple(_path_links(net, _dijkstra(net, t, o, (dest,)), o, dest))

    def assemble():
        # X from the path flows, each entry summed in (commodity, path, link)
        # order from +0.0; v is its exact per-link sum
        idx = [i * n_links + a for i in active for p in paths[i] for a in p]
        h = [flow for i in active for p, flow in paths[i].items() for _ in p]
        size = net.n_commodities * n_links
        # bincount of no entries is an integer array
        X = np.bincount(idx, h, size) if idx else np.zeros(size)
        return X, aggregate_flows(net, X)

    t0 = net.link_times(np.zeros(n_links)).tolist()
    paths = {}
    for i in active:
        prev = (start or {}).get(i, {})
        total = sum(prev.values())
        if total > 0.0:
            scale = float(d[i]) / total
            paths[i] = {p: h * scale for p, h in prev.items()}
        else:
            paths[i] = {shortest(i, t0): float(d[i])}
    pairs = {}      # (p, q) -> _pair_diff(p, q), for every pair _shift meets
    X, v = assemble()
    bound, t = _gap_bound(net, d, v, paths)
    # the exact gap only where the bound cannot rule convergence out
    rgap = None if bound > tol else relative_gap(net, d, v)
    iterations = 0
    converged = rgap is not None and rgap <= tol

    while not converged and iterations < max_iter:
        iterations += 1
        moved = False
        # the running flows and their link times and derivatives, as lists;
        # the times are the bound's
        with np.errstate(over="ignore"):
            dt = net.link_time_derivs(v).tolist()
        run_v = v.tolist()
        for i in active:
            _check_times(t)
            q = shortest(i, t)
            paths[i].setdefault(q, 0.0)
            shifted, paths[i] = _shift_onto(polys, run_v, t, dt, paths[i], q, pairs)
            moved = moved or shifted
        # the restricted pass: each commodity's used paths shift onto the
        # cheapest of them, with no search
        for i in active:
            flows = paths[i]
            if len(flows) > 1:
                q = min(flows, key=lambda p: sum([t[a] for a in p]))
                shifted, paths[i] = _shift_onto(polys, run_v, t, dt, flows, q, pairs)
                moved = moved or shifted

        X, v = assemble()
        bound, t = _gap_bound(net, d, v, paths)
        rgap = None if bound > tol else relative_gap(net, d, v)
        if rgap is not None and rgap <= tol:
            converged = True
        elif not moved:
            # no commodity can improve; stuck at the attainable accuracy
            break
    if rgap is None:
        rgap = relative_gap(net, d, v)

    return TapSolution(X=X, v=v, beckmann=beckmann_objective(net, v),
                       rgap=rgap, iterations=iterations, converged=converged,
                       paths=paths)
