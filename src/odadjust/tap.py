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
the zero-flow link times, or warm from the path flows of an earlier solve:
a commodity with a positive total there starts from its paths, their flows
scaled to its new demand, unless that scale overflows, as it does for a
subnormal total.

Within a solve each distinct path has a number, given the first time the
path is met; path flows, the restricted pass and the pair differences are
keyed by it.  TapSolution.paths and start are keyed by link tuples,
converted once at entry and once at exit.  Path costs and summed
derivatives are plain loops from 0.0, left to right in path order.

Each sweep starts from the flows v assembled from the path flows, and takes
the link times t(v) and derivatives t'(v) once, from net.link_times and
net.link_time_derivs, as Python lists.  The times are those the sweep's
convergence test has just evaluated at the same v.  A move changes v only on
the links where its two paths differ, and only those links' entries are
re-evaluated, one link at a time by net.link_evals, which agree with
link_times and link_time_derivs, so the lists stay t and t' of the running
flows bit for bit.  Which links those are is worked out once per pair of
paths in a solve.  The lists are rebuilt from the assembled v at every sweep
rather than carried over, as the running v and the assembled v differ in the
last bits.  Flows stay Python floats, so a time that overflows is inf
without a NumPy warning; it is caught just before the next path search or
the convergence test reads it, not where it arises, since a later move of
the same commodity can bring it back.  The restricted pass moves no flow off
a path whose time is inf, so the test that follows it raises.  Every path
search runs network's one loop, _dijkstra: the sweep's stops once its
destination settles, whose label and tree path are then final, and the
exact gap takes full trees from _origin_trees.

The convergence test first bounds the relative gap from below by the used
paths alone, with no search: each commodity's cheapest used path stands in
for its shortest path.  Only where that bound is within the tolerance does
relative_gap search, so in most sweeps no gap search runs; a solve that
stops on a bound takes the exact gap once at the end.  The test runs before
every iteration at the loop's one exit, where a solve also stops,
unconverged, once a sweep moves no flow or the budget of iterations, maybe
0, is spent.

Newton steps on the used-path system [[Delta' D Delta, -E'], [E, 0]] at
D = diag t'(v), network's _path_system, equalize the costs of each
commodity's used paths at once and converge quadratically while the used
paths hold (Bertsekas & Gafni, Math. Program. Study 17, 1982).  A solve
takes them only where the shifts couple: a commodity uses three or more
paths, or two commodities with two each differ between their paths on a
common link.  Otherwise a step is the shift that a sweep makes twice, with
no linear solve.  A step searches no path, so it adds none.  A solve where
every commodity starts warm, as the restorations of the demand adjustment
do, steps from the start, and turns to sweeps for the rest of the solve
once a step would empty a path, does not lower the bound, or leaves a bound
within the tolerance with an exact gap above it.  A solve where some
commodity starts cold only sweeps until a sweep's searches add no path.
It then steps until a step does not lower the bound, or leaves a bound
within the tolerance with an exact gap above it, and the next sweep that
adds no path starts the steps again.  There a step that would empty a path
is cut where the first path empties, and the paths that empty leave the
set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Unreachable
from .network import (_check_paths, _demands, _dijkstra, _origin_trees, _path_links,
                      _path_system, _vector, aggregate_flows)

_EPS_DEN = 1e-30  # guards relative-gap denominators on zero-cost networks
_EPS_SHIFT = 1e-15  # excess costs below this share of the compared times are roundoff
_NOT_FINITE = ("link travel times are not finite at these flows, so no path "
               "to the destination has a finite cost")


@dataclass
class TapSolution:
    X: np.ndarray          # commodity-major disaggregated link flows
    v: np.ndarray          # aggregate link flows
    beckmann: float
    rgap: float
    iterations: int
    newton_steps: int      # of the iterations, those that were Newton steps
    converged: bool
    # per commodity with nonzero demand, its used paths (tuples of link
    # indices, in travel order) and their flows
    paths: dict


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

    Raises DimensionMismatch unless v holds one flow per link, and
    Unreachable when the sum is not finite.
    """
    v = _vector(v, net.n_links, "link flows")
    with np.errstate(over="ignore", invalid="ignore"):
        out = float(net.link_time_integrals(v).sum())
    if not math.isfinite(out):
        raise Unreachable("link travel times are too large: the Beckmann "
                          "integral of these flows is not finite")
    return out


def relative_gap(net, d, v):
    """(t(v).v - sum_i d_i * sp_i) / t(v).v, the standard equilibrium gap.

    sp_i is read off the full tree of i's origin.  Raises DimensionMismatch
    unless d holds one demand per commodity and v one flow per link,
    ValueError unless the demands are finite and nonnegative or when a
    negative flow makes a link time negative, and Unreachable when a link
    time t(v), the total t(v).v or the sum of the shortest-path costs is not
    finite.  solve_tap calls it only where _gap_bound, which needs no
    search, cannot rule out that the gap is within the tolerance.
    """
    d = _demands(net, d)
    v = _vector(v, net.n_links, "link flows")
    t = _link_times(net, v)
    active = [i for i in range(net.n_commodities) if d[i] > 0.0]
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


def _cheapest(flows, links, t):
    """The first path number in flows whose link times t, summed over
    links[p] in travel order from 0.0, are least, and that sum."""
    best_p = best = None
    for p in flows:
        cost = 0.0
        for a in links[p]:
            cost += t[a]
        if best is None or cost < best:
            best_p, best = p, cost
    return best_p, best


def _gap_bound(net, d, v, flows, links):
    """A lower bound on relative_gap(net, d, v) from the used paths alone,
    and t(v) as a list.

    flows maps each commodity with nonzero demand, in index order, to the
    numbers of the paths it uses, and links[p] is path p's links.  The
    bound is relative_gap's expression with each shortest-path cost sp_i
    replaced by the cheapest used path's cost, each path's times summed in
    travel order from 0.0.  A search's label is that same in-order sum
    along its tree path, and rounding is monotone, so the label is at most
    every path's sum, and the bound at most relative_gap, bit for bit.  The
    bound is NaN or -inf, above no tolerance, where t(v).v or a used path's
    cost overflows; raises Unreachable when a link time is not finite.
    """
    t = _link_times(net, v)
    costs = t.tolist()
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(t @ v)
        for i, paths in flows.items():
            best += d[i] * _cheapest(paths, links, costs)[1]
        return (total - best) / max(total, _EPS_DEN), costs


def _pair_diff(p, q):
    """The links of path p not on path q and those of q not on p, each in
    its path's order, and the two joined: what _shift_onto reads of a
    pair."""
    q_set, p_set = set(q), set(p)
    only_p = [a for a in p if a not in q_set]
    only_q = [a for a in q if a not in p_set]
    return only_p, only_q, only_p + only_q


def _shift_onto(evals, v, t, dt, flows, q, links, diffs):
    """Move one commodity's flow from each of its used paths but q onto q,
    in the dict's order, by a diagonal Newton step on the Beckmann
    objective, capped at the path's flow.

    flows maps path numbers to flows, links[p] is path p's links and diffs
    the dict of _pair_diff(links[p], links[q]) keyed by p; a missing entry
    is added.  v, t and dt are lists of the link flows, times and time
    derivatives; on a move v follows, and t and dt are re-evaluated by
    evals, the network's link_evals, on the links where the two paths
    differ.  Costs and curvatures are summed in path order from 0.0.
    Returns whether any flow moved, and the path flows without the paths
    emptied, in the same order.  No flow moves where the step is 0, as it
    is where t' is infinite on a link that the two paths do not share.
    """
    moved = False
    hq = flows[q]
    out = {}
    for p, h in flows.items():
        if p == q:
            out[q] = hq         # its final flow is set below
            continue
        diff = diffs.get(p)
        if diff is None:
            diff = diffs[p] = _pair_diff(links[p], links[q])
        only_p, only_q, changed = diff
        t_p = 0.0
        for a in only_p:
            t_p += t[a]
        t_q = 0.0
        for a in only_q:
            t_q += t[a]
        excess = t_p - t_q
        if excess > _EPS_SHIFT * (t_p + t_q):
            curv = 0.0
            for a in changed:
                curv += dt[a]
            step = h if excess >= h * curv else excess / curv
            h -= step
            hq += step
            for a in only_p:
                v[a] -= step
            for a in only_q:
                v[a] += step
            for a in changed:
                t[a], dt[a] = evals[a](v[a])
            if step > 0.0:
                moved = True
        if h > 0.0:
            out[p] = h
    if hq > 0.0:
        out[q] = hq
    else:
        del out[q]
    return moved, out


def _coupled(flows, links):
    """Whether a Newton step on the used paths differs from the shifts of a
    sweep: a commodity uses three or more paths, or two commodities with
    two each differ between their paths on a common link.

    flows maps each active commodity to its path numbers, and links[p] is
    path p's links.  Otherwise the step moves each split commodity's flow
    by the shift that a sweep makes twice with no linear solve: the excess
    cost over the summed derivatives where its two paths differ.
    """
    seen = set()
    for paths in flows.values():
        if len(paths) > 2:
            return True
        if len(paths) == 2:
            p, q = (set(links[x]) for x in paths)
            differ = p ^ q
            if not seen.isdisjoint(differ):
                return True
            seen |= differ
    return False


def _newton_flows(net, d, v, flows, links, t, cut):
    """The path flows after one Newton step on the used-path system at the
    link flows v, or None where the system is not finite, or where the step
    would empty a used path and cut is false.

    flows maps each active commodity, in index order, to its path numbers
    and their flows, links[p] is path p's links and t the list t(v).  The
    step dh, with the commodities' potentials pi, solves network's
    _path_system of the used paths, in dict order, at t'(v), with one row
    and column per active commodity:

        [[Delta' D Delta / s, -E'], [E, 0]] [dh; pi / s] = [-costs / s; 0]

    each cost summed in path order from 0.0.  s, the largest diagonal entry
    of Delta' D Delta, divides the path rows and multiplies the potentials,
    so that the system does not depend on the cost units.  It is solved by
    np.linalg.solve, or by the minimum-norm np.linalg.lstsq where it is
    singular or the solve's step empties a path (Bertsekas & Gafni, Math.
    Program. Study 17, 1982).  Where cut is true and that step still empties
    a path, it is cut by the ratio test: it stops at alpha, the least
    h_p / -dh_p over the paths it empties, those that reach 0 there leave
    the set at exactly 0, and the others move to h + alpha dh.  Each
    commodity's new flows are scaled to d_i, as a warm start scales them;
    a commodity left with no path gives None.
    """
    # the k-th active commodity's paths are listed as commodity k, so the
    # rows and columns past the active ones are those of no commodity
    used = [(k, links[p]) for k, paths in enumerate(flows.values()) for p in paths]
    h = [x for paths in flows.values() for x in paths.values()]
    n, costs = len(used), []
    for _, path in used:
        cost = 0.0
        for a in path:
            cost += t[a]
        costs.append(cost)
    # a t' that overflows, or one that is infinite on no used path, leaves
    # s infinite or NaN; a finite s bounds every entry of Delta' D Delta
    with np.errstate(all="ignore"):
        A = _path_system(net, used, net.link_time_derivs(v))[2][:n + len(flows), :n + len(flows)]
        s = float(A.diagonal()[:n].max())
    if not 0.0 < s < math.inf:
        return None
    A[:n, :n] /= s
    b = [cost / -s for cost in costs] + [0.0] * len(flows)
    if not all(map(math.isfinite, b)):
        return None
    try:
        step = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        step = None
    if step is None or not all(x + dx > 0.0 for x, dx in zip(h, step[:n].tolist())):
        step = np.linalg.lstsq(A, b, rcond=None)[0]
    dh = step[:n].tolist()
    new = [x + dx for x, dx in zip(h, dh)]
    if not all(x > 0.0 for x in new):
        if not cut or not all(map(math.isfinite, dh)):
            return None
        # the ratio test: the step stops where its first path empties, and
        # the paths that empty there leave the set
        ratios = [x / -dx if dx < 0.0 and x + dx <= 0.0 else math.inf
                  for x, dx in zip(h, dh)]
        alpha = min(ratios)
        new = [0.0 if r <= alpha else x + alpha * dx for x, dx, r in zip(h, dh, ratios)]
    out, new = {}, iter(new)
    for i, paths in flows.items():
        kept = {p: x for p, x in zip(paths, new) if x > 0.0}
        if not kept:
            return None
        total = 0.0
        for x in kept.values():
            total += x
        scale = float(d[i]) / total
        out[i] = {p: x * scale for p, x in kept.items()}
    return out


def solve_tap(net, d, tol=1e-8, max_iter=50000, start=None):
    """Solve the user-equilibrium assignment for fixed demand d.

    Parameters
    ----------
    net : Network
    d : array of per-commodity demands, nonnegative
    tol : target relative gap
    max_iter : cap on iterations, Newton steps and sweeps over all
        commodities together; 0 or less makes none
    start : path flows shaped like TapSolution.paths, of this network, or
        None; an active commodity with a positive total in start starts
        from those paths, their flows scaled by d_i / total, and the others,
        and those whose d_i / total overflows, start cold, all their demand
        on the shortest path under the zero-flow link times, which are
        evaluated only then.  It and every entry are checked by
        network's _check_paths

    Returns a TapSolution, `converged` when the gap is within tol; a solve
    that stops because a sweep moved no flow or max_iter iterations ran
    returns its last iterate rather than raising.  Its `paths` are the path
    flows X is assembled from, its `rgap` is relative_gap at its v, its
    `iterations` counts Newton steps and sweeps alike, and `newton_steps`
    the steps among them, an undone one included.

    Where the shifts couple (_coupled), iterations can be Newton steps on
    the used-path system (_newton_flows), which converge quadratically
    while no unused path is cheaper.  Where every active commodity starts
    warm, the solve steps from the start and turns to sweeps, for good,
    when a step would empty a path, when the bound after a step is not
    below the bound before it, which restores the iterate before the step,
    or when the bound is within tol but the exact gap is not: an unused
    path is then cheaper, and only a sweep's search finds it.  A solve
    where any commodity starts cold sweeps from the start, and steps after
    each sweep whose searches return no path outside the commodities' used
    sets; it leaves the steps by the last two exits only, as it cuts a step
    that would empty a path where the first path empties and drops the
    paths that empty there.
    Each sweep takes t(v) and t'(v) once as lists and keeps them current
    through its path shifts, one link at a time by net.link_evals; each
    commodity's _dijkstra search stops once its destination settles.  After the
    searches, one restricted pass shifts each commodity's used paths onto the
    cheapest of them, their times summed in path order, the first in the dict
    winning a tie.  Paths are numbered once per solve, and the links where two
    paths differ are found once per (p, q) pair of numbers and kept for the
    rest of the solve.  Before every iteration, at the loop's one exit,
    _gap_bound bounds the gap from the used paths; relative_gap runs only
    where the bound is at most tol, as only there can the solve have
    converged, and once at the end if the last bound was above tol.  The
    bound never exceeds the gap, so a solve stops where a test of the
    exact gap after every iteration would stop it.
    Every link time is checked just before a path search or the bound reads it:
    Unreachable is raised on the first that is not finite.
    """
    d = _demands(net, d)
    start = {} if start is None else start
    _check_paths(net, start, "start")
    n_links = net.n_links
    active = [i for i in range(net.n_commodities) if d[i] > 0.0]
    evals = net.link_evals
    # each distinct path is numbered once: ids maps its links to its
    # number p, links[p] holds its links, and diffs[q] the _pair_diff
    # results of the pairs (p, q) met, keyed by p
    ids, links, diffs = {}, [], []

    def number(path):
        p = ids.get(path)
        if p is None:
            p = ids[path] = len(links)
            links.append(path)
            diffs.append({})
        return p

    def shortest(i, t):
        o, dest = int(net.origin_idx[i]), int(net.destination_idx[i])
        return number(_path_links(net, _dijkstra(net, t, o, dest), o, dest))

    def assemble():
        # X from the path flows, each entry summed in (commodity, path, link)
        # order from +0.0; v is its exact per-link sum
        idx = [i * n_links + a for i in active for p in flows[i] for a in links[p]]
        h = [flow for i in active for p, flow in flows[i].items() for _ in links[p]]
        size = net.n_commodities * n_links
        # bincount of no entries is an integer array
        X = np.bincount(idx, h, size) if idx else np.zeros(size)
        return X, aggregate_flows(net, X)

    t0 = None       # the zero-flow link times, once a commodity starts cold
    flows = {}      # per active commodity, its path numbers and their flows
    for i in active:
        prev = start.get(i, {})
        total = 0.0
        for h in prev.values():
            total += h
        # a total that is 0, or so small that d_i / total overflows, starts cold
        scale = float(d[i]) / total if total > 0.0 else math.inf
        if scale < math.inf:
            flows[i] = {number(p): h * scale for p, h in prev.items()}
        else:
            t0 = t0 or net.link_times(np.zeros(n_links)).tolist()
            flows[i] = {shortest(i, t0): float(d[i])}
    # a warm solve takes Newton steps from the start where the shifts couple;
    # a cold one after each sweep whose searches add no path
    cold = t0 is not None
    newton = not cold and _coupled(flows, links)
    before = None   # flows, X, v, bound and t before the last Newton step
    iterations, steps, moved = 0, 0, True
    while True:
        X, v = assemble()
        bound, t = _gap_bound(net, d, v, flows, links)
        if before is not None and not bound < before[3]:
            # the Newton step did not lower the bound: undo it, and sweep
            flows, X, v, bound, t = before
            newton = False
        before = None
        # the exact gap only where the bound cannot rule convergence out
        rgap = None if bound > tol else relative_gap(net, d, v)
        converged = rgap is not None and rgap <= tol
        # after a sweep that moved no flow, no commodity can improve
        if converged or not moved or iterations >= max_iter:
            break
        iterations += 1
        # a gap above a bound within tol means an unused path is cheaper,
        # which only a sweep's search finds
        if newton and rgap is None:
            step = _newton_flows(net, d, v, flows, links, t, cold)
            if step is not None:
                before, flows = (flows, X, v, bound, t), step
                steps += 1
                continue
        newton = added = moved = False
        # the running flows and their link times and derivatives, as lists;
        # the times are the bound's
        with np.errstate(over="ignore"):
            dt = net.link_time_derivs(v).tolist()
        run_v = v.tolist()
        for i in active:
            _check_times(t)
            q = shortest(i, t)
            paths = flows[i]
            if q not in paths:
                added = True
                paths[q] = 0.0
            shifted, flows[i] = _shift_onto(evals, run_v, t, dt, paths, q, links, diffs[q])
            moved = moved or shifted
        # the restricted pass: each commodity's used paths shift onto the
        # cheapest of them, with no search
        for i in active:
            paths = flows[i]
            if len(paths) > 1:
                q, _ = _cheapest(paths, links, t)
                shifted, flows[i] = _shift_onto(evals, run_v, t, dt, paths, q, links,
                                                diffs[q])
                moved = moved or shifted
        if cold and not added:
            newton = _coupled(flows, links)
    if rgap is None:
        rgap = relative_gap(net, d, v)

    paths = {i: {links[p]: h for p, h in flows[i].items()} for i in active}
    return TapSolution(X=X, v=v, beckmann=beckmann_objective(net, v),
                       rgap=rgap, iterations=iterations, newton_steps=steps,
                       converged=converged, paths=paths)
