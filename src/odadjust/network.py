"""Network model: directed graph, polynomial link costs, commodities, observations,
and the layout of the lifted equilibrium system.

The commodity-disaggregated flow vector X is laid out commodity-major: the block
X[i*n_links:(i+1)*n_links] holds commodity i's flow on every link.  All structure
matrices follow the sign convention "-1 leaves, +1 enters" for both node-link
incidence and origin-destination incidence.  A Network carries its lifted
layout (state and residual slices, the entries of M, M' and Gamma), so every
function of the lifted system takes the network alone.  The module also
holds what its siblings share, and imports none of them but errors:
_dijkstra, the one loop of every graph search, _vector, the one check of a
vector's length, _check_paths, the one check of path flows, _path_system,
the one assembly of the used-path system, and _sensitivity, the equilibrium
sensitivity on path flows already checked, which kkt's public function
wraps and the driver calls on its assignments' own paths, whose path-flow
derivatives also give the driver's next restoration its start.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DanglingReference,
    DimensionMismatch,
    DuplicateId,
    MalformedInput,
    NegativeCoefficient,
    NonFiniteObjective,
    Unreachable,
    UnreachableDestination,
)


# real numbers and integers, tested faster than by the numbers ABCs
_REAL = (int, float, np.integer, np.floating)
_INT = (int, np.integer)


def _real(val):
    """val as a float if it is a Python or NumPy int or float other than a
    bool, an integer too large for a float as inf of its sign; anything
    else as NaN, which the constructors' checks for finite values reject."""
    if not _is(val, _REAL):
        return math.nan
    try:
        return float(val)
    except OverflowError:
        return math.inf if val > 0 else -math.inf


@dataclass(frozen=True)
class CostFunction:
    """Polynomial travel time t(x) = sum_j coeffs[j] * x**j.

    Nonnegative coefficients keep t nonnegative and non-decreasing on x >= 0,
    which is all the equilibrium theory needs.  Every coefficient, and every
    coefficient j * coeffs[j] of t', must be a finite float.  A coefficient
    -0.0 is kept as +0.0, so that each zero coefficient is one value.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(_real(c) + 0.0 for c in self.coeffs)
        if len(cs) == 0:
            raise MalformedInput("cost function needs at least one coefficient")
        if not all(map(math.isfinite, cs)):
            raise MalformedInput("non-finite coefficient in cost polynomial %r" % (self.coeffs,))
        if not all(math.isfinite(j * c) for j, c in enumerate(cs)):
            raise MalformedInput("cost polynomial %r has a derivative coefficient "
                                 "j * c_j too large for a float" % (cs,))
        if any(c < 0.0 for c in cs):
            raise NegativeCoefficient("negative coefficient in cost polynomial %r" % (cs,))
        object.__setattr__(self, "coeffs", cs)

    def value(self, x):
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self, x):
        out = 0.0
        for j in range(len(self.coeffs) - 1, 0, -1):
            out = out * x + j * self.coeffs[j]
        return out

    def integral(self, x):
        # int_0^x t(u) du, used by the Beckmann objective
        out = 0.0
        for j in range(len(self.coeffs) - 1, -1, -1):
            out = out * x + self.coeffs[j] / (j + 1)
        return out * x


@dataclass(frozen=True)
class Link:
    id: object
    tail: object
    head: object
    cost: CostFunction


@dataclass(frozen=True)
class Commodity:
    origin: object
    destination: object
    target_demand: float

    def __post_init__(self):
        if self.origin == self.destination:
            raise MalformedInput(
                "commodity origin and destination coincide (%r)" % (self.origin,)
            )
        if not 0.0 <= _real(self.target_demand) < math.inf:
            raise MalformedInput(
                "commodity %r -> %r has invalid target demand %r"
                % (self.origin, self.destination, self.target_demand)
            )


def _horner(table, v):
    """sum_j table[a, j] * v_a**j for every link a, by Horner's rule."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    for j in range(table.shape[1] - 1, -1, -1):
        out = out * v + table[:, j]
    return out


def _horner_source(name, nonzero):
    """Python source of Horner's rule in x over the coefficients name0,
    name1, ..., of which those with a true flag in nonzero are not zero.

    The rule starts from the highest nonzero coefficient and leaves out the
    additions of the zero ones, save the constant term.  Beside a product
    y*x, the addition of +0.0 changes only -0.0 to +0.0, and so does the
    constant term's addition, whatever the constant.  Down to the highest
    nonzero coefficient c, Horner's rule from 0.0 holds +0.0 for a finite
    x, and +0.0*x + c is c.  So for every finite x the source gives what
    Horner's rule from 0.0 over a zero-padded table gives, bit for bit.
    """
    top = max((j for j, nz in enumerate(nonzero) if nz), default=0)
    src = "%s%d" % (name, top)
    for j in range(top - 1, -1, -1):
        src += "*x"
        if j == 0 or nonzero[j]:
            src = "(%s + %s%d)" % (src, name, j)
    return src


@functools.lru_cache(maxsize=256)
def _evaluator_factory(nonzero):
    """A function of the coefficient tuples (c, e) of t and t' that returns
    a function of x giving (t(x), t'(x)), compiled for the zero pattern
    nonzero of c; t' has the pattern shifted by one, since j * c_j is zero
    only where c_j is.  The source holds names and indices only, no
    coefficient value, so one compiled factory serves every network with
    the pattern."""
    e_nonzero = nonzero[1:] or (False,)
    names = ["c%d = c[%d]" % (j, j) for j, nz in enumerate(nonzero) if nz or j == 0]
    names += ["e%d = e[%d]" % (k, k) for k, nz in enumerate(e_nonzero) if nz or k == 0]
    src = ("def make(c, e):\n    %s\n    def ev(x):\n        return %s, %s\n"
           "    return ev\n" % ("\n    ".join(names), _horner_source("c", nonzero),
                                _horner_source("e", e_nonzero)))
    scope = {}
    exec(compile(src, "<link evaluator>", "exec"), scope)
    return scope["make"]


def _link_evaluator(cs):
    """The function x -> (t(x), t'(x)) of the cost coefficients cs, t' from
    the coefficients j * c_j that link_time_derivs reads."""
    make = _evaluator_factory(tuple(c != 0.0 for c in cs))
    return make(cs, tuple(j * cs[j] for j in range(1, len(cs))) or (0.0,))


class Network:
    """Validated road network with demands and (possibly partial) flow observations.

    Instances are treated as immutable after construction, but for the
    trees that _origin_trees keeps of the last link times; every derived array
    (incidence maps, padded coefficient tables, the lifted layout) and the
    per-link evaluators link_evals are built once here, with NumPy alone.
    Each destination must be reachable from its origin: finite in its
    origin's tree from _origin_trees under zero link times.

    The lifted layout.  The structure matrices hold only -1 and +1:

    A      node-link incidence, n_nodes x n_links, -1 at the tail, +1 at the head
    Gamma  od incidence, (n_commodities*n_nodes) x n_commodities, block-diagonal
           with -1 at the origin and +1 at the destination of each commodity
    M      block-diagonal repetition of A, one block per commodity

    None is stored as a matrix.  The attributes M, Mt and Gamma hold the
    (row, column, value) entries of M, M' and Gamma, sorted by row, then
    column, and M_dot, Mt_dot and Gamma_dot sum each row's terms in that
    order, starting from +0.0.  That is how a CSR matrix-vector product
    sums, so every product equals scipy's bit for bit, signed zeros
    included.

    The state [d | X | alpha | beta] has length state_dim and blocks slices;
    the residual [stationarity | conservation | complementarity] has length
    n_constraints and blocks residual_slices.  lower is the read-only lower
    bound of the state: 0 on d, X and beta, -inf on alpha.
    """

    def __init__(self, nodes, links, commodities, observations=None,
                 eta1=1.0, eta2=1.0):
        self.nodes = tuple(nodes)
        self.links = tuple(links)
        self.commodities = tuple(commodities)
        self.observations = dict(observations or {})
        self.eta1 = _real(eta1)
        self.eta2 = _real(eta2)

        if not (0.0 <= self.eta1 < math.inf and 0.0 <= self.eta2 < math.inf):
            raise MalformedInput("objective weights must be finite and nonnegative")

        # id -> index maps, rejecting duplicates
        self.node_index = {}
        for idx, nid in enumerate(self.nodes):
            if nid in self.node_index:
                raise DuplicateId("duplicate node id %r" % (nid,))
            self.node_index[nid] = idx
        self.link_index = {}
        for idx, lk in enumerate(self.links):
            if lk.id in self.link_index:
                raise DuplicateId("duplicate link id %r" % (lk.id,))
            self.link_index[lk.id] = idx

        for lk in self.links:
            for end in (lk.tail, lk.head):
                if end not in self.node_index:
                    raise DanglingReference("link %r references unknown node %r" % (lk.id, end))
            if lk.tail == lk.head:
                raise MalformedInput("link %r is a self-loop" % (lk.id,))

        for com in self.commodities:
            for end in (com.origin, com.destination):
                if end not in self.node_index:
                    raise DanglingReference("commodity references unknown node %r" % (end,))

        for lid, flow in self.observations.items():
            if lid not in self.link_index:
                raise DanglingReference("observation references unknown link %r" % (lid,))
            if not 0.0 <= _real(flow) < math.inf:
                raise MalformedInput("observed flow on link %r is invalid: %r" % (lid, flow))

        tails = [self.node_index[lk.tail] for lk in self.links]
        heads = [self.node_index[lk.head] for lk in self.links]
        self.tails = np.array(tails, dtype=np.intp)
        self.heads = np.array(heads, dtype=np.intp)

        # adjacency: per node, the outgoing (link index, head index) pairs in link order
        out = [[] for _ in self.nodes]
        for a, (u, w) in enumerate(zip(tails, heads)):
            out[u].append((a, w))
        self.out_links = tuple(tuple(row) for row in out)

        self.target_demands = np.array(
            [com.target_demand for com in self.commodities], dtype=float
        )
        self.origin_idx = np.array(
            [self.node_index[com.origin] for com in self.commodities], dtype=np.intp
        )
        self.destination_idx = np.array(
            [self.node_index[com.destination] for com in self.commodities], dtype=np.intp
        )

        # observations in link order for vectorized objective evaluation
        obs_pairs = [(self.link_index[lid], float(fl)) for lid, fl in self.observations.items()]
        obs_pairs.sort()
        self.obs_links = np.array([p[0] for p in obs_pairs], dtype=np.intp)
        self.obs_flows = np.array([p[1] for p in obs_pairs], dtype=float)

        # padded coefficient table (n_links x max_degree+1) for vectorized evals
        deg = max(len(lk.cost.coeffs) for lk in self.links) if self.links else 1
        cmat = np.zeros((len(self.links), deg))
        for a, lk in enumerate(self.links):
            cmat[a, : len(lk.cost.coeffs)] = lk.cost.coeffs
        self._coeff = cmat
        self._dcoeff = cmat[:, 1:] * np.arange(1, deg) if deg > 1 else np.zeros((len(self.links), 0))
        self._icoeff = cmat / np.arange(1, deg + 1)
        # per link, a function of one flow x that returns (t_a(x), t_a'(x))
        # bit for bit as link_times and link_time_derivs give them
        self.link_evals = tuple(_link_evaluator(lk.cost.coeffs) for lk in self.links)

        # the bytes of the last link times _origin_trees searched under, and
        # its trees per origin
        self._trees = None, {}
        self._check_reachability()

        # the lifted layout: A's entries, then one shifted copy per
        # commodity, M, whose blocks follow each other in row order
        n, a, c = self.n_nodes, self.n_links, self.n_commodities
        com, link = np.arange(c), np.arange(a)
        A = _by_rows(np.concatenate([self.tails, self.heads]), np.concatenate([link, link]),
                     np.repeat([-1.0, 1.0], a))
        self.M = M = ((com[:, None] * n + A[0]).ravel(), (com[:, None] * a + A[1]).ravel(),
                      np.broadcast_to(A[2], (c, 2 * a)).ravel())
        self.Mt = _by_rows(M[1], M[0], M[2])
        self.Gamma = _by_rows(
            np.concatenate([com * n + self.origin_idx, com * n + self.destination_idx]),
            np.concatenate([com, com]), np.repeat([-1.0, 1.0], c))
        self.slices = _, _, sl_alpha, sl_beta = _partition(c, c * a, c * n, c * a)
        self.state_dim = sl_beta.stop
        self.residual_slices = _partition(c * a, c * n, c * a)
        self.n_constraints = self.residual_slices[-1].stop
        self.lower = np.zeros(self.state_dim)
        self.lower[sl_alpha] = -np.inf
        self.lower.flags.writeable = False

    # -- derived sizes ------------------------------------------------------

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_links(self):
        return len(self.links)

    @property
    def n_commodities(self):
        return len(self.commodities)

    # -- vectorized cost evaluations ---------------------------------------

    def link_times(self, v):
        """t_a(v_a) for every link."""
        return _horner(self._coeff, v)

    def link_time_derivs(self, v):
        """t_a'(v_a) for every link."""
        return _horner(self._dcoeff, v)

    def link_time_integrals(self, v):
        """int_0^{v_a} t_a(u) du for every link."""
        return _horner(self._icoeff, v) * v

    # -- products of the structure matrices --------------------------------

    def M_dot(self, X):
        """M X: per commodity, each node's inflow minus its outflow."""
        return _row_sums(self.M, X, self.n_commodities * self.n_nodes)

    def Mt_dot(self, alpha):
        """M' alpha: per commodity, alpha at each link's head minus at its tail."""
        return _row_sums(self.Mt, alpha, self.n_commodities * self.n_links)

    def Gamma_dot(self, d):
        """Gamma d: per commodity, -d at its origin and +d at its destination."""
        return _row_sums(self.Gamma, d, self.n_commodities * self.n_nodes)

    # -- misc ---------------------------------------------------------------

    def _check_reachability(self):
        trees = _origin_trees(self, np.zeros(self.n_links), range(self.n_commodities))
        for i, com in enumerate(self.commodities):
            if trees[self.origin_idx[i]].dist[self.destination_idx[i]] == math.inf:
                raise UnreachableDestination(
                    "destination %r not reachable from origin %r"
                    % (com.destination, com.origin)
                )

    def __repr__(self):
        return "Network(%d nodes, %d links, %d commodities, %d observed)" % (
            self.n_nodes,
            self.n_links,
            self.n_commodities,
            len(self.observations),
        )


def _by_rows(rows, cols, vals):
    """The entries (rows, cols, vals) sorted by row, then column."""
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def _row_sums(entries, x, m):
    """The m-vector of a matrix's products with x, entries sorted by row,
    then column: bincount adds the terms in the order listed, from +0.0."""
    rows, cols, vals = entries
    return np.bincount(rows, weights=vals * x[cols], minlength=m)


def _partition(*sizes):
    """Consecutive slices of the given lengths, starting at 0."""
    ends = list(itertools.accumulate(sizes, initial=0))
    return tuple(map(slice, ends[:-1], ends[1:]))


def build_structure(net):
    """The network itself, whose lifted layout Network builds once."""
    return net


def _vector(x, n, what):
    """x as a float array; raises DimensionMismatch, naming what x holds,
    unless its shape is (n,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch("expected %d %s, got shape %r" % (n, what, x.shape))
    return x


def _demands(net, d):
    """d as a float array; raises DimensionMismatch unless it holds one
    demand per commodity, and ValueError unless they are finite and
    nonnegative."""
    d = _vector(d, net.n_commodities, "demands")
    # a NaN fails the first test, as it is the minimum
    if not (d.min(initial=0.0) >= 0.0 and d.max(initial=0.0) < math.inf):
        raise ValueError("demands must be finite and nonnegative")
    return d


def aggregate_flows(net, X):
    """Total link flows v: the sum of the commodity blocks of X."""
    X = _vector(X, net.n_commodities * net.n_links, "disaggregated link flows")
    return X.reshape(net.n_commodities, net.n_links).sum(axis=0)


# -- shortest paths ------------------------------------------------------------

@dataclass
class ShortestPathResult:
    """Distances and predecessor links of a shortest path tree from one
    origin, full or stopped once a destination settled.

    Both are lists indexed by node position.  dist is inf where no label was
    reached; pred holds the index into net.links of the tree link entering
    each node, -1 at the origin and at nodes with no label.  In a stopped
    tree only the settled nodes' entries are final.
    """

    dist: list
    pred: list


def _dijkstra(net, costs, origin_idx, dest_idx=-1):
    """Label-setting shortest paths from the origin under costs, a list of
    link times; ties settle the lowest node index first.

    The search stops once dest_idx settles, or with -1 builds the full
    tree.  Under nonnegative costs a settled label and its tree path never
    change, so dest_idx's distance and path equal the full tree's bit for
    bit; other labels may not be final.
    """
    n = net.n_nodes
    out_links, pop, push = net.out_links, heapq.heappop, heapq.heappush
    dist = [math.inf] * n
    pred = [-1] * n
    dist[origin_idx] = 0.0
    heap = [(0.0, origin_idx)]
    while heap:
        du, u = pop(heap)
        if u == dest_idx:
            break           # its first entry is never stale
        if du > dist[u]:
            continue        # a stale entry: u settled at a lower label
        for link_idx, w in out_links[u]:
            nd = du + costs[link_idx]
            if nd < dist[w]:
                dist[w] = nd
                pred[w] = link_idx
                push(heap, (nd, w))
    return ShortestPathResult(dist=dist, pred=pred)


def _origin_trees(net, t, commodities):
    """Full shortest-path trees under t, a NumPy array of link times, one
    per distinct origin of the given commodities, keyed by origin index.

    The network keeps the trees of the last t, by its bytes, so the three
    reads of a restored point's times (the assignment's last exact gap, the
    multipliers and the sensitivity) search once per origin; callers do not
    change the trees.  Raises ValueError when a time is negative or NaN, as
    a settled label is then not final and a cycle of negative cost would
    never end a search.
    """
    if not t.min(initial=0.0) >= 0.0:
        raise ValueError("link travel times must be nonnegative")
    key = t.tobytes()
    if net._trees[0] != key:
        net._trees = key, {}
    kept, costs, out = net._trees[1], None, {}
    for o in dict.fromkeys(int(net.origin_idx[i]) for i in commodities):
        if o not in kept:
            costs = t.tolist() if costs is None else costs
            kept[o] = _dijkstra(net, costs, o)
        out[o] = kept[o]
    return out


def _path_links(net, sp_res, origin_idx, dest_idx):
    """Links along the tree path origin -> dest, a tuple in travel order."""
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
    return tuple(path)


def _check_paths(net, paths, what):
    """Check path flows shaped like TapSolution.paths, named what in the
    messages; keys and link indices are Python or NumPy ints, not bools.
    Raises DimensionMismatch for a key that is no commodity of the network
    or a path with a link index out of range, and ValueError where paths
    or a commodity's flows are not a dict, a path is not a tuple or does
    not lead from its commodity's origin to its destination, or a flow is
    not a finite, nonnegative real number.  Each path is walked once."""
    if not isinstance(paths, dict):
        raise ValueError("%s is a %s, not a dict of path flows per commodity"
                         % (what, type(paths).__name__))
    tails, heads, n_links = net.tails.tolist(), net.heads.tolist(), net.n_links
    for i, flows in paths.items():
        if not (_is(i, _INT) and 0 <= i < net.n_commodities):
            raise DimensionMismatch("%s has paths for %r, which is not a "
                                    "commodity of the network" % (what, i))
        if not isinstance(flows, dict):
            raise ValueError("%s flows of commodity %d are a %s, not a dict of "
                             "flows per path" % (what, i, type(flows).__name__))
        origin, dest = int(net.origin_idx[i]), int(net.destination_idx[i])
        for p, h in flows.items():
            if not isinstance(p, tuple):
                raise ValueError("%s path %r of commodity %d is not a tuple of "
                                 "link indices" % (what, p, i))
            node = origin
            for a in p:
                if not (_is(a, _INT) and 0 <= a < n_links):
                    raise DimensionMismatch("%s path %r of commodity %d has a link "
                                            "index out of range" % (what, p, i))
                node = heads[a] if tails[a] == node else -1
            if node != dest:
                raise ValueError("%s path %r of commodity %d does not lead from "
                                 "its origin to its destination" % (what, p, i))
            if not (_is(h, _REAL) and 0.0 <= h < math.inf):
                raise ValueError("%s path %r of commodity %d has flow %r, which "
                                 "is not finite and nonnegative" % (what, p, i, h))


def _path_system(net, used, t_prime):
    """Link-path and commodity-path incidences Delta and E of the used
    (commodity, link tuple) pairs, one column each, and the used-path
    system A = [[Delta' D Delta, -E'], [E, 0]], D = diag t_prime."""
    c, P = net.n_commodities, len(used)
    Delta, E = np.zeros((net.n_links, P)), np.zeros((c, P))
    Delta[[a for _, p in used for a in p], [j for j, (_, p) in enumerate(used) for _ in p]] = 1.0
    E[[i for i, _ in used], range(P)] = 1.0
    A = np.zeros((P + c, P + c))
    A[:P, :P] = Delta.T @ (t_prime[:, None] * Delta)
    A[:P, P:] = -E.T
    A[P:, :P] = E
    return Delta, E, A


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


def _sensitivity(net, X, paths):
    """kkt.equilibrium_sensitivity's Z at the restored flows X, on path
    flows that were checked already, as solve_tap's own are; returned with
    the used (commodity, path) pairs, in the order of the _path_system
    call, and the path-flow derivatives H = dh/dd, one row per pair.

    Z is filled in place by net.slices, one block after another.
    """
    c = net.n_commodities
    if not c:
        # no demand to move z with
        return np.zeros((net.state_dim, 0)), [], np.zeros((0, 0))
    v = aggregate_flows(net, X)
    t = net.link_times(v)
    with np.errstate(over="ignore", invalid="ignore"):
        t_prime = net.link_time_derivs(v)
    if not np.isfinite(t_prime).all():
        raise NonFiniteObjective("a link's travel time derivative is not finite "
                                 "at the restored flows, so the gradient of F "
                                 "along the equilibrium set has no value")
    trees = _origin_trees(net, t, range(c))

    used = []
    for i in range(c):
        cols = [p for p, h in paths.get(i, {}).items() if h > 0.0]
        if not cols:
            o = int(net.origin_idx[i])
            cols = [_path_links(net, trees[o], o, int(net.destination_idx[i]))]
        used += [(i, p) for p in cols]
    Delta, E, A = _path_system(net, used, t_prime)
    P = len(used)
    rhs = np.zeros((P + c, c))
    rhs[P:] = np.eye(c)
    H = np.linalg.lstsq(A, rhs, rcond=None)[0][:P]

    Z = np.empty((net.state_dim, c))
    sl_d, sl_x, sl_alpha, sl_beta = net.slices
    n, m = net.n_nodes, net.n_links
    dX, dalpha, dbeta = (Z[sl_x].reshape(c, m, c), Z[sl_alpha].reshape(c, n, c),
                         Z[sl_beta].reshape(c, m, c))
    Z[sl_d] = np.eye(c)
    for i in range(c):
        dX[i] = Delta @ (E[i][:, None] * H)
    dv = dX.sum(axis=0)
    link_dv = t_prime[:, None] * dv
    dpi = {o: _potential_derivs(net, tree, o, link_dv) for o, tree in trees.items()}
    for i in range(c):
        dalpha[i] = -dpi[int(net.origin_idx[i])]
    dbeta[:] = link_dv + dalpha[:, net.heads] - dalpha[:, net.tails]
    return Z, used, H


# -- JSON input --------------------------------------------------------------

_ID = (int, str)


def _is(val, kind):
    """isinstance for JSON values; true and false are neither numbers nor ids."""
    return isinstance(val, kind) and not isinstance(val, bool)


def _whole_number(text):
    """A JSON integer literal; every number becomes a float, so it must fit one."""
    if math.isinf(float(text)):
        raise MalformedInput("whole number %s... is too large for a float" % text[:12])
    return int(text)


def _require(doc, key, kind, where):
    if key not in doc:
        raise MalformedInput("missing key %r in %s" % (key, where))
    val = doc[key]
    if not _is(val, kind):
        raise MalformedInput("key %r in %s has wrong type %s"
                             % (key, where, type(val).__name__))
    return float(val) if kind is _REAL else val


def _decode(text):
    """The top-level object of a JSON document; every integer fits a float."""
    try:
        doc = json.loads(text, parse_int=_whole_number)
    except json.JSONDecodeError as exc:
        raise MalformedInput("invalid JSON: %s" % exc) from exc
    except RecursionError as exc:
        raise MalformedInput("invalid JSON: arrays or objects nested too "
                             "deeply") from exc
    if not isinstance(doc, dict):
        raise MalformedInput("top-level JSON value must be an object")
    return doc


def parse_network(text):
    """Parse a JSON network document into a validated Network.

    text is the document, or the object _decode made of it, so that a caller
    that also reads other keys decodes the document once.  Top-level keys
    other than nodes/links/commodities/observations/weights are ignored so
    documents can carry solver settings alongside the instance.
    """
    doc = text if isinstance(text, dict) else _decode(text)
    nodes = _require(doc, "nodes", list, "document")
    link_specs = _require(doc, "links", list, "document")
    com_specs = _require(doc, "commodities", list, "document")
    obs_specs = doc.get("observations", [])
    weights = doc.get("weights", {})
    if not isinstance(obs_specs, list):
        raise MalformedInput("'observations' must be a list")
    if not isinstance(weights, dict):
        raise MalformedInput("'weights' must be an object")
    for nid in nodes:
        if not _is(nid, _ID):
            raise MalformedInput("node id %r is neither an int nor a string" % (nid,))

    links = []
    for spec in link_specs:
        if not isinstance(spec, dict):
            raise MalformedInput("each link must be an object")
        coeffs = _require(spec, "coeffs", list, "link")
        if not all(_is(x, _REAL) for x in coeffs):
            raise MalformedInput("cost coefficients %r are not all numbers" % (coeffs,))
        links.append(
            Link(
                id=_require(spec, "id", _ID, "link"),
                tail=_require(spec, "from", _ID, "link"),
                head=_require(spec, "to", _ID, "link"),
                cost=CostFunction(tuple(coeffs)),
            )
        )

    commodities = []
    for spec in com_specs:
        if not isinstance(spec, dict):
            raise MalformedInput("each commodity must be an object")
        commodities.append(
            Commodity(
                origin=_require(spec, "origin", _ID, "commodity"),
                destination=_require(spec, "destination", _ID, "commodity"),
                target_demand=_require(spec, "target", _REAL, "commodity"),
            )
        )

    observations = {}
    for spec in obs_specs:
        if not isinstance(spec, dict):
            raise MalformedInput("each observation must be an object")
        lid = _require(spec, "link", _ID, "observation")
        if lid in observations:
            raise DuplicateId("duplicate observation for link %r" % (lid,))
        observations[lid] = _require(spec, "flow", _REAL, "observation")

    eta1 = weights.get("eta1", 1.0)
    eta2 = weights.get("eta2", 1.0)
    for name, val in (("eta1", eta1), ("eta2", eta2)):
        if not _is(val, _REAL):
            raise MalformedInput("weight %r must be a number" % (name,))

    return Network(nodes, links, commodities, observations, eta1=eta1, eta2=eta2)

