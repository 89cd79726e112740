"""Network model: directed graph, polynomial link costs, commodities, observations.

The commodity-disaggregated flow vector X is laid out commodity-major: the block
X[i*n_links:(i+1)*n_links] holds commodity i's flow on every link.  All structure
matrices follow the sign convention "-1 leaves, +1 enters" for both node-link
incidence and origin-destination incidence.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    DanglingReference,
    DimensionMismatch,
    DuplicateId,
    MalformedInput,
    NegativeCoefficient,
)
from .errors import UnreachableDestination


@dataclass(frozen=True)
class CostFunction:
    """Polynomial travel time t(x) = sum_j coeffs[j] * x**j.

    Nonnegative coefficients keep t nonnegative and non-decreasing on x >= 0,
    which is all the equilibrium theory needs.  Every coefficient, and every
    coefficient j * coeffs[j] of t', must be a finite float.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if len(cs) == 0:
            raise MalformedInput("cost function needs at least one coefficient")
        if not np.all(np.isfinite(cs)):
            raise MalformedInput("non-finite coefficient in cost polynomial %r" % (cs,))
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
        if not np.isfinite(self.target_demand) or self.target_demand < 0.0:
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


class Network:
    """Validated road network with demands and (possibly partial) flow observations.

    Instances are treated as immutable after construction; every derived array
    (incidence maps, padded coefficient tables) is built once here.
    """

    def __init__(self, nodes, links, commodities, observations=None,
                 eta1=1.0, eta2=1.0):
        self.nodes = tuple(nodes)
        self.links = tuple(links)
        self.commodities = tuple(commodities)
        self.observations = dict(observations or {})
        self.eta1 = float(eta1)
        self.eta2 = float(eta2)

        if not (np.isfinite(self.eta1) and np.isfinite(self.eta2)
                and self.eta1 >= 0.0 and self.eta2 >= 0.0):
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
            if not np.isfinite(flow) or flow < 0.0:
                raise MalformedInput("observed flow on link %r is invalid: %r" % (lid, flow))

        self.tails = np.array([self.node_index[lk.tail] for lk in self.links], dtype=np.intp)
        self.heads = np.array([self.node_index[lk.head] for lk in self.links], dtype=np.intp)

        # adjacency: per node, the outgoing (link index, head index) pairs in link order
        out = [[] for _ in self.nodes]
        for a in range(len(self.links)):
            out[self.tails[a]].append((a, int(self.heads[a])))
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
        # per link, the coefficients of t_a and of t'_a, highest degree first,
        # for one link at a time: Horner's rule over them from 0.0 gives
        # link_times and link_time_derivs bit for bit, since the tables'
        # padding zeros leave their sums at +0.0
        self.link_polys = tuple(
            (cs[::-1], tuple(j * cs[j] for j in range(len(cs) - 1, 0, -1)))
            for cs in (lk.cost.coeffs for lk in self.links))

        self._check_reachability()

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

    # -- misc ---------------------------------------------------------------

    def _check_reachability(self):
        reach_cache = {}
        for com in self.commodities:
            o = self.node_index[com.origin]
            if o not in reach_cache:
                seen = np.zeros(self.n_nodes, dtype=bool)
                seen[o] = True
                queue = deque([o])
                while queue:
                    u = queue.popleft()
                    for _, w in self.out_links[u]:
                        if not seen[w]:
                            seen[w] = True
                            queue.append(w)
                reach_cache[o] = seen
            if not reach_cache[o][self.node_index[com.destination]]:
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


class StructureMatrices:
    """Index layouts of a network's structure matrices and of its lifted
    state and residual, all built once, by build_structure, with NumPy alone.

    The structure matrices hold only -1 and +1:

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

    def __init__(self, net):
        n, a, c = net.n_nodes, net.n_links, net.n_commodities
        self.n_nodes, self.n_links, self.n_commodities = n, a, c

        # A's entries, then one shifted copy per commodity: M, whose blocks
        # follow each other in row order
        com, link = np.arange(c), np.arange(a)
        A = _by_rows(np.concatenate([net.tails, net.heads]), np.concatenate([link, link]),
                     np.repeat([-1.0, 1.0], a))
        self.M = M = ((com[:, None] * n + A[0]).ravel(), (com[:, None] * a + A[1]).ravel(),
                      np.broadcast_to(A[2], (c, 2 * a)).ravel())
        self.Mt = _by_rows(M[1], M[0], M[2])
        self.Gamma = _by_rows(
            np.concatenate([com * n + net.origin_idx, com * n + net.destination_idx]),
            np.concatenate([com, com]), np.repeat([-1.0, 1.0], c))

        self.slices = _, _, sl_alpha, sl_beta = _partition(c, c * a, c * n, c * a)
        self.state_dim = sl_beta.stop
        self.residual_slices = _partition(c * a, c * n, c * a)
        self.n_constraints = self.residual_slices[-1].stop
        self.lower = np.zeros(self.state_dim)
        self.lower[sl_alpha] = -np.inf
        self.lower.flags.writeable = False

    def M_dot(self, X):
        """M X: per commodity, each node's inflow minus its outflow."""
        return _row_sums(self.M, X, self.n_commodities * self.n_nodes)

    def Mt_dot(self, alpha):
        """M' alpha: per commodity, alpha at each link's head minus at its tail."""
        return _row_sums(self.Mt, alpha, self.n_commodities * self.n_links)

    def Gamma_dot(self, d):
        """Gamma d: per commodity, -d at its origin and +d at its destination."""
        return _row_sums(self.Gamma, d, self.n_commodities * self.n_nodes)


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
    """The StructureMatrices of a network.

    Deterministic: identical networks give identical matrices, entry for entry.
    """
    return StructureMatrices(net)


def aggregate_flows(S, X):
    """Total link flows v: the sum of the commodity blocks of X.

    S is a Network or a StructureMatrices; only their sizes are read.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (S.n_commodities * S.n_links,):
        raise DimensionMismatch(
            "expected disaggregated flow vector of length %d, got shape %r"
            % (S.n_commodities * S.n_links, X.shape)
        )
    return X.reshape(S.n_commodities, S.n_links).sum(axis=0)


# -- JSON input --------------------------------------------------------------

_NUMBER = (int, float)
_ID = (int, str)


def _is(val, kind):
    """isinstance for JSON values; true and false are neither numbers nor ids."""
    return isinstance(val, kind) and not isinstance(val, bool)


def _whole_number(text):
    """A JSON integer literal; every number becomes a float, so it must fit one."""
    if np.isinf(float(text)):
        raise MalformedInput("whole number %s... is too large for a float" % text[:12])
    return int(text)


def _require(doc, key, kind, where):
    if key not in doc:
        raise MalformedInput("missing key %r in %s" % (key, where))
    val = doc[key]
    if not _is(val, kind):
        raise MalformedInput("key %r in %s has wrong type %s"
                             % (key, where, type(val).__name__))
    return float(val) if kind is _NUMBER else val


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
        if not all(_is(x, _NUMBER) for x in coeffs):
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
                target_demand=_require(spec, "target", _NUMBER, "commodity"),
            )
        )

    observations = {}
    for spec in obs_specs:
        if not isinstance(spec, dict):
            raise MalformedInput("each observation must be an object")
        lid = _require(spec, "link", _ID, "observation")
        if lid in observations:
            raise DuplicateId("duplicate observation for link %r" % (lid,))
        observations[lid] = _require(spec, "flow", _NUMBER, "observation")

    eta1 = weights.get("eta1", 1.0)
    eta2 = weights.get("eta2", 1.0)
    for name, val in (("eta1", eta1), ("eta2", eta2)):
        if not _is(val, _NUMBER):
            raise MalformedInput("weight %r must be a number" % (name,))

    return Network(nodes, links, commodities, observations, eta1=eta1, eta2=eta2)

