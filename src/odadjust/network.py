"""Network model: directed graph, polynomial link costs, commodities, observations.

The commodity-disaggregated flow vector X is laid out commodity-major: the block
X[i*n_links:(i+1)*n_links] holds commodity i's flow on every link.  All structure
matrices follow the sign convention "-1 leaves, +1 enters" for both node-link
incidence and origin-destination incidence.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    which is all the equilibrium theory needs.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if len(cs) == 0:
            raise MalformedInput("cost function needs at least one coefficient")
        if not np.all(np.isfinite(cs)):
            raise MalformedInput("non-finite coefficient in cost polynomial %r" % (cs,))
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
    """Sparse structure matrices of a network and the layout of its lifted
    system, all built once, by build_structure.

    A      node-link incidence, n_nodes x n_links, -1 at the tail, +1 at the head
    Gamma  od incidence, (n_commodities*n_nodes) x n_commodities, block-diagonal
           with -1 at the origin and +1 at the destination of each commodity
    M      block-diagonal repetition of A, one block per commodity
    Mt     M' in CSR, for the products M' alpha

    The state [d | X | alpha | beta] has length state_dim and blocks slices;
    the residual [stationarity | conservation | complementarity] has length
    n_constraints and blocks residual_slices.  lower is the read-only lower
    bound of the state: 0 on d, X and beta, -inf on alpha.

    jac_rows and jac_cols place every entry of J = C'(s), the lifted Jacobian:
    the constant blocks Gamma, -M, M' and -I (values jac_fixed), the t'(v)
    entries (jac_links: the link of each), then the complementarity rows'
    beta and X diagonals.
    """

    def __init__(self, net):
        n, a, c = net.n_nodes, net.n_links, net.n_commodities
        self.n_nodes, self.n_links, self.n_commodities = n, a, c

        rows = np.concatenate([net.tails, net.heads])
        cols = np.concatenate([np.arange(a), np.arange(a)])
        vals = np.concatenate([-np.ones(a), np.ones(a)])
        self.A = sp.csr_matrix((vals, (rows, cols)), shape=(n, a))

        com = np.arange(c)
        rows = np.concatenate([com * n + net.origin_idx, com * n + net.destination_idx])
        vals = np.concatenate([-np.ones(c), np.ones(c)])
        self.Gamma = sp.csr_matrix((vals, (rows, np.tile(com, 2))), shape=(c * n, c))

        self.M = sp.block_diag([self.A] * c, format="csr") if c else sp.csr_matrix((0, 0))
        self.Mt = self.M.T.tocsr()

        self.slices = sl_d, sl_x, sl_alpha, sl_beta = _partition(c, c * a, c * n, c * a)
        self.state_dim = sl_beta.stop
        self.residual_slices = stat, cons, comp = _partition(c * a, c * n, c * a)
        self.n_constraints = comp.stop
        self.lower = np.zeros(self.state_dim)
        self.lower[sl_alpha] = -np.inf
        self.lower.flags.writeable = False

        I = sp.identity(c * a)
        # t'_l joins stationarity row (i, l) and flow column (j, l), all i, j; Tp holds l
        i, j, link = np.indices((c, c, a)).reshape(3, -1)
        Tp = sp.coo_matrix((link, (i * a + link, j * a + link)), shape=I.shape)
        blocks = [(sp.coo_matrix(B), r.start, col.start) for B, r, col in (
            (self.Gamma, cons, sl_d), (-self.M, cons, sl_x), (self.M.T, stat, sl_alpha),
            (-I, stat, sl_beta), (Tp, stat, sl_x), (I, comp, sl_x), (I, comp, sl_beta))]
        self.jac_rows = np.concatenate([B.row + r0 for B, r0, _ in blocks])
        self.jac_cols = np.concatenate([B.col + c0 for B, _, c0 in blocks])
        self.jac_fixed = np.concatenate([B.data for B, _, _ in blocks[:4]])
        self.jac_links = link


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

