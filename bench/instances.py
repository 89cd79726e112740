"""Seeded benchmark instances and the benchmark's own equilibrium solver.

Every instance is a function of its seed alone.  Grids follow one recipe:

- k x k nodes, bidirectional 4-neighbour links;
- link times t(x) = c0 + c4 x^4 with c0 ~ U(1, 2) and c4 ~ U(0.01, 0.1);
- distinct random OD pairs with true demands ~ U(1, 5);
- counts on every third link, taken from the equilibrium at the true demands;
- the prior (the document's target demands) is 1.2 x the true demands.

The equilibrium behind the counts is computed here, by a path-based
gradient projection that shares no code with the package under test, and
every generated number is rounded to 6 significant digits.  So a change to
the package cannot change a workload, and the SHA-256 of each document pins
the inputs of a run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

TOY_DOC = {
    "nodes": [1, 2, 3],
    "links": [
        {"id": 1, "from": 1, "to": 2, "coeffs": [0.0, 1.0]},
        {"id": 2, "from": 1, "to": 3, "coeffs": [0.0, 1.0]},
        {"id": 3, "from": 2, "to": 3, "coeffs": [0.0, 1.0]},
        {"id": 4, "from": 3, "to": 2, "coeffs": [0.0, 1.0]},
    ],
    "commodities": [
        {"origin": 1, "destination": 2, "target": 1.5},
        {"origin": 1, "destination": 3, "target": 1.75},
    ],
    "observations": [
        {"link": 1, "flow": 1.5833333},
        {"link": 2, "flow": 1.6666667},
    ],
    "weights": {"eta1": 0.5, "eta2": 0.5},
}

# the three perturbed starts of the package's acceptance runs on the toy
TOY_STARTS = ((1.0, 2.0), (1.0, 1.5), (1.8, 2.0))


def sig6(x):
    """Round to 6 significant digits."""
    return float("%.6g" % float(x))


@dataclass
class Instance:
    """A network document plus the arrays the checks need, in index space."""

    name: str
    text: str
    sha256: str
    n_nodes: int
    tails: np.ndarray
    heads: np.ndarray
    coeffs: np.ndarray      # (n_links, degree + 1), ascending powers
    origins: np.ndarray
    dests: np.ndarray
    prior: np.ndarray       # the document's target demands
    obs_links: np.ndarray
    counts: np.ndarray
    eta1: float
    eta2: float

    @classmethod
    def from_doc(cls, name, doc):
        text = json.dumps(doc, sort_keys=True)
        node_index = {nid: i for i, nid in enumerate(doc["nodes"])}
        link_index = {lk["id"]: a for a, lk in enumerate(doc["links"])}
        deg = max(len(lk["coeffs"]) for lk in doc["links"])
        coeffs = np.zeros((len(doc["links"]), deg))
        for a, lk in enumerate(doc["links"]):
            coeffs[a, :len(lk["coeffs"])] = lk["coeffs"]
        obs = sorted((link_index[o["link"]], o["flow"]) for o in doc["observations"])
        coms = doc["commodities"]
        if len({(lk["from"], lk["to"]) for lk in doc["links"]}) != len(doc["links"]):
            # csgraph would add up the times of parallel links
            raise ValueError("benchmark instances have one link per node pair")
        return cls(
            name=name, text=text,
            sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            n_nodes=len(doc["nodes"]),
            tails=np.array([node_index[lk["from"]] for lk in doc["links"]]),
            heads=np.array([node_index[lk["to"]] for lk in doc["links"]]),
            coeffs=coeffs,
            origins=np.array([node_index[c["origin"]] for c in coms]),
            dests=np.array([node_index[c["destination"]] for c in coms]),
            prior=np.array([c["target"] for c in coms], dtype=float),
            obs_links=np.array([o[0] for o in obs], dtype=np.intp),
            counts=np.array([o[1] for o in obs], dtype=float),
            eta1=float(doc["weights"]["eta1"]),
            eta2=float(doc["weights"]["eta2"]),
        )

    @property
    def n_links(self):
        return len(self.tails)

    def times(self, v):
        return np.polynomial.polynomial.polyval(v, self.coeffs.T, tensor=False)

    def time_derivs(self, v):
        dc = self.coeffs[:, 1:] * np.arange(1, self.coeffs.shape[1])
        return np.polynomial.polynomial.polyval(v, dc.T, tensor=False)

    def objective(self, d, v):
        """F(d, v) = eta1 |v_obs - counts|^2 + eta2 |d - prior|^2."""
        e_obs = np.asarray(v)[self.obs_links] - self.counts
        e_dem = np.asarray(d) - self.prior
        return float(self.eta1 * (e_obs @ e_obs) + self.eta2 * (e_dem @ e_dem))

    def graph(self, t):
        """The network as a sparse matrix of link times, for csgraph."""
        return sp.csr_matrix((t, (self.tails, self.heads)),
                             shape=(self.n_nodes, self.n_nodes))

    def distances(self, t):
        """Shortest-path distances from every origin, (n_origins, n_nodes)."""
        return dijkstra(self.graph(t), indices=self.origins)


def equilibrium(inst, d, gap_tol=1e-12, max_iter=5000):
    """Aggregate equilibrium link flows for demands d.

    Path-based gradient projection with a diagonal Newton step (Jayakrishnan
    et al., 1994), one commodity at a time.
    """
    d = np.asarray(d, dtype=float)
    pair = {(int(u), int(w)): a for a, (u, w) in enumerate(zip(inst.tails, inst.heads))}

    def shortest(i, t):
        _, pred = dijkstra(inst.graph(t), indices=int(inst.origins[i]),
                           return_predecessors=True)
        path, u = [], int(inst.dests[i])
        while u != inst.origins[i]:
            path.append(pair[(int(pred[u]), u)])
            u = int(pred[u])
        return tuple(reversed(path))

    v = np.zeros(inst.n_links)
    paths = []
    t0 = inst.times(v)
    for i in range(len(d)):
        p = shortest(i, t0)
        paths.append({p: d[i]})
        v[list(p)] += d[i]

    for _ in range(max_iter):
        t = inst.times(v)
        total = float(t @ v)
        dist = inst.distances(t)
        best = sum(d[i] * dist[i, inst.dests[i]] for i in range(len(d)))
        if total - best <= gap_tol * total:
            return v
        for i in range(len(d)):
            t = inst.times(v)
            p_star = shortest(i, t)
            paths[i].setdefault(p_star, 0.0)
            for p in list(paths[i]):
                if p == p_star or paths[i][p] <= 0.0:
                    continue
                t = inst.times(v)
                dt = inst.time_derivs(v)
                excess = t[list(p)].sum() - t[list(p_star)].sum()
                diff = list(set(p) ^ set(p_star))
                curv = max(dt[diff].sum(), 1e-12)
                step = min(paths[i][p], max(excess, 0.0) / curv)
                paths[i][p] -= step
                paths[i][p_star] += step
                v[list(p)] -= step
                v[list(p_star)] += step
            paths[i] = {p: h for p, h in paths[i].items() if h > 0.0}
        np.maximum(v, 0.0, out=v)
    raise RuntimeError("benchmark equilibrium did not reach gap %g" % gap_tol)


def grid_doc(k, n_od, seed):
    """The document of a k x k grid with n_od OD pairs."""
    rng = np.random.default_rng([k, n_od, seed])
    n = k * k
    nodes = list(range(1, n + 1))
    ends = []
    for r in range(k):
        for c in range(k):
            u = r * k + c + 1
            if c + 1 < k:
                ends += [(u, u + 1), (u + 1, u)]
            if r + 1 < k:
                ends += [(u, u + k), (u + k, u)]
    links = []
    for lid, (u, w) in enumerate(ends, start=1):
        c0, c4 = sig6(rng.uniform(1.0, 2.0)), sig6(rng.uniform(0.01, 0.1))
        links.append({"id": lid, "from": u, "to": w,
                      "coeffs": [c0, 0.0, 0.0, 0.0, c4]})
    pairs = [(o, t) for o in nodes for t in nodes if o != t]
    picks = rng.choice(len(pairs), size=n_od, replace=False)
    true = [sig6(rng.uniform(1.0, 5.0)) for _ in range(n_od)]
    doc = {
        "nodes": nodes,
        "links": links,
        "commodities": [{"origin": pairs[j][0], "destination": pairs[j][1],
                         "target": sig6(1.2 * dem)}
                        for j, dem in zip(picks, true)],
        "observations": [],
        "weights": {"eta1": 1.0, "eta2": 1.0},
    }
    inst = Instance.from_doc("", doc)
    v_true = equilibrium(inst, true)
    doc["observations"] = [{"link": lk["id"], "flow": sig6(v_true[a])}
                           for a, lk in enumerate(links) if a % 3 == 0]
    return doc


def relabel(doc, rng):
    """A copy of a document under fresh random node and link ids.

    Nodes, links and commodities keep their order, so the package does the
    same arithmetic on every relabelling; only the ids in the text change.
    (Reordering them would move the package's index order, and its sweep
    counts are sensitive to that order: see bench/README.md.)
    """
    n, m = len(doc["nodes"]), len(doc["links"])
    node_id = dict(zip(doc["nodes"], (rng.permutation(n) + 1).tolist()))
    link_id = dict(zip((lk["id"] for lk in doc["links"]),
                       (rng.permutation(m) + 1).tolist()))
    return {
        "nodes": [node_id[u] for u in doc["nodes"]],
        "links": [{"id": link_id[lk["id"]], "from": node_id[lk["from"]],
                   "to": node_id[lk["to"]], "coeffs": list(lk["coeffs"])}
                  for lk in doc["links"]],
        "commodities": [dict(c, origin=node_id[c["origin"]],
                             destination=node_id[c["destination"]])
                        for c in doc["commodities"]],
        "observations": [{"link": link_id[o["link"]], "flow": o["flow"]}
                         for o in doc["observations"]],
        "weights": dict(doc["weights"]),
    }


def grid_instance(k, n_od, seed, rng=None):
    """Grid instance `seed` of the recipe, relabelled by rng when given."""
    doc = grid_doc(k, n_od, seed)
    if rng is not None:
        doc = relabel(doc, rng)
    return Instance.from_doc("grid%dx%d-od%d-s%d" % (k, k, n_od, seed), doc)


def start_objective(inst, d0):
    """F at the start point: demands d0 with their equilibrium flows, 6 digits."""
    return sig6(inst.objective(d0, equilibrium(inst, d0)))
