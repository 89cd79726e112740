"""Shared fixtures and generators for the test suite.

The TOY_* constants describe a three-node instance whose equilibrium is known
in closed form.  Two commodities leave node 1, every link has travel time
t(x) = x, and at the target demands commodity 2 splits between its two routes
so that both cost 5/3:

    v* = (19/12, 5/3, 1/12, 0)          aggregate link flows
    X* = (3/2, 0, 0, 0 | 1/12, 5/3, 1/12, 0)
    alpha*_i = -(0, 19/12, 5/3)         per commodity, potentials at node order
    beta*_i  = (0, 0, 0, 1/12)          reduced costs, only the unused back link
    Beckmann(v*) = 127/48

Routing everything on the direct links instead gives a relative gap of 7/85.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from odadjust import parse_network
from odadjust.projection import TangentSpace

SRC = Path(__file__).resolve().parents[1] / "src"


def checkout_env(**extra):
    """Environment for a subprocess that imports the package from this
    checkout's src, not from an installed copy."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]]
                         if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


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

TOY_TARGETS = np.array([1.5, 1.75])
TOY_V = np.array([19.0 / 12.0, 5.0 / 3.0, 1.0 / 12.0, 0.0])
TOY_X = np.array([1.5, 0.0, 0.0, 0.0,
                  1.0 / 12.0, 5.0 / 3.0, 1.0 / 12.0, 0.0])
TOY_ALPHA = np.array([0.0, -19.0 / 12.0, -5.0 / 3.0,
                      0.0, -19.0 / 12.0, -5.0 / 3.0])
TOY_BETA = np.array([0.0, 0.0, 0.0, 1.0 / 12.0,
                     0.0, 0.0, 0.0, 1.0 / 12.0])
TOY_BECKMANN = 127.0 / 48.0
TOY_RGAP_DIRECT = 7.0 / 85.0


def toy_document():
    """Fresh copy of the reference instance document."""
    return json.loads(json.dumps(TOY_DOC))


def quadratic_toy_document():
    """The toy with t(x) = x + x^2 on every link.

    One assignment sweep reaches the linear toy's equilibrium to roundoff, so a
    test of an exhausted sweep budget needs curved costs: here one sweep
    leaves a relative gap of 1.3e-8, and the second reaches 0.
    """
    doc = toy_document()
    for link in doc["links"]:
        link["coeffs"] = [0.0, 1.0, 1.0]
    return doc


@pytest.fixture
def toy_net():
    return parse_network(json.dumps(TOY_DOC))


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY_DOC), encoding="utf-8")
    return str(path)


def state_vector(S, d, X, alpha, beta):
    """Flat state with the given blocks, laid out by S.slices."""
    s = np.empty(S.state_dim)
    for sl, block in zip(S.slices, (d, X, alpha, beta)):
        s[sl] = block
    return s


def random_state(rng, S):
    """Random flat state: d, X and beta nonnegative, alpha free."""
    return state_vector(
        S,
        rng.uniform(0.5, 3.0, size=S.n_commodities),
        rng.uniform(0.0, 2.0, size=S.n_commodities * S.n_links),
        rng.normal(size=S.n_commodities * S.n_nodes),
        rng.uniform(0.0, 1.0, size=S.n_commodities * S.n_links),
    )


def incidence_matrices(net):
    """Gamma and M of a network as scipy CSR matrices, built from its links
    and commodities: the reference for the products of StructureMatrices."""
    n, a, c = net.n_nodes, net.n_links, net.n_commodities
    link, com = np.arange(a), np.arange(c)
    A = sp.csr_matrix((np.repeat([-1.0, 1.0], a),
                       (np.concatenate([net.tails, net.heads]), np.tile(link, 2))),
                      shape=(n, a))
    Gamma = sp.csr_matrix(
        (np.repeat([-1.0, 1.0], c),
         (np.concatenate([com * n + net.origin_idx, com * n + net.destination_idx]),
          np.tile(com, 2))), shape=(c * n, c))
    return Gamma, sp.block_diag([A] * c, format="csr")


def random_network(rng):
    """Small strongly connected instance with strictly increasing costs.

    A directed cycle over all nodes guarantees every destination is reachable;
    chords with mixed polynomial degrees vary the geometry.  At most 6 nodes,
    10 links and 3 commodities.
    """
    n = int(rng.integers(3, 7))
    nodes = list(range(1, n + 1))
    links = []
    lid = 1
    for u in nodes:
        w = u % n + 1
        links.append({"id": lid, "from": u, "to": w,
                      "coeffs": [round(rng.uniform(0, 2), 3),
                                 round(rng.uniform(0.1, 2), 3)]})
        lid += 1
    extra = int(rng.integers(0, min(4, 10 - n) + 1))
    for _ in range(extra):
        u, w = rng.choice(nodes, 2, replace=False)
        deg = int(rng.integers(1, 4))
        coeffs = ([round(rng.uniform(0, 2), 3)]
                  + [0.0] * (deg - 1)
                  + [round(rng.uniform(0.1, 1.5), 3)])
        links.append({"id": lid, "from": int(u), "to": int(w), "coeffs": coeffs})
        lid += 1
    ncom = int(rng.integers(1, 4))
    coms = []
    for _ in range(ncom):
        u, w = rng.choice(nodes, 2, replace=False)
        coms.append({"origin": int(u), "destination": int(w),
                     "target": round(rng.uniform(0.5, 3.0), 3)})
    return parse_network(json.dumps({"nodes": nodes, "links": links,
                                     "commodities": coms, "observations": [],
                                     "weights": {"eta1": 1, "eta2": 1}}))


def random_tangent_instance(rng, max_dim=30):
    """A TangentSpace, query point and box radius (None for no box), mixing
    active, slack and free bounds.

    The base point z is feasible by construction; roughly a third of the
    bounded coordinates sit exactly on their bound, and one equality row is
    occasionally duplicated to exercise rank deficiency.
    """
    n = int(rng.integers(2, max_dim + 1))
    m = int(rng.integers(0, max(1, n // 2) + 1))
    z = rng.normal(size=n)
    J = rng.normal(size=(m, n))
    if m >= 2 and rng.random() < 0.3:
        J[m - 1] = J[0] * rng.normal()
    lower = np.full(n, -np.inf)
    k = int(rng.integers(0, n + 1))
    idx = rng.choice(n, size=k, replace=False)
    lower[idx] = z[idx] - np.abs(rng.normal(size=k))
    tie = idx[: max(0, k // 3)]
    lower[tie] = z[tie]
    box = float(np.abs(rng.normal()) * 2.0 + 0.5) if rng.random() < 0.5 else None
    b = z + rng.normal(size=n) * 2.0
    return TangentSpace(z=z, J=J, lower=lower), b, box


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
