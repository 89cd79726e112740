"""Assigning demand to a congested network and reading the equilibrium.

A three-node network with four unit-slope links carries two commodities out
of node 1.  The script solves the equilibrium assignment, verifies the
defining property (all used routes of a commodity cost the same, unused
routes cost no less), and contrasts the result with naive all-direct routing.
"""

import json

import numpy as np

from odadjust import parse_network, relative_gap, solve_tap
from odadjust.oracles import enumerate_paths

DOC = {
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
}


def main():
    net = parse_network(json.dumps(DOC))
    d = net.target_demands
    print("instance: %d nodes, %d links, %d commodities" %
          (net.n_nodes, net.n_links, net.n_commodities))

    sol = solve_tap(net, d, tol=1e-10)
    print("\nequilibrium after %d improvement cycles (relative gap %.2e):" %
          (sol.iterations, sol.rgap))
    for lk, flow in zip(net.links, sol.v):
        print("  link %s (%s -> %s): flow %.6f,  time %.6f" %
              (lk.id, lk.tail, lk.head, flow, lk.cost.value(flow)))
    print("total travel cost %.6f, potential %.6f" %
          (float(net.link_times(sol.v) @ sol.v), sol.beckmann))

    # Wardrop check: per commodity, enumerate routes and price them at the
    # equilibrium times.  Used routes tie, unused ones are at least as dear.
    t = net.link_times(sol.v)
    X = sol.X.reshape(net.n_commodities, net.n_links)
    print("\nroute costs at equilibrium times:")
    for i, com in enumerate(net.commodities):
        print("  commodity %s -> %s (demand %.2f)" %
              (com.origin, com.destination, d[i]))
        for path in enumerate_paths(net, com.origin, com.destination):
            cost = sum(t[a] for a in path)
            used = all(X[i, a] > 1e-9 for a in path)
            names = " + ".join(str(net.links[a].id) for a in path)
            print("    links %-7s cost %.6f  %s" %
                  (names, cost, "(used)" if used else "(unused)"))

    # what congestion costs: push everything down the direct links instead
    v_naive = np.zeros(net.n_links)
    v_naive[0], v_naive[1] = d[0], d[1]
    print("\nall-direct routing would leave a relative gap of %.4f" %
          relative_gap(net, d, v_naive))
    print("equilibrium splits %.4f of commodity 2 onto the detour 1->2->3" %
          X[1, 0])


if __name__ == "__main__":
    main()
