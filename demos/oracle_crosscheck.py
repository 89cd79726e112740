"""Cross-checking the fast solvers against slow brute-force references.

Two independent references live in odadjust.oracles: a projected-gradient
assignment solver working on explicitly enumerated route sets, and an SLSQP
projection onto the linearized feasible set.  Neither shares code with the
production solvers, which makes agreement a meaningful check.  The script
compares both pairs on a few structurally different instances and prints the
worst discrepancies.
"""

import json

import numpy as np

from odadjust import (TangentSpace, beckmann_objective, parse_network,
                      project, solve_tap)
from odadjust.oracles import oracle_project, oracle_tap

BRAESS = {
    "nodes": [1, 2, 3, 4],
    "links": [
        {"id": "a", "from": 1, "to": 2, "coeffs": [0.0, 10.0]},
        {"id": "b", "from": 1, "to": 3, "coeffs": [50.0, 1.0]},
        {"id": "c", "from": 2, "to": 4, "coeffs": [50.0, 1.0]},
        {"id": "d", "from": 3, "to": 4, "coeffs": [0.0, 10.0]},
        {"id": "e", "from": 2, "to": 3, "coeffs": [10.0, 1.0]},
    ],
    "commodities": [{"origin": 1, "destination": 4, "target": 6.0}],
}

DIAMOND = {
    "nodes": [1, 2, 3, 4],
    "links": [
        {"id": 1, "from": 1, "to": 2, "coeffs": [1.0, 0.0, 0.0, 2.0]},
        {"id": 2, "from": 1, "to": 3, "coeffs": [2.0, 1.0]},
        {"id": 3, "from": 2, "to": 4, "coeffs": [1.0, 0.5]},
        {"id": 4, "from": 3, "to": 4, "coeffs": [1.0, 0.0, 1.0]},
        {"id": 5, "from": 2, "to": 3, "coeffs": [0.5, 2.0]},
    ],
    "commodities": [
        {"origin": 1, "destination": 4, "target": 2.0},
        {"origin": 2, "destination": 3, "target": 0.5},
    ],
}

TRIANGLE = {
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
    print("assignment solver vs route-enumeration reference")
    print("%-10s %12s %12s %10s" %
          ("instance", "objective", "obj diff", "flow diff"))
    for name, doc in (("braess", BRAESS), ("diamond", DIAMOND),
                      ("triangle", TRIANGLE)):
        net = parse_network(json.dumps(doc))
        d = net.target_demands
        sol = solve_tap(net, d, tol=1e-10)
        v_ref = oracle_tap(net, d)
        obj_ref = beckmann_objective(net, v_ref)
        print("%-10s %12.6f %12.3e %10.3e" %
              (name, sol.beckmann, abs(sol.beckmann - obj_ref),
               np.abs(sol.v - v_ref).max()))

    # the Braess paradox is visible in passing: the shortcut carries flow
    # even though removing it would lower everyone's travel time
    net = parse_network(json.dumps(BRAESS))
    sol = solve_tap(net, net.target_demands, tol=1e-10)
    print("\nbraess shortcut (link e) carries %.4f units at equilibrium"
          % sol.v[net.link_index["e"]])

    print("\nactive-set projection vs SLSQP reference")
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(4, 12))
        m = int(rng.integers(1, max(2, n // 2)))
        z = rng.uniform(0.0, 1.0, n)
        J = rng.normal(size=(m, n))
        lower = np.where(rng.random(n) < 0.5, 0.0, -np.inf)
        z = np.maximum(z, np.where(np.isfinite(lower), lower, z))
        box = 2.0 if trial % 2 == 0 else None
        b = z + rng.normal(size=n)
        space = TangentSpace(z=z, J=J, lower=lower)
        w = project(space, b, box)
        w_ref = oracle_project(z, J, lower, box, b)
        gap = float(np.abs(w - w_ref).max())
        worst = max(worst, gap)
        print("  trial %2d: dim %2d, eq rows %d, box %-4s -> gap %.3e"
              % (trial, n, m, "yes" if box else "no", gap))
    print("worst disagreement: %.3e" % worst)


if __name__ == "__main__":
    main()
