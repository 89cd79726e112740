"""Anatomy of one outer iteration: restore feasibility, then step tangentially.

The demand adjustment driver alternates two phases.  Restoration takes an
arbitrary demand estimate and rebuilds a point satisfying the equilibrium
optimality system exactly (flows from an assignment solve, multipliers from
shortest-path potentials).  The optimization phase then steps in the
demands along the piece of the equilibrium set on which the used paths stay
used, lifting each demand step to the whole state by the equilibrium
sensitivity dz/dd, to reduce the data misfit.  This script runs each phase
once, by hand, and prints what the driver normally keeps inside.
"""

import json

import numpy as np

from odadjust import (IRConfig, equilibrium_sensitivity, eval_C, eval_F,
                      parse_network, recover_multipliers, solve_tap)
from odadjust.driver import cauchy_direction, restore

DOC = {
    "nodes": [1, 2, 3],
    "links": [
        {"id": 1, "from": 1, "to": 2, "coeffs": [0.0, 1.0]},
        {"id": 2, "from": 1, "to": 3, "coeffs": [0.0, 1.0]},
        {"id": 3, "from": 2, "to": 3, "coeffs": [0.0, 1.0]},
        {"id": 4, "from": 3, "to": 2, "coeffs": [0.0, 1.0]},
    ],
    "commodities": [
        {"origin": 1, "destination": 2, "target": 1.0},
        {"origin": 1, "destination": 3, "target": 2.0},
    ],
    "observations": [
        {"link": 1, "flow": 1.5833333333333333},
        {"link": 2, "flow": 1.6666666666666667},
    ],
    "weights": {"eta1": 0.5, "eta2": 0.5},
}


def main():
    net = parse_network(json.dumps(DOC))
    cfg = IRConfig()
    # the network carries the layout of the lifted state: views of the
    # blocks (d, X, alpha, beta) of a flat state vector
    sl_d, sl_x, _, sl_b = net.slices

    # start with demands only; flows and multipliers still zero
    s = np.zeros(net.state_dim)
    s[sl_d] = net.target_demands
    r0 = eval_C(net, s)
    print("raw start  d = %s,  |C| = %.3e" % (s[sl_d], np.abs(r0).max()))

    # --- restoration phase -------------------------------------------------
    # equilibrium flows for the current demands, then multipliers that make
    # the stationarity rows vanish: alpha from shortest-path potentials,
    # beta as the resulting nonnegative slack
    z, paths, _ = restore(net, s[sl_d], cfg)
    rz = eval_C(net, z)
    print("\nafter restoration:")
    print("  |C(z)| = %.3e  (max over %d rows)" % (np.abs(rz).max(), rz.size))
    print("  aggregate flows %s" %
          np.round(z[sl_x].reshape(net.n_commodities, net.n_links).sum(axis=0), 6))
    print("  beta >= 0: %s,  complementarity |beta*X| max = %.3e" %
          (bool(z[sl_b].min() >= 0.0), np.abs(z[sl_b] * z[sl_x]).max()))

    # the same multipliers can be inspected directly
    sol = solve_tap(net, z[sl_d], tol=cfg.tap_tol)
    t = net.link_times(sol.v)
    alpha, beta = recover_multipliers(net, sol.X, t)
    print("  node potentials (commodity 1): %s" %
          np.round(-alpha[:net.n_nodes], 6))

    # --- optimization phase ------------------------------------------------
    # the used paths of each commodity, which the assignment kept
    for i, flows in paths.items():
        print("  commodity %d uses %s" % (i + 1, {
            "-".join(str(net.links[a].id) for a in p): round(h, 6)
            for p, h in flows.items()}))

    # dz/dd keeps the used paths used: the steepest-descent step of the
    # misfit in the demands, clipped at d >= 0, lifted to the whole state
    Z = equilibrium_sensitivity(net, z, paths)
    r_tan, g_d = cauchy_direction(net, z, Z)
    moved = np.maximum(z + Z @ r_tan, net.lower)
    print("\nprojected descent step in the demands:")
    print("  reduced gradient %s, step %s" %
          (np.round(g_d, 6), np.round(r_tan, 6)))
    print("  misfit F: %.6f at z  ->  %.6f after the lifted step" %
          (eval_F(net, z[sl_d], z[sl_x]), eval_F(net, moved[sl_d], moved[sl_x])))

    # the lifted point leaves the equilibrium system only to second order,
    # through the curvature of the link costs
    print("  |C| after the lifted step: %.3e (max over rows)"
          % np.abs(eval_C(net, moved)).max())


if __name__ == "__main__":
    main()
