"""Recovering origin-destination demands from partial link counts.

Counts are available on two of the four links of a small congested network,
and the planning model carries stale demand estimates.  The script adjusts
the demands so that the induced equilibrium flows reproduce the counts while
staying close to the prior, and prints the progress of the restoration /
optimization cycle along the way.
"""

import json

import numpy as np

from odadjust import IRConfig, eval_F, parse_network, solve_dap, solve_tap

# True demands are (1.5, 1.75); the counts below are the equilibrium flows
# they induce on links 1 and 2.  The prior estimate is deliberately off.
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
    # trust the counts much more than the prior
    "weights": {"eta1": 1.0, "eta2": 0.02},
}

TRUE_DEMANDS = np.array([1.5, 1.75])


def main():
    net = parse_network(json.dumps(DOC))
    d_prior = net.target_demands
    print("prior demand estimate:", d_prior)
    print("observed link flows:  ", dict(net.observations))

    # how badly the prior explains the counts
    sol0 = solve_tap(net, d_prior, tol=1e-10)
    print("misfit of the prior:   F = %.6f\n" % eval_F(net, d_prior, sol0.X))

    print("%3s %3s  %10s %10s %9s %9s %6s %3s" %
          ("k", "i", "|C(s)|", "|C(z)|", "pred", "ared", "theta", "acc"))

    records = []

    def sink(rec):
        records.append(rec)
        # the full trace runs to dozens of rows; show every tenth iteration
        if rec.k % 10 == 0 or not rec.accepted:
            print("%3d %3d  %10.3e %10.3e %9.2e %9.2e %6.3f %3s" %
                  (rec.k, rec.i, rec.normC_s, rec.normC_z, rec.pred, rec.ared,
                   rec.theta, "yes" if rec.accepted else "no"))

    result = solve_dap(net, cfg=IRConfig(), d0=d_prior, sink=sink)
    print("(%d attempts logged in total)" % len(records))

    print("\nstatus: %s after %d outer iterations"
          % (result.status, result.outer_iterations))
    print("adjusted demands: %s   (prior %s, truth %s)" %
          (np.round(result.d_final, 4), d_prior, TRUE_DEMANDS))
    print("final misfit:     F = %.3e" % result.F_final)

    # the adjustment explains most of the counts; the rest is the price of
    # staying near the prior, tunable through the eta weights
    sol = solve_tap(net, result.d_final, tol=1e-10)
    for lk_id, target in sorted(net.observations.items(), key=str):
        a = net.link_index[lk_id]
        print("link %s: modeled %.4f vs counted %.4f" %
              (lk_id, sol.v[a], target))
    moved = np.linalg.norm(result.d_final - d_prior)
    total = np.linalg.norm(TRUE_DEMANDS - d_prior)
    print("demands moved %.0f%% of the way from the prior to the truth"
          % (100.0 * moved / total))


if __name__ == "__main__":
    main()
