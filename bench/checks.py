"""Independent checks of the package's outputs.

Gaps are recomputed from the returned flows with scipy.sparse.csgraph
shortest paths and the instance's own cost arrays, never with the package's
solvers.  Each check returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import numpy as np

# %.9g keeps 9 significant digits: relative rounding of at most 5e-9
_ROUND9 = 5e-9


def relative_gap(inst, d, v):
    """(t(v).v - sum_i d_i * sp_i) / t(v).v and the pieces a slack needs."""
    t = inst.times(v)
    total = float(t @ v)
    dist = inst.distances(t)[np.arange(len(d)), inst.dests]
    return (total - float(d @ dist)) / total, t, dist


def check_flows(inst, d, X, tol):
    """Gap of the aggregate flows within tol, conservation per commodity,
    nonnegative flows."""
    problems = []
    c, a = len(d), inst.n_links
    X = np.asarray(X, dtype=float).reshape(c, a)
    if X.min(initial=0.0) < -1e-12:
        problems.append("negative link flow %.3e" % X.min())
    for i in range(c):
        balance = np.zeros(inst.n_nodes)
        np.add.at(balance, inst.tails, -X[i])
        np.add.at(balance, inst.heads, X[i])
        balance[inst.origins[i]] += d[i]
        balance[inst.dests[i]] -= d[i]
        if np.abs(balance).max() > 1e-9 * (1.0 + d[i]):
            problems.append("commodity %d breaks conservation by %.3e"
                            % (i, np.abs(balance).max()))
    gap, _, _ = relative_gap(inst, d, X.sum(axis=0))
    if not gap <= tol * (1.0 + 1e-6):
        problems.append("relative gap %.3e above tol %.1e" % (gap, tol))
    return problems


def check_dap(inst, d, X, F, tol):
    """A solve_dap result: d >= 0, F recomputed, restored flows at equilibrium."""
    problems = []
    if np.asarray(d).min() < 0.0:
        problems.append("negative demand in d_final")
    F_ref = inst.objective(d, np.asarray(X).reshape(len(d), -1).sum(axis=0))
    if abs(F_ref - F) > 1e-9 * (1.0 + abs(F_ref)):
        problems.append("F_final %.12g but recomputed %.12g" % (F, F_ref))
    return problems + check_flows(inst, d, X, tol)


def check_report(inst, report, tol, oracle_v=None):
    """A CLI report, whose numbers carry 9 significant digits.

    The F and gap comparisons get a first-order bound on what that rounding
    can move them by.  oracle_v, when given, is the reference equilibrium at
    the reported demands, which the reported flows must match to 1e-5.
    """
    problems = []
    d = np.asarray(report["d_final"], dtype=float)
    v = np.asarray(report["v_final"], dtype=float)
    if d.min() < 0.0:
        problems.append("negative demand in d_final")

    e_obs = v[inst.obs_links] - inst.counts
    e_dem = d - inst.prior
    F_ref = inst.objective(d, v)
    slack = (4.0 * _ROUND9 * (inst.eta1 * np.abs(e_obs) @ np.abs(v[inst.obs_links])
                              + inst.eta2 * np.abs(e_dem) @ np.abs(d))
             + _ROUND9 * abs(F_ref) + 1e-12)
    if abs(F_ref - report["F_final"]) > slack:
        problems.append("F_final %.12g but recomputed %.12g" % (report["F_final"], F_ref))

    gap, t, dist = relative_gap(inst, d, v)
    dt = inst.time_derivs(v)
    total = float(t @ v)
    slack = 2.0 * _ROUND9 * (float((t + dt * v) @ v) + float(d @ dist)
                             + d.sum() * float(dt @ v)) / total
    if not gap <= tol * (1.0 + 1e-6) + slack:
        problems.append("relative gap %.3e above tol %.1e + rounding %.1e"
                        % (gap, tol, slack))
    if oracle_v is not None and np.abs(v - oracle_v).max() > 1e-5:
        problems.append("v_final differs from the oracle by %.3e"
                        % np.abs(v - oracle_v).max())
    return problems
