"""Inexact restoration driver for the bilevel demand adjustment problem.

Each outer iteration k:
  1. refresh the penalty cap theta_{k,-1}: the least theta so far plus a bump
  2. restoration, one _restore_closer call at every k, 0 included: solve
     the assignment for the current demand block and recover multipliers,
     giving a feasible point z^k of the lifted system; while
     |C(z^k)| > RESTORE_RATIO |C(s^k)|, restore again with a tighter
     assignment tolerance, at most RESTORE_TIGHTENINGS times.  The run's
     first assignment starts cold; every later one starts from the path
     flows the one before it returned, so z^k stays close to s^k
     (Martinez's inexact restoration asks for that) and equal-cost paths
     keep their split.  At k = 0, s^0 = (d^0, 0, 0, 0), whose residual
     holds the free-flow times and Gamma d^0, so the first restoration
     is nearly always closer at once
  3. the equilibrium sensitivity Z = dz/dd at z^k (kkt.equilibrium_sensitivity)
     parametrizes by the demands d the piece of the equilibrium set on which
     the used paths stay used; the reduced gradient is g_d = Z' grad F(z^k),
     and the projected-gradient step in d is r_tan = max(d - g_d, 0) - d.
     Stop if z^k is close to s^k and r_tan vanishes
  4. optimization phase, in d: find a demand step in the trust box, lifted to
     v = max(z^k + Z dd, lower), that matches at least the decrease of F
     at the broken Cauchy point; the first trial is the spectral step
     clip(d - sigma_k g_d) - d, with the Barzilai-Borwein factor
     sigma_k = s's / s'y, s = d^k - d^{k-1} and y = g_d^k - g_d^{k-1}
     (sigma_0 = 1)
  5. merit_test: the largest penalty weight theta keeping the predicted
     reduction of the merit theta F + (1 - theta) |C| at half the feasibility
     gain |C(s)| - |C(z)|; where none does, the attempt keeps theta and fails
  6. accept when the actual reduction reaches a tenth of the prediction,
     otherwise shrink the trust box and retry from step 4

Martinez's method takes any bounded multiplier estimate in its Lagrangian,
and the stop test reads none, so the driver takes mu = 0: its Lagrangian is
F, and an outer step evaluates no Jacobian and factors nothing.

States are flat vectors laid out by the network's slices; the mu of
trial_multipliers follows its residual_slices.

The method's own constants; IRConfig holds only what a caller chooses:

  THETA_INIT           theta_{-1}, the penalty weight before the first step
  OMEGA0, OMEGA_RATIO  summable penalty bump omega_k = OMEGA0 * OMEGA_RATIO**k
  DELTA0, DELTA_MIN    trust box radius of the first outer step, and its floor
                       at the start of each outer step
  SHRINK               radius factor after a rejected candidate; an outer step
                       stalls once the radius falls below 1e-12 * DELTA0,
                       within 40 rejections since it starts at most 1
  TAU1, TAU2           radius-proportional and absolute sufficient-decrease
                       margins of the optimization phase
  M_BOUND              clip bound of trial_multipliers, which the solver no
                       longer calls
  SIGMA_MIN, SIGMA_MAX clip range of the spectral factor sigma_k
  CAUCHY_ARMIJO        sufficient decrease of the broken Cauchy point
  RESTORE_RATIO        a restored point must be at least this much closer to
                       feasibility than the current point ...
  RESTORE_TIGHTEN      ... or it is restored again, the assignment tolerance
                       multiplied by this factor,
  RESTORE_TIGHTENINGS  at most this many times per outer step
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import MaxIterations
from .kkt import (eval_C, eval_C_jacobian, eval_F, equilibrium_sensitivity,
                  grad_F_state, recover_multipliers)
from .network import _demands
from .projection import min_norm_solve
from .tap import solve_tap

STATUS_CONVERGED = "converged"
STATUS_MAX_OUTER = "max_outer"
STATUS_STALLED = "stalled"

THETA_INIT = 0.9
OMEGA0 = 0.1
OMEGA_RATIO = 0.5
DELTA0 = 1.0
DELTA_MIN = 0.1
SHRINK = 0.5
TAU1 = 1e-4
TAU2 = 1e-4
M_BOUND = 1e6
SIGMA_MIN = 1e-3
SIGMA_MAX = 1e3
CAUCHY_ARMIJO = 0.1
RESTORE_RATIO = 0.9
RESTORE_TIGHTEN = 1e-2
RESTORE_TIGHTENINGS = 2


@dataclass
class IRConfig:
    """How exact the answer must be and how much work a run may spend."""

    eps1: float = 1e-5          # restoration displacement tolerance
    eps2: float = 1e-5          # projected-gradient tolerance, on the demands
    tap_tol: float = 1e-8       # relative gap demanded from the restoration solve
    tap_max_iter: int = 50000
    max_outer: int = 200

    def __post_init__(self):
        # the annotations give the rules: every field is finite and positive,
        # int fields are also integral
        for f in fields(self):
            val = getattr(self, f.name)
            kind = "positive integer" if f.type is int else "finite positive number"
            if (isinstance(val, bool) or not isinstance(val, numbers.Real)
                    or not (math.isfinite(val) and val > 0)
                    or (f.type is int and val != int(val))):
                raise ValueError("%s must be a %s, got %r" % (f.name, kind, val))
            setattr(self, f.name, f.type(val))


@dataclass
class IterationRecord:
    """One optimization-phase attempt (outer k, inner i) for logging."""

    k: int
    i: int
    normC_s: float
    normC_z: float
    L_s: float
    L_v: float
    theta: float
    delta: float
    pred: float
    ared: float
    accepted: bool
    F_value: float
    rtan_norm: float


@dataclass
class DapResult:
    d_final: np.ndarray
    X_final: np.ndarray
    F_final: float
    status: str
    history: list = field(default_factory=list)
    outer_iterations: int = 0


def init_penalty(k, theta_min):
    """theta_{k,-1} = min(1, theta_min) + omega_k, capped at 1; theta_min is
    the smallest of THETA_INIT and every accepted theta so far."""
    return min(1.0, min(1.0, theta_min) + OMEGA0 * OMEGA_RATIO ** k)


def restore(net, d, cfg, start=None):
    """Feasibility phase: equilibrium flows for demands d plus certifying
    multipliers; returns the restored point z and the assignment's path
    flows, as TapSolution.paths holds them.

    start is the path flows of an earlier assignment, or None; the
    assignment starts from them (solve_tap's start), warm, or else cold.
    """
    sol = solve_tap(net, d, tol=cfg.tap_tol, max_iter=cfg.tap_max_iter, start=start)
    if not sol.converged:
        raise MaxIterations(
            "restoration assignment stalled at relative gap %.3e" % sol.rgap)
    alpha, beta = recover_multipliers(net, sol.X, net.link_times(sol.v))
    z = np.empty(net.state_dim)
    for sl, block in zip(net.slices, (d, sol.X, alpha, beta)):
        z[sl] = block
    return z, sol.paths


def _restore_closer(net, d, cfg, paths, normC_s):
    """restore(d), then restore again while |C(z)| > RESTORE_RATIO |C(s)|,
    each time with the assignment tolerance RESTORE_TIGHTEN times smaller,
    at most RESTORE_TIGHTENINGS times; returns z, |C(z)| and z's path flows.

    normC_s is |C(s)| at the current point s.  A restored point no closer
    to feasibility than s leaves the predicted reduction to roundoff.  A
    tightened assignment that cannot reach its tolerance keeps the last
    restored point.  The first restoration starts from paths, the path
    flows of the last assignment that converged (None: cold), and each
    tightened one from those of the restoration before it.
    """
    z, paths = restore(net, d, cfg, paths)
    normC_z = _norm(eval_C(net, z))
    tol = cfg.tap_tol
    for _ in range(RESTORE_TIGHTENINGS):
        if normC_z <= RESTORE_RATIO * normC_s:
            break
        tol *= RESTORE_TIGHTEN
        try:
            z, paths = restore(net, d, replace(cfg, tap_tol=tol), paths)
        except MaxIterations:
            break
        normC_z = _norm(eval_C(net, z))
    return z, normC_z, paths


def _norm(x):
    """2-norm of x, also where its entries are finite but their squares
    overflow: then it is scaled by the largest entry, without a warning."""
    with np.errstate(over="ignore"):
        out = float(np.linalg.norm(x))
    if out == math.inf:
        big = float(np.abs(x).max())
        if big < math.inf:
            out = big * float(np.linalg.norm(x / big))
    return out


def cauchy_direction(net, z, Z):
    """Projected-gradient step of the reduced objective in the demands at
    the restored point z, and the reduced gradient it steps along.

    Z = dz/dd is the sensitivity of z (kkt.equilibrium_sensitivity).  The
    reduced gradient is g_d = Z' grad F(z): along Z the linearized residual
    stays zero.  The step is max(d - g_d, 0) - d, the projection onto
    d >= 0 being a clip.
    """
    g_d = Z.T @ grad_F_state(net, z)
    d = z[net.slices[0]]
    return np.maximum(d - g_d, 0.0) - d, g_d


def spectral_factor(s, y):
    """Barzilai-Borwein step length s's / s'y, clipped to [SIGMA_MIN, SIGMA_MAX].

    s is the step between the demands of two restored points and y the
    change of the reduced gradient along it.  Without curvature along s
    (s'y <= 0), or when the ratio is not finite, the factor is 1: the unit
    step.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ss, sy = np.dot(s, s), np.dot(s, y)
        ratio = ss / sy if sy > 0.0 else math.nan
    if not math.isfinite(ratio):
        return 1.0
    return float(min(max(ratio, SIGMA_MIN), SIGMA_MAX))


def check_stop(s_vec, z_vec, r_tan, eps1, eps2):
    """Joint restoration-displacement and projected-gradient test."""
    close = float(np.abs(z_vec - s_vec).max(initial=0.0)) < eps1
    flat = float(np.abs(r_tan).max(initial=0.0)) < eps2
    return close and flat


def trial_multipliers(net, v):
    """argmin_mu |grad F(v) + C'(v)^T mu|^2 + REG |mu|^2, clipped to the bound.

    projection.min_norm_solve does it by one sparse LU of a K assembled from
    C'(v)^T, kkt.eval_C_jacobian's CSR matrix transposed; projection.REG
    damps the directions in which C'(v)^T is nearly singular.  solve_dap
    does not call it: the solver takes mu = 0.
    """
    g = grad_F_state(net, v)
    mu = min_norm_solve(eval_C_jacobian(net, v).T, -g)
    return np.clip(mu, -M_BOUND, M_BOUND)


def merit_test(a, b, b_v, theta_prev):
    """(theta, pred, ared, accepted) of one attempt's merit test.

    a = F(s) - F(v), b = |C(s)| - |C(z)| and b_v = |C(s)| - |C(v)|.  theta
    is the largest weight in [0, theta_prev] with Pred(theta) = theta a +
    (1 - theta) b >= b/2, pred = Pred(theta), ared = theta a + (1 - theta)
    b_v, and the attempt is accepted when ared >= pred / 10.  Where no theta
    is admissible (b < 0: the restored point is no closer to feasibility
    than s), theta stays theta_prev, ared is NaN and the attempt fails.
    """
    pred = theta_prev * a + (1.0 - theta_prev) * b
    theta = theta_prev
    if pred < b / 2.0:
        # Pred(theta) = b + theta*(a-b); a >= b makes it nondecreasing, so
        # falling short at theta_prev means every smaller theta does (b < 0);
        # a < b makes it decreasing and the crossing Pred = b/2 is the max
        if a >= b or b < 0.0:
            return theta_prev, pred, math.nan, False
        theta = min(max(b / (2.0 * (b - a)), 0.0), theta_prev)
        pred = theta * a + (1.0 - theta) * b
    ared = theta * a + (1.0 - theta) * b_v
    return theta, pred, ared, ared >= 0.1 * pred


def find_candidate(net, z, Z, r_tan, delta, at_z, sigma):
    """Optimization phase: a point v on the equilibrium piece of the restored
    point z, its demands in the box of radius delta around z's, that does at
    least as well in F as the broken Cauchy point, returned with F(v) and
    |C(v)|.

    A demand step dd is lifted to max(z + Z dd, lower), Z = dz/dd.  The
    first trial is the spectral step dd = clip(d - sigma g_d) - d, clipped
    to the box and to d >= 0.  It is halved while its F is above
    max(F(cauchy), F(z) - TAU1 delta, F(z) - TAU2), down to the length of
    the Cauchy step, which is the fallback and always passes.  The broken
    Cauchy point (Martinez, J. Optim. Theory Appl. 111, 2001) steps t r_tan
    from t = min(1, delta / |r_tan|_inf), halving t until F has fallen by
    CAUCHY_ARMIJO t g_d'r_tan; it is evaluated only when a trial misses the
    last two terms of the bound.  r_tan, the projected-gradient step in d,
    must be nonzero.  at_z holds F(z) and the reduced gradient g_d at z,
    and sigma is the spectral factor; every attempt of an outer step
    shares them.
    """
    sl_d, sl_x, _, _ = net.slices
    d = z[sl_d]
    F_z, g_d = at_z
    seen = {}

    def at(dd):
        """The lifted point of dd, with F(vec) and |C(vec)|; each step is
        evaluated once."""
        key = dd.tobytes()
        if key not in seen:
            vec = np.maximum(z + Z @ dd, net.lower)
            seen[key] = (vec, eval_F(net, vec[sl_d], vec[sl_x]),
                         _norm(eval_C(net, vec)))
        return seen[key]

    floor = max(F_z - TAU1 * delta, F_z - TAU2)
    dd = np.clip(d - sigma * g_d, np.maximum(d - delta, 0.0), d + delta) - d

    def cauchy():
        """The broken Cauchy step t r_tan and its at() values: t starts at
        min(1, delta / |r_tan|_inf) and halves until F falls by at least
        CAUCHY_ARMIJO t g_d'r_tan, or t is 1e-12 of its start."""
        t = min(1.0, delta / float(np.abs(r_tan).max()))
        slope, t_min = float(g_d @ r_tan), 1e-12 * t
        while True:
            out = at(t * r_tan)
            if out[1] <= F_z + CAUCHY_ARMIJO * t * slope or t < t_min:
                return t * r_tan, out
            t *= 0.5

    cauchy_dd = best = None
    while True:
        out = at(dd)
        if out[1] <= floor:
            return out
        if best is None:
            cauchy_dd, best = cauchy()
        if out[1] <= best[1]:
            return out
        dd = 0.5 * dd
        if np.abs(dd).max() < np.abs(cauchy_dd).max():
            return best


def solve_dap(net, cfg=None, d0=None, sink=None):
    """Adjust demands to observations subject to user equilibrium.

    Parameters
    ----------
    net : Network with observations and target demands
    cfg : IRConfig, defaults used when omitted
    d0 : starting demands, defaults to the target demands; the run starts from
         the state (d0, 0, 0, 0).  Checked as solve_tap checks its demands:
         DimensionMismatch unless one per commodity, ValueError unless finite
         and nonnegative
    sink : optional callable fed every IterationRecord as it is produced

    Returns a DapResult whose d_final/X_final blocks come from the last
    restored point, so they satisfy the equilibrium system to restoration
    accuracy regardless of how the run ended.
    """
    cfg = cfg or IRConfig()
    sl_d, sl_x, _, _ = net.slices
    d0 = _demands(net, net.target_demands if d0 is None else d0)
    s = np.zeros(net.state_dim)
    s[sl_d] = d0

    # |C(s)| and F(s) at the current point; an accepted step carries over
    # the values it computed at v
    normC_s = _norm(eval_C(net, s))
    F_s = eval_F(net, s[sl_d], s[sl_x])

    theta_min = THETA_INIT   # the least of THETA_INIT and every accepted theta
    delta_prev = DELTA0
    prev = None          # the last restored demands and their reduced gradient
    history = []
    status = STATUS_MAX_OUTER
    paths = None         # the path flows of the last restoration

    for k in range(cfg.max_outer):
        theta_cur = init_penalty(k, theta_min)
        z, normC_z, paths = _restore_closer(net, s[sl_d], cfg, paths, normC_s)

        Z = equilibrium_sensitivity(net, z, paths)
        r_tan, g_d = cauchy_direction(net, z, Z)
        if check_stop(s, z, r_tan, cfg.eps1, cfg.eps2):
            status = STATUS_CONVERGED
            break
        d = z[sl_d]
        sigma = 1.0 if prev is None else spectral_factor(d - prev[0], g_d - prev[1])
        prev = d, g_d

        # z's values, each computed once for every attempt of this step
        F_z = eval_F(net, d, z[sl_x])
        rt_norm = _norm(r_tan)
        delta = max(DELTA_MIN, delta_prev)

        accepted = False
        for i in itertools.count():
            if rt_norm <= 1e-14 * (1.0 + _norm(d)):
                v, F_v, normC_v = z, F_z, normC_z
            else:
                v, F_v, normC_v = find_candidate(net, z, Z, r_tan, delta,
                                                 (F_z, g_d), sigma)

            theta_cur, pred, ared, ok = merit_test(
                F_s - F_v, normC_s - normC_z, normC_s - normC_v, theta_cur)

            rec = IterationRecord(k=k, i=i, normC_s=normC_s, normC_z=normC_z,
                                  L_s=F_s, L_v=F_v, theta=theta_cur,
                                  delta=delta, pred=pred, ared=ared,
                                  accepted=ok, F_value=F_v,
                                  rtan_norm=rt_norm)
            history.append(rec)
            if sink is not None:
                sink(rec)

            if ok:
                s = v
                normC_s, F_s = normC_v, F_v
                theta_min = min(theta_min, theta_cur)
                delta_prev = delta
                accepted = True
                break
            delta *= SHRINK
            if delta < 1e-12 * DELTA0:
                break

        if not accepted:
            status = STATUS_STALLED
            break

    # max_outer >= 1, so z is the last restored point and k the last outer step
    d_final, X_final = z[sl_d].copy(), z[sl_x].copy()
    return DapResult(d_final=d_final, X_final=X_final,
                     F_final=eval_F(net, d_final, X_final), status=status,
                     history=history, outer_iterations=k + 1)
