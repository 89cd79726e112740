"""Inexact restoration driver for the bilevel demand adjustment problem.

Each outer iteration k:
  1. refresh the penalty cap theta_{k,-1} from the history plus a summable bump
  2. restoration: solve the assignment for the current demand block and recover
     multipliers, giving a feasible point z^k of the lifted system
  3. stop if z^k is close to s^k and the projected Lagrangian step vanishes
  4. optimization phase: find a candidate v in the linearized set near z^k that
     matches at least the decrease of the projected-gradient (Cauchy) point
  5. trial multipliers at v by regularized least squares, clipped to a bound
  6. pick the largest penalty weight theta keeping the predicted reduction of
     the two-term merit at half the feasibility gain
  7. accept when the actual reduction reaches a tenth of the prediction,
     otherwise shrink the trust box and retry from step 4

States are flat vectors laid out by StructureMatrices.slices; multipliers
follow its residual_slices.

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
  M_BOUND              clip bound for trial multipliers
  INNER_GTOL           projected-gradient stop inside find_candidate
  INNER_POINT_CAP      trial points allowed per optimization phase
  INNER_ITER_CAP       projected-gradient iterations per optimization phase
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, InfeasibleTheta, MaxIterations, NoCandidate
from .kkt import (eval_C, eval_F, eval_L, grad_F_state, eval_C_jacobian,
                  recover_multipliers, tangent_space)
from .network import build_structure
from .projection import min_norm_solve, project
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
INNER_GTOL = 1e-3
INNER_POINT_CAP = 100
INNER_ITER_CAP = 10


@dataclass
class IRConfig:
    """How exact the answer must be and how much work a run may spend."""

    eps1: float = 1e-5          # restoration displacement tolerance
    eps2: float = 1e-5          # projected-gradient tolerance
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
    mu_final: np.ndarray | None = None
    outer_iterations: int = 0


def init_penalty(k, theta_history):
    """theta_{k,-1} = min(1, min over history) + omega_k, capped at 1."""
    theta_min = min(1.0, min(theta_history))
    return min(1.0, theta_min + OMEGA0 * OMEGA_RATIO ** k)


def restore(net, S, d, cfg):
    """Feasibility phase: equilibrium flows for demands d plus certifying multipliers."""
    sol = solve_tap(net, d, tol=cfg.tap_tol, max_iter=cfg.tap_max_iter)
    if not sol.converged:
        raise MaxIterations(
            "restoration assignment stalled at relative gap %.3e" % sol.rgap)
    alpha, beta = recover_multipliers(net, S, sol.X, net.link_times(sol.v))
    z = np.empty(S.state_dim)
    for sl, block in zip(S.slices, (d, sol.X, alpha, beta)):
        z[sl] = block
    return z


def cauchy_direction(net, S, mu, space):
    """Projected-gradient step of the Lagrangian within the tangent set at z.

    space is tangent_space(net, S, z), projected onto without a box; its
    Jacobian gives the Lagrangian gradient at z.
    """
    g = grad_F_state(net, S, space.z) + space.J.T @ mu
    return project(space, space.z - g) - space.z


def check_stop(s_vec, z_vec, r_tan, eps1, eps2):
    """Joint restoration-displacement and projected-gradient test."""
    close = float(np.abs(z_vec - s_vec).max(initial=0.0)) < eps1
    flat = float(np.abs(r_tan).max(initial=0.0)) < eps2
    return close and flat


def trial_multipliers(net, S, v):
    """argmin_mu |grad F(v) + C'(v)^T mu|^2 + REG |mu|^2, clipped to the bound.

    projection.min_norm_solve does it by one sparse LU; projection.REG damps
    the directions in which C'(v)^T is nearly singular.
    """
    g = grad_F_state(net, S, v)
    Jt = eval_C_jacobian(net, S, v).T
    mu = min_norm_solve(Jt, -g)
    return np.clip(mu, -M_BOUND, M_BOUND)


def choose_theta(a, b, theta_prev):
    """Largest theta in [0, theta_prev] with Pred(theta) >= b/2.

    Pred(theta) = theta * a + (1 - theta) * b, where a is the Lagrangian part
    of the predicted reduction and b the feasibility part.  Raises
    InfeasibleTheta when no admissible theta exists (only possible for b < 0,
    which is roundoff noise since restoration does not increase |C|).
    """
    pred_prev = theta_prev * a + (1.0 - theta_prev) * b
    if pred_prev >= b / 2.0:
        return theta_prev, pred_prev
    # Pred(theta) = b + theta*(a-b); a >= b makes it nondecreasing, so falling
    # short at theta_prev means every smaller theta falls short too (b < 0);
    # a < b makes it decreasing and the crossing Pred(theta) = b/2 is the max
    if a >= b or b < 0.0:
        raise InfeasibleTheta("no penalty weight reaches the required reduction "
                              "(a=%.3e, b=%.3e)" % (a, b))
    theta = min(max(b / (2.0 * (b - a)), 0.0), theta_prev)
    return theta, theta * a + (1.0 - theta) * b


def accept_step(ared, pred):
    """Armijo-like acceptance of the merit decrease."""
    return ared >= 0.1 * pred


def find_candidate(net, S, mu, r_tan, space, delta):
    """Optimization phase: a point of the tangent set in the box of radius
    delta around space.z that does at least as well as the broken Cauchy point
    in the Lagrangian.

    Runs projected gradient on F (its projected direction is a descent
    direction for the Lagrangian on the tangent set) and returns the first
    trial whose Lagrangian passes the decrease test; the Cauchy point itself is
    the fallback and always passes.  r_tan, the unboxed Cauchy direction, must
    be nonzero.
    """
    zvec = space.z
    rt2 = float(np.linalg.norm(r_tan))

    def L_of(vec):
        return eval_L(net, S, vec, mu)

    t_break = min(1.0, delta / rt2)
    cauchy_vec = zvec + t_break * r_tan
    L_z = L_of(zvec)
    L_cauchy = L_of(cauchy_vec)
    bound = max(L_cauchy, L_z - TAU1 * delta, L_z - TAU2)

    points = 0
    cur = zvec
    L_cur = L_z
    for _ in range(INNER_ITER_CAP):
        g_f = grad_F_state(net, S, cur)
        r_v = project(space, cur - g_f, delta) - cur
        if float(np.linalg.norm(r_v)) < INNER_GTOL:
            break
        g_l = g_f + eval_C_jacobian(net, S, cur).T @ mu
        if float(r_v @ g_l) >= 0.0:
            break                      # descent property lost to roundoff
        step = 1.0
        moved = False
        while points < INNER_POINT_CAP and step >= 1e-12:
            trial = cur + step * r_v
            L_trial = L_of(trial)
            points += 1
            if L_trial <= bound:
                return trial
            if L_trial < L_cur:
                cur, L_cur = trial, L_trial
                moved = True
                break
            step *= 0.5
        if not moved or points >= INNER_POINT_CAP:
            break

    if L_cauchy <= bound:
        return cauchy_vec
    raise NoCandidate("no point passed the decrease test in the current box")


def solve_dap(net, cfg=None, d0=None, sink=None):
    """Adjust demands to observations subject to user equilibrium.

    Parameters
    ----------
    net : Network with observations and target demands
    cfg : IRConfig, defaults used when omitted
    d0 : starting demands, defaults to the target demands; the run starts from
         the state (d0, 0, 0, 0) with zero multipliers
    sink : optional callable fed every IterationRecord as it is produced

    Returns a DapResult whose d_final/X_final blocks come from the last
    restored point, so they satisfy the equilibrium system to restoration
    accuracy regardless of how the run ended.
    """
    cfg = cfg or IRConfig()
    S = build_structure(net)
    sl_d, sl_x, _, _ = S.slices
    d0 = net.target_demands if d0 is None else np.asarray(d0, dtype=float)
    if d0.shape != (S.n_commodities,):
        raise DimensionMismatch("expected %d initial demands, got %r"
                                % (S.n_commodities, d0.shape))
    if not np.all(np.isfinite(d0)) or np.any(d0 < 0.0):
        raise ValueError("initial demands must be finite and nonnegative")
    s = np.zeros(S.state_dim)
    s[sl_d] = d0
    mu = np.zeros(S.n_constraints)
    # the first restoration comes before any residual at s, so link times
    # that overflow stop the run as Unreachable before they reach a norm
    z = restore(net, S, d0, cfg)

    # |C(s)| and L(s, mu) at the current point; an accepted step carries over
    # the values it computed at v
    normC_s = float(np.linalg.norm(eval_C(net, S, s)))
    L_s = eval_L(net, S, s, mu)

    theta_hist = [THETA_INIT]
    delta_prev = DELTA0
    history = []
    status = STATUS_MAX_OUTER

    for k in range(cfg.max_outer):
        theta_cur = init_penalty(k, theta_hist)
        if k > 0:
            z = restore(net, S, s[sl_d], cfg)

        space = tangent_space(net, S, z)
        r_tan = cauchy_direction(net, S, mu, space)
        if check_stop(s, z, r_tan, cfg.eps1, cfg.eps2):
            status = STATUS_CONVERGED
            break

        C_z = eval_C(net, S, z)
        normC_z = float(np.linalg.norm(C_z))
        rt_norm = float(np.linalg.norm(r_tan))
        delta = max(DELTA_MIN, delta_prev)

        accepted = False
        for i in itertools.count():
            if rt_norm <= 1e-14 * (1.0 + float(np.linalg.norm(z))):
                v, mu_trial = z, mu.copy()
            else:
                v = find_candidate(net, S, mu, r_tan, space, delta)
                mu_trial = trial_multipliers(net, S, v)

            # one residual at v serves both Lagrangians, as eval_L computes them
            F_v = eval_F(net, v[sl_d], v[sl_x])
            C_v = eval_C(net, S, v)
            L_v_k = F_v + float(C_v @ mu)
            L_v = F_v + float(C_v @ mu_trial)
            normC_v = float(np.linalg.norm(C_v))
            a = L_s - L_v_k - float(C_z @ (mu_trial - mu))
            b = normC_s - normC_z
            try:
                theta_cur, pred = choose_theta(a, b, theta_cur)
                ared = (theta_cur * (L_s - L_v)
                        + (1.0 - theta_cur) * (normC_s - normC_v))
                ok = accept_step(ared, pred)
            except InfeasibleTheta:
                pred = theta_cur * a + (1.0 - theta_cur) * b
                ared = math.nan
                ok = False

            rec = IterationRecord(k=k, i=i, normC_s=normC_s, normC_z=normC_z,
                                  L_s=L_s, L_v=L_v_k, theta=theta_cur,
                                  delta=delta, pred=pred, ared=ared,
                                  accepted=ok, F_value=F_v,
                                  rtan_norm=rt_norm)
            history.append(rec)
            if sink is not None:
                sink(rec)

            if ok:
                s = v
                mu = mu_trial
                normC_s, L_s = normC_v, L_v
                theta_hist.append(theta_cur)
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
                     history=history, mu_final=mu.copy(),
                     outer_iterations=k + 1)
