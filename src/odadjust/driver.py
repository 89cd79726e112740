"""Inexact restoration driver for the bilevel demand adjustment problem.

Each outer iteration k:
  1. refresh the penalty cap theta_{k,-1} from the history plus a summable bump
  2. restoration: solve the assignment for the current demand block and recover
     multipliers, giving a feasible point z^k of the lifted system
  3. stop if z^k is close to s^k and the projected Lagrangian step vanishes
  4. optimization phase: find a candidate v in the linearized set near z^k that
     matches at least the decrease of the projected-gradient (Cauchy) point
  5. trial multipliers at v by bounded minimum-norm least squares
  6. pick the largest penalty weight theta keeping the predicted reduction of
     the two-term merit at half the feasibility gain
  7. accept when the actual reduction reaches a tenth of the prediction,
     otherwise shrink the trust box and retry from step 4

States are flat vectors laid out by StructureMatrices.slices; multipliers
follow its residual_slices.
"""

import math
import numbers
from dataclasses import dataclass, field, fields, replace

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


@dataclass
class IRConfig:
    """Algorithm parameters; the defaults are the working set for small networks."""

    eta: float = 1.0            # step scale inside the projected-gradient map
    M_bound: float = 1e6        # clip bound for trial multipliers
    theta_init: float = 0.9     # theta_{-1}
    delta0: float = 1.0         # initial trust box radius
    delta_min: float = 0.1      # radius floor applied at the start of each outer step
    tau1: float = 1e-4          # radius-proportional sufficient-decrease margin
    tau2: float = 1e-4          # absolute sufficient-decrease margin
    eps1: float = 1e-5          # restoration displacement tolerance
    eps2: float = 1e-5          # projected-gradient tolerance
    omega0: float = 0.1         # penalty bump schedule omega_k = omega0 * ratio**k
    omega_ratio: float = 0.5
    shrink: float = 0.5         # trust box shrink factor on rejection
    tap_tol: float = 1e-8       # relative gap demanded from the restoration solve
    tap_max_iter: int = 50000
    max_outer: int = 200
    max_inner: int = 60         # rejected candidates tolerated per outer step
    inner_gtol: float = 1e-3    # projected-gradient stop inside find_candidate
    inner_point_cap: int = 100  # trial points allowed per optimization phase
    inner_iter_cap: int = 10    # projected-gradient iterations per phase

    def omega(self, k):
        return self.omega0 * self.omega_ratio ** k

    def __post_init__(self):
        # the annotations give the rules: every field is finite and positive,
        # int fields are also integral; theta_init and shrink stay below 1
        for f in fields(self):
            val = getattr(self, f.name)
            kind = "positive integer" if f.type is int else "finite positive number"
            if (isinstance(val, bool) or not isinstance(val, numbers.Real)
                    or not (math.isfinite(val) and val > 0)
                    or (f.type is int and val != int(val))):
                raise ValueError("%s must be a %s, got %r" % (f.name, kind, val))
            setattr(self, f.name, f.type(val))
        for name in ("theta_init", "shrink"):
            if getattr(self, name) >= 1.0:
                raise ValueError("%s must lie in (0, 1)" % name)


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


def init_penalty(k, theta_history, omega_schedule):
    """theta_{k,-1} = min(1, min over history) + omega_k, capped at 1."""
    theta_min = min(1.0, min(theta_history))
    return min(1.0, theta_min + omega_schedule(k))


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


def cauchy_direction(net, S, mu, cfg, space):
    """Projected-gradient step of the Lagrangian within the tangent set at z.

    space is tangent_space(net, S, z), possibly boxed; its Jacobian gives the
    Lagrangian gradient at z.
    """
    g = grad_F_state(net, S, space.z) + space.J.T @ mu
    return project(space, space.z - cfg.eta * g) - space.z


def check_stop(s_vec, z_vec, r_tan, eps1, eps2):
    """Joint restoration-displacement and projected-gradient test."""
    close = float(np.abs(z_vec - s_vec).max(initial=0.0)) < eps1
    flat = float(np.abs(r_tan).max(initial=0.0)) < eps2
    return close and flat


def trial_multipliers(net, S, v, M_bound):
    """argmin_mu |grad F(v) + C'(v)^T mu|, minimum norm, clipped to the bound."""
    g = grad_F_state(net, S, v)
    Jt = eval_C_jacobian(net, S, v).T
    mu = min_norm_solve(Jt, -g)
    return np.clip(mu, -M_bound, M_bound)


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


def find_candidate(net, S, mu, r_tan, cfg, space):
    """Optimization phase: a point of the boxed tangent set around space.z that
    does at least as well as the broken Cauchy point in the Lagrangian.

    Runs projected gradient on F (its projected direction is a descent
    direction for the Lagrangian on the tangent set) and returns the first
    trial whose Lagrangian passes the decrease test; the Cauchy point itself is
    the fallback and always passes.  r_tan must be nonzero.
    """
    zvec, delta = space.z, space.box_radius
    rt2 = float(np.linalg.norm(r_tan))

    def L_of(vec):
        return eval_L(net, S, vec, mu)

    t_break = min(1.0, delta / rt2)
    cauchy_vec = zvec + t_break * r_tan
    L_z = L_of(zvec)
    L_cauchy = L_of(cauchy_vec)
    bound = max(L_cauchy, L_z - cfg.tau1 * delta, L_z - cfg.tau2)

    points = 0
    cur = zvec
    L_cur = L_z
    for _ in range(cfg.inner_iter_cap):
        g_f = grad_F_state(net, S, cur)
        r_v = project(space, cur - g_f) - cur
        if float(np.linalg.norm(r_v)) < cfg.inner_gtol:
            break
        g_l = g_f + eval_C_jacobian(net, S, cur).T @ mu
        if float(r_v @ g_l) >= 0.0:
            break                      # descent property lost to roundoff
        step = 1.0
        moved = False
        while points < cfg.inner_point_cap and step >= 1e-12:
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
        if not moved or points >= cfg.inner_point_cap:
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

    theta_hist = [cfg.theta_init]
    delta_prev = cfg.delta0
    history = []
    status = STATUS_MAX_OUTER

    for k in range(cfg.max_outer):
        theta_cur = init_penalty(k, theta_hist, cfg.omega)
        z = restore(net, S, s[sl_d], cfg)

        space = tangent_space(net, S, z)
        r_tan = cauchy_direction(net, S, mu, cfg, space)
        if check_stop(s, z, r_tan, cfg.eps1, cfg.eps2):
            status = STATUS_CONVERGED
            break

        normC_s = float(np.linalg.norm(eval_C(net, S, s)))
        C_z = eval_C(net, S, z)
        normC_z = float(np.linalg.norm(C_z))
        L_s = eval_L(net, S, s, mu)
        rt_norm = float(np.linalg.norm(r_tan))
        delta = max(cfg.delta_min, delta_prev)

        accepted = False
        for i in range(cfg.max_inner):
            if rt_norm <= 1e-14 * (1.0 + float(np.linalg.norm(z))):
                v, mu_trial = z, mu.copy()
            else:
                v = find_candidate(net, S, mu, r_tan, cfg,
                                   replace(space, box_radius=delta))
                mu_trial = trial_multipliers(net, S, v, cfg.M_bound)

            # one residual at v serves both Lagrangians, as eval_L computes them
            F_v = eval_F(net, v[sl_d], v[sl_x])
            C_v = eval_C(net, S, v)
            L_v_k = F_v + float(C_v @ mu)
            a = L_s - L_v_k - float(C_z @ (mu_trial - mu))
            b = normC_s - normC_z
            try:
                theta_cur, pred = choose_theta(a, b, theta_cur)
                ared = (theta_cur * (L_s - (F_v + float(C_v @ mu_trial)))
                        + (1.0 - theta_cur) * (normC_s
                                               - float(np.linalg.norm(C_v))))
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
                theta_hist.append(theta_cur)
                delta_prev = delta
                accepted = True
                break
            delta *= cfg.shrink
            if delta < 1e-12 * cfg.delta0:
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
