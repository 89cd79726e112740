"""Outer driver: restoration, penalty logic, trust box, full adjustments."""

import json
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (TOY_TARGETS, TOY_V, TOY_X, checkout_env,
                      quadratic_toy_document, random_state, toy_document)
from odadjust import (
    DapResult,
    IRConfig,
    IterationRecord,
    eval_C,
    eval_F,
    parse_network,
    solve_dap,
    solve_tap,
)
from odadjust.driver import (
    STATUS_CONVERGED,
    STATUS_MAX_OUTER,
    STATUS_STALLED,
    cauchy_direction,
    check_stop,
    find_candidate,
    init_penalty,
    merit_test,
    restore,
    spectral_factor,
    trial_multipliers,
)
from odadjust.errors import DimensionMismatch, MaxIterations
from odadjust.kkt import equilibrium_sensitivity, eval_C_jacobian, grad_F_state
from odadjust.projection import REG, min_norm_solve
import odadjust.driver as driver_module

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DATA = ROOT / "tests" / "data"


@pytest.fixture
def net():
    return parse_network(json.dumps(toy_document()))


def _piece(net, d, cfg=None):
    """The restored point at demands d and its sensitivity Z = dz/dd."""
    z, paths = restore(net, np.asarray(d, dtype=float), cfg or IRConfig())
    return z, equilibrium_sensitivity(net, z, paths)


# -- configuration -------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        IRConfig(eps1=-1.0)
    with pytest.raises(ValueError):
        IRConfig(max_outer=0)


def test_readme_lists_the_config_fields():
    # each setting appears in the README's "Solver settings" section as
    # `name` (default); the list must match IRConfig, names and defaults
    text = README.read_text(encoding="utf-8")
    section = text.split("## Solver settings\n", 1)[1].split("\n## ", 1)[0]
    listed = {name: float(default) for name, default
              in re.findall(r"`(\w+)` \(([^)]+)\)", section)}
    assert listed == {f.name: f.default for f in fields(IRConfig)}


def test_init_penalty_schedule():
    # omega_k = 0.1 * 0.5**k, added to the smallest theta so far
    assert init_penalty(0, 0.9) == 1.0
    assert init_penalty(1, min(0.9, 0.4)) == pytest.approx(0.45)
    # a smallest theta above one is capped before the bump
    assert init_penalty(2, 2.0) == 1.0
    assert init_penalty(3, 0.5) == 0.5125
    assert init_penalty(4, min(0.5, 0.2, 0.3)) == pytest.approx(0.20625)


def test_solve_dap_start_state(net):
    # no d0 means the target demands
    res, res_t = solve_dap(net), solve_dap(net, d0=TOY_TARGETS)
    assert_array_equal(res.d_final, res_t.d_final)
    assert res.history == res_t.history
    # the first record is taken at (d0, 0, 0, 0); L_s reads F there
    rec = solve_dap(net, IRConfig(max_outer=1), d0=[1.0, 2.0]).history[0]
    s = np.zeros(net.state_dim)
    s[net.slices[0]] = [1.0, 2.0]
    assert rec.normC_s == float(np.linalg.norm(eval_C(net, s)))
    assert rec.L_s == eval_F(net, [1.0, 2.0], np.zeros(8))


# -- penalty weight -------------------------------------------------------------

def test_merit_test_keeps_theta_when_admissible():
    theta, pred, ared, ok = merit_test(a=5.0, b=2.0, b_v=2.0, theta_prev=0.9)
    assert theta == 0.9
    assert pred == pytest.approx(4.7)
    assert ared == pred and ok


def test_merit_test_moves_theta_to_crossing():
    theta, pred, ared, ok = merit_test(a=-1.0, b=2.0, b_v=2.0, theta_prev=0.9)
    assert theta == pytest.approx(1.0 / 3.0)
    assert pred == pytest.approx(1.0)          # exactly b / 2
    assert ared == pred and ok


def test_merit_test_without_admissible_theta_rejects():
    # b < 0: every theta falls short of b/2; theta and Pred(theta_prev) stay
    theta, pred, ared, ok = merit_test(a=-1.0, b=-0.5, b_v=-0.5, theta_prev=0.9)
    assert theta == 0.9
    assert pred == 0.9 * -1.0 + (1.0 - 0.9) * -0.5
    assert np.isnan(ared) and ok is False


@pytest.mark.parametrize("b, b_v, accepted", [
    (2.0, 1.0, True), (2.0, 0.2, True), (2.0, 0.19, False), (0.0, 0.0, True)])
def test_merit_test_acceptance_threshold(b, b_v, accepted):
    # at theta = 0, pred is b and ared is b_v: accepted when ared >= pred / 10
    theta, pred, ared, ok = merit_test(a=0.0, b=b, b_v=b_v, theta_prev=0.0)
    assert (theta, pred, ared) == (0.0, b, b_v)
    assert ok is accepted


# -- restoration ------------------------------------------------------------------

def test_restore_reaches_feasibility(net):
    cfg = IRConfig()
    z, _ = restore(net, TOY_TARGETS, cfg)
    assert np.abs(eval_C(net, z)).max() <= 1e-8
    assert_array_equal(z[net.slices[0]], TOY_TARGETS)
    assert_allclose(z[net.slices[1]], TOY_X, atol=1e-6)
    assert np.all(z[net.slices[3]] >= 0.0)


def test_restore_random_demands(net):
    cfg = IRConfig()
    rng = np.random.default_rng(31)
    for _ in range(5):
        d = rng.uniform(0.5, 3.0, size=2)
        z, _ = restore(net, d, cfg)
        assert np.abs(eval_C(net, z)).max() <= 1e-6
        assert_array_equal(z[net.slices[0]], d)


def test_restore_propagates_budget_exhaustion():
    net = parse_network(json.dumps(quadratic_toy_document()))
    cfg = IRConfig(tap_tol=1e-30, tap_max_iter=1)
    with pytest.raises(MaxIterations):
        restore(net, np.array([1.0, 2.0]), cfg)


# -- inner machinery ---------------------------------------------------------------

def test_check_stop_requires_both_conditions():
    s = np.zeros(3)
    z = np.array([1e-6, 0.0, 0.0])
    small = np.full(3, 1e-6)
    large = np.full(3, 1.0)
    assert check_stop(s, z, small, 1e-5, 1e-5)
    assert not check_stop(s, z, large, 1e-5, 1e-5)
    assert not check_stop(s, z + 1.0, small, 1e-5, 1e-5)


def test_cauchy_direction_vanishes_at_optimum(net):
    # restoring at the demand optimum gives an equilibrium matching the
    # observations, so the reduced gradient and its projected step vanish
    z, Z = _piece(net, TOY_TARGETS)
    r, g_d = cauchy_direction(net, z, Z)
    assert r.shape == g_d.shape == (net.n_commodities,)
    assert np.abs(r).max() <= 1e-5
    assert np.abs(g_d).max() <= 1e-5


def test_cauchy_direction_descends_away_from_optimum(net):
    z, Z = _piece(net, [1.0, 2.0])
    r, g_d = cauchy_direction(net, z, Z)
    assert_array_equal(g_d, Z.T @ grad_F_state(net, z))
    assert_array_equal(r, np.maximum(z[net.slices[0]] - g_d, 0.0) - z[net.slices[0]])
    assert np.abs(r).max() > 1e-3
    assert float(r @ g_d) < 0.0


def test_trial_multipliers_bounded(net):
    cfg = IRConfig()
    z, _ = restore(net, np.array([1.0, 2.0]), cfg)
    mu = trial_multipliers(net, z)
    assert mu.shape == (net.n_constraints,)
    assert np.all(np.isfinite(mu))
    assert np.abs(mu).max() <= driver_module.M_BOUND


def test_trial_multipliers_stay_off_the_clip(monkeypatch):
    # the first trial point of 2x2 instance 1: J' has a singular value near
    # 1e-12 that a truncated SVD least-squares solve keeps, giving |mu| near
    # 7e9, far past M_BOUND; the regularized solve damps it
    net = parse_network((DATA / "grid2x2_1.json").read_text(encoding="utf-8"))

    class FirstPoint(Exception):
        pass

    def first_point(*args):
        raise FirstPoint(find_candidate(*args)[0])

    monkeypatch.setattr(driver_module, "find_candidate", first_point)
    with pytest.raises(FirstPoint) as caught:
        solve_dap(net, IRConfig(max_outer=1))
    v = caught.value.args[0]
    mu = trial_multipliers(net, v)
    assert np.abs(mu).max() < driver_module.M_BOUND

    # the optimum of |g + J' mu|^2 + REG |mu|^2, by a dense SVD
    g = grad_F_state(net, v)
    Jt = eval_C_jacobian(net, v).T.toarray()
    U, sig, Vt = np.linalg.svd(Jt, full_matrices=False)
    best = Vt.T @ (sig / (sig * sig + REG) * (U.T @ -g))
    assert (abs(np.linalg.norm(g + Jt @ mu) - np.linalg.norm(g + Jt @ best))
            <= 1e-8)


def test_trial_multipliers_match_the_dense_solve(net):
    # trial_multipliers reads C'(v)' from J's CSR arrays, stored zeros
    # included; min_norm_solve drops those zeros, so its K is the one a dense
    # C'(v)' gives and the two agree bit for bit
    grid = parse_network((DATA / "grid2x2_1.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng(11)
    for net_ in (net, grid):
        points = [restore(net_, net_.target_demands * f, IRConfig())[0]
                  for f in (1.0, 0.6)]
        points += [random_state(rng, net_) for _ in range(3)]
        for v in points:
            g = grad_F_state(net_, v)
            dense = min_norm_solve(eval_C_jacobian(net_, v).toarray().T, -g)
            expected = np.clip(dense, -driver_module.M_BOUND, driver_module.M_BOUND)
            assert_array_equal(trial_multipliers(net_, v).view(np.int64),
                               expected.view(np.int64))


def test_find_candidate_respects_box_and_bound(net):
    z, Z = _piece(net, [1.0, 2.0])
    for sigma in (1.0, 1e-3, 10.0, 1e3):
        _check_candidate(net, z, Z, 0.5, sigma)


def _F(net, vec):
    return eval_F(net, vec[net.slices[0]], vec[net.slices[1]])


def _check_candidate(net, z, Z, delta, sigma):
    sl_d = net.slices[0]
    r_tan, g_d = cauchy_direction(net, z, Z)
    F_z = _F(net, z)
    v, F_v, normC_v = find_candidate(net, z, Z, r_tan, delta, (F_z, g_d), sigma)
    assert F_v == _F(net, v)
    assert normC_v == np.linalg.norm(eval_C(net, v))
    # v is the lift of its demand step onto z's piece, in the box and d >= 0
    dd = v[sl_d] - z[sl_d]
    assert np.abs(dd).max() <= delta + 1e-12
    assert v[sl_d].min() >= 0.0
    assert_allclose(v, np.maximum(z + Z @ dd, net.lower), rtol=0.0, atol=1e-12)
    # the broken Cauchy point: t halves from t_break until L falls by at
    # least CAUCHY_ARMIJO t g_d'r_tan
    t = min(1.0, delta / np.abs(r_tan).max())
    while True:
        F_cauchy = _F(net, np.maximum(z + Z @ (t * r_tan), net.lower))
        if F_cauchy <= F_z + driver_module.CAUCHY_ARMIJO * t * float(g_d @ r_tan):
            break
        t *= 0.5
    bound = max(F_cauchy, F_z - driver_module.TAU1 * delta,
                F_z - driver_module.TAU2)
    assert F_v <= bound + 1e-12
    assert F_v < F_z
    # the linearized residual vanishes along the piece, so C(v) is of
    # second order in the step
    assert normC_v <= 10.0 * np.abs(dd).max() ** 2


def test_find_candidate_backtracks_the_cauchy_step():
    # at the prior of 2x2 instance 1 the unit Cauchy step overshoots: its
    # lifted point has L near 2.4 against 0.59 at z, and the spectral trial
    # at sigma = 1 is no better; the broken Cauchy point backtracks to a
    # decrease, and the candidate must match it
    net = parse_network((DATA / "grid2x2_1.json").read_text(encoding="utf-8"))
    z, Z = _piece(net, net.target_demands)
    r_tan, _ = cauchy_direction(net, z, Z)
    unit = np.maximum(z + Z @ (r_tan / np.abs(r_tan).max()), net.lower)
    assert _F(net, unit) > 2.0 * _F(net, z)
    _check_candidate(net, z, Z, 1.0, 1.0)


def test_spectral_factor_ratio_and_clips():
    s = np.array([1.0, 2.0])
    assert spectral_factor(s, 0.5 * s) == 2.0                # s's / s'y = 5 / 2.5
    assert spectral_factor(s, np.array([3.0, 1.0])) == 1.0   # 5 / 5
    assert spectral_factor(s, 1e6 * s) == driver_module.SIGMA_MIN
    assert spectral_factor(s, 1e-6 * s) == driver_module.SIGMA_MAX


def test_spectral_factor_is_one_without_curvature():
    s = np.array([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # s'y <= 0
        for y in (-s, np.array([2.0, -1.0]), np.zeros(2)):
            assert spectral_factor(s, y) == 1.0
        assert spectral_factor(np.zeros(2), s) == 1.0
        # the ratio is not finite: s's overflows, or an entry is nan
        assert spectral_factor(np.full(2, 1e200), np.ones(2)) == 1.0
        assert spectral_factor(s, np.array([np.nan, 1.0])) == 1.0
        assert spectral_factor(np.array([np.inf, 1.0]), s) == 1.0


def test_outer_steps_scale_by_the_spectral_factor(net, monkeypatch):
    # the first outer step takes the unit factor; step k >= 1 takes the
    # factor of the step between the demands of the restored points z_{k-1}
    # and z_k and of their reduced gradients, as cauchy_direction returned
    # them
    restored, sigmas = [], []

    def cauchy(net_, z, Z):
        out = cauchy_direction(net_, z, Z)
        restored.append((z[net_.slices[0]].copy(), out[1]))
        return out

    def candidate(*args):
        sigmas.append((len(restored) - 1, args[6]))
        return find_candidate(*args)

    monkeypatch.setattr(driver_module, "cauchy_direction", cauchy)
    monkeypatch.setattr(driver_module, "find_candidate", candidate)
    res = solve_dap(net, d0=[1.0, 2.0])
    assert res.status == STATUS_CONVERGED
    expected = [1.0] + [spectral_factor(d1 - d0, g1 - g0) for (d0, g0), (d1, g1)
                        in zip(restored, restored[1:])]
    assert sigmas[0] == (0, 1.0)
    assert [sigma for _, sigma in sigmas] == [expected[k] for k, _ in sigmas]
    assert any(sigma != 1.0 for _, sigma in sigmas)


def test_outer_step_evaluates_each_point_once(net, monkeypatch):
    # an outer step whose first trial is accepted evaluates the residual
    # once at the start s, at the restored point z and at the accepted v,
    # and the gradient of F once at z, for the reduced gradient.  It
    # evaluates no J: eval_C_jacobian is where J is evaluated
    from odadjust import kkt
    jacobians, grads, residuals, found = [], [], [], []

    def spy(fn, seen):
        def wrapped(net, s, *args):
            seen.append(s.copy())
            return fn(net, s, *args)
        return wrapped

    for mod in (kkt, driver_module):
        monkeypatch.setattr(mod, "eval_C_jacobian", spy(eval_C_jacobian, jacobians))
        monkeypatch.setattr(mod, "grad_F_state", spy(grad_F_state, grads))
    monkeypatch.setattr(driver_module, "eval_C", spy(eval_C, residuals))
    monkeypatch.setattr(driver_module, "find_candidate",
                        lambda *args: found.append(find_candidate(*args)) or found[-1])
    res = solve_dap(net, IRConfig(max_outer=1), d0=[1.0, 2.0])
    assert [(rec.i, rec.accepted) for rec in res.history] == [(0, True)]
    v = found[0][0]
    assert not jacobians and len(grads) == 1 and len(residuals) == 3
    s0, z = residuals[0], grads[0]
    assert_array_equal(s0[net.slices[0]], [1.0, 2.0])
    assert not s0[net.slices[1]].any()
    assert_array_equal(z[net.slices[0]], res.d_final)
    assert_array_equal(z[net.slices[1]], res.X_final)
    assert_array_equal(residuals[1], z)
    assert_array_equal(residuals[2], v)
    assert not np.array_equal(v, z)


# -- full runs ----------------------------------------------------------------------

def test_solve_dap_from_targets(net):
    res = solve_dap(net)
    assert res.status == STATUS_CONVERGED
    assert res.F_final <= 1e-8
    assert np.abs(res.d_final - TOY_TARGETS).max() <= 1e-3
    assert_allclose(res.X_final.reshape(2, 4).sum(axis=0), TOY_V, atol=1e-4)


def test_solve_dap_adjusts_perturbed_start(net):
    res = solve_dap(net, d0=[1.0, 2.0])
    assert res.status == STATUS_CONVERGED
    assert res.F_final <= 0.01
    assert np.abs(res.d_final - TOY_TARGETS).max() <= 0.05
    assert res.outer_iterations <= 60


@pytest.mark.parametrize("name, max_steps, F_ref", [
    ("grid2x2_1.json", 20, None),        # 41 steps in the lifted space
    ("grid2x2_4.json", 20, 0.847134),    # max_outer at 1.122612 in the lifted space
    ("grid3x3_0.json", 20, 0.787177),    # 83 steps in the lifted space
    ("grid4x4_0.json", 20, 0.308594),    # a kink at F*; stalled there in 17 steps
                                         # with cold restorations and no restricted pass
    ("grid4x4_1.json", 20, None),        # 39 steps in the lifted space
    ("grid5x5_0.json", 30, 1.981860),    # SolverStalled in the lifted space
    ("grid6x6_2.json", 20, None),        # 15 steps; 24 s with a sparse LU per
                                         # attempt for trial multipliers
])
def test_solve_dap_converges_on_grids(name, max_steps, F_ref):
    # default settings; F_ref is the reference F*, a local minimum of
    # F(d, v_eq(d)) over d >= 0, given to 6 decimals
    res = solve_dap(parse_network((DATA / name).read_text(encoding="utf-8")))
    assert res.status == STATUS_CONVERGED
    assert res.outer_iterations <= max_steps
    if F_ref is not None:
        assert abs(res.F_final - F_ref) <= 1e-5 * F_ref


@pytest.mark.parametrize("name, F_ref", [("grid3x3_0.json", 0.787177),
                                         ("grid4x4_0.json", 0.308594)])
def test_solve_dap_independent_of_cost_units(name, F_ref):
    # every cost times kappa leaves the equilibria and F* as they were; the
    # restoration's certificate is relative, so at kappa = 100 the first
    # restoration is not refused, and the run converges at F*
    doc = json.loads((DATA / name).read_text(encoding="utf-8"))
    for kappa in (1e-6, 100.0, 1e4):
        scaled = json.loads(json.dumps(doc))
        for link in scaled["links"]:
            link["coeffs"] = [kappa * c for c in link["coeffs"]]
        res = solve_dap(parse_network(json.dumps(scaled)))
        assert res.status == STATUS_CONVERGED
        assert abs(res.F_final - F_ref) <= 1e-5 * F_ref


def test_restoration_tightens_until_closer_than_the_last_point(monkeypatch):
    # each outer step k >= 1 restores again, with the assignment tolerance
    # RESTORE_TIGHTEN times smaller each time, while |C(z)| > RESTORE_RATIO
    # |C(s)|, at most RESTORE_TIGHTENINGS times; s is the point accepted in
    # step k - 1, the last candidate found before the restoration
    net = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    cfg = IRConfig()
    found, steps = [], []

    def candidate(*args):
        found.append(find_candidate(*args))
        return found[-1]

    def spy(net_, d, cfg_, start=None):
        z, paths = restore(net_, d, cfg_, start)
        if found:
            if cfg_.tap_tol == cfg.tap_tol:
                steps.append((np.linalg.norm(eval_C(net_, found[-1][0])), []))
            steps[-1][1].append((cfg_.tap_tol, np.linalg.norm(eval_C(net_, z))))
        return z, paths

    monkeypatch.setattr(driver_module, "find_candidate", candidate)
    monkeypatch.setattr(driver_module, "restore", spy)
    res = solve_dap(net, cfg)
    assert res.status == STATUS_CONVERGED
    assert len(steps) == res.outer_iterations - 1
    ratio, tighten = driver_module.RESTORE_RATIO, driver_module.RESTORE_TIGHTEN
    cap = driver_module.RESTORE_TIGHTENINGS
    tightened = 0
    for normC_s, tries in steps:
        assert [tol for tol, _ in tries] == [cfg.tap_tol * tighten ** j
                                             for j in range(len(tries))]
        assert len(tries) <= cap + 1
        # every restoration but the accepted last one missed the condition
        assert all(normC > ratio * normC_s for _, normC in tries[:-1])
        assert tries[-1][1] <= ratio * normC_s or len(tries) == cap + 1
        tightened += len(tries) > 1
    assert tightened > 0


def test_restoration_keeps_its_point_when_a_tightening_fails(monkeypatch):
    # an assignment that cannot reach a tightened tolerance raises
    # MaxIterations; the outer step goes on from the last restored point
    net = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    cfg = IRConfig(max_outer=12)
    failed = []

    def spy(net_, d, cfg_, start=None):
        if cfg_.tap_tol < cfg.tap_tol:
            failed.append(cfg_.tap_tol)
            raise MaxIterations("tightened tolerance out of reach")
        return restore(net_, d, cfg_, start)

    monkeypatch.setattr(driver_module, "restore", spy)
    res = solve_dap(net, cfg)
    assert failed and set(failed) == {cfg.tap_tol * driver_module.RESTORE_TIGHTEN}
    assert res.outer_iterations > len(failed)
    assert res.F_final <= 0.787177 * (1.0 + 1e-3)


def test_restorations_start_from_the_last_path_flows(monkeypatch):
    # every outer step, k = 0 included, restores by one _restore_closer
    # call: cold at k = 0, then from the path flows the step before
    # returned.  Every assignment but the first, tightened ones included,
    # starts from the path flows of the one before it
    net = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    restore_closer = driver_module._restore_closer
    steps, assignments = [], []

    def closer(net_, d, cfg_, paths, normC_s):
        out = restore_closer(net_, d, cfg_, paths, normC_s)
        steps.append((paths, out[2]))
        return out

    def tap(*args, start=None, **kwargs):
        sol = solve_tap(*args, start=start, **kwargs)
        assignments.append((start, sol.paths))
        return sol

    monkeypatch.setattr(driver_module, "_restore_closer", closer)
    monkeypatch.setattr(driver_module, "solve_tap", tap)
    res = solve_dap(net)
    assert res.status == STATUS_CONVERGED
    assert len(steps) == res.outer_iterations >= 2
    assert steps[0][0] is None
    assert all(start is paths for (start, _), (_, paths) in zip(steps[1:], steps))
    assert len(assignments) > len(steps)
    assert assignments[0][0] is None
    assert all(start is paths for (start, _), (_, paths)
               in zip(assignments[1:], assignments))


def test_solve_dap_rejects_infeasible_start(net):
    for d0 in ([-1.0, 2.0], [np.nan, 2.0]):
        with pytest.raises(ValueError):
            solve_dap(net, d0=d0)
    with pytest.raises(DimensionMismatch):
        solve_dap(net, d0=[1.0, 2.0, 3.0])


def test_solve_dap_outer_budget(net):
    cfg = IRConfig(max_outer=1)
    res = solve_dap(net, cfg, d0=[1.0, 2.0])
    assert res.status == STATUS_MAX_OUTER
    assert res.outer_iterations == 1
    # the returned blocks still come from a restored point
    z = np.zeros(net.state_dim)
    z[net.slices[0]], z[net.slices[1]] = res.d_final, res.X_final
    assert np.abs(eval_C(net, z)[net.residual_slices[1]]).max() <= 1e-10


def test_solve_dap_stalls_when_nothing_accepted(net, monkeypatch):
    monkeypatch.setattr(driver_module, "merit_test",
                        lambda *args: merit_test(*args)[:3] + (False,))
    res = solve_dap(net, IRConfig(max_outer=3), d0=[1, 2])
    assert res.status == STATUS_STALLED
    assert all(not rec.accepted for rec in res.history)
    # the first radius is 1 and every rejection halves it, so the outer step
    # ends after 40 attempts, once the radius drops below 1e-12
    assert res.outer_iterations == 1
    assert len(res.history) == 40
    assert [rec.i for rec in res.history] == list(range(40))
    assert res.history[0].delta == 1.0
    assert res.history[-1].delta == 2.0 ** -39


def test_attempt_without_admissible_theta_fails(net, monkeypatch):
    # every restored point has beta shifted by 10, so it is farther from
    # feasibility than s = (d0, 0, 0, 0): b = |C(s)| - |C(z)| < 0, and at
    # d0 = 10 x the targets F rises by more than |b| / 2 on the way to the
    # equilibrium, so no theta reaches Pred(theta) >= b / 2.  Each attempt is
    # logged with ared NaN, rejected with theta unchanged, and the trust
    # radius halves, until the outer step stalls
    def far(net_, d, cfg_, start=None):
        z, paths = restore(net_, d, cfg_, start)
        z[net_.slices[3]] += 10.0
        return z, paths

    monkeypatch.setattr(driver_module, "restore", far)
    res = solve_dap(net, IRConfig(max_outer=3), d0=10.0 * TOY_TARGETS)
    assert res.status == STATUS_STALLED and res.outer_iterations == 1
    assert len(res.history) == 40
    theta = min(1.0, driver_module.THETA_INIT + driver_module.OMEGA0)   # theta_{0,-1}
    for i, rec in enumerate(res.history):
        a, b = rec.L_s - rec.L_v, rec.normC_s - rec.normC_z
        assert b < 0.0
        assert np.isnan(rec.ared) and rec.accepted is False
        assert rec.theta == theta
        assert rec.pred == theta * a + (1.0 - theta) * b
        assert rec.delta == driver_module.DELTA0 * driver_module.SHRINK ** i


_RUN_HASH = """
import hashlib, sys
import numpy as np
from odadjust import IRConfig, parse_network, solve_dap
res = solve_dap(parse_network(open(sys.argv[1], encoding="utf-8").read()),
                IRConfig(max_outer=3))
h = hashlib.sha256()
for a in (res.d_final, res.X_final):
    h.update(np.ascontiguousarray(a).tobytes())
h.update(repr([tuple(vars(r).values()) for r in res.history]).encode())
print(res.status, len(res.history), h.hexdigest())
"""


def test_solve_dap_independent_of_blas_threads():
    # three outer steps on 4x4 instance 1 give the same d, X and history
    # with one BLAS thread and with two
    outputs = []
    for threads in ("1", "2"):
        env = checkout_env(OPENBLAS_NUM_THREADS=threads,
                           OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _RUN_HASH,
                               str(DATA / "grid4x4_1.json")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].startswith("max_outer ")
    assert outputs[0] == outputs[1]


def test_solve_dap_history_bookkeeping(net):
    records = []
    res = solve_dap(net, d0=[1.0, 2.0],
                    sink=records.append)
    assert res.status == STATUS_CONVERGED
    assert records == res.history
    assert all(isinstance(rec, IterationRecord) for rec in records)
    ks = [rec.k for rec in records]
    assert ks == sorted(ks)
    for rec in records:
        if rec.accepted:
            assert rec.ared >= 0.1 * rec.pred - 1e-12
            assert rec.pred >= 0.5 * (rec.normC_s - rec.normC_z) - 1e-12
        assert 0.0 <= rec.theta <= 1.0
        assert rec.delta > 0.0
    # each outer step accepts at most once, as its last record
    for k in set(ks):
        flags = [rec.accepted for rec in records if rec.k == k]
        assert sum(flags) <= 1
        if sum(flags):
            assert flags[-1]


def test_solve_dap_penalty_sequence_monotone_with_bump(net):
    cfg = IRConfig()
    res = solve_dap(net, cfg, d0=[1.8, 2.0])
    assert res.status == STATUS_CONVERGED
    prev = driver_module.THETA_INIT
    for rec in res.history:
        if rec.accepted:
            omega = driver_module.OMEGA0 * driver_module.OMEGA_RATIO ** rec.k
            assert rec.theta <= min(1.0, prev) + omega + 1e-12
            prev = rec.theta


def test_dap_result_shape(net):
    res = solve_dap(net)
    assert isinstance(res, DapResult)
    assert res.d_final.shape == (2,)
    assert res.X_final.shape == (8,)
    assert res.F_final == pytest.approx(
        eval_F(net, res.d_final, res.X_final), rel=1e-12)
