"""Outer driver: restoration, penalty logic, trust box, full adjustments."""

import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import TOY_TARGETS, TOY_V, TOY_X, toy_document
from odadjust import (
    DapResult,
    IRConfig,
    IterationRecord,
    build_structure,
    eval_C,
    eval_F,
    parse_network,
    solve_dap,
)
from odadjust.driver import (
    STATUS_CONVERGED,
    STATUS_MAX_OUTER,
    STATUS_STALLED,
    accept_step,
    cauchy_direction,
    check_stop,
    choose_theta,
    find_candidate,
    init_penalty,
    restore,
    trial_multipliers,
)
from odadjust.errors import DimensionMismatch, InfeasibleTheta, MaxIterations
from odadjust.kkt import eval_L, tangent_space
import odadjust.driver as driver_module


@pytest.fixture
def net():
    return parse_network(json.dumps(toy_document()))


@pytest.fixture
def S(net):
    return build_structure(net)


# -- configuration -------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        IRConfig(theta_init=1.5)
    with pytest.raises(ValueError):
        IRConfig(shrink=1.0)
    with pytest.raises(ValueError):
        IRConfig(tau1=-1.0)
    with pytest.raises(ValueError):
        IRConfig(max_outer=0)
    cfg = IRConfig()
    assert cfg.omega(0) == 0.1
    assert cfg.omega(3) == 0.0125


def test_init_penalty_schedule():
    cfg = IRConfig()
    assert init_penalty(0, [0.9], cfg.omega) == 1.0
    assert init_penalty(1, [0.9, 0.4], cfg.omega) == pytest.approx(0.45)
    # history values above one are capped before the bump
    assert init_penalty(2, [2.0], cfg.omega) == 1.0
    assert init_penalty(4, [0.5, 0.2, 0.3], cfg.omega) == pytest.approx(0.20625)


def test_solve_dap_start_state(net, S):
    # no d0 means the target demands
    res, res_t = solve_dap(net), solve_dap(net, d0=TOY_TARGETS)
    assert_array_equal(res.d_final, res_t.d_final)
    assert res.history == res_t.history
    # the first record is taken at (d0, 0, 0, 0) with zero multipliers
    rec = solve_dap(net, IRConfig(max_outer=1), d0=[1.0, 2.0]).history[0]
    s = np.zeros(S.state_dim)
    s[S.slices[0]] = [1.0, 2.0]
    assert rec.normC_s == float(np.linalg.norm(eval_C(net, S, s)))
    assert rec.L_s == eval_F(net, [1.0, 2.0], np.zeros(8))


# -- penalty weight -------------------------------------------------------------

def test_choose_theta_keeps_previous_when_admissible():
    theta, pred = choose_theta(a=5.0, b=2.0, theta_prev=0.9)
    assert theta == 0.9
    assert pred == pytest.approx(4.7)


def test_choose_theta_moves_to_crossing():
    theta, pred = choose_theta(a=-1.0, b=2.0, theta_prev=0.9)
    assert theta == pytest.approx(1.0 / 3.0)
    assert pred == pytest.approx(1.0)          # exactly b / 2


def test_choose_theta_infeasible():
    with pytest.raises(InfeasibleTheta):
        choose_theta(a=-1.0, b=-0.5, theta_prev=0.9)


def test_accept_step_threshold():
    assert accept_step(1.0, 2.0)
    assert accept_step(0.2, 2.0)
    assert not accept_step(0.19, 2.0)
    assert accept_step(0.0, 0.0)


# -- restoration ------------------------------------------------------------------

def test_restore_reaches_feasibility(net, S):
    cfg = IRConfig()
    z = restore(net, S, TOY_TARGETS, cfg)
    assert np.abs(eval_C(net, S, z)).max() <= 1e-8
    assert_array_equal(z[S.slices[0]], TOY_TARGETS)
    assert_allclose(z[S.slices[1]], TOY_X, atol=1e-6)
    assert np.all(z[S.slices[3]] >= 0.0)


def test_restore_random_demands(net, S):
    cfg = IRConfig()
    rng = np.random.default_rng(31)
    for _ in range(5):
        d = rng.uniform(0.5, 3.0, size=2)
        z = restore(net, S, d, cfg)
        assert np.abs(eval_C(net, S, z)).max() <= 1e-6
        assert_array_equal(z[S.slices[0]], d)


def test_restore_propagates_budget_exhaustion(net, S):
    cfg = IRConfig(tap_tol=1e-30, tap_max_iter=1)
    with pytest.raises(MaxIterations):
        restore(net, S, np.array([1.0, 2.0]), cfg)


# -- inner machinery ---------------------------------------------------------------

def test_check_stop_requires_both_conditions():
    s = np.zeros(3)
    z = np.array([1e-6, 0.0, 0.0])
    small = np.full(3, 1e-6)
    large = np.full(3, 1.0)
    assert check_stop(s, z, small, 1e-5, 1e-5)
    assert not check_stop(s, z, large, 1e-5, 1e-5)
    assert not check_stop(s, z + 1.0, small, 1e-5, 1e-5)


def test_cauchy_direction_vanishes_at_optimum(net, S):
    cfg = IRConfig()
    # restoring at the demand optimum gives an equilibrium matching the
    # observations, so the projected objective gradient nearly vanishes
    z = restore(net, S, TOY_TARGETS, cfg)
    mu = np.zeros(S.n_constraints)
    r = cauchy_direction(net, S, mu, cfg, tangent_space(net, S, z))
    assert np.abs(r).max() <= 1e-5


def test_cauchy_direction_descends_away_from_optimum(net, S):
    cfg = IRConfig()
    z = restore(net, S, np.array([1.0, 2.0]), cfg)
    mu = np.zeros(S.n_constraints)
    r = cauchy_direction(net, S, mu, cfg, tangent_space(net, S, z))
    assert np.abs(r).max() > 1e-3


def test_trial_multipliers_bounded(net, S):
    cfg = IRConfig()
    z = restore(net, S, np.array([1.0, 2.0]), cfg)
    mu = trial_multipliers(net, S, z, cfg.M_bound)
    assert mu.shape == (S.n_constraints,)
    assert np.all(np.isfinite(mu))
    assert np.abs(mu).max() <= cfg.M_bound


def test_find_candidate_respects_box_and_bound(net, S):
    cfg = IRConfig()
    z = restore(net, S, np.array([1.0, 2.0]), cfg)
    mu = np.zeros(S.n_constraints)
    delta = 0.5
    space = replace(tangent_space(net, S, z), box_radius=delta)
    r_tan = cauchy_direction(net, S, mu, cfg, space)
    v = find_candidate(net, S, mu, r_tan, cfg, space)
    assert np.abs(v - z).max() <= delta + 1e-10
    J = space.J.toarray()
    assert np.abs(J @ (v - z)).max() <= 1e-8
    L_z = eval_L(net, S, z, mu)
    rt2 = float(np.linalg.norm(r_tan))
    t_break = min(1.0, delta / rt2)
    L_cauchy = eval_L(net, S, z + t_break * r_tan, mu)
    bound = max(L_cauchy, L_z - cfg.tau1 * delta, L_z - cfg.tau2)
    assert eval_L(net, S, v, mu) <= bound + 1e-12


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
    assert res.mu_final.shape == (22,)


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
    S = build_structure(net)
    z = np.zeros(S.state_dim)
    z[S.slices[0]], z[S.slices[1]] = res.d_final, res.X_final
    assert np.abs(eval_C(net, S, z)[S.residual_slices[1]]).max() <= 1e-10


def test_solve_dap_stalls_when_nothing_accepted(net, monkeypatch):
    monkeypatch.setattr(driver_module, "accept_step", lambda ared, pred: False)
    res = solve_dap(net, d0=[1.0, 2.0])
    assert res.status == STATUS_STALLED
    assert all(not rec.accepted for rec in res.history)


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
    prev = cfg.theta_init
    for rec in res.history:
        if rec.accepted:
            assert rec.theta <= min(1.0, prev) + cfg.omega(rec.k) + 1e-12
            prev = rec.theta


def test_dap_result_shape(net):
    res = solve_dap(net)
    assert isinstance(res, DapResult)
    assert res.d_final.shape == (2,)
    assert res.X_final.shape == (8,)
    assert res.F_final == pytest.approx(
        eval_F(net, res.d_final, res.X_final), rel=1e-12)
