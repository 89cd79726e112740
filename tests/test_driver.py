"""Outer driver: restoration, penalty logic, trust box, full adjustments."""

import json
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (TOY_TARGETS, TOY_V, TOY_X, checkout_env,
                      quadratic_toy_document, toy_document)
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
from odadjust.kkt import eval_C_jacobian, eval_L, grad_F_state, tangent_space
from odadjust.projection import REG
import odadjust.driver as driver_module

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DATA = ROOT / "tests" / "data"


@pytest.fixture
def net():
    return parse_network(json.dumps(toy_document()))


@pytest.fixture
def S(net):
    return build_structure(net)


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
    # omega_k = 0.1 * 0.5**k
    assert init_penalty(0, [0.9]) == 1.0
    assert init_penalty(1, [0.9, 0.4]) == pytest.approx(0.45)
    # history values above one are capped before the bump
    assert init_penalty(2, [2.0]) == 1.0
    assert init_penalty(3, [0.5]) == 0.5125
    assert init_penalty(4, [0.5, 0.2, 0.3]) == pytest.approx(0.20625)


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


def test_restore_propagates_budget_exhaustion():
    net = parse_network(json.dumps(quadratic_toy_document()))
    cfg = IRConfig(tap_tol=1e-30, tap_max_iter=1)
    with pytest.raises(MaxIterations):
        restore(net, build_structure(net), np.array([1.0, 2.0]), cfg)


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
    r = cauchy_direction(net, S, mu, tangent_space(net, S, z))
    assert np.abs(r).max() <= 1e-5


def test_cauchy_direction_descends_away_from_optimum(net, S):
    cfg = IRConfig()
    z = restore(net, S, np.array([1.0, 2.0]), cfg)
    mu = np.zeros(S.n_constraints)
    r = cauchy_direction(net, S, mu, tangent_space(net, S, z))
    assert np.abs(r).max() > 1e-3


def test_trial_multipliers_bounded(net, S):
    cfg = IRConfig()
    z = restore(net, S, np.array([1.0, 2.0]), cfg)
    mu = trial_multipliers(net, S, z)
    assert mu.shape == (S.n_constraints,)
    assert np.all(np.isfinite(mu))
    assert np.abs(mu).max() <= driver_module.M_BOUND


def test_trial_multipliers_stay_off_the_clip(monkeypatch):
    # the first trial point of 2x2 instance 1: J' has a singular value near
    # 1e-12 that a truncated SVD least-squares solve keeps, giving |mu| near
    # 7e9, far past M_BOUND; the regularized solve damps it
    net = parse_network((DATA / "grid2x2_1.json").read_text(encoding="utf-8"))
    S = build_structure(net)

    class FirstPoint(Exception):
        pass

    def first_point(net_, S_, v):
        raise FirstPoint(v)

    monkeypatch.setattr(driver_module, "trial_multipliers", first_point)
    with pytest.raises(FirstPoint) as caught:
        solve_dap(net, IRConfig(max_outer=1))
    v = caught.value.args[0]
    mu = trial_multipliers(net, S, v)
    assert np.abs(mu).max() < driver_module.M_BOUND

    # the optimum of |g + J' mu|^2 + REG |mu|^2, by a dense SVD
    g = grad_F_state(net, S, v)
    Jt = eval_C_jacobian(net, S, v).T.toarray()
    U, sig, Vt = np.linalg.svd(Jt, full_matrices=False)
    best = Vt.T @ (sig / (sig * sig + REG) * (U.T @ -g))
    assert (abs(np.linalg.norm(g + Jt @ mu) - np.linalg.norm(g + Jt @ best))
            <= 1e-8)


def test_find_candidate_respects_box_and_bound(net, S):
    cfg = IRConfig()
    z = restore(net, S, np.array([1.0, 2.0]), cfg)
    mu = np.zeros(S.n_constraints)
    delta = 0.5
    space = tangent_space(net, S, z)
    r_tan = cauchy_direction(net, S, mu, space)
    v = find_candidate(net, S, mu, r_tan, space, delta)
    assert np.abs(v - z).max() <= delta + 1e-10
    J = space.J.toarray()
    assert np.abs(J @ (v - z)).max() <= 1e-8
    L_z = eval_L(net, S, z, mu)
    rt2 = float(np.linalg.norm(r_tan))
    t_break = min(1.0, delta / rt2)
    L_cauchy = eval_L(net, S, z + t_break * r_tan, mu)
    bound = max(L_cauchy, L_z - driver_module.TAU1 * delta,
                L_z - driver_module.TAU2)
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


_RUN_HASH = """
import hashlib, sys
import numpy as np
from odadjust import IRConfig, parse_network, solve_dap
res = solve_dap(parse_network(open(sys.argv[1], encoding="utf-8").read()),
                IRConfig(max_outer=3))
h = hashlib.sha256()
for a in (res.d_final, res.X_final, res.mu_final):
    h.update(np.ascontiguousarray(a).tobytes())
h.update(repr([tuple(vars(r).values()) for r in res.history]).encode())
print(res.status, len(res.history), h.hexdigest())
"""


def test_solve_dap_independent_of_blas_threads():
    # three outer steps on 4x4 instance 1 give the same d, X, mu and history
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
