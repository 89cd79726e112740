"""Active-set projection onto {J(w-z)=0, w >= lower, |w-z|_inf <= box}."""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from conftest import random_tangent_instance
from scipy.optimize import lsq_linear

from odadjust import (IRConfig, build_structure, parse_network, solve_dap,
                      tangent_space)
from odadjust.driver import restore
from odadjust.errors import DimensionMismatch
from odadjust.kkt import eval_C_jacobian, grad_F_state
from odadjust.oracles import oracle_project
from odadjust.projection import TangentSpace, min_norm_solve, project

DATA = Path(__file__).resolve().parent / "data"


def _feasibility(T, w):
    """Worst violation of the three constraint families at w."""
    res = 0.0
    if T.J.shape[0]:
        J = T.J.toarray() if hasattr(T.J, "toarray") else np.asarray(T.J)
        res = np.abs(J @ (w - T.z)).max(initial=0.0)
    finite = np.isfinite(T.lower)
    if finite.any():
        res = max(res, float((T.lower[finite] - w[finite]).max(initial=0.0)))
    if T.box_radius is not None:
        res = max(res, float(np.abs(w - T.z).max() - T.box_radius))
    return res


def test_min_norm_solve_underdetermined():
    x = min_norm_solve(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert_allclose(x, [1.0, 1.0], rtol=1e-12)
    with pytest.raises(DimensionMismatch):
        min_norm_solve(np.eye(3), np.zeros(2))


def test_min_norm_solve_rank_deficient():
    # the first two columns are equal, so A has rank 2 and A x = r has many
    # least-squares solutions; REG and roundoff leave at most a small part of
    # x along the null direction (1, -1, 0)
    A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 0.0, 3.0],
                  [1.0, 1.0, 1.0]])
    for r in (A @ np.array([1.0, 3.0, -1.0]), np.array([1.0, -2.0, 0.5, 4.0])):
        best = np.linalg.pinv(A) @ r
        for form in (A, sp.csr_matrix(A)):
            x = min_norm_solve(form, r)
            assert (abs(np.linalg.norm(A @ x - r) - np.linalg.norm(A @ best - r))
                    <= 1e-12 * (1.0 + np.linalg.norm(r)))
            assert np.linalg.norm(x - best) <= 1e-2 * np.linalg.norm(best)


def test_tangent_space_validation():
    with pytest.raises(DimensionMismatch):
        TangentSpace(z=np.zeros(3), J=np.zeros((1, 3)), lower=np.zeros(2))
    with pytest.raises(DimensionMismatch):
        TangentSpace(z=np.zeros(3), J=np.zeros((1, 2)), lower=np.zeros(3))


def test_project_bounds_only():
    T = TangentSpace(z=np.zeros(3), J=np.zeros((0, 3)), lower=np.zeros(3))
    assert_allclose(project(T, np.array([1.0, -2.0, 0.5])), [1.0, 0.0, 0.5])


def test_project_box_only():
    T = TangentSpace(z=np.zeros(2), J=np.zeros((0, 2)),
                     lower=np.full(2, -np.inf), box_radius=1.0)
    assert_allclose(project(T, np.array([3.0, -0.2])), [1.0, -0.2])


def test_project_onto_hyperplane():
    T = TangentSpace(z=np.zeros(2), J=np.array([[1.0, 1.0]]),
                     lower=np.full(2, -np.inf))
    assert_allclose(project(T, np.array([1.0, 0.0])), [0.5, -0.5], atol=1e-12)


def test_project_hyperplane_with_bounds():
    # x + y = 0 with x, y >= 0 leaves only the origin
    T = TangentSpace(z=np.zeros(2), J=np.array([[1.0, 1.0]]),
                     lower=np.zeros(2))
    assert_allclose(project(T, np.array([1.0, 0.0])), [0.0, 0.0], atol=1e-12)


def test_project_rank_deficient_rows():
    # duplicated constraint row must not confuse the multiplier logic
    T = TangentSpace(z=np.zeros(2), J=np.array([[1.0, 0.0], [1.0, 0.0]]),
                     lower=np.array([0.0, -np.inf]))
    assert_allclose(project(T, np.array([-1.0, 2.0])), [0.0, 2.0], atol=1e-12)


def test_project_idempotent_and_feasible():
    rng = np.random.default_rng(101)
    for _ in range(25):
        T, b = random_tangent_instance(rng)
        w = project(T, b)
        assert _feasibility(T, w) <= 1e-8
        w2 = project(T, w)
        assert np.abs(w2 - w).max() <= 1e-9


def test_project_nonexpansive():
    rng = np.random.default_rng(202)
    for _ in range(25):
        T, b1 = random_tangent_instance(rng)
        b2 = b1 + rng.normal(size=b1.size)
        w1, w2 = project(T, b1), project(T, b2)
        assert np.linalg.norm(w1 - w2) <= np.linalg.norm(b1 - b2) + 1e-10


def test_project_returns_feasible_z_for_far_point():
    # pulling far along the infeasible cone must still land on the set
    T = TangentSpace(z=np.ones(4), J=np.array([[1.0, -1.0, 0.0, 0.0]]),
                     lower=np.zeros(4), box_radius=2.0)
    w = project(T, np.array([100.0, -100.0, 0.0, 0.0]))
    assert _feasibility(T, w) <= 1e-8
    # first two coordinates must stay equal under the equality row
    assert abs((w[0] - 1.0) - (w[1] - 1.0)) <= 1e-10


def test_boxing_reuses_factorization():
    rng = np.random.default_rng(303)
    T, _ = random_tangent_instance(rng)
    boxed = replace(T, box_radius=0.5)
    assert boxed.lu is T.lu and boxed.free is T.free
    assert boxed.box_radius == 0.5 and T.box_radius != 0.5


class _SpyLU:
    """Forwards to a factorization and records the unit right-hand sides."""

    def __init__(self, lu):
        self.lu, self.shape, self.units = lu, lu.shape, []

    def solve(self, r):
        hit = np.flatnonzero(r)
        if hit.size == 1 and r[hit[0]] == 1.0:
            self.units.append(int(hit[0]))
        return self.lu.solve(r)


def test_pinned_coordinate_never_enters_working_set():
    # J pins w0 = z0, whose lower bound sits at z0 while b pulls it down;
    # coordinate 3 also starts on its bound and does block
    z = np.array([0.0, 1.0, 2.0, 0.5])
    J = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
    lower = np.array([0.0, 0.0, -np.inf, 0.5])
    T = TangentSpace(z=z, J=J, lower=lower)
    assert 0 not in T.free
    spy = _SpyLU(T.lu)
    b = np.array([-3.0, -1.0, 4.0, 0.0])
    w = project(replace(T, lu=spy), b)
    # a bound enters the working set through one solve with its unit vector
    entered = set(T.free[spy.units].tolist())
    assert 3 in entered and 0 not in entered
    assert_allclose(w, oracle_project(z, J, lower, None, b), atol=1e-7)
    assert w[0] == z[0]


def test_near_null_singular_value_is_null():
    # sigma_3 = 1e-13 sigma_max: within roundoff of zero, so the direction is free
    rng = np.random.default_rng(404)
    n = 6
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    J = U @ np.diag([2.0, 1.0, 2e-13]) @ V[:, :3].T
    z = rng.normal(size=n)
    lower = np.full(n, -np.inf)
    lower[:3] = z[:3]
    T = TangentSpace(z=z, J=J, lower=lower)
    for box in (None, 0.7):
        b = z + 3.0 * rng.normal(size=n)
        w = project(replace(T, box_radius=box), b)
        assert_allclose(w, oracle_project(z, J, lower, box, b), atol=1e-7)


def _certify(T, b, w):
    """Check, without SLSQP, that w is the projection of b onto T's set.

    w must be feasible, and b - w = J' lam - sum nu_i e_i over the lower
    bounds active at w + sum nu_i e_i over the box's upper bounds active at w,
    with lam free and nu >= 0, solved by bvls.  Feasibility, activity and the
    residual share one tolerance, 1e-8 (1 + |b - w|_inf).
    """
    tol = 1e-8 * (1.0 + np.abs(b - w).max())
    J = T.J.toarray() if hasattr(T.J, "toarray") else np.asarray(T.J, dtype=float)
    lower, upper = T.lower, np.full(w.size, np.inf)
    if T.box_radius is not None:
        lower = np.maximum(lower, T.z - T.box_radius)
        upper = T.z + T.box_radius
    assert np.abs(J @ (w - T.z)).max(initial=0.0) <= tol
    assert np.all(w >= lower) and np.all(w <= upper)
    low, up = np.flatnonzero(w - lower <= tol), np.flatnonzero(upper - w <= tol)
    Jt = J.T[:, np.abs(J).max(axis=1, initial=0.0) > 0.0]   # zero rows carry nothing
    E = np.zeros((w.size, low.size + up.size))
    E[low, np.arange(low.size)] = -1.0
    E[up, low.size + np.arange(up.size)] = 1.0
    free = np.full(Jt.shape[1], -np.inf)
    fit = lsq_linear(np.hstack([Jt, E]), b - w, method="bvls",
                     bounds=(np.concatenate([free, np.zeros(E.shape[1])]), np.inf))
    assert np.abs(fit.fun).max() <= tol


@pytest.mark.parametrize("name", ["grid3x3_0.json", "grid4x4_1.json",
                                  "grid5x5_0.json"])
def test_grid_projection_does_not_stall(name):
    # the first Cauchy projection on these grids (3x3 with 3 OD pairs, 4x4
    # with 4, 5x5 with 6) starts where many bounds are active; on the 4x4
    # grid some of them depend on the bounds already in the working set.  On
    # the 5x5 grid K^-1 e_i is asymmetric by up to 8e-8, and a Schur factor
    # extended from one triangle of V[W] let bounds enter and leave until the
    # loop stalled
    net = parse_network((DATA / name).read_text(encoding="utf-8"))
    cfg = IRConfig(max_outer=1)
    start = time.perf_counter()
    res = solve_dap(net, cfg)
    assert time.perf_counter() - start < 5.0
    assert res.outer_iterations == 1 and res.history

    # certify that first projection (mu = 0)
    S = build_structure(net)
    z = restore(net, S, net.target_demands, cfg)
    space = tangent_space(net, S, z)
    b = z - grad_F_state(net, S, z)
    _certify(space, b, project(space, b))


def test_stalled_grid_projection_is_certified():
    # the boxed projection that stalled a full run of 4x4 instance 0
    # (IRConfig(max_outer=200)) after outer step 189: an active set run in the
    # coordinates of a dense SVD basis of null(J) cycled until its cap
    net = parse_network((DATA / "grid4x4_0.json").read_text(encoding="utf-8"))
    case = json.loads((DATA / "grid4x4_0_stall.json").read_text(encoding="utf-8"))
    S = build_structure(net)
    z, b = np.array(case["z"]), np.array(case["b"])
    space = TangentSpace(z=z, J=eval_C_jacobian(net, S, z), lower=S.lower,
                         box_radius=case["box_radius"])
    _certify(space, b, project(space, b))
