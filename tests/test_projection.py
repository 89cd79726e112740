"""Active-set projection onto {J(w-z)=0, w >= lower, |w-z|_inf <= box}."""

import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from conftest import random_tangent_instance, toy_document
from scipy.optimize import nnls

from odadjust import (IRConfig, parse_network, solve_dap,
                      tangent_space)
from odadjust.driver import restore
from odadjust.errors import DimensionMismatch, SolverStalled
from odadjust.kkt import eval_C_jacobian, grad_F_state
from odadjust.oracles import oracle_project
from odadjust import projection
from odadjust.projection import PIN, REG, TangentSpace, min_norm_solve, project

DATA = Path(__file__).resolve().parent / "data"


def _feasibility(T, w, box):
    """Worst violation of the three constraint families at w."""
    res = 0.0
    if T.J.shape[0]:
        J = T.J.toarray() if hasattr(T.J, "toarray") else np.asarray(T.J)
        res = np.abs(J @ (w - T.z)).max(initial=0.0)
    finite = np.isfinite(T.lower)
    if finite.any():
        res = max(res, float((T.lower[finite] - w[finite]).max(initial=0.0)))
    if box is not None:
        res = max(res, float(np.abs(w - T.z).max() - box))
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


def _restored_space(net):
    """The tangent space at net's first restored point and b = z - grad F(z)."""
    z, _, _ = restore(net, net.target_demands, IRConfig())
    return tangent_space(net, z), z - grad_F_state(net, z)


def _toy_and_grid():
    return [parse_network(json.dumps(toy_document())),
            parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))]


@pytest.mark.parametrize("radius", [-1.0, np.nan])
def test_project_rejects_a_radius_it_cannot_honour(radius):
    for net in _toy_and_grid():
        T, b = _restored_space(net)
        with pytest.raises(ValueError, match="radius"):
            project(T, b, radius)


def test_project_infinite_radius_binds_nothing():
    for net in _toy_and_grid():
        T, b = _restored_space(net)
        assert project(T, b, np.inf).tobytes() == project(T, b).tobytes()


def test_project_bounds_only():
    T = TangentSpace(z=np.zeros(3), J=np.zeros((0, 3)), lower=np.zeros(3))
    assert_allclose(project(T, np.array([1.0, -2.0, 0.5])), [1.0, 0.0, 0.5])


def test_project_box_only():
    T = TangentSpace(z=np.zeros(2), J=np.zeros((0, 2)),
                     lower=np.full(2, -np.inf))
    assert_allclose(project(T, np.array([3.0, -0.2]), 1.0), [1.0, -0.2])


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
        T, b, box = random_tangent_instance(rng)
        w = project(T, b, box)
        assert _feasibility(T, w, box) <= 1e-8
        w2 = project(T, w, box)
        assert np.abs(w2 - w).max() <= 1e-9


def test_project_nonexpansive():
    rng = np.random.default_rng(202)
    for _ in range(25):
        T, b1, box = random_tangent_instance(rng)
        b2 = b1 + rng.normal(size=b1.size)
        w1, w2 = project(T, b1, box), project(T, b2, box)
        assert np.linalg.norm(w1 - w2) <= np.linalg.norm(b1 - b2) + 1e-10


def test_project_returns_feasible_z_for_far_point():
    # pulling far along the infeasible cone must still land on the set
    T = TangentSpace(z=np.ones(4), J=np.array([[1.0, -1.0, 0.0, 0.0]]),
                     lower=np.zeros(4))
    w = project(T, np.array([100.0, -100.0, 0.0, 0.0]), 2.0)
    assert _feasibility(T, w, 2.0) <= 1e-8
    # first two coordinates must stay equal under the equality row
    assert abs((w[0] - 1.0) - (w[1] - 1.0)) <= 1e-10


def test_project_factorizes_nothing(monkeypatch):
    # the space's one LU serves every radius; project takes no other
    rng = np.random.default_rng(303)
    T, b, _ = random_tangent_instance(rng)
    expected = [project(T, b, radius) for radius in (None, 0.5, 2.0)]

    def no_splu(*args, **kwargs):
        raise AssertionError("project factorized a matrix")

    monkeypatch.setattr("scipy.sparse.linalg.splu", no_splu)
    for radius, w in zip((None, 0.5, 2.0), expected):
        assert_allclose(project(T, b, radius), w, rtol=0, atol=0)


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
    T.lu = spy
    w = project(T, b)
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
        w = project(T, b, box)
        assert_allclose(w, oracle_project(z, J, lower, box, b), atol=1e-7)


def _certify(T, b, box, w):
    """Check, without SLSQP, that w is the projection of b onto T's set,
    boxed by box unless it is None.

    w must be feasible, and b - w = J' lam - sum nu_i e_i over the lower
    bounds active at w + sum nu_i e_i over the box's upper bounds active at w,
    with lam free and nu >= 0.  lam is eliminated by projecting onto the
    complement of range(J'), spanned by the right singular vectors of J above
    1e-12 sigma_max, and nu is fitted there by nnls.  Feasibility, activity
    and the residual share one tolerance, 1e-8 (1 + |b - w|_inf).
    """
    tol = 1e-8 * (1.0 + np.abs(b - w).max())
    J = T.J.toarray() if hasattr(T.J, "toarray") else np.asarray(T.J, dtype=float)
    lower, upper = T.lower, np.full(w.size, np.inf)
    if box is not None:
        lower = np.maximum(lower, T.z - box)
        upper = T.z + box
    assert np.abs(J @ (w - T.z)).max(initial=0.0) <= tol
    assert np.all(w >= lower) and np.all(w <= upper)
    low, up = np.flatnonzero(w - lower <= tol), np.flatnonzero(upper - w <= tol)
    E = np.zeros((w.size, low.size + up.size))
    E[low, np.arange(low.size)] = -1.0
    E[up, low.size + np.arange(up.size)] = 1.0
    _, sig, Vt = np.linalg.svd(J, full_matrices=False)
    U = Vt[sig > 1e-12 * sig.max(initial=0.0)].T     # orthonormal basis of range(J')

    def off_range(A):
        return A - U @ (U.T @ A)

    PE, r = off_range(E), off_range(b - w)
    if E.shape[1]:
        r = r - PE @ nnls(PE, r)[0]
    assert np.abs(r).max() <= tol


@pytest.mark.parametrize("name", ["grid3x3_0.json", "grid4x4_1.json",
                                  "grid5x5_0.json"])
def test_grid_projection_does_not_stall(name):
    # one outer step of solve_dap on these grids (3x3 with 3 OD pairs, 4x4
    # with 4, 5x5 with 6) finishes in time; that step is taken in reduced
    # coordinates and projects nothing.  The test certifies project at the
    # first restored point z, on b = z - grad F(z), where many bounds are
    # active; on the 4x4 grid some of them depend on the bounds already in
    # the working set.  On the 5x5 grid K^-1 e_i is asymmetric by up to 8e-8,
    # and a Schur factor extended from one triangle of V[W] let bounds enter
    # and leave until the loop stalled
    net = parse_network((DATA / name).read_text(encoding="utf-8"))
    cfg = IRConfig(max_outer=1)
    start = time.perf_counter()
    res = solve_dap(net, cfg)
    assert time.perf_counter() - start < 5.0
    assert res.outer_iterations == 1 and res.history

    # certify that projection
    z, _, _ = restore(net, net.target_demands, cfg)
    space = tangent_space(net, z)
    b = z - grad_F_state(net, z)
    _certify(space, b, None, project(space, b))


def test_projection_refines_the_linear_residual():
    # the projection at the first restored point of the 5x5 grid, as above,
    # leaves J(w - z) at 1.4e-10 after its refinement solve, 3.6e-8 without
    net = parse_network((DATA / "grid5x5_0.json").read_text(encoding="utf-8"))
    z, _, _ = restore(net, net.target_demands, IRConfig())
    space = tangent_space(net, z)
    b = z - grad_F_state(net, z)
    w = project(space, b)
    assert np.abs(space.J @ (w - z)).max() <= 1e-9 * (1.0 + np.abs(b - w).max())


def test_stalled_grid_projection_is_certified():
    # the boxed projection that stalled a full run of 4x4 instance 0
    # (IRConfig(max_outer=200)) after outer step 189: an active set run in the
    # coordinates of a dense SVD basis of null(J) cycled until its cap
    space, b, box = _case_space("grid4x4_0.json", "grid4x4_0_stall.json")
    _certify(space, b, box, project(space, b, box))


def _case_space(network, case):
    """The TangentSpace, point and box of a projection saved from a full run."""
    net = parse_network((DATA / network).read_text(encoding="utf-8"))
    case = json.loads((DATA / case).read_text(encoding="utf-8"))
    z = np.array(case["z"])
    space = TangentSpace(z=z, J=eval_C_jacobian(net, z), lower=net.lower)
    return space, np.array(case["b"]), case["box_radius"]


def test_projection_fails_fast_on_a_nonfinite_step(monkeypatch):
    # a point b that is not finite gives a step that is not finite at the
    # first iteration, which must not pass for a zero step that returns z
    space, b, box = _case_space("grid4x4_0.json", "grid4x4_0_stall.json")
    bad = b.copy()
    bad[7] = np.inf
    with pytest.raises(SolverStalled, match="iteration 0: .* not finite"):
        project(space, bad, box)

    # bound multipliers that overflow, as the second triangular solve of
    # V[W] nu = x[W] is made to return them here; RuntimeWarning is an error
    # under this suite's settings, so none may be emitted on the way
    import scipy.linalg.blas as blas
    real = blas.dtrsv

    def overflowing(*args, **kwargs):
        out = real(*args, **kwargs)
        if kwargs.get("trans") == 1:
            with np.errstate(over="ignore"):
                out = out * 1e308
        return out

    monkeypatch.setattr(blas, "dtrsv", overflowing)
    with pytest.raises(SolverStalled, match="not finite"):
        project(space, b, box)


def _lexsort_quasi_definite(n, m, r, c, v):
    """K = [[I_n, B'], [B, -REG I_m]] in CSC, sorted by (column, row) with lexsort."""
    diag = np.arange(n + m)
    rows, cols = np.concatenate([diag, n + r, c]), np.concatenate([diag, c, n + r])
    order = np.lexsort((rows, cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n + m))])
    data = np.concatenate([np.ones(n), np.full(m, -REG), v, v])
    return sp.csc_matrix((data[order], rows[order], indptr), shape=(n + m, n + m))


def _reference_tangent(J):
    """Free columns and K = [[I, J_F'], [J_F, -REG I]] by the rule of the
    sorted assembly: a row with one entry above PIN times J's largest pins
    that entry's column, whose entries then leave K; K is then sorted by
    lexsort."""
    m, n = J.shape
    r, c = np.nonzero(J)                           # row-major order
    v = J[r, c]
    big = np.abs(v) > PIN * np.abs(v).max(initial=0.0)
    pins = big & (np.bincount(r[big], minlength=m)[r] == 1)
    pinned = np.zeros(n, dtype=bool)
    pinned[c[pins]] = True
    at = np.cumsum(~pinned) - 1
    e = ~pins & ~pinned[c]
    nf = n - int(np.count_nonzero(pinned))
    return np.flatnonzero(~pinned), _lexsort_quasi_definite(nf, m, r[e], at[c[e]], v[e])


def _assert_same_csc(K, ref):
    """K equals ref array for array, 32-bit indices included."""
    assert K.has_canonical_format
    assert K.shape == ref.shape
    assert K.indptr.dtype == K.indices.dtype == np.int32
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    assert K.data.tobytes() == ref.data.tobytes()


def _with_stored_zeros(rng, B):
    """B in CSR with zeros stored at some places outside its support, as
    eval_C_jacobian keeps every entry of J's pattern."""
    stored = (B != 0.0) | (rng.random(B.shape) < 0.2)
    r, c = np.nonzero(stored)
    return sp.csr_matrix((B[r, c], (r, c)), shape=B.shape)


def _unsorted(B):
    """B in CSR with the column indices of each row in descending order."""
    A = sp.csr_matrix(B)
    indices, data = A.indices.copy(), A.data.copy()
    for i in range(A.shape[0]):
        row = slice(A.indptr[i], A.indptr[i + 1])
        indices[row], data[row] = indices[row][::-1], data[row][::-1]
    A = sp.csr_matrix((data, indices, A.indptr), shape=B.shape)
    assert A.has_sorted_indices == (np.diff(A.indptr).max(initial=0) < 2)
    return A


@pytest.fixture
def factored(monkeypatch):
    """The K of every splu call, in order; each LU solves to zeros."""
    Ks = []

    class Zero:
        def solve(self, rhs):
            return np.zeros_like(rhs)

    def spy(K, *args, **kwargs):
        Ks.append(K)
        return Zero()

    monkeypatch.setattr("scipy.sparse.linalg.splu", spy)
    return Ks


def test_quasi_definite_matches_lexsort_assembly(factored):
    # entry for entry, in the same order, so splu and every product with K
    # sum in the same order; B has empty rows and columns, m or n may be 0,
    # a pattern's stored zeros never enter K, and K is sorted whatever the
    # order of A's indices
    rng = np.random.default_rng(505)
    shapes = [(0, 4), (3, 0), (0, 0), (1, 1), (5, 7), (8, 3)]
    shapes += [tuple(rng.integers(0, 9, size=2)) for _ in range(40)]
    for m, n in shapes:
        B = rng.normal(size=(m, n)) * (rng.random((m, n)) < rng.random())
        B[:, rng.random(n) < 0.3] = 0.0            # empty columns
        B[rng.random(m) < 0.3] = 0.0               # empty rows
        r, c = np.nonzero(B)
        ref = _lexsort_quasi_definite(n, m, r, c, B[r, c])
        for Bs in (B, _with_stored_zeros(rng, B), _unsorted(B)):
            for A in (Bs.T, sp.csc_matrix(Bs.T), sp.csr_matrix(Bs.T)):
                min_norm_solve(A, np.zeros(n))
                _assert_same_csc(factored.pop(), ref)


def test_tangent_space_matches_sorted_assembly(factored):
    # random patterns, many of them with single-entry rows, some of which
    # pin the same column: dense, with stored zeros and with unsorted indices
    rng = np.random.default_rng(506)
    for _ in range(60):
        m, n = (int(k) for k in rng.integers(0, 10, size=2))
        B = rng.normal(size=(m, n)) * (rng.random((m, n)) < rng.random())
        if n:
            for i in np.flatnonzero(rng.random(m) < 0.4):  # single-entry rows
                B[i] = 0.0
                B[i, rng.integers(n)] = rng.normal()
        free_ref, ref = _reference_tangent(B)
        for J in (B, _with_stored_zeros(rng, B), _unsorted(B)):
            space = TangentSpace(np.zeros(n), J, np.zeros(n))
            assert np.array_equal(space.free, free_ref)
            _assert_same_csc(factored.pop(), ref)


def test_tangent_space_matches_sorted_assembly_on_grid_states(factored):
    # restored grid states, whose Jacobians store zeros in beta and X, and
    # whose complementarity rows with one nonzero pin X or beta
    net = parse_network((DATA / "grid3x3_0.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng(507)
    for scale in (1.0, 0.5, 1.7):
        d = net.target_demands * scale * rng.uniform(0.8, 1.2, size=net.n_commodities)
        z, _, _ = restore(net, d, IRConfig())
        J = eval_C_jacobian(net, z)
        assert np.count_nonzero(J.data == 0.0) > 0
        free_ref, ref = _reference_tangent(J.toarray())
        assert free_ref.size < net.state_dim
        space = tangent_space(net, z)
        assert np.array_equal(space.free, free_ref)
        _assert_same_csc(factored.pop(), ref)


@pytest.mark.parametrize("name", ["grid3x3_0.json", "grid4x4_1.json"])
def test_tangent_set_ignores_roundoff_in_beta(name):
    # beta_i X_i's row has one entry where X_i = 0, beta_i; a beta_i of
    # roundoff pins no X_i, so perturbing every beta by 1e-15 at a restored
    # point, where many beta and X are 0 together, leaves the free
    # coordinates as they were
    net = parse_network((DATA / name).read_text(encoding="utf-8"))
    z, _, _ = restore(net, net.target_demands, IRConfig())
    _, sl_x, _, sl_beta = net.slices
    assert np.count_nonzero((z[sl_beta] == 0.0) & (z[sl_x] == 0.0)) > 0
    free = tangent_space(net, z).free
    for sign in (1.0, -1.0):
        moved = z.copy()
        moved[sl_beta] += sign * 1e-15
        assert np.array_equal(tangent_space(net, moved).free, free)


def test_dependent_bound_is_tested_once_between_releases(monkeypatch):
    # the first Cauchy projection of the 4x4 grid meets bounds that depend on
    # the working set; with the working set only growing they stay dependent,
    # so no bound's Schur pivot is tested twice between two releases
    net = parse_network((DATA / "grid4x4_1.json").read_text(encoding="utf-8"))
    z, _, _ = restore(net, net.target_demands, IRConfig())
    space = tangent_space(net, z)
    b = z - grad_F_state(net, z)
    expected = project(space, b)

    schur_row = projection._schur_row
    calls = []                                     # (bound, factor L, pivot)

    def spy(L, VW, order, v, i):
        row, pivot = schur_row(L, VW, order, v, i)
        calls.append((i, L, pivot))
        return row, pivot

    monkeypatch.setattr(projection, "_schur_row", spy)
    assert_allclose(project(space, b), expected, rtol=0, atol=0)
    # a bound's entry grows L; a release replaces it by a factor no larger,
    # and the first test after a release sees that factor
    tested, prev, releases = set(), None, 0
    for i, L, _ in calls:
        if prev is not None and L is not prev and L.shape[0] <= prev.shape[0]:
            tested.clear()
            releases += 1
        assert i not in tested
        tested.add(i)
        prev = L
    assert releases > 0
    assert sum(pivot <= projection.DEPENDENT for _, _, pivot in calls) > 0
