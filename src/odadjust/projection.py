"""Euclidean projection onto a linearized feasible set.

A TangentSpace is the affine subspace J(w - z) = 0 intersected with lower
bounds on part of the coordinates; project() may also intersect it with an
infinity-norm box of a given radius around z.  A row of J with one nonzero
value pins its coordinate at z.  The other, free coordinates share one sparse
LU (splu) per TangentSpace, whatever the radius, of the quasi-definite KKT
matrix (Vanderbei, SIAM J. Optim. 5, 1995)

    K = [[I, J_F'], [J_F, -REG I]],

J_F being J on the free columns with its pinning rows emptied.

REG = 1e-14 is absolute, as the identity block sets the scale.  It lets K
absorb dependent rows of J and costs REG times a row's multiplier in
J(w - z).

project() runs a primal active set on the bounds of the free coordinates,
from w = z and an empty working set W.  A working bound fixes its coordinate
and enters the KKT solve through the Schur block V[W], V holding the sparse
solves K^-1 e_i, each computed once, when its bound first blocks.  project
keeps a Cholesky factor L of the symmetric part (V[W] + V[W]')/2 and solves
for the bound multipliers by two triangular solves.  K^-1 is symmetric, but
the LU's columns K^-1 e_i are not, by up to 8e-8 on the first projection of
a 5x5 grid; there a factor grown from one triangle of V[W] let bounds enter
and leave until the loop stalled.

A blocking bound extends L by one row, whose diagonal squared is the bound's
Schur pivot: the squared length, at most 1, of the part of e_i that J_F and
the working bounds leave free.  A pivot at most DEPENDENT = 1e-9 means the
bound depends on them: a step toward b moves it by at most
sqrt(DEPENDENT) |b - w|, by roundoff in practice, so it does not enter.
While the working set only grows, its part of e_i only shrinks, so a bound
found dependent stays dependent: its pivot is not tested again until the
next release.  A released bound's row is deleted and the rows after it are
factored again.
Bland's rule (smallest index) breaks ratio-test ties and picks the bound to
release.  Once no bound multiplier has the wrong sign, one more solve with
the same factors, on the right-hand side [0; -J_F y], refines y: its step,
zero on W, cancels the residual J_F y that the solves left (3.6e-8 to
1.4e-10 on the first projection of a 5x5 grid).  A bound multiplier or step
that is not finite ends the projection at once with SolverStalled: the
iterates after it would all be nan.

min_norm_solve(A, r) solves the same kind of system, [[I, A], [A', -REG I]],
by one sparse LU: a least-squares solution of A x = r whose components along
directions where A is within about sqrt(REG) of singular are damped toward
zero, as in a minimum-norm solution, instead of being blown up by them.

Both assemble K when they factor it, from the nonzero entries of J (of A'
for min_norm_solve) and the two diagonals, by scipy's conversion from
COO, which sorts them by column and then row.

scipy.sparse, scipy.sparse.linalg and scipy.linalg are imported on first
use, inside the functions that need them: the check and tap commands import
this module but never project, so they never load scipy.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SolverStalled

REG = 1e-14
DEPENDENT = 1e-9


class TangentSpace:
    """Linearized feasible set {w : J(w-z) = 0, w >= lower} at z.

    lower may contain -inf for unconstrained coordinates.  z itself must be
    feasible, which holds by construction whenever z comes out of the
    restoration phase.  Building the space finds free, the coordinates no row
    of J pins, and takes the sparse LU of K once; every project() onto the
    space, with or without a box, reuses them.
    """

    def __init__(self, z, J, lower):
        z = np.asarray(z, dtype=float)
        lower = np.asarray(lower, dtype=float)
        if z.shape != lower.shape:
            raise DimensionMismatch("z and lower must have the same shape")
        if J.shape[1] != z.size:
            raise DimensionMismatch("J has %d columns, state has %d coordinates"
                                    % (J.shape[1], z.size))
        from scipy.sparse.linalg import splu
        self.z, self.J, self.lower = z, J, lower
        m, n = J.shape
        r, c, v = _entries(J)
        # a row with one nonzero pins its column; dropping the pinned columns
        # empties those rows
        pinned = np.zeros(n, dtype=bool)
        pinned[c[np.bincount(r, minlength=m)[r] == 1]] = True
        at = np.cumsum(~pinned) - 1               # position of a free column in K
        keep = ~pinned[c]
        self.free = np.flatnonzero(~pinned)
        self.lu = splu(_quasi_definite(self.free.size, m, r[keep], at[c[keep]], v[keep]))


def _entries(A):
    """(rows, columns, values) of the nonzero entries of a dense or sparse A,
    which holds no duplicate entries."""
    import scipy.sparse as sp
    A = sp.coo_matrix(A)
    keep = A.data != 0.0
    return A.row[keep], A.col[keep], A.data[keep]


def _quasi_definite(n, m, rows, cols, vals):
    """K = [[I_n, B'], [B, -REG I_m]] in canonical CSC, as splu takes it, B
    being m x n with entries (rows, cols, vals) in any order."""
    import scipy.sparse as sp
    diag = np.arange(n + m)
    r = np.concatenate([diag, n + rows, cols])
    c = np.concatenate([diag, cols, n + rows])
    data = np.concatenate([np.ones(n), np.full(m, -REG), vals, vals])
    return sp.csc_matrix((data, (r, c)), shape=(n + m, n + m))


def min_norm_solve(A, r):
    """x minimizing |A x - r|^2 + REG |x|^2, by one sparse LU.

    K [y; x] = [r; 0] with K = [[I, A], [A', -REG I]] gives y = r - A x and
    (A'A + REG I) x = A'r.  Roundoff in forming that system perturbs REG
    itself, so along A's null directions x is small rather than exactly zero:
    a least-squares solution of nearly minimum norm.  A is dense or sparse.
    """
    from scipy.sparse.linalg import splu
    r = np.asarray(r, dtype=float)
    n, k = np.shape(A)
    if r.shape != (n,):
        raise DimensionMismatch("A has %d rows, r has shape %r" % (n, r.shape))
    rows, cols, vals = _entries(A)
    # a symmetric fill-reducing ordering, as K is symmetric; with splu's
    # default COLAMD the solution of [1, 1] x = 2 is off by 4e-4 in A's null
    # direction, with this one by roundoff
    lu = splu(_quasi_definite(n, k, cols, rows, vals), permc_spec="MMD_AT_PLUS_A")
    return lu.solve(np.concatenate([r, np.zeros(k)]))[n:]


def project(T, b, radius=None):
    """Projection of b onto a TangentSpace, boxed when radius is given.

    Returns the unique minimizer w of |w - b|^2 subject to J(w-z) = 0, the
    lower bounds and, unless radius is None, |w - z|_inf <= radius.  Raises
    SolverStalled if the active-set loop exceeds 50 * dimension iterations,
    which signals a cycling pathology rather than an infeasible problem (z is
    always feasible), and at once, without a NumPy warning, when a bound
    multiplier or the step it gives is not finite.  The final point takes
    one refinement step toward J(w - z) = 0, from the same factors, before
    it is clipped to the bounds.
    """
    from scipy.linalg.blas import dtrsv   # scipy.linalg came with T's splu
    z, free, lu = T.z, T.free, T.lu
    n = z.size
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionMismatch("expected point of length %d, got %r" % (n, b.shape))

    # shift to y = w - z on the free coordinates; the pinned ones keep y = 0
    c = b - z
    lo = T.lower - z
    hi = np.full(n, np.inf)
    if radius is not None:
        delta = float(radius)
        lo = np.maximum(lo, -delta)
        hi = np.full(n, delta)
    lo = np.minimum(lo, 0.0)      # z is feasible; clip roundoff so y=0 stays valid
    lo, hi, c_f = lo[free], hi[free], c[free]

    nf = free.size
    rhs = np.zeros(lu.shape[0])
    cols = {}                     # K^-1 e_i of every bound that has blocked

    def column(i):
        if i not in cols:
            e = np.zeros(rhs.size)
            e[i] = 1.0
            cols[i] = lu.solve(e)
        return cols[i]

    y = np.zeros(nf)
    side = np.zeros(nf, dtype=np.int8)  # -1 / +1: working at lower / upper bound
    order = []                    # the working bounds W, in the order of L's rows
    dependent = set()             # bounds found dependent since the last release
    L = np.zeros((0, 0), order="F")   # Cholesky factor of (V[W] + V[W]')/2
    VW = np.empty((8, rhs.size))  # rows: K^-1 e_i for i in order, then spare

    def next_row(i):
        return _schur_row(L, VW, order, column(i), i)

    def enter(i, row, pivot):
        nonlocal L, VW
        k = len(order)
        M = np.zeros((k + 1, k + 1), order="F")
        M[:k, :k], M[k, :k], M[k, k] = L, row, np.sqrt(pivot)
        if k == VW.shape[0]:
            VW = np.concatenate([VW, np.empty_like(VW)])
        L, VW[k] = M, column(i)
        order.append(i)

    def solve(it):
        """The step p of K x + E nu = rhs, E' x = 0, E = [e_i, i in W], zero
        on W, and the bound multipliers nu."""
        x = lu.solve(rhs)
        nu = np.zeros(0)
        if order:                 # V[W] nu = x[W] by two triangular solves
            nu = dtrsv(L, dtrsv(L, x[order], lower=1), lower=1, trans=1)
            with np.errstate(over="ignore", invalid="ignore"):
                x -= nu @ VW[:len(order)]
        # an entry of nu that is not finite makes every entry of x so
        if not np.isfinite(x).all():
            raise SolverStalled("active-set projection broke down at iteration "
                                "%d: a bound multiplier or the step is not "
                                "finite" % it)
        p = x[:nf]
        p[order] = 0.0
        return p, nu

    scale = 1.0 + float(np.abs(c).max(initial=0.0))
    cap = 50 * max(n, 1)
    for it in range(cap):
        # the step p minimizes |y + p - c|^2 with J_F p = 0 and p = 0 on the
        # working set W
        rhs[:nf] = c_f - y
        p, nu = solve(it)

        if np.abs(p).max(initial=0.0) > 1e-13 * scale:
            # ratio test toward y + p on the free bounds that p moves
            moves = (side == 0) & (np.abs(p) > 1e-12 * np.abs(p).max())
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                ratio = np.where(p < 0.0, lo - y, hi - y) / p
            ratio = np.where(moves & np.isfinite(ratio), ratio, np.inf)
            alpha = float(ratio.min(initial=np.inf))
            while alpha < 1.0 - 1e-15:
                blocker = int(np.flatnonzero(ratio <= alpha + 1e-15)[0])
                if blocker not in dependent:
                    row, pivot = next_row(blocker)
                    if pivot > DEPENDENT:
                        break
                    dependent.add(blocker)
                ratio[blocker] = np.inf
                alpha = float(ratio.min(initial=np.inf))
            if alpha < 1.0 - 1e-15:
                side[blocker] = -1 if p[blocker] < 0.0 else +1
                enter(blocker, row, pivot)
                y = y + max(alpha, 0.0) * p
                continue
            y = y + p

        # y now minimizes on the working set, where c - y = J_F' lam + E nu:
        # a lower bound needs nu <= 0 and an upper bound nu >= 0
        wrong = [i for i, nu_i in zip(order, nu) if side[i] * nu_i < -1e-10 * scale]
        if not wrong:
            # one refinement: the least step, zero on W, that cancels the
            # residual J_F y the solves left
            rhs[:nf] = 0.0
            y_full = np.zeros(n)
            y_full[free] = y
            rhs[nf:] = -(T.J @ y_full)
            y = y + solve(it)[0]
            w = z.copy()
            w[free] += np.clip(y, lo, hi)
            if radius is not None:
                return np.clip(w, z - radius, z + radius)
            return np.maximum(w, T.lower)
        # release the smallest index: the rows of L before it stay, the rows
        # after it are factored again without it
        drop = order.index(min(wrong))
        side[order[drop]] = 0
        dependent.clear()
        later = order[drop + 1:]
        del order[drop:]
        L = np.asfortranarray(L[:drop, :drop])
        for i in later:
            enter(i, *next_row(i))

    raise SolverStalled("active-set projection exceeded %d iterations" % cap)


def _schur_row(L, VW, order, v, i):
    """Row of bound i past L, and its Schur pivot: that row's diagonal squared.

    v is K^-1 e_i, and the first rows of VW hold K^-1 e_j for j in order.
    """
    if not order:
        return np.zeros(0), v[i]
    from scipy.linalg.blas import dtrsv
    row = dtrsv(L, 0.5 * (v[order] + VW[:len(order), i]), lower=1)
    return row, v[i] - row @ row
