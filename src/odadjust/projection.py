"""Euclidean projection onto a linearized feasible set.

The feasible set is an affine subspace J(w - z) = 0 intersected with lower
bounds on part of the coordinates and, optionally, an infinity-norm box of
radius delta around z.  A row of J with one nonzero value pins its coordinate
at z.  The other, free coordinates share one sparse LU (splu) per
TangentSpace of the quasi-definite KKT matrix (Vanderbei, SIAM J. Optim. 5,
1995)

    K = [[I, J_F'], [J_F, -REG I]],

J_F being J on the free columns with its pinning rows emptied.

REG = 1e-14 is absolute, as the identity block sets the scale.  It lets K
absorb dependent rows of J and costs REG times a row's multiplier in
J(w - z).

project() runs a primal active set on the bounds of the free coordinates,
from w = z and an empty working set.  A working bound fixes its coordinate and
enters the KKT solve through a Schur complement on K: one sparse solve
K^-1 e_i when it first enters, then one small dense min_norm_solve per step
for the step and the bound multipliers.  A bound's Schur pivot is the squared
length, at most 1, of the part of e_i that J_F and the working bounds leave
free.  A pivot at most DEPENDENT = 1e-9 means the bound depends on them: a
step toward b moves it by at most sqrt(DEPENDENT) |b - w|, by roundoff in
practice, so it does not enter.  Bland's rule (smallest index) breaks
ratio-test ties and picks the bound to release.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, SolverStalled

REG = 1e-14
DEPENDENT = 1e-9


@dataclass(frozen=True)
class TangentSpace:
    """Feasible set {w : J(w-z) = 0, w >= lower, |w - z|_inf <= box_radius}.

    lower may contain -inf for unconstrained coordinates; box_radius None means
    no box.  z itself must be feasible, which holds by construction whenever z
    comes out of the restoration phase.  free (the coordinates no row of J
    pins) and lu (the sparse LU of K) are computed when omitted;
    dataclasses.replace(space, box_radius=delta) carries them over, so boxing
    a space costs no second factorization.
    """

    z: np.ndarray
    J: object                 # sparse or dense matrix, shape (m, n)
    lower: np.ndarray
    box_radius: float | None = None
    free: np.ndarray | None = field(default=None, repr=False, compare=False)
    lu: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "lower", lower)
        if z.shape != lower.shape:
            raise DimensionMismatch("z and lower must have the same shape")
        if self.J.shape[1] != z.size:
            raise DimensionMismatch("J has %d columns, state has %d coordinates"
                                    % (self.J.shape[1], z.size))
        if self.lu is None:
            # imported on first use: scipy.sparse.linalg loads scipy.linalg,
            # about 0.1 s, which the check and tap commands never need
            from scipy.sparse.linalg import splu
            free, K = _kkt_matrix(self.J)
            object.__setattr__(self, "free", free)
            object.__setattr__(self, "lu", splu(K))


def _kkt_matrix(J):
    """The free coordinates of J and K = [[I, J_F'], [J_F, -REG I]] in CSC.

    K is assembled from its entries directly, which costs a fraction of
    sp.bmat on the small systems of the optimization phase.
    """
    J = sp.csr_matrix(J)
    m, n = J.shape
    keep = J.data != 0.0
    r = np.repeat(np.arange(m), np.diff(J.indptr))[keep]
    c, v = J.indices[keep], J.data[keep]
    pins = np.bincount(r, minlength=m)[r] == 1
    pinned = np.zeros(n, dtype=bool)
    pinned[c[pins]] = True
    nf = n - int(np.count_nonzero(pinned))
    at = np.cumsum(~pinned) - 1                   # position of a free column in K
    e = ~pins & ~pinned[c]                        # the entries of J_F
    r, c, v = nf + r[e], at[c[e]], v[e]
    diag = np.arange(nf + m)
    rows, cols = np.concatenate([diag, r, c]), np.concatenate([diag, c, r])
    order = np.lexsort((rows, cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=nf + m))])
    data = np.concatenate([np.ones(nf), np.full(m, -REG), v, v])
    return np.flatnonzero(~pinned), sp.csc_matrix(
        (data[order], rows[order], indptr), shape=(nf + m, nf + m))


def min_norm_solve(J, r):
    """Minimum-norm least-squares solution of J x = r (SVD based)."""
    if sp.issparse(J):
        J = J.toarray()
    J = np.asarray(J, dtype=float)
    r = np.asarray(r, dtype=float)
    if J.shape[0] != r.shape[0]:
        raise DimensionMismatch("J has %d rows, r has length %d"
                                % (J.shape[0], r.shape[0]))
    x, *_ = np.linalg.lstsq(J, r, rcond=None)
    return x


def project(T, b):
    """Projection of b onto the feasible set of a TangentSpace.

    Returns the unique minimizer w of |w - b|^2 subject to J(w-z) = 0, the
    lower bounds, and the optional box.  Raises SolverStalled if the active-set
    loop exceeds 50 * dimension iterations, which signals a cycling pathology
    rather than an infeasible problem (z is always feasible).
    """
    z, free, lu = T.z, T.free, T.lu
    n = z.size
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionMismatch("expected point of length %d, got %r" % (n, b.shape))

    # shift to y = w - z on the free coordinates; the pinned ones keep y = 0
    c = b - z
    lo = T.lower - z
    hi = np.full(n, np.inf)
    if T.box_radius is not None:
        delta = float(T.box_radius)
        lo = np.maximum(lo, -delta)
        hi = np.full(n, delta)
    lo = np.minimum(lo, 0.0)      # z is feasible; clip roundoff so y=0 stays valid
    lo, hi, c_f = lo[free], hi[free], c[free]

    nf = free.size
    rhs = np.zeros(lu.shape[0])
    cols = {}                     # K^-1 e_i of every bound that has entered

    def column(i):
        if i not in cols:
            e = np.zeros(rhs.size)
            e[i] = 1.0
            cols[i] = lu.solve(e)
        return cols[i]

    y = np.zeros(nf)
    side = np.zeros(nf, dtype=np.int8)  # -1 / +1: working at lower / upper bound
    scale = 1.0 + float(np.abs(c).max(initial=0.0))
    cap = 50 * max(n, 1)
    for _ in range(cap):
        # the step p minimizes |y + p - c|^2 with J_F p = 0 and p = 0 on the
        # working set W: K x + E nu = (c - y, 0), E' x = 0, E = [e_i, i in W]
        work = np.flatnonzero(side)
        rhs[:nf] = c_f - y
        x = lu.solve(rhs)
        V = np.column_stack([np.zeros((rhs.size, 0))] + [column(i) for i in work])
        nu = min_norm_solve(V[work], x[work])   # V[work] is the Schur block
        x -= V @ nu
        p = x[:nf]
        p[work] = 0.0

        if np.abs(p).max(initial=0.0) > 1e-13 * scale:
            # ratio test toward y + p on the free bounds that p moves
            moves = (side == 0) & (np.abs(p) > 1e-12 * np.abs(p).max())
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(p < 0.0, lo - y, hi - y) / p
            ratio = np.where(moves & np.isfinite(ratio), ratio, np.inf)
            alpha = float(ratio.min(initial=np.inf))
            while alpha < 1.0 - 1e-15:
                blocker = int(np.flatnonzero(ratio <= alpha + 1e-15)[0])
                v = column(blocker)
                if v[blocker] - v[work] @ min_norm_solve(V[work], v[work]) > DEPENDENT:
                    break
                ratio[blocker] = np.inf
                alpha = float(ratio.min(initial=np.inf))
            if alpha < 1.0 - 1e-15:
                side[blocker] = -1 if p[blocker] < 0.0 else +1
                y = y + max(alpha, 0.0) * p
                continue
            y = y + p

        # y now minimizes on the working set, where c - y = J_F' lam + E nu:
        # a lower bound needs nu <= 0 and an upper bound nu >= 0
        wrong = work[side[work] * nu < -1e-10 * scale]
        if not wrong.size:
            w = z.copy()
            w[free] += np.clip(y, lo, hi)
            if T.box_radius is not None:
                return np.clip(w, z - T.box_radius, z + T.box_radius)
            return np.maximum(w, T.lower)
        side[wrong[0]] = 0

    raise SolverStalled("active-set projection exceeded %d iterations" % cap)
