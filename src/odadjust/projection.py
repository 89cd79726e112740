"""Euclidean projection onto a linearized feasible set.

The feasible set is an affine subspace J(w - z) = 0 intersected with lower
bounds on part of the coordinates and, optionally, an infinity-norm box of
radius delta around z.  Its points are w = z + N u, N an orthonormal basis of
null(J) from one dense SVD per TangentSpace.  project() runs a primal active
set on the bounds in u, from u = 0 and an empty working set; one minimum-norm
solve with the working rows of N, scaled to unit length, gives each step and
the bound multipliers.  Bland's rule (smallest index) breaks ratio-test ties
and picks the bound to release.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, SolverStalled

# one cut for three roundoff decisions: a singular value of J at most NULL_CUT
# times the largest spans null(J), a row of N at most NULL_CUT long is a
# coordinate J pins, and a unit row within NULL_CUT of the working rows' span
# is dependent on them
NULL_CUT = 1e-8


@dataclass(frozen=True)
class TangentSpace:
    """Feasible set {w : J(w-z) = 0, w >= lower, |w - z|_inf <= box_radius}.

    lower may contain -inf for unconstrained coordinates; box_radius None means
    no box.  z itself must be feasible, which holds by construction whenever z
    comes out of the restoration phase.  N, the null-space basis of J, is
    computed when omitted; dataclasses.replace(space, box_radius=delta) carries
    it over, so boxing a space costs no second SVD.
    """

    z: np.ndarray
    J: object                 # sparse or dense matrix, shape (m, n)
    lower: np.ndarray
    box_radius: float | None = None
    N: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        if self.N is None:
            J = self.J
            J = J.toarray() if sp.issparse(J) else np.asarray(J, dtype=float)
            _, s, vt = np.linalg.svd(J)
            N = vt[np.count_nonzero(s > NULL_CUT * s.max(initial=0.0)):].T.copy()
            N[np.linalg.norm(N, axis=1) <= NULL_CUT] = 0.0
            object.__setattr__(self, "N", N)


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
    z, N = T.z, T.N
    n = z.size
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionMismatch("expected point of length %d, got %r" % (n, b.shape))

    # shift to y = w - z = N u, so the affine constraint holds for every u
    c = b - z
    lo = T.lower - z
    hi = np.full(n, np.inf)
    if T.box_radius is not None:
        delta = float(T.box_radius)
        lo = np.maximum(lo, -delta)
        hi = np.full(n, delta)
    lo = np.minimum(lo, 0.0)      # z is feasible; clip roundoff so y=0 stays valid

    c_hat = N.T @ c               # min |N u - c|^2 is min |u - c_hat|^2
    # a nearly pinned coordinate has a short row; unit rows keep the working
    # solves well scaled and change neither a constraint nor a multiplier sign
    norms = np.linalg.norm(N, axis=1)
    rows = N / np.where(norms > 0.0, norms, 1.0)[:, None]
    u = np.zeros(N.shape[1])
    side = np.zeros(n, dtype=np.int8)   # -1 / +1: working at lower / upper bound
    scale = 1.0 + float(np.abs(c).max(initial=0.0))
    cap = 50 * max(n, 1)
    for _ in range(cap):
        work = np.flatnonzero(side)
        R, g = rows[work].T, c_hat - u
        lam = min_norm_solve(R, g)
        p = g - R @ lam           # the part of g orthogonal to the working rows

        if np.abs(p).max(initial=0.0) > 1e-13 * scale:
            # ratio test toward u + p on the free bounds that p moves; a bound
            # whose row is dependent on the working rows moves by <= NULL_CUT|p|
            y, q = N @ u, N @ p
            moves = (side == 0) & (np.abs(q) > 1e-12 * np.abs(q).max())
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(q < 0.0, lo - y, hi - y) / q
            ratio = np.where(moves & np.isfinite(ratio), ratio, np.inf)
            alpha = float(ratio.min(initial=np.inf))
            while alpha < 1.0 - 1e-15:
                blocker = int(np.flatnonzero(ratio <= alpha + 1e-15)[0])
                gap = rows[blocker] - R @ min_norm_solve(R, rows[blocker])
                if np.linalg.norm(gap) > NULL_CUT:
                    break
                ratio[blocker] = np.inf
                alpha = float(ratio.min(initial=np.inf))
            if alpha < 1.0 - 1e-15:
                side[blocker] = -1 if q[blocker] < 0.0 else +1
                u = u + max(alpha, 0.0) * p
                continue
            u = u + p

        # u now minimizes on the working set, where N_W' mu = u - c_hat, so
        # mu = -lam; a lower bound needs mu >= 0 and an upper bound mu <= 0
        wrong = work[side[work] * lam < -1e-10 * scale]
        if not wrong.size:
            w = z + np.clip(N @ u, lo, hi)
            if T.box_radius is not None:
                return np.clip(w, z - T.box_radius, z + T.box_radius)
            return np.maximum(w, T.lower)
        side[wrong[0]] = 0

    raise SolverStalled("active-set projection exceeded %d iterations" % cap)
