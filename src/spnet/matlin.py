"""Dense algebra on small symmetric positive-(semi)definite matrices.

The input-boundary predicates ``is_spd`` and ``box_nonempty`` are one
Cholesky factorization per stack; the rest is direct eigendecomposition on
k x k arrays with k <= 16. All but ``pinv`` and ``parallel_add`` also take
(n, k, k) stacks. All returned matrices are explicitly symmetrized so that
roundoff asymmetry cannot accumulate in callers.

``project_box`` iterates Dykstra's pass on its dual iterate Q alone, one
k x k matrix per row. It stops a row after its first pass when that pass
certifies the KKT conditions of the projection; any other row stops once
its step is small and its Y is above L within ``STOP_TOL``. A box is proven
non-empty by that certificate or else by ``box_nonempty``.
"""

import numpy as np

from .errors import InfeasibleBoundsError

MAX_DIM = 16

SYM_RTOL = 1e-12
BOX_TOL = 1e-12  # a box [L, U] is non-empty iff U - L + BOX_TOL I is positive definite (box_nonempty)
STOP_TOL = 1e-10  # project_box's stop rules: its KKT residual, its Frobenius step and Y - L's floor
ANDERSON_DEPTH = 5  # differences of dual iterates Q (Dykstra-map outputs) project_box keeps per row
ANDERSON_RIDGE = 1e-12  # Tikhonov term of its least-squares problem, relative to the Gram trace


def symmetrize(m):
    """Return (M + M^T)/2; a stack of matrices is symmetrized matrix by matrix."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def is_symmetric(m):
    """True where M is symmetric within ``SYM_RTOL`` times its own largest entry
    magnitude: the one symmetry rule. One bool per matrix of an (n, k, k) stack."""
    m = np.asarray(m, dtype=float)
    return ~(np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1)) > SYM_RTOL * np.abs(m).max(axis=(-2, -1)))


def as_symmetric(m, describe=None):
    """Validate that ``m`` is square, small and symmetric (``is_symmetric``);
    return it symmetrized. ``m`` is one matrix or an (n, k, k) stack; the
    error names the first asymmetric one as ``describe(its index)`` if given."""
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[-1]} exceeds supported maximum {MAX_DIM}")
    ok = is_symmetric(m)
    if not ok.all():
        what = "matrix" if describe is None else describe(int(np.argmin(ok)))
        raise ValueError(f"{what} is not symmetric within tolerance")
    return symmetrize(m)


def _check_same_dim(*ms):
    if len({m.shape for m in ms}) > 1:
        raise ValueError("dimension mismatch: " + " vs ".join(str(m.shape) for m in ms))


def is_spd(m):
    """True where M is symmetric (``is_symmetric``) and its symmetrized form passes ``_has_cholesky``. ``m`` is one
    square matrix or an (n, k, k) stack, which gets one bool per matrix so a caller can name the first bad one."""
    m = np.asarray(m, dtype=float)
    ok = is_symmetric(m) & _has_cholesky(symmetrize(m))
    return bool(ok) if m.ndim == 2 else ok


def box_nonempty(lower, upper):
    """The box rule, one bool per box [L, U] of symmetric stacks: U - L + ``BOX_TOL`` I passes ``_has_cholesky``."""
    return _has_cholesky(upper - lower + BOX_TOL * np.eye(lower.shape[-1]))


def _has_cholesky(m):
    """True where the symmetric M is finite and has a Cholesky factor (Higham 2002, ch. 10), one bool per matrix: a
    stack is factored at once, and one matrix at a time only when that fails. A NaN pivot need not fail."""
    stack = m.reshape(-1, *m.shape[-2:])
    ok = np.isfinite(stack).all(axis=(1, 2))
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:  # a lone matrix has none; in a stack, factor each to tell which
        ok &= [len(stack) > 1 and bool(_has_cholesky(a)) for a in stack]
    return ok.reshape(m.shape[:-2])


def pinv(m):
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix.

    Computed by eigendecomposition; eigenvalues at or below k * eps_machine
    * lambda_max are treated as exact zeros.
    """
    m = as_symmetric(m)
    w, v = np.linalg.eigh(m)
    lam_max = max(float(w.max()), 0.0)
    if lam_max > 0 and float(w.min()) < -1e-8 * lam_max:
        raise ValueError("matrix is not positive semidefinite")
    cut = m.shape[0] * np.finfo(float).eps * lam_max
    inv = np.array([1.0 / lam if lam > cut else 0.0 for lam in w])
    return symmetrize((v * inv) @ v.T)


def parallel_add(a, b):
    """Parallel sum A(A+B)^+ B of two symmetric PSD matrices.

    For strictly positive-definite inputs this equals (A^-1 + B^-1)^-1; it is
    commutative and sits below both arguments in the Loewner order.
    """
    a = as_symmetric(a)
    b = as_symmetric(b)
    _check_same_dim(a, b)
    return symmetrize(a @ pinv(a + b) @ b)


def loewner_leq(a, b, tol=BOX_TOL):
    """True iff A <= B in the Loewner order, i.e. min eig(B - A) >= -tol."""
    a = as_symmetric(a)
    b = as_symmetric(b)
    _check_same_dim(a, b)
    return float(np.linalg.eigvalsh(b - a).min()) >= -tol


def psd_part(m):
    """Nearest PSD matrix in Frobenius norm: clip negative eigenvalues."""
    w, v = np.linalg.eigh(symmetrize(m))
    return symmetrize((v * np.maximum(w, 0.0)[..., None, :]) @ v.swapaxes(-1, -2))


def project_box(x, lower, upper, max_iter=500):
    """Project a symmetric matrix onto the Loewner box {Y : L <= Y <= U}.

    Runs Dykstra's alternating projections between the half-cones
    {Y >= L} and {Y <= U}, each realized by eigenvalue clipping. A pass
    depends only on the dual iterate Q carried at {Y <= U} (Boyle & Dykstra
    1986), so Q, from Q = 0, is each row's whole state: the pass T makes
    Z = L + [X - Q - L]_+ and Y = U - [U - Z - Q]_+, and T(Q) = Z + Q - Y.

    A row stops after its first pass when that pass meets the KKT conditions
    of the projection (Birgin & Raydan 2005). With P = X - Z <= 0, the pass
    has Y <= U, X - Y = P + T(0) and T(0) (U - Y) = 0 by construction; the
    row is certified when also min eig(Y - L) >= -BOX_TOL and
    ||P (Y - L)||_F <= ``STOP_TOL``. For the projection Y* and a feasible Y this
    bounds ||Y - Y*||_F^2 <= tr(-P (Y - L)) <= sqrt(k) ``STOP_TOL``, and since
    U - L = (U - Y) + (Y - L), it proves the row's box non-empty under
    ``BOX_TOL``, up to rounding. Any other row stops at the first pass whose
    Y moved by less than ``STOP_TOL`` in Frobenius norm and has
    min eig(Y - L) >= -``STOP_TOL``; a row whose Y moved that little but sits
    further below L iterates on.

    From the third pass on, T is Anderson-accelerated (Walker & Ni 2011; see
    ``_Anderson``): a row's next Q is an affine combination of its last
    outputs of T, not the newest one alone. Any fixed point of T gives the
    Frobenius projection onto the box. Y is always the Y of a pass, so Y <= U
    holds exactly, and it is exactly symmetric. A row that the first pass
    does not certify but that stops within two passes returns plain
    Dykstra's Y up to rounding.

    An (n, k, k) stack is projected row by row in one batched loop; each row
    stops at the pass its one-matrix call would. Returns ``(Y, converged)``:
    ``converged`` is one bool, false if any row missed both stop rules (that
    row's last iterate is kept). X, L and U are checked for symmetry in one
    pass over the three. A box the first pass does not certify that fails
    ``box_nonempty`` raises ``InfeasibleBoundsError`` before anything is returned.
    """
    x, lower, upper = (np.asarray(m, dtype=float) for m in (x, lower, upper))
    _check_same_dim(x, lower, upper)
    shape = x.shape
    if x.ndim not in (2, 3):
        raise ValueError(f"expected a square matrix or a stack of them, got shape {shape}")
    x, lo, up = as_symmetric(np.stack((x, lower, upper)).reshape(-1, *shape[-2:])).reshape(3, -1, *shape[-2:])

    if max_iter < 1:
        _require_nonempty(lo, up)
        return x.reshape(shape), False
    z = lo + psd_part(x - lo)  # the first pass, from Q = 0
    y_out = up - psd_part(up - z)
    gap = y_out - lo
    low = np.linalg.eigvalsh(gap).min(axis=-1)
    certified = (low >= -BOX_TOL) & (np.linalg.norm((x - z) @ gap, axis=(-2, -1)) <= STOP_TOL)
    _require_nonempty(lo[~certified], up[~certified])
    live = ~certified & ~((np.linalg.norm(y_out - x, axis=(-2, -1)) < STOP_TOL) & (low >= -STOP_TOL))
    if not live.any():
        return y_out.reshape(shape), True
    rows = np.flatnonzero(live)  # the rows still iterating
    lo, up, q = lo[live], up[live], (z - y_out)[live]
    x_lo = x[rows] - lo
    history = None  # made once some row outlives its second pass
    for _ in range(1, max_iter):
        z = lo + psd_part(x_lo - q)
        y = up - psd_part(up - (z + q))
        t = z + q - y
        done = np.linalg.norm(y - y_out[rows], axis=(-2, -1)) < STOP_TOL
        y_out[rows] = y
        if done.any():
            done[done] = np.linalg.eigvalsh(y[done] - lo[done]).min(axis=-1) >= -STOP_TOL
            if done.all():
                return y_out.reshape(shape), True
            live = ~done
            rows, lo, up, x_lo, q, t = rows[live], lo[live], up[live], x_lo[live], q[live], t[live]
            if history is not None:
                history.keep(live)
        if history is None:
            history = _Anderson(q)
        q = history.extrapolate(t, t - q)
    return y_out.reshape(shape), False


def _require_nonempty(lo, up):
    """Raise ``InfeasibleBoundsError`` if any box [L, U] of the stacks is empty (``box_nonempty``)."""
    if len(lo) and not box_nonempty(lo, up).all():
        raise InfeasibleBoundsError("empty Loewner box: L is not below U")


class _Anderson:
    """Anderson-acceleration history of the live rows of one ``project_box``
    call (type II; Walker & Ni 2011, with the restart safeguard of Zhang,
    O'Donoghue & Boyd 2020).

    Each row keeps the differences between its successive outputs t of the
    Dykstra map on q and between their residuals f = t - q, ``ANDERSON_DEPTH``
    of each in a ring shared by all rows, with their Gram matrix. A row uses
    only its ``valid`` newest slots: when its residual norm grows, it drops
    them all and takes the plain Dykstra step once.
    """

    def __init__(self, t):
        """Start from T's first output t = T(0), whose residual is t itself."""
        self.t = self.f = t
        self.f_norm = np.sqrt(np.einsum("nij,nij->n", t, t))
        self.dt = np.zeros((len(t), ANDERSON_DEPTH, *t.shape[1:]))
        self.df = np.zeros_like(self.dt)
        self.gram = np.zeros((len(t), ANDERSON_DEPTH, ANDERSON_DEPTH))
        self.valid = np.zeros(len(t), dtype=int)
        self.taken = 0  # differences taken; the newest sits in slot (taken - 1) % depth

    def keep(self, live):
        """Drop the rows that stopped."""
        for name in ("t", "f", "f_norm", "dt", "df", "gram", "valid"):
            setattr(self, name, getattr(self, name)[live])

    def extrapolate(self, t, f):
        """Record outputs ``t`` of T with residuals ``f`` (one k x k matrix
        per row) and return the next iterates: t minus the combination of
        T-output differences whose residual differences best cancel f."""
        j = self.taken % ANDERSON_DEPTH
        self.taken += 1
        f_norm = np.sqrt(np.einsum("nij,nij->n", f, f))
        self.dt[:, j] = t - self.t
        self.df[:, j] = f - self.f
        self.valid = np.where(f_norm > self.f_norm, 0, np.minimum(self.valid + 1, ANDERSON_DEPTH))
        self.t, self.f, self.f_norm = t, f, f_norm
        self.gram[:, j] = self.gram[:, :, j] = np.einsum("nmij,nij->nm", self.df, self.df[:, j])
        rhs = np.einsum("nmij,nij->nm", self.df, f)

        slots = np.arange(ANDERSON_DEPTH)
        use = (j - slots) % ANDERSON_DEPTH < self.valid[:, None]
        a = np.where(use[:, :, None] & use[:, None, :], self.gram, 0.0)
        # tiny keeps the solve regular when every used difference is zero
        ridge = ANDERSON_RIDGE * np.einsum("nii->n", a) + np.finfo(float).tiny
        a[:, slots, slots] += np.where(use, ridge[:, None], 1.0)  # unused slots get weight 0
        gamma = np.linalg.solve(a, np.where(use, rhs, 0.0)[..., None])[..., 0]
        return t - np.einsum("nm,nmij->nij", gamma, self.dt)
