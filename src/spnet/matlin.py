"""Dense algebra on small symmetric positive-(semi)definite matrices.

Everything here is direct eigendecomposition on k x k arrays with k <= 16;
``is_symmetric``, ``as_symmetric``, ``is_spd``, ``loewner_leq``, ``psd_part``
and ``project_box`` also take (n, k, k) stacks, matrix by matrix. All
returned matrices are explicitly symmetrized so that roundoff asymmetry
cannot accumulate in callers.
"""

import numpy as np

from .errors import InfeasibleBoundsError

MAX_DIM = 16

SYM_RTOL = 1e-12
BOX_TOL = 1e-12  # a box [L, U] is non-empty iff min eig(U - L) >= -BOX_TOL


def symmetrize(m):
    """Return (M + M^T)/2; a stack of matrices is symmetrized matrix by matrix."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def is_symmetric(m, rtol=SYM_RTOL):
    """True where M is symmetric within ``rtol`` times its own largest entry
    magnitude: the one symmetry rule. One bool per matrix of an (n, k, k) stack."""
    m = np.asarray(m, dtype=float)
    return ~(np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1)) > rtol * np.abs(m).max(axis=(-2, -1)))


def as_symmetric(m, rtol=SYM_RTOL, describe=None):
    """Validate that ``m`` is square, small and symmetric (``is_symmetric``);
    return it symmetrized. ``m`` is one matrix or an (n, k, k) stack; the
    error names the first asymmetric one as ``describe(its index)`` if given."""
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[-1]} exceeds supported maximum {MAX_DIM}")
    ok = is_symmetric(m, rtol)
    if not ok.all():
        what = "matrix" if describe is None else describe(int(np.argmin(ok)))
        raise ValueError(f"{what} is not symmetric within tolerance")
    return symmetrize(m)


def _check_same_dim(*ms):
    if len({m.shape for m in ms}) > 1:
        raise ValueError("dimension mismatch: " + " vs ".join(str(m.shape) for m in ms))


def is_spd(m, tol=0.0):
    """True where M is symmetric (``is_symmetric``) with smallest eigenvalue > tol.

    ``m`` is one square matrix or an (n, k, k) stack, which gets one bool per
    matrix so that a caller can name the first bad one.
    """
    m = np.asarray(m, dtype=float)
    ok = is_symmetric(m) & (np.linalg.eigvalsh(symmetrize(m)).min(axis=-1) > tol)
    return bool(ok) if m.ndim == 2 else ok


def pinv(m, tol=None):
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix.

    Computed by eigendecomposition; eigenvalues below ``tol * lambda_max``
    are treated as exact zeros. The default cutoff is k * eps_machine.
    """
    m = as_symmetric(m)
    if tol is None:
        tol = m.shape[0] * np.finfo(float).eps
    w, v = np.linalg.eigh(m)
    lam_max = max(float(w.max()), 0.0)
    if lam_max > 0 and float(w.min()) < -1e-8 * lam_max:
        raise ValueError("matrix is not positive semidefinite")
    cut = tol * lam_max
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
    return symmetrize((v * np.clip(w, 0.0, None)[..., None, :]) @ v.swapaxes(-1, -2))


def project_box(x, lower, upper, tol=1e-10, max_iter=500):
    """Project a symmetric matrix onto the Loewner box {Y : L <= Y <= U}.

    Runs Dykstra's alternating projections between the half-cones
    {Y >= L} and {Y <= U}, each realized by eigenvalue clipping, until the
    Frobenius change between successive iterates drops below ``tol``.

    An (n, k, k) stack is projected row by row in one batched loop; each row
    stops at the iteration its one-matrix call would. Returns ``(Y,
    converged)``: ``converged`` is one bool, false if any row missed the stop
    rule (that row's last iterate is kept). Empty boxes raise ``InfeasibleBoundsError``.
    """
    x, lower, upper = (as_symmetric(m) for m in (x, lower, upper))
    _check_same_dim(x, lower, upper)
    if float(np.linalg.eigvalsh(upper - lower).min()) < -BOX_TOL:
        raise InfeasibleBoundsError("empty Loewner box: L is not below U")

    shape = x.shape
    y, lower, upper = (m.reshape(-1, *shape[-2:]) for m in (x.copy(), lower, upper))
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    rows = np.arange(len(y))  # the rows still iterating
    for _ in range(max_iter):
        lo, up, y_prev, p_r, q_r = lower[rows], upper[rows], y[rows], p[rows], q[rows]
        z = lo + psd_part(y_prev + p_r - lo)
        p[rows] = y_prev + p_r - z
        y[rows] = y_r = up - psd_part(up - (z + q_r))
        q[rows] = z + q_r - y_r
        rows = rows[~(np.linalg.norm(y_r - y_prev, axis=(-2, -1)) < tol)]
        if not len(rows):
            return y.reshape(shape), True
    return y.reshape(shape), False
