"""Dense algebra on small symmetric positive-(semi)definite matrices.

Everything here is direct eigendecomposition on k x k arrays with k <= 16;
there are no iterative solvers. All returned matrices are explicitly
symmetrized so that roundoff asymmetry cannot accumulate in callers.
"""

import numpy as np

from .errors import InfeasibleBoundsError

MAX_DIM = 16

SYM_RTOL = 1e-12


def symmetrize(m):
    """Return (M + M^T)/2; a stack of matrices is symmetrized matrix by matrix."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def as_symmetric(m, rtol=SYM_RTOL):
    """Validate that ``m`` is square, small and symmetric; return it symmetrized.

    Asymmetry is measured relative to the largest entry magnitude.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds supported maximum {MAX_DIM}")
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > rtol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return symmetrize(m)


def _check_same_dim(a, b):
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def is_spd(m, tol=0.0):
    """True iff ``m`` is symmetric with smallest eigenvalue > tol."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if np.abs(m - m.T).max() > SYM_RTOL * max(np.abs(m).max(), 1.0):
        return False
    return float(np.linalg.eigvalsh(symmetrize(m)).min()) > tol


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


def loewner_leq(a, b, tol=1e-9):
    """True iff A <= B in the Loewner order, i.e. min eig(B - A) >= -tol."""
    a = as_symmetric(a)
    b = as_symmetric(b)
    _check_same_dim(a, b)
    return float(np.linalg.eigvalsh(b - a).min()) >= -tol


def psd_part(m):
    """Nearest PSD matrix in Frobenius norm: clip negative eigenvalues."""
    w, v = np.linalg.eigh(symmetrize(m))
    return symmetrize((v * np.clip(w, 0.0, None)) @ v.T)


def project_box(x, lower, upper, tol=1e-10, max_iter=500):
    """Project a symmetric matrix onto the Loewner box {Y : L <= Y <= U}.

    Runs Dykstra's alternating projections between the half-cones
    {Y >= L} and {Y <= U}, each realized by eigenvalue clipping, until the
    Frobenius change between successive iterates drops below ``tol``.

    Returns ``(Y, converged)``; on non-convergence the best iterate is
    returned with ``converged = False``.
    """
    x = as_symmetric(x)
    lower = as_symmetric(lower)
    upper = as_symmetric(upper)
    _check_same_dim(x, lower)
    _check_same_dim(x, upper)
    if not loewner_leq(lower, upper, tol=1e-12):
        raise InfeasibleBoundsError("empty Loewner box: L is not below U")

    y = x.copy()
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    for _ in range(max_iter):
        y_prev = y
        z = lower + psd_part(y + p - lower)
        p = y + p - z
        y = upper - psd_part(upper - (z + q))
        q = z + q - y
        if np.linalg.norm(y - y_prev, "fro") < tol:
            return y, True
    return y, False
