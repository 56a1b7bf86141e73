"""Dense linear-algebra utilities shared by the filter implementations.

Everything here operates on plain row-major float64 ``numpy`` arrays and
never mutates its inputs.  Two groups of helpers live here, beside the
array coercions and ``SaddleInverseBlocks``, the value type that
``constrained.block_s_inverse`` returns:

* Covariance hygiene (``symmetrize``, ``min_eigenvalue``, ``solve_spd``,
  ``psd_factor``) used to keep error covariances symmetric positive
  semidefinite over long filter runs.
* The per-step kernels' LAPACK calls on handles bound once at import from
  scipy's compiled wrappers, among them the fusion saddle matrix's
  Bunch-Kaufman solver (``_saddle_solver``) and the ``?syevr`` call that
  finds only the smallest eigenvalue (``_min_eig``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import cache
from operator import attrgetter
from typing import Callable

import numpy as np

from .errors import NotSquare, SingularBlock, SingularCovariance

# Invertibility tests reject matrices whose condition estimate exceeds this.
CONDITION_LIMIT = 1e12

_EPS = np.finfo(float).eps


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2:
        m = np.atleast_2d(m)
    if m.ndim != 2:
        raise ValueError(f"{name} must be at most 2-D, got {m.ndim} dimensions")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a 1-D float array, rejecting non-finite entries."""
    v = np.asarray(a, dtype=float)
    if v.ndim < 1:
        v = np.atleast_1d(v)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size and not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


def frozen_array(a) -> np.ndarray:
    """Copy ``a`` into a read-only float array (for immutable value types)."""
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


def symmetrize(p) -> np.ndarray:
    """Average a square matrix with its transpose."""
    m = as_matrix(p, "matrix")
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"cannot symmetrize a {m.shape[0]}x{m.shape[1]} matrix")
    return 0.5 * (m + m.T)


def min_eigenvalue(p) -> float:
    """Smallest eigenvalue of the symmetrized input."""
    s = symmetrize(p)
    if s.size == 0:
        raise ValueError("min_eigenvalue of an empty matrix is undefined")
    return _min_eig(s)


def _min_eig(s: np.ndarray) -> float:
    """Smallest eigenvalue of a non-empty symmetric float array ``s``."""
    n = s.shape[0]
    if n == 1:
        return float(s[0, 0])
    if n == 2:
        # closed form keeps per-step covariance telemetry cheap
        s00, s10, s11 = float(s[0, 0]), float(s[1, 0]), float(s[1, 1])
        return 0.5 * (s00 + s11) - float(np.hypot(0.5 * (s00 - s11), s10))
    low, _, _, _, info = _SYEVR(s, compute_v=0, range="I", il=1, iu=1)
    if info:
        raise np.linalg.LinAlgError("eigenvalue computation did not converge")
    return float(low[0])


def psd_factor(m) -> np.ndarray:
    """A factor ``L`` with ``L L'`` equal to the symmetric positive
    semidefinite (possibly singular) input.

    Built from the eigendecomposition of the symmetrized input, with
    negative roundoff eigenvalues clipped to zero.
    """
    vals, vecs = np.linalg.eigh(symmetrize(m))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def pseudo_inverse(m, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse.

    Singular values below ``tol`` times the largest singular value are
    treated as zero.  The default ``tol`` is ``max(shape) * machine_eps``.
    """
    a = as_matrix(m, "matrix")
    if tol is None:
        tol = max(a.shape) * _EPS if a.size else 0.0
    elif tol <= 0.0:
        raise ValueError("tol must be positive")
    if a.size == 0:
        return np.zeros(a.shape[::-1])
    return np.linalg.pinv(a, rcond=tol)


def spd_cholesky(m, name: str = "matrix", error=SingularBlock) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    The input is symmetrized first; failure of the factorization raises
    ``error``.
    """
    sym = symmetrize(m)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        raise error(f"{name} is not positive definite") from None


def solve_spd(m, rhs, name: str = "matrix", error=SingularBlock) -> np.ndarray:
    """Solve ``m @ x = rhs`` for symmetric positive definite ``m`` via Cholesky."""
    sym = symmetrize(m)
    b = np.asarray(rhs, dtype=float)
    if sym.size == 0:
        return np.zeros_like(b)
    return _cholesky_solve(sym, b, name, error)


def _flapack():
    """scipy's compiled LAPACK wrappers (``scipy/linalg/_flapack``), loaded from
    their file: ``find_spec`` locates scipy without running any of its code."""
    scipy = importlib.util.find_spec("scipy")
    path = os.path.join(os.path.dirname(scipy.origin) if scipy else "scipy", "linalg",
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"eqkf needs scipy's LAPACK wrappers, and {path} is missing")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The LAPACK routines the per-step kernels call directly, bound once here:
# ?potrf, ?potrs and ?trtrs behind scipy's cho_factor, cho_solve and
# solve_triangular; ?geqrf and ?orgqr behind np.linalg.qr (:func:`_qr`);
# ?sytrf, ?sytrf_lwork, ?sycon and ?sytrs, the Bunch-Kaufman
# factorization, condition estimate and solve of :func:`_saddle_solver`;
# and ?syevr, the smallest eigenvalue of :func:`_min_eig`.  These are the objects
# get_lapack_funcs(..., dtype=np.float64) returns, without importing scipy.linalg.
(
    _POTRF, _POTRS, _TRTRS, _GEQRF, _ORGQR, _SYTRF, _SYTRF_LWORK, _SYCON, _SYTRS, _SYEVR
) = attrgetter("dpotrf", "dpotrs", "dtrtrs", "dgeqrf", "dorgqr", "dsytrf", "dsytrf_lwork",
               "dsycon", "dsytrs", "dsyevr")(_flapack())


def _cholesky_solve(m, rhs, name: str, error) -> np.ndarray:
    """``m^-1 rhs`` for a non-empty float array ``m`` whose lower triangle is
    that of a symmetric positive definite matrix: ``?potrf`` and ``?potrs``
    as ``cho_factor``/``cho_solve`` call them, without their checks.  A
    failed factorization raises ``error``."""
    factor, info = _POTRF(m, lower=1, clean=0)
    if info > 0:
        raise error(f"{name} is not positive definite")
    return _POTRS(factor, rhs, lower=1)[0]


def _qr(m) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factors ``(Q, R)`` of a float array ``m`` with at least as
    many rows as columns: ``?geqrf`` and ``?orgqr`` as ``np.linalg.qr`` calls
    them, without its checks.  ``Q`` and the upper triangle of ``R`` equal
    ``np.linalg.qr(m)`` bit for bit; the strict lower triangle of ``R`` holds
    the Householder vectors, which :func:`_triangular_solve` never reads."""
    factor, tau, _, _ = _GEQRF(m)
    q_mat, _, _ = _ORGQR(factor, tau)
    return q_mat, factor[: m.shape[1]]


def _saddle_solver(saddle) -> Callable[[np.ndarray], np.ndarray]:
    """A solver for ``saddle @ x = rhs`` from one Bunch-Kaufman factorization
    (LAPACK ``?sytrf``) of ``D saddle D``, ``D`` the diagonal with entries
    ``1 / sqrt(max |row|)``, solved by ``?sytrs``.  Raises
    ``SingularCovariance`` when a row is zero, a pivot block is exactly
    singular or the ``?sycon`` reciprocal condition estimate of the
    equilibrated matrix is below ``1 / CONDITION_LIMIT``."""
    row_max = np.abs(saddle).max(axis=1)
    if not row_max.all():
        raise SingularCovariance("fusion saddle matrix has a zero row")
    d = 1.0 / np.sqrt(row_max)
    scaled = d[:, None] * saddle * d
    work, _ = _SYTRF_LWORK(scaled.shape[0])
    factor, ipiv, info = _SYTRF(scaled, lwork=max(int(work), 1))
    rcond = (
        0.0 if info > 0
        else _SYCON(factor, ipiv, np.abs(scaled).sum(axis=0).max())[0]
    )
    if rcond < 1.0 / CONDITION_LIMIT:
        raise SingularCovariance(
            f"fusion saddle matrix is numerically singular "
            f"(reciprocal condition estimate {rcond:.3e})"
        )
    return lambda rhs: d[:, None] * _SYTRS(factor, ipiv, d[:, None] * rhs)[0]


@cache
def _identity(n: int) -> np.ndarray:
    """A read-only ``n x n`` identity shared by the per-step kernels."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _triangular_solve(t, rhs, lower: bool = False) -> np.ndarray:
    """``t^-1 rhs`` for a float array ``t`` whose upper (or, if ``lower``,
    lower) triangle is that of a nonsingular triangular matrix: ``?trtrs``
    as ``solve_triangular`` calls it, without its checks.  The other
    triangle is never read."""
    if t.flags.f_contiguous:
        return _TRTRS(t, rhs, lower=int(lower))[0]
    return _TRTRS(t.T, rhs, lower=int(not lower), trans=1)[0]


@dataclass(frozen=True)
class SaddleInverseBlocks:
    """Blocks of the inverse of a two-by-two block matrix.

    When the inverted matrix is symmetric, ``upper_left`` and
    ``lower_right`` are symmetric and ``lower_left`` equals
    ``upper_right`` transposed; that is a property of the input, not a
    construction requirement.
    """

    upper_left: np.ndarray
    upper_right: np.ndarray
    lower_left: np.ndarray
    lower_right: np.ndarray

    def __post_init__(self):
        ul = as_matrix(self.upper_left, "upper_left")
        ur = as_matrix(self.upper_right, "upper_right")
        ll = as_matrix(self.lower_left, "lower_left")
        lr = as_matrix(self.lower_right, "lower_right")
        if ul.shape[0] != ul.shape[1] or lr.shape[0] != lr.shape[1]:
            raise NotSquare("diagonal blocks must be square")
        if ur.shape != (ul.shape[0], lr.shape[0]) or ll.shape != (lr.shape[0], ul.shape[0]):
            raise ValueError("off-diagonal blocks have inconsistent shapes")
        object.__setattr__(self, "upper_left", frozen_array(ul))
        object.__setattr__(self, "upper_right", frozen_array(ur))
        object.__setattr__(self, "lower_left", frozen_array(ll))
        object.__setattr__(self, "lower_right", frozen_array(lr))

    def assemble(self) -> np.ndarray:
        return np.block(
            [[self.upper_left, self.upper_right], [self.lower_left, self.lower_right]]
        )

