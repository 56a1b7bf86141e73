"""Dense linear-algebra utilities shared by the filter implementations.

Everything here operates on plain row-major float64 ``numpy`` arrays and
never mutates its inputs.  Three groups of helpers live here:

* Kronecker/vectorization calculus (``kron``, ``vec``, ``unvec``) used to
  pose matrix-valued least-squares problems as ordinary linear systems.
* Saddle-point block algebra (``SaddlePointBlocks``, ``saddle_inverse``)
  for two-by-two block matrices of the form ``[[A, B'], [B, -C]]``.
* Covariance hygiene (``symmetrize``, ``min_eigenvalue``, ``solve_spd``,
  ``psd_factor``, ``check_symmetric_psd``) used to keep error covariances
  symmetric positive semidefinite over long filter runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotSquare, SingularBlock

# Invertibility tests reject matrices whose condition estimate exceeds this.
CONDITION_LIMIT = 1e12

_EPS = np.finfo(float).eps


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float array, rejecting non-finite entries."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2:
        raise ValueError(f"{name} must be at most 2-D, got {m.ndim} dimensions")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a 1-D float array, rejecting non-finite entries."""
    v = np.atleast_1d(np.asarray(a, dtype=float))
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


def kron(a, b) -> np.ndarray:
    """Kronecker product: block matrix with (i, j) block ``a[i, j] * b``."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def vec(a) -> np.ndarray:
    """Stack the columns of ``a`` into one vector, first column on top.

    A 1-D input is returned unchanged (a vector is its own vectorization).
    """
    arr = np.asarray(a, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("vec input has non-finite entries")
    if arr.ndim == 1:
        return arr.copy()
    if arr.ndim != 2:
        raise ValueError(f"vec input must be at most 2-D, got {arr.ndim} dimensions")
    return arr.reshape(-1, order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a stacked vector back into a matrix."""
    arr = as_vector(v, "unvec input")
    if arr.size != rows * cols:
        raise ValueError(f"cannot reshape length {arr.size} into {rows}x{cols}")
    return arr.reshape((rows, cols), order="F")


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
    n = s.shape[0]
    if n == 1:
        return float(s[0, 0])
    if n == 2:
        # closed form keeps per-step covariance telemetry cheap
        half = 0.5 * (s[0, 0] + s[1, 1])
        radius = float(np.hypot(0.5 * (s[0, 0] - s[1, 1]), s[1, 0]))
        return float(half - radius)
    return float(np.linalg.eigvalsh(s)[0])


def check_symmetric_psd(m: np.ndarray, name: str, definite: bool = False) -> None:
    """Raise ``ValueError`` unless ``m`` is symmetric and positive semidefinite
    (definite if ``definite``), to 1e-9 and -1e-12 of ``max(1, max |m|)``."""
    if m.size == 0:
        return
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-9 * scale:
        raise ValueError(f"{name} must be symmetric")
    low = float(np.linalg.eigvalsh(symmetrize(m))[0])
    if definite and low <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    if low < -1e-12 * scale:
        raise ValueError(f"{name} must be positive semidefinite")


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


def invert_checked(m, name: str = "matrix", error=SingularBlock) -> np.ndarray:
    """Dense inverse guarded by an SVD condition estimate.

    Raises ``error`` when the condition estimate exceeds ``CONDITION_LIMIT``.
    """
    a = as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"{name} must be square, got shape {a.shape}")
    if a.size == 0:
        return a.copy()
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise error(f"{name} is numerically singular (condition estimate {cond:.3e})")
    return np.linalg.inv(a)


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


# The LAPACK routines behind scipy's cho_factor, cho_solve and
# solve_triangular, called directly by the per-step kernels.
_POTRF, _POTRS, _TRTRS = scipy.linalg.get_lapack_funcs(
    ("potrf", "potrs", "trtrs"), dtype=np.float64
)


def _cholesky_solve(m, rhs, name: str, error) -> np.ndarray:
    """``m^-1 rhs`` for a non-empty float array ``m`` whose lower triangle is
    that of a symmetric positive definite matrix: ``?potrf`` and ``?potrs``
    as ``cho_factor``/``cho_solve`` call them, without their checks.  A
    failed factorization raises ``error``."""
    factor, info = _POTRF(m, lower=1, clean=0)
    if info > 0:
        raise error(f"{name} is not positive definite")
    return _POTRS(factor, rhs, lower=1)[0]


def _upper_triangular_solve(r, rhs) -> np.ndarray:
    """``r^-1 rhs`` for a nonsingular upper triangular float array ``r``:
    ``?trtrs`` as ``solve_triangular`` calls it, without its checks."""
    if r.flags.f_contiguous:
        return _TRTRS(r, rhs, lower=0)[0]
    return _TRTRS(r.T, rhs, lower=1, trans=1)[0]


@dataclass(frozen=True)
class SaddlePointBlocks:
    """Blocks of the saddle-point matrix ``[[a, b'], [b, -c]]``.

    ``a_block`` is square, ``c_block`` is square, and ``b_block`` couples
    them; ``assemble`` returns the dense matrix the blocks describe.
    """

    a_block: np.ndarray
    b_block: np.ndarray
    c_block: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a_block, "a_block")
        b = as_matrix(self.b_block, "b_block")
        c = as_matrix(self.c_block, "c_block")
        if a.shape[0] != a.shape[1]:
            raise NotSquare(f"a_block must be square, got shape {a.shape}")
        if c.shape[0] != c.shape[1]:
            raise NotSquare(f"c_block must be square, got shape {c.shape}")
        if b.shape != (c.shape[0], a.shape[0]):
            raise ValueError(
                f"b_block must have shape {(c.shape[0], a.shape[0])}, got {b.shape}"
            )
        object.__setattr__(self, "a_block", frozen_array(a))
        object.__setattr__(self, "b_block", frozen_array(b))
        object.__setattr__(self, "c_block", frozen_array(c))

    def assemble(self) -> np.ndarray:
        return np.block(
            [[self.a_block, self.b_block.T], [self.b_block, -self.c_block]]
        )


@dataclass(frozen=True)
class SaddleInverseBlocks:
    """Blocks of the inverse of an assembled saddle-point matrix.

    When the originating blocks are symmetric, ``upper_left`` and
    ``lower_right`` are symmetric and ``lower_left`` equals
    ``upper_right`` transposed; that is a property of the inputs, not a
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


def saddle_inverse(blocks: SaddlePointBlocks) -> SaddleInverseBlocks:
    """Analytic block inverse of ``[[A, B'], [B, -C]]``.

    Uses the Schur complement ``J = -(C + B A^-1 B')``; both ``A`` and
    ``J`` must pass the condition-estimate invertibility test, otherwise
    ``SingularBlock`` is raised.
    """
    a_inv = invert_checked(blocks.a_block, "leading block")
    b = blocks.b_block
    schur = -(blocks.c_block + b @ a_inv @ b.T)
    j_inv = invert_checked(schur, "Schur complement")
    ainv_bt = a_inv @ b.T
    b_ainv = b @ a_inv
    return SaddleInverseBlocks(
        upper_left=a_inv + ainv_bt @ j_inv @ b_ainv,
        upper_right=-ainv_bt @ j_inv,
        lower_left=-j_inv @ b_ainv,
        lower_right=j_inv,
    )
