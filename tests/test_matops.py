"""The array coercions, the symmetric matrix helpers, and the LAPACK calls
the per-step kernels make on handles bound from scipy's compiled wrappers."""

import importlib.machinery
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from eqkf.errors import NotSquare, SingularBlock
from eqkf.matops import (
    SaddleInverseBlocks,
    _cholesky_solve,
    _flapack,
    _identity,
    _qr,
    _triangular_solve,
    as_matrix,
    as_vector,
    min_eigenvalue,
    pseudo_inverse,
    symmetrize,
)

from helpers import rel


def test_saddle_inverse_blocks_assemble_in_block_order():
    blocks = SaddleInverseBlocks([[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]], [[7.0, 8.0]], [[9.0]])
    assert_allclose(blocks.assemble(), [[1, 2, 5], [3, 4, 6], [7, 8, 9]])


def test_saddle_inverse_blocks_reject_rectangular_diagonal_blocks():
    with pytest.raises(NotSquare):
        SaddleInverseBlocks(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)), np.ones((1, 1)))
    with pytest.raises(NotSquare):
        SaddleInverseBlocks(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.ones((1, 2)))


def test_saddle_inverse_blocks_reject_inconsistent_off_diagonal_shapes():
    with pytest.raises(ValueError):
        SaddleInverseBlocks(np.eye(2), np.ones((1, 2)), np.ones((1, 2)), np.eye(1))
    with pytest.raises(ValueError):
        SaddleInverseBlocks(np.eye(2), np.ones((2, 1)), np.ones((2, 1)), np.eye(1))


def test_saddle_inverse_blocks_hold_read_only_copies():
    upper_left = np.eye(2)
    blocks = SaddleInverseBlocks(upper_left, np.zeros((2, 1)), np.zeros((1, 2)), np.eye(1))
    upper_left[0, 0] = 5.0
    assert blocks.upper_left[0, 0] == 1.0
    for block in (blocks.upper_left, blocks.upper_right, blocks.lower_left, blocks.lower_right):
        with pytest.raises(ValueError):
            block[0, 0] = 2.0


def test_pseudo_inverse_identity():
    assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3))


def test_pseudo_inverse_rank_deficient_diagonal():
    assert_allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pseudo_inverse_full_column_rank():
    rng = np.random.default_rng(47)
    m = rng.standard_normal((4, 2))
    normal_eq = np.linalg.solve(m.T @ m, m.T)
    assert rel(pseudo_inverse(m), normal_eq) < 1e-10


def test_pseudo_inverse_penrose_conditions():
    rng = np.random.default_rng(53)
    # rank-2 5x4 matrix
    m = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
    p = pseudo_inverse(m)
    assert rel(m @ p @ m, m) < 1e-10
    assert rel(p @ m @ p, p) < 1e-10
    assert rel((m @ p).T, m @ p) < 1e-10
    assert rel((p @ m).T, p @ m) < 1e-10


def test_symmetrize_averages_off_diagonals():
    assert_allclose(symmetrize([[1, 0.1], [0.3, 1]]), [[1, 0.2], [0.2, 1]])


def test_symmetrize_fixed_point():
    s = np.array([[2.0, 0.5], [0.5, 3.0]])
    assert np.array_equal(symmetrize(s), s)


def test_symmetrize_annihilates_skew_part():
    assert_allclose(symmetrize([[0, -1], [1, 0]]), np.zeros((2, 2)))


def test_symmetrize_rejects_rectangular():
    with pytest.raises(NotSquare):
        symmetrize(np.zeros((2, 3)))


def test_min_eigenvalue_identity():
    assert min_eigenvalue(np.eye(2)) == pytest.approx(1.0)


def test_min_eigenvalue_indefinite_diagonal():
    assert min_eigenvalue(np.diag([3.0, -2.0])) == pytest.approx(-2.0)


def test_min_eigenvalue_coupled_pair():
    # eigenvalues of [[2,1],[1,2]] are 1 and 3
    assert min_eigenvalue([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0)


def test_min_eigenvalue_rejects_rectangular():
    with pytest.raises(NotSquare):
        min_eigenvalue(np.zeros((1, 3)))


def test_min_eigenvalue_matches_dense_solver():
    # small sizes take a closed-form path; confirm it against the
    # general eigensolver across sizes
    rng = np.random.default_rng(59)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        s = symmetrize(rng.standard_normal((n, n)))
        dense = float(np.linalg.eigvalsh(s)[0])
        assert min_eigenvalue(s) == pytest.approx(dense, abs=1e-12)


def test_matrix_construction_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 1.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])


def test_vector_construction_rejects_matrices():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("n", [2, 3, 5, 24, 48, 96])
def test_kernel_solves_equal_the_scipy_wrappers_bit_for_bit(n):
    # the kernels call ?potrf/?potrs/?trtrs directly, as cho_factor,
    # cho_solve and solve_triangular do
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    spd = symmetrize(g @ g.T + n * np.eye(n))
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3)), np.eye(n)):
        ref = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(spd, lower=True, check_finite=False), rhs,
            check_finite=False,
        )
        assert np.array_equal(_cholesky_solve(spd, rhs, "m", SingularBlock), ref)
    _, r = np.linalg.qr(g)
    rhs = rng.standard_normal((n, 4))
    for tri in (r, np.asfortranarray(r)):
        ref = scipy.linalg.solve_triangular(tri, rhs, lower=False, check_finite=False)
        assert np.array_equal(_triangular_solve(tri, rhs), ref)
    low = np.linalg.cholesky(spd)
    for tri in (low, np.asfortranarray(low)):
        ref = scipy.linalg.solve_triangular(tri, rhs, lower=True, check_finite=False)
        assert np.array_equal(_triangular_solve(tri, rhs, lower=True), ref)
    # only the named triangle is read
    assert np.array_equal(_triangular_solve(r + np.tril(g, -1), rhs), _triangular_solve(r, rhs))


@pytest.mark.parametrize("shape", [(2, 1), (3, 2), (2, 2), (5, 3), (96, 24)])
def test_kernel_qr_equals_numpy_qr_bit_for_bit(shape):
    # the kernels call ?geqrf/?orgqr directly, as np.linalg.qr does; R's
    # strict lower triangle keeps the Householder vectors
    rng = np.random.default_rng(shape)
    for _ in range(50):
        strided = rng.standard_normal((2 * shape[0], 2 * shape[1]))[::2, ::2]
        m = strided.copy()
        for layout in (m, np.asfortranarray(m), strided):
            q_mat, r = _qr(layout)
            ref_q, ref_r = np.linalg.qr(layout)
            assert np.array_equal(q_mat, ref_q)
            assert np.array_equal(np.triu(r), ref_r)


def test_shared_identity_is_read_only():
    eye = _identity(3)
    assert np.array_equal(eye, np.eye(3)) and _identity(3) is eye
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0


def test_kernel_cholesky_solve_raises_the_given_error():
    with pytest.raises(SingularBlock, match="S is not positive definite"):
        _cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2), "S", SingularBlock)


# Run in a fresh interpreter: ``import eqkf`` must leave scipy.linalg and
# scipy._lib unimported, and each handle matops binds must give the output
# of scipy's own handle bit for bit, whichever of the two is imported first.
_BINDING_PROBE = """
import sys
import numpy as np
if sys.argv[1] == "scipy-first":
    import scipy.linalg
import eqkf.harness.cli
from eqkf import matops
if sys.argv[1] == "eqkf-first":
    assert not {"scipy.linalg", "scipy._lib"} & set(sys.modules), sorted(sys.modules)
    import scipy.linalg

rng = np.random.default_rng(5)
g = rng.standard_normal((6, 6))
spd = g @ g.T + 6 * np.eye(6)
sym = g + g.T
rhs = rng.standard_normal((6, 2))
ref = {name: scipy.linalg.get_lapack_funcs((name,), dtype=np.float64)[0] for name in (
    "potrf", "potrs", "trtrs", "geqrf", "orgqr", "sytrf", "sytrf_lwork", "sycon", "sytrs",
    "syevr")}
chol = ref["potrf"](spd, lower=1, clean=0)[0]
qr, tau = ref["geqrf"](g)[:2]
ldu, ipiv = ref["sytrf"](sym)[:2]
calls = {
    "potrf": lambda f: f(spd, lower=1, clean=0)[:2],
    "potrs": lambda f: f(chol, rhs, lower=1)[:2],
    "trtrs": lambda f: f(np.triu(g), rhs)[:2],
    "geqrf": lambda f: f(g)[:2],
    "orgqr": lambda f: f(qr, tau)[:1],
    "sytrf": lambda f: f(sym)[:2],
    "sytrf_lwork": lambda f: f(6)[:1],
    "sycon": lambda f: f(ldu, ipiv, 10.0)[:1],
    "sytrs": lambda f: f(ldu, ipiv, rhs)[:1],
    "syevr": lambda f: (f(sym, compute_v=0, range="I", il=1, iu=1)[0][:1],),
}
for name, call in calls.items():
    bound, own = ([np.asarray(x).tobytes() for x in call(f)]
                  for f in (getattr(matops, "_" + name.upper()), ref[name]))
    assert bound == own, name
print("bound", len(calls))
"""


@pytest.mark.parametrize("order", ["eqkf-first", "scipy-first"])
def test_lapack_handles_are_bound_without_importing_scipy_linalg(order):
    done = subprocess.run(
        [sys.executable, "-c", _BINDING_PROBE, order], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["bound", "10"]


def test_missing_lapack_wrappers_raise_an_import_error_naming_the_file(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent.so"])
    with pytest.raises(ImportError, match=r"linalg.+_flapack\.absent\.so is missing"):
        _flapack()
