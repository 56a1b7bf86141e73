"""Kronecker/vec calculus, the saddle-point block inverse, and the symmetric
matrix helpers."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from eqkf.errors import NotSquare, SingularBlock
from eqkf.matops import (
    SaddlePointBlocks,
    _cholesky_solve,
    _upper_triangular_solve,
    as_matrix,
    as_vector,
    kron,
    min_eigenvalue,
    pseudo_inverse,
    saddle_inverse,
    symmetrize,
    unvec,
    vec,
)

from helpers import rel


def test_kron_scalar_second_factor():
    assert_allclose(kron([[0, 1], [1, 0]], [[2]]), [[0, 2], [2, 0]])


def test_kron_identity_gives_identity():
    assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_block_expansion():
    # hand expansion of the block definition: entry (i, j) scales the
    # whole second factor
    expected = [
        [0, 1, 0, 2],
        [1, 0, 2, 0],
        [0, 3, 0, 4],
        [3, 0, 4, 0],
    ]
    assert_allclose(kron([[1, 2], [3, 4]], [[0, 1], [1, 0]]), expected)


def test_kron_transpose_identity():
    rng = np.random.default_rng(7)
    for _ in range(30):
        a = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
        b = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
        assert rel(kron(a, b).T, kron(a.T, b.T)) < 1e-12


def test_kron_inverse_identity():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        # diagonal shift keeps the factors comfortably invertible
        a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        b = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
        left = np.linalg.inv(kron(a, b))
        right = kron(np.linalg.inv(a), np.linalg.inv(b))
        assert rel(left, right) < 1e-9


def test_kron_mixed_product():
    rng = np.random.default_rng(13)
    for _ in range(30):
        m, n, p, s = (int(rng.integers(1, 5)) for _ in range(4))
        a = rng.standard_normal((m, n))
        c = rng.standard_normal((n, p))
        b = rng.standard_normal((s, m))
        d = rng.standard_normal((m, n))
        assert rel(kron(a, b) @ kron(c, d), kron(a @ c, b @ d)) < 1e-12


def test_vec_stacks_columns():
    assert_allclose(vec([[1, 2], [3, 4]]), [1, 3, 2, 4])


def test_vec_of_vector_is_itself():
    v = np.array([3.0, -1.0, 2.0])
    assert_allclose(vec(v), v)


def test_vec_zero_matrix():
    assert_allclose(vec(np.zeros((2, 2))), np.zeros(4))


def test_vec_is_linear():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    assert_allclose(vec(a + b), vec(a) + vec(b))


def test_vec_of_matrix_products():
    """vec(AB) = (B' kron I) vec(A) and vec(ABC) = (C' kron A) vec(B)."""
    rng = np.random.default_rng(19)
    for _ in range(30):
        m, n, p, s = (int(rng.integers(1, 5)) for _ in range(4))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((n, p))
        c = rng.standard_normal((p, s))
        assert rel(vec(a @ b), kron(b.T, np.eye(m)) @ vec(a)) < 1e-12
        assert rel(vec(a @ b @ c), kron(c.T, a) @ vec(b)) < 1e-12


def test_trace_via_vec():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((n, m))
        assert abs(np.trace(a @ b) - vec(b.T) @ vec(a)) < 1e-10 * (1 + abs(np.trace(a @ b)))


def test_trace_of_triple_products():
    # each compact three-factor form drops a transpose, so it needs the
    # vectorized factor symmetric; the transposed variant is unconditional
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))
        sym_a = symmetrize(a)
        sym_b = symmetrize(b)
        sym_c = symmetrize(c)

        target = np.trace(a @ sym_b @ c)
        tol = 1e-10 * (1.0 + abs(target))
        assert abs(target - vec(sym_b) @ kron(np.eye(n), c) @ vec(a)) < tol

        target = np.trace(sym_a @ b @ c)
        tol = 1e-10 * (1.0 + abs(target))
        assert abs(target - vec(sym_a) @ kron(np.eye(n), b) @ vec(c)) < tol

        target = np.trace(sym_a @ b @ sym_c)
        tol = 1e-10 * (1.0 + abs(target))
        assert abs(target - vec(sym_a) @ kron(sym_c, np.eye(n)) @ vec(b)) < tol

        general = np.trace(a @ b @ c)
        gtol = 1e-10 * (1.0 + abs(general))
        assert abs(general - vec(b.T) @ kron(np.eye(n), c) @ vec(a)) < gtol


def test_unvec_round_trip():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 5))
    assert_allclose(unvec(vec(a), 3, 5), a)


def test_unvec_rejects_wrong_size():
    with pytest.raises(ValueError):
        unvec(np.arange(5.0), 2, 2)


def test_saddle_inverse_identity_blocks():
    # M = [[I, I], [I, 0]] inverts to [[0, I], [I, -I]]
    blocks = SaddlePointBlocks(np.eye(2), np.eye(2), np.zeros((2, 2)))
    inv = saddle_inverse(blocks)
    assert_allclose(inv.upper_left, np.zeros((2, 2)), atol=1e-12)
    assert_allclose(inv.upper_right, np.eye(2), atol=1e-12)
    assert_allclose(inv.lower_left, np.eye(2), atol=1e-12)
    assert_allclose(inv.lower_right, -np.eye(2), atol=1e-12)


def test_saddle_inverse_rejects_singular_schur_complement():
    # zero coupling rows with a zero lower-right block leave no way to
    # solve for the second variable
    blocks = SaddlePointBlocks(2.0 * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(SingularBlock):
        saddle_inverse(blocks)


def test_saddle_inverse_matches_dense_inverse():
    rng = np.random.default_rng(37)
    for _ in range(25):
        g = rng.standard_normal((4, 4))
        a_block = g @ g.T + 0.5 * np.eye(4)
        b_block = rng.standard_normal((2, 4))
        blocks = SaddlePointBlocks(a_block, b_block, np.zeros((2, 2)))
        inv = saddle_inverse(blocks)
        dense = np.linalg.inv(blocks.assemble())
        assert rel(inv.assemble(), dense) < 1e-10


def test_saddle_inverse_times_assembled_is_identity():
    rng = np.random.default_rng(41)
    for _ in range(25):
        na = int(rng.integers(2, 6))
        nb = int(rng.integers(1, na))
        g = rng.standard_normal((na, na))
        a_block = g @ g.T + 0.5 * np.eye(na)
        b_block = rng.standard_normal((nb, na))
        gc = rng.standard_normal((nb, nb))
        c_block = gc @ gc.T + 0.5 * np.eye(nb)
        blocks = SaddlePointBlocks(a_block, b_block, c_block)
        product = saddle_inverse(blocks).assemble() @ blocks.assemble()
        assert rel(product, np.eye(na + nb)) < 1e-9


def test_saddle_inverse_symmetry_structure():
    """Symmetric diagonal blocks give symmetric corner blocks and
    transpose-paired off-diagonal blocks."""
    rng = np.random.default_rng(43)
    g = rng.standard_normal((3, 3))
    a_block = g @ g.T + 0.5 * np.eye(3)
    b_block = rng.standard_normal((2, 3))
    gc = rng.standard_normal((2, 2))
    c_block = gc @ gc.T
    inv = saddle_inverse(SaddlePointBlocks(a_block, b_block, c_block))
    assert rel(inv.upper_left, inv.upper_left.T) < 1e-9
    assert rel(inv.lower_right, inv.lower_right.T) < 1e-9
    assert rel(inv.lower_left, inv.upper_right.T) < 1e-9


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
        assert np.array_equal(_upper_triangular_solve(tri, rhs), ref)


def test_kernel_cholesky_solve_raises_the_given_error():
    with pytest.raises(SingularBlock, match="S is not positive definite"):
        _cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2), "S", SingularBlock)
