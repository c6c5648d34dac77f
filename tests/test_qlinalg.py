from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cychom.qlinalg import (SparseMatrix, apply, homology_dims, kernel_basis,
                            rank)


def test_rank_identity():
    assert rank(SparseMatrix.identity(2)) == 2


def test_rank_empty():
    assert rank(SparseMatrix.zero(0, 0)) == 0


def test_rank_proportional_rows():
    m = SparseMatrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_single_relation():
    m = SparseMatrix.from_rows([[1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    (v,) = basis
    # proportional to (1, -1)
    assert v[0] * Fraction(-1) == v[1]
    assert apply(m, v) == {}


def test_kernel_identity_empty():
    assert kernel_basis(SparseMatrix.identity(3)) == []


def test_kernel_zero_matrix():
    assert len(kernel_basis(SparseMatrix.zero(2, 3))) == 3


def _middle_homology(b_in: SparseMatrix, b_out: SparseMatrix) -> int:
    """ker(b_out) / im(b_in) as degree 1 of C_2 -> C_1 -> C_0."""
    assert (b_out @ b_in).is_zero()
    dims = {0: b_out.rows, 1: b_in.rows, 2: b_in.cols}
    return homology_dims(dims, {1: rank(b_out), 2: rank(b_in)})[1]


def test_subquotient_zero_differentials():
    n = 4
    assert _middle_homology(SparseMatrix.zero(n, 0), SparseMatrix.zero(0, n)) == n
    # missing ranks count as zero maps
    assert homology_dims({0: n}, {}) == {0: n}


def test_subquotient_exact():
    assert _middle_homology(SparseMatrix.identity(3), SparseMatrix.zero(0, 3)) == 0


def test_subquotient_mixed():
    b_in = SparseMatrix.from_rows([[1], [0]])
    b_out = SparseMatrix.from_rows([[0, 1]])
    assert _middle_homology(b_in, b_out) == 0
    # a cochain complex Q -> Q^2 -> Q reads the same, ranks keyed by the
    # upper degree of each map
    assert homology_dims({0: 1, 1: 2, 2: 1},
                         {1: rank(b_in), 2: rank(b_out)}) == {0: 0, 1: 0, 2: 0}


def test_matmul():
    a = SparseMatrix.from_rows([[1, 2], [3, 4]])
    b = SparseMatrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == SparseMatrix.from_rows([[2, 1], [4, 3]])


def test_hstack():
    a = SparseMatrix.from_rows([[1], [0]])
    b = SparseMatrix.from_rows([[0], [2]])
    assert a.hstack(b) == SparseMatrix.from_rows([[1, 0], [0, 2]])


def test_no_stored_zero_entries():
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, {(0, 0): Fraction(0)})
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, {(1, 0): Fraction(1)})


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4).map(Fraction), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_transpose(rows):
    m = SparseMatrix.from_rows(rows)
    assert rank(m) == rank(m.transpose())


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_nullity(rows):
    m = SparseMatrix.from_rows(rows)
    basis = kernel_basis(m)
    assert len(basis) + rank(m) == m.cols
    for v in basis:
        assert apply(m, v) == {}


@given(small_matrices)
@settings(max_examples=50, deadline=None)
def test_elimination_deterministic(rows):
    m1 = SparseMatrix.from_rows(rows)
    m2 = SparseMatrix.from_rows(rows)
    assert rank(m1) == rank(m2)
    assert kernel_basis(m1) == kernel_basis(m2)


def test_subquotient_basis_change_invariance():
    # conjugating a complex by invertible maps preserves homology dimensions
    b_in = SparseMatrix.from_rows([[1, 0], [0, 0], [0, 0]])
    b_out = SparseMatrix.from_rows([[0, 0, 1]])
    d0 = _middle_homology(b_in, b_out)
    p = SparseMatrix.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 1]])  # GL_3(Q)
    q = SparseMatrix.from_rows([[1, 2], [0, 1]])                   # GL_2(Q)
    p_inv = SparseMatrix.from_rows([[1, -1, 0], [0, 1, 0], [-2, 2, 1]])
    assert (p @ p_inv) == SparseMatrix.identity(3)
    # change middle basis by p (and source basis by q) consistently
    assert _middle_homology(p @ b_in @ q, b_out @ p_inv) == d0


def test_rank_int_entries_are_exact():
    # a float quotient 1/49 does not cancel 49 * (1/49) exactly
    m = SparseMatrix(2, 2, {(0, 0): 49, (0, 1): 49, (1, 0): 1, (1, 1): 1})
    assert rank(m) == 1
    (v,) = kernel_basis(m)
    assert apply(m, v) == {}


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_int_and_fraction_entries_agree(rows):
    m = SparseMatrix.from_rows(rows)
    as_int = SparseMatrix(m.rows, m.cols, {k: int(v) for k, v in m.entries.items()})
    assert rank(as_int) == rank(m)
    assert kernel_basis(as_int) == kernel_basis(m)
    # scaled rows need a non-unit pivot, where a float quotient rounds
    scaled = SparseMatrix(m.rows, m.cols,
                          {(i, j): v * (7 ** i) for (i, j), v in as_int.entries.items()})
    assert rank(scaled) == rank(m)
