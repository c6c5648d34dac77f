import functools
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cychom import cyclic, differentials, hodge, localcoh
from cychom.algebra import algebra_from_spec, dual_numbers
from cychom.machine import ReportWindows, build_report
from cychom.qlinalg import SparseMatrix, composes_to_zero, homology_dims, rank
from fraction_oracle import (apply, fraction_rank, kernel_basis, matmul, matrix, transpose,
                             without_rows)


def _matrix(rows):
    """Integer SparseMatrix from a dense list of rows."""
    ncols = len(rows[0]) if rows else 0
    return matrix(len(rows), ncols, {(i, j): v for i, r in enumerate(rows)
                                     for j, v in enumerate(r) if v})


def _identity(n):
    return matrix(n, n, {(i, i): 1 for i in range(n)})


def test_rank_identity():
    assert rank(_identity(2)) == 2


def test_rank_empty():
    assert rank(SparseMatrix.zero(0, 0)) == 0


def test_rank_proportional_rows():
    m = _matrix([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_single_relation():
    m = _matrix([[1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    (v,) = basis
    # proportional to (1, -1)
    assert v[0] * Fraction(-1) == v[1]
    assert apply(m, v) == {}


def test_kernel_identity_empty():
    assert kernel_basis(_identity(3)) == []


def test_kernel_zero_matrix():
    assert len(kernel_basis(SparseMatrix.zero(2, 3))) == 3


def _middle_homology(b_in: SparseMatrix, b_out: SparseMatrix) -> int:
    """ker(b_out) / im(b_in) as degree 1 of C_2 -> C_1 -> C_0."""
    assert composes_to_zero(b_in, b_out)
    dims = {0: b_out.rows, 1: b_in.rows, 2: b_in.cols}
    return homology_dims(dims, {1: rank(b_out), 2: rank(b_in)})[1]


def test_subquotient_zero_differentials():
    n = 4
    assert _middle_homology(SparseMatrix.zero(n, 0), SparseMatrix.zero(0, n)) == n
    # missing ranks count as zero maps
    assert homology_dims({0: n}, {}) == {0: n}


def test_subquotient_exact():
    assert _middle_homology(_identity(3), SparseMatrix.zero(0, 3)) == 0


def test_subquotient_mixed():
    b_in = _matrix([[1], [0]])
    b_out = _matrix([[0, 1]])
    assert _middle_homology(b_in, b_out) == 0
    # a cochain complex Q -> Q^2 -> Q reads the same, ranks keyed by the
    # upper degree of each map
    assert homology_dims({0: 1, 1: 2, 2: 1},
                         {1: rank(b_in), 2: rank(b_out)}) == {0: 0, 1: 0, 2: 0}


def test_matmul():
    a = _matrix([[1, 2], [3, 4]])
    b = _matrix([[0, 1], [1, 0]])
    assert a @ b == _matrix([[2, 1], [4, 3]])
    # through an empty dimension, and into one
    assert SparseMatrix.zero(3, 0) @ SparseMatrix.zero(0, 2) == SparseMatrix.zero(3, 2)
    assert a @ SparseMatrix.zero(2, 0) == SparseMatrix.zero(2, 0)
    assert SparseMatrix.zero(0, 2).columns == [{}, {}]
    assert SparseMatrix.zero(2, 0).columns == []
    assert SparseMatrix.__slots__ == ("rows", "cols", "columns")   # one layout is kept


@st.composite
def sparse_matrices(draw, rows, cols):
    """A rows x cols integer matrix, about half its entries zero."""
    values = draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9)),
                           min_size=rows * cols, max_size=rows * cols))
    return matrix(rows, cols, {divmod(p, cols): v for p, v in enumerate(values) if v})


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_columns_and_product_match_fraction_oracle(r, k, c, data):
    # shapes reach n x 0 and 0 x n, and with half the entries zero many
    # draws leave a row or a column empty
    a, b = data.draw(sparse_matrices(r, k)), data.draw(sparse_matrices(k, c))
    for m in (a, b):
        # the columns are the stored layout, and the entries a view derived
        # from them on each read
        cols = m.columns
        assert len(cols) == m.cols and cols is m.columns
        assert {(i, j): v for j, col in enumerate(cols) for i, v in col.items()} == m.entries
        assert sum(map(len, cols)) == len(m.entries)
        assert matrix(m.rows, m.cols, m.entries) == m
    product = a @ b
    assert (product.rows, product.cols) == (r, c)
    assert product.entries == matmul(a.entries, b.entries)
    # the column walk agrees with the product's zero test, and forms no product
    assert composes_to_zero(b, a) == (product == SparseMatrix.zero(r, c))
    other = data.draw(sparse_matrices(k + data.draw(st.integers(1, 2)), c))
    with pytest.raises(ValueError, match=f"^shape mismatch {r}x{k} @ "):
        a @ other


def test_composes_to_zero():
    d0 = _matrix([[1], [1]])           # C^0 -> C^1 of the Cech complex of Q[x, y]
    d1 = _matrix([[-1, 1]])            # C^1 -> C^2
    assert composes_to_zero(d0, d1)
    assert not composes_to_zero(_matrix([[1], [-1]]), d1)
    assert composes_to_zero(SparseMatrix.zero(2, 0), d1)   # no column to walk


def test_hstack():
    a = _matrix([[1], [0]])
    b = _matrix([[0], [2]])
    assert a.hstack(b) == _matrix([[1, 0], [0, 2]])


def test_no_stored_zero_entries():
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, [{0: Fraction(0)}])
    with pytest.raises(ValueError, match=r"index \(1, 0\) out of bounds"):
        SparseMatrix(1, 1, [{1: 1}])
    with pytest.raises(ValueError, match=r"index \(-1, 0\) out of bounds"):
        SparseMatrix(1, 1, [{-1: 1}])
    with pytest.raises(ValueError, match="stored zero"):
        SparseMatrix(1, 1, [{0: 0}])
    # entries are ints: a rational entry is rejected, integral or not
    with pytest.raises(ValueError, match="not an int"):
        SparseMatrix(1, 1, [{0: Fraction(1, 2)}])
    with pytest.raises(ValueError, match="not an int"):
        SparseMatrix(1, 1, [{0: Fraction(1)}])
    # one column per column of the shape, no more and no fewer
    with pytest.raises(ValueError, match="^1 columns for a matrix of 2$"):
        SparseMatrix(1, 2, [{0: 1}])
    with pytest.raises(ValueError, match="^2 columns for a matrix of 1$"):
        SparseMatrix(1, 1, [{0: 1}, {}])


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_transpose(rows):
    m = _matrix(rows)
    assert rank(m) == rank(transpose(m))


@given(small_matrices, st.sets(st.integers(0, 4)))
@settings(max_examples=150, deadline=None)
def test_rank_skips_rows(rows, skip):
    # the rank without the skipped rows is that of the matrix with those
    # rows deleted, and one pivot column comes back per unit of rank
    m = _matrix(rows)
    expect = fraction_rank(without_rows(m, skip))
    pivots = []
    assert rank(m, skip, pivots) == expect == len(pivots)
    assert len(set(pivots)) == len(pivots)
    # the pivot columns are independent on the kept rows
    kept = without_rows(m, skip)
    assert fraction_rank({(i, j): v for (i, j), v in kept.items() if j in pivots}) == expect


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_nullity(rows):
    m = _matrix(rows)
    basis = kernel_basis(m)
    assert len(basis) + rank(m) == m.cols
    for v in basis:
        assert apply(m, v) == {}


@given(small_matrices)
@settings(max_examples=50, deadline=None)
def test_elimination_deterministic(rows):
    m1 = _matrix(rows)
    m2 = _matrix(rows)
    assert rank(m1) == rank(m2)
    assert kernel_basis(m1) == kernel_basis(m2)


def test_subquotient_basis_change_invariance():
    # conjugating a complex by invertible maps preserves homology dimensions
    b_in = _matrix([[1, 0], [0, 0], [0, 0]])
    b_out = _matrix([[0, 0, 1]])
    d0 = _middle_homology(b_in, b_out)
    p = _matrix([[1, 1, 0], [0, 1, 0], [2, 0, 1]])  # GL_3(Q)
    q = _matrix([[1, 2], [0, 1]])                   # GL_2(Q)
    p_inv = _matrix([[1, -1, 0], [0, 1, 0], [-2, 2, 1]])
    assert (p @ p_inv) == _identity(3)
    # change middle basis by p (and source basis by q) consistently
    assert _middle_homology(p @ b_in @ q, b_out @ p_inv) == d0


def test_rank_int_entries_are_exact():
    # a float quotient 1/49 does not cancel 49 * (1/49) exactly
    m = matrix(2, 2, {(0, 0): 49, (0, 1): 49, (1, 0): 1, (1, 1): 1})
    assert rank(m) == 1
    (v,) = kernel_basis(m)
    assert apply(m, v) == {}


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_int_and_fraction_entries_agree(rows):
    m = _matrix(rows)
    assert rank(m) == fraction_rank(m.entries)
    # scaled rows need a non-unit pivot, where a float quotient rounds
    scaled = matrix(m.rows, m.cols, {(i, j): v * (7 ** i) for (i, j), v in m.entries.items()})
    assert rank(scaled) == rank(m)


@st.composite
def oracle_matrices(draw):
    """Integer matrices for the differential test of the fraction-free rank.

    Base rows share one nnz count on few columns, so many rows share a
    lead and are reduced against a kept row, and a reduced row that comes
    out sparser than the kept one takes its place.  Entries reach +-10**6,
    further rows are integer combinations of the base rows (rank
    deficiency), and rows may be scaled by 7**i, so most leads do not
    divide one another and the reduction scales the row.
    """
    cols = draw(st.integers(1, 8))
    nnz = draw(st.integers(1, cols))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6)).filter(bool)
    base = []
    for _ in range(draw(st.integers(1, 7))):
        support = draw(st.permutations(range(cols)))[:nnz]
        base.append({j: draw(entry) for j in support})
    rows = list(base)
    for _ in range(draw(st.integers(0, 5))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
        combo: dict[int, int] = {}
        for c, r in zip(coeffs, base):
            for j, v in r.items():
                combo[j] = combo.get(j, 0) + c * v
        rows.append(combo)
    scale = draw(st.booleans())
    draw_order = draw(st.permutations(range(len(rows))))
    entries = {(i, j): v * 7 ** i if scale else v
               for i, r in zip(draw_order, rows) for j, v in r.items() if v}
    return matrix(len(rows), cols, entries)


@given(oracle_matrices())
@settings(max_examples=400, deadline=None)
def test_rank_matches_fraction_oracle(m):
    expect = fraction_rank(m.entries)
    assert rank(m) == expect
    assert rank(transpose(m)) == expect


def test_restricted_pivot_search_skips_rows():
    # eight rows of two entries each on a cycle of columns: every column
    # holds two rows, so the later rows share leads with kept rows and are
    # reduced by non-unit leads, and the rank is still exact
    rows = [[0] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][i] = 2 * i + 3
        rows[i][(i + 1) % 8] = -(i + 5)
    m = _matrix(rows)
    expect = fraction_rank(m.entries)
    assert rank(m) == expect == 8


SPECS = sorted((pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "specs").glob("*.json"))
QXY_X2Y_E = {"generators": [{"symbol": "x", "weight": 1}, {"symbol": "y", "weight": 1}],
             "monomial_relations": [{"x": 2, "y": 1}],
             "artin": [{"symbol": "e", "nilpotency": 2}]}


def test_every_rank_the_suite_makes_matches_the_oracle(monkeypatch):
    # every rank that small hh, hc and hodge tables and one report make, the
    # compressed boundaries, Hodge pattern blocks and eigenspace spans among
    # them, agrees with the Fraction oracle: the rank, one pivot column per
    # unit of rank, and pivot columns independent on the kept rows
    calls = []

    def recorded(module, m, skip=(), pivots=None):
        mine = []
        r = rank(m, skip, mine)
        if pivots is not None:
            pivots.extend(mine)
        calls.append((module, m, skip, r, mine))
        return r

    caches = (cyclic.strip, hodge._pattern, differentials.omega_dims,
              localcoh._strand_cohomology)
    for cache in caches:
        cache.cache_clear()
    for module in (cyclic, hodge, differentials, localcoh):
        monkeypatch.setattr(module, "rank", functools.partial(recorded, module.__name__))
    try:
        for spec in [json.loads(p.read_text()) for p in SPECS] + [QXY_X2Y_E]:
            pair = algebra_from_spec(spec)[2]
            for arg in (pair, pair.total):
                cyclic.hh_table(arg, 4, 2)
                cyclic.hc_table(arg, 4, 2)
                hodge.hh_hodge_table(arg, 4, 2)
        build_report(1, 2, dual_numbers("e"), ReportWindows(n_max=2, w_max=1, coh_window=(-3, 3)))
    finally:
        for cache in caches:
            cache.cache_clear()
    assert {module for module, *_ in calls} == {"cychom.cyclic", "cychom.hodge",
                                                  "cychom.differentials", "cychom.localcoh"}
    for module, m, skip, r, pivots in calls:
        kept = {(i, j): v for (i, j), v in m.entries.items() if i not in skip}
        assert r == fraction_rank(kept) == len(pivots), module
        assert fraction_rank({(i, j): v for (i, j), v in kept.items() if j in pivots}) == r, module
