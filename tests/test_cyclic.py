import json

import pytest

from cychom import cyclic
from cychom.algebra import (artin_algebra, dual_pair, extend_dual_numbers,
                            polynomial_algebra, tensor_artin,
                            truncated_polynomial_algebra)
from cychom.cyclic import (BidegreeMismatch, chain_cell, hc_table,
                           hn_rel_table, hochschild_boundary, hh_table,
                           lambda_cell, sbi_degeneration_check,
                           split_exactness_check)
from cychom.differentials import hc_bundle
from cychom.qlinalg import SparseMatrix
from fraction_oracle import fraction_rank


QE = extend_dual_numbers(polynomial_algebra())
PAIR_Q = dual_pair(polynomial_algebra())
PAIR_QX = dual_pair(polynomial_algebra("x"))


def test_boundary_degree_one_commutes_to_zero():
    m = hochschild_boundary(chain_cell(QE, 1, 0, 1), chain_cell(QE, 0, 0, 1))
    assert m.rows == 1 and m.cols == 1 and m.is_zero()


def test_boundary_degree_two_doubles():
    m = hochschild_boundary(chain_cell(QE, 2, 0, 2), chain_cell(QE, 1, 0, 2))
    assert (m.rows, m.cols) == (1, 1)
    assert list(m.entries.values()) == [2]


def test_boundary_empty_cells():
    m = hochschild_boundary(chain_cell(QE, 3, 0, 0), chain_cell(QE, 2, 0, 0))
    assert (m.rows, m.cols) == (0, 0)


def test_boundary_bidegree_mismatch():
    with pytest.raises(BidegreeMismatch):
        hochschild_boundary(chain_cell(QE, 2, 0, 2), chain_cell(QE, 1, 0, 1))
    with pytest.raises(BidegreeMismatch):
        hochschild_boundary(chain_cell(QE, 2, 0, 2), chain_cell(QE, 0, 0, 2))


def test_chain_bound_n_le_w_plus_e():
    for w in range(3):
        for e in range(3):
            assert chain_cell(QE, w + e + 1, w, e).dim == 0


def test_hh_absolute_dual_numbers():
    # brute force matches the periodic-resolution dimensions for Q[x]/(x^2)
    assert hh_table(QE, 3, 0).column(0) == [2, 1, 1, 1]


def test_hh_relative_dual_numbers():
    # split exactness: subtract HH(Q) = 1,0,0,0
    assert hh_table(PAIR_Q, 3, 0).column(0) == [1, 1, 1, 1]


def test_hh_relative_qx_dual():
    # frozen from an independent Kuenneth computation:
    # HH_n(R[e]) = sum HH_p(R) (x) HH_q(Q[e]), then subtract HH_n(R)
    t = hh_table(PAIR_QX, 2, 2)
    assert t.dim(1, 1) == 2
    assert [t.dim(1, w) for w in range(3)] == [1, 2, 2]
    assert [t.dim(0, w) for w in range(3)] == [1, 1, 1]
    assert [t.dim(2, w) for w in range(3)] == [1, 2, 2]


def test_hc_relative_dual_q():
    assert hc_table(PAIR_Q, 4, 0).column(0) == [1, 0, 1, 0, 1]


def test_hc_relative_qx_matches_bundle():
    base = polynomial_algebra("x")
    t = hc_table(PAIR_QX, 3, 3)
    for n in range(4):
        for w in range(4):
            assert t.dim(n, w) == hc_bundle(n, base).graded_dim(w), (n, w)
    assert [t.dim(1, w) for w in range(4)] == [0, 1, 1, 1]
    assert [t.dim(2, w) for w in range(4)] == [1, 1, 1, 1]


def test_hn_shift():
    t = hn_rel_table(PAIR_Q, 4, 0)
    assert t.column(0) == [0, 1, 0, 1, 0]
    hc = hc_table(PAIR_QX, 2, 2)
    hn = hn_rel_table(PAIR_QX, 3, 2)
    for w in range(3):
        assert hn.dim(0, w) == 0
        for n in range(1, 4):
            assert hn.dim(n, w) == hc.dim(n - 1, w)


def test_hn_requires_pair():
    with pytest.raises(TypeError):
        hn_rel_table(QE, 2, 0)


def test_connes_complex_dual():
    assert hc_table(PAIR_Q, 0, 0).column(0) == [1]
    # the rotation of 1(x)e(x)e is degenerate, so that tensor lies in
    # im(1-t) and has no class in C^lambda; the degree-2 cyclic class
    # lives in the e = 3 slice instead
    assert lambda_cell(QE, 2, 0, 2, True).dim == 0
    assert lambda_cell(QE, 2, 0, 3, True).dim == 1
    # e(x)e is fixed by the rotation, on which t acts by -1 in degree 1:
    # the orbit has no class, unless the sign twist is dropped
    assert lambda_cell(QE, 1, 0, 2, True).dim == 0
    assert lambda_cell(QE, 1, 0, 2, False).dim == 1


def test_connes_complex_empty_for_q():
    q = polynomial_algebra()
    assert all(lambda_cell(q, n, 1, 0, True).dim == 0 for n in range(3))


def _one_minus_t(a, n, w, e, twist):
    """Matrix of 1 - t on C_n, read off the chain-cell basis.

    t is the identity at n = 0, zero on tensors whose slot 0 is the unit,
    and otherwise (-1)^n times the rotation x_n (x) x_0 (x) ... (x) x_{n-1},
    the sign dropped without the twist.
    """
    cell = chain_cell(a, n, w, e)
    idx = cell.index()
    sign = (-1) ** n if twist else 1
    entries = {(j, j): 1 for j in range(cell.dim)}
    for j, x in enumerate(cell.basis):
        if n == 0:
            rotated = x
        elif x[0] == a.one:
            continue
        else:
            rotated = (x[-1],) + x[:-1]
        key = (idx[rotated], j)
        entries[key] = entries.get(key, 0) - sign
    return SparseMatrix(cell.dim, cell.dim, {k: v for k, v in entries.items() if v})


def _boundary_without_cyclic_face(a, n, w, e):
    """Matrix of b' : C_n -> C_{n-1}, the alternating sum of the first n faces."""
    src, dst = chain_cell(a, n, w, e), chain_cell(a, n - 1, w, e)
    idx = dst.index()
    entries = {}
    for j, x in enumerate(src.basis):
        for i in range(n):
            prod = a.mul(x[i], x[i + 1])
            if prod is not None:
                key = (idx[x[:i] + (prod,) + x[i + 2:]], j)
                entries[key] = entries.get(key, 0) + (-1) ** i
    return SparseMatrix(dst.dim, src.dim, {k: v for k, v in entries.items() if v})


def _stacked_quotient_hc(arg, n_max, w_max):
    """HC from ranks of stacked [b_n | (1-t)_{n-1}] matrices: the former
    library path, kept as an independent oracle for C^lambda, with every
    rank taken by the Fraction oracle.

    For Q = C / D with D = im(1-t):
      dim H_n(Q) = dim C_n + rank D_{n-1} - rank [b_n | D_{n-1}]
                   - rank [b_{n+1} | D_n],
    the final term being rank D_n when C_{n+1} = 0.
    """
    a, e_min, _relative = cyclic._resolve(arg)
    out = {}
    for w in range(w_max + 1):
        for e in cyclic._e_range(a, e_min, n_max):
            def diff(n):
                return _one_minus_t(a, n, w, e, True)

            def stacked(n):
                return fraction_rank(cyclic._boundary(a, n, w, e).hstack(diff(n - 1)).entries)

            for n in range(min(w + e, n_max) + 1):
                h = chain_cell(a, n, w, e).dim
                if n >= 1:
                    h += fraction_rank(diff(n - 1).entries) - stacked(n)
                h -= stacked(n + 1) if n + 1 <= w + e else fraction_rank(diff(n).entries)
                out[(n, w)] = out.get((n, w), 0) + h
    return out


LAMBDA_WINDOWS = pytest.mark.parametrize("pair, n_max, w_max", [
    (PAIR_Q, 6, 0),
    (PAIR_QX, 4, 3),
    (dual_pair(polynomial_algebra("x", "y")), 3, 3),
    (tensor_artin(polynomial_algebra("x"), artin_algebra(("t", 3))), 3, 2),
    (tensor_artin(polynomial_algebra(), artin_algebra(("e", 2), ("f", 2))), 4, 0),
], ids=["Q[e]", "Q[x][e]", "Q[x,y][e]", "Q[x](x)Q[t]/t3", "Q[e,f]/(e2,f2)"])


@LAMBDA_WINDOWS
def test_lambda_complex_matches_stacked_quotient(pair, n_max, w_max):
    for arg in (pair, pair.total, pair.base):
        got = hc_table(arg, n_max, w_max)
        expect = _stacked_quotient_hc(arg, n_max, w_max)
        for n in range(n_max + 1):
            for w in range(w_max + 1):
                assert got.dim(n, w) == expect.get((n, w), 0), (arg, n, w)


@LAMBDA_WINDOWS
def test_quotient_check_matches_matrix_identity(pair, n_max, w_max):
    # the per-tensor check raises exactly where the matrix identity
    # b_n (1-t)_n = (1-t)_{n-1} b'_n fails, on every cell hc_table checks
    for arg, nilpotent in ((pair, True), (pair.total, True), (pair.base, False)):
        a, e_min, _relative = cyclic._resolve(arg)
        failed = {True: 0, False: 0}
        for w in range(w_max + 1):
            for e in cyclic._e_range(a, e_min, n_max):
                for n in range(1, min(w + e, n_max + 1) + 1):
                    b = cyclic._boundary(a, n, w, e)
                    b_prime = _boundary_without_cyclic_face(a, n, w, e)
                    for twist in (True, False):
                        holds = (b @ _one_minus_t(a, n, w, e, twist)
                                 == _one_minus_t(a, n - 1, w, e, twist) @ b_prime)
                        try:
                            cyclic._check_quotient_well_defined(a, n, w, e, twist)
                            raised = False
                        except AssertionError:
                            raised = True
                        assert raised != holds, (arg, n, w, e, twist)
                        failed[twist] += not holds
        assert failed[True] == 0, arg
        if nilpotent:
            assert failed[False] > 0, arg


def test_split_exactness_hh_and_hc():
    for artin in (None, ("t", 3)):
        pair = (PAIR_QX if artin is None
                else tensor_artin(polynomial_algebra("x"), artin_algebra(artin)))
        for kind in ("HH", "HC"):
            for c in split_exactness_check(pair, 3, 2, kind):
                assert c.ok, (artin, kind, c)


def test_sbi_degeneration():
    rep = sbi_degeneration_check(PAIR_Q, 3, 0)
    assert rep.all_pass
    by_cell = {(c.n, c.w): c for c in rep.cells}
    assert (by_cell[(1, 0)].lhs, by_cell[(1, 0)].rhs) == (1, 1)  # 1 = 0 + 1
    assert (by_cell[(2, 0)].lhs, by_cell[(2, 0)].rhs) == (1, 1)  # 1 = 1 + 0
    rep2 = sbi_degeneration_check(PAIR_QX, 3, 2)
    assert rep2.all_pass


def test_augmented_hh_matches_kuenneth_oracle():
    # independent closed form: HH of a tensor product is the graded tensor
    # product of the factors; with hh_e = (2,1,1,1,..) for the square-zero
    # factor and the exterior-power dimensions for the polynomial factor,
    # HH_n(R[e])_w = sum_p Omega^p(R)_w * hh_e(n - p)
    from math import comb

    def hh_e(q):
        return 2 if q == 0 else 1

    for syms in (("x",), ("x", "y")):
        k = len(syms)
        pair = dual_pair(polynomial_algebra(*syms))
        got = hh_table(pair.total, 3, 3)
        for n in range(4):
            for w in range(4):
                expect = sum(
                    comb(k, p) * comb(w - p + k - 1, k - 1) * hh_e(n - p)
                    for p in range(0, min(n, k, w) + 1))
                assert got.dim(n, w) == expect, (syms, n, w)


def test_truncated_polynomial_relative_theories():
    # classical values for truncated polynomial algebras in char 0:
    # relative HC of (Q[t]/(t^N), (t)) is N-1 in even degrees and 0 in odd,
    # relative HH is N-1 in every degree
    for order, d in ((3, 2), (4, 3)):
        pair = tensor_artin(polynomial_algebra(), artin_algebra(("t", order)))
        assert hc_table(pair, 4, 0).column(0) == [d, 0, d, 0, d]
        assert hh_table(pair, 4, 0).column(0) == [d] * 5


def test_sbi_rejects_non_dual():
    pair = tensor_artin(polynomial_algebra("x"), artin_algebra(("t", 3)))
    with pytest.raises(ValueError):
        sbi_degeneration_check(pair, 2, 1)


def test_unbounded_complex_rejected():
    # weight-0 non-nilpotent generators are blocked at construction time;
    # the chain builder re-checks defensively on hand-forged instances
    from cychom.algebra import Generator, GradedAlgebra
    from cychom.cyclic import UnboundedComplex
    g = object.__new__(Generator)
    object.__setattr__(g, "symbol", "u")
    object.__setattr__(g, "weight", 0)
    object.__setattr__(g, "nilpotency", None)
    a = object.__new__(GradedAlgebra)
    object.__setattr__(a, "generators", (g,))
    object.__setattr__(a, "monomial_relations", ())
    with pytest.raises(UnboundedComplex):
        chain_cell(a, 1, 0, 1)
    with pytest.raises(UnboundedComplex):
        lambda_cell(a, 0, 0, 0, True)
    with pytest.raises(ValueError):
        Generator("u", 0)  # the construction-time guard


def test_corrupted_cyclic_sign_is_detected(monkeypatch):
    # flipping the sign twist breaks well-definedness of the quotient
    # boundary, which the builder asserts on every cell
    monkeypatch.setattr(cyclic, "CYCLIC_SIGN_TWIST", False)
    with pytest.raises(AssertionError):
        hc_table(PAIR_Q, 2, 0)


def test_table_json_shape():
    t = hc_table(PAIR_Q, 2, 0)
    obj = json.loads(t.to_json())
    assert obj["kind"] == "HC" and obj["relative"] is True
    assert {"n": 0, "w": 0, "dim": 1} in obj["entries"]
    assert t.to_json() == hc_table(PAIR_Q, 2, 0).to_json()  # deterministic


def test_table_text_and_csv():
    t = hh_table(PAIR_Q, 2, 0)
    assert "HH (relative)" in t.to_text()
    assert t.to_csv().splitlines()[0] == "n,w,dim"
