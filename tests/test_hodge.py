import itertools
import math
from fractions import Fraction

import pytest

from cychom import cyclic, hodge
from cychom.algebra import (dual_pair, polynomial_algebra, tensor_artin,
                            artin_algebra)
from cychom.cyclic import _boundary, chain_cell, hc_table, hh_table
from cychom.differentials import omega_dims
from cychom.hodge import (DegreeTooLarge, compose, eulerian_idempotents,
                          hc_hodge_dual, hh_hodge_table, hn_hodge_dual,
                          perm_sign, projector_matrix,
                          verify_idempotent_identities)
from cychom.qlinalg import SparseMatrix
from fraction_oracle import fraction_rank, matmul

PAIR_Q = dual_pair(polynomial_algebra())
PAIR_QX = dual_pair(polynomial_algebra("x"))


def test_degree_one_is_identity():
    # rows are n! e^(i) over the permutations in lexicographic order
    assert eulerian_idempotents(1) == ((1,),)


def test_degree_two_halves():
    # e^(1) = ((12) - (21)) / 2, e^(2) = ((12) + (21)) / 2
    assert eulerian_idempotents(2) == ((1, -1), (1, 1))


def test_identities_up_to_four_fast_path():
    for n in range(1, 5):
        assert verify_idempotent_identities(n)


def test_degree_cap():
    with pytest.raises(DegreeTooLarge):
        eulerian_idempotents(9)
    with pytest.raises(ValueError):
        eulerian_idempotents(0)


def test_compose_and_sign():
    assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    assert perm_sign((2, 3, 1)) == 1
    assert perm_sign((2, 1, 3)) == -1


def test_projectors_commute_with_boundary():
    # exercised internally on every built cell; spot-check one directly.
    # With P = n! e^(i) the chain-map identity reads b P_2 = 2 P_1 b.
    a = PAIR_QX.total
    b = _boundary(a, 2, 1, 1)
    p2 = projector_matrix(a, 2, 1, 1, 1, True)
    p1 = projector_matrix(a, 1, 1, 1, 1, True)
    assert p1 == SparseMatrix.identity(chain_cell(a, 1, 1, 1).dim)
    assert all(type(v) is int for v in p2.entries.values())
    lhs = b @ p2
    assert not lhs.is_zero()
    assert lhs.entries == {k: 2 * v for k, v in (p1 @ b).entries.items()}
    # e^(2) vanishes in degree 1, so b kills its image
    assert (b @ projector_matrix(a, 2, 1, 1, 2, True)).is_zero()
    with pytest.raises(ValueError):
        projector_matrix(a, 2, 1, 1, 0, True)


def test_degree_one_boundary_must_vanish(monkeypatch):
    # at n = 1 the top-index identity b P^(1)_1 = 0 is b_1 = 0, which holds
    # on every commutative algebra; a nonzero b_1 must trip the check.
    # A fresh symbol keeps the cached cells of other tests out of the way.
    a = dual_pair(polynomial_algebra("s")).total
    cell1, cell0 = chain_cell(a, 1, 1, 1), chain_cell(a, 0, 1, 1)
    fake = SparseMatrix(cell0.dim, cell1.dim, {(0, 0): 1})
    monkeypatch.setattr(hodge, "_boundary", lambda *args: fake)
    with pytest.raises(AssertionError, match=r"e\^\(1\) does not commute with b at n=1,"):
        hodge._eigenspace_cell(a, 1, 1, 1, True)


def test_degree_too_large_fails_before_any_cell():
    # a fresh Artin symbol, so no other test has built these cells
    pair = dual_pair(polynomial_algebra(), "h")
    misses = chain_cell.cache_info().misses
    with pytest.raises(DegreeTooLarge, match="^degree 9 beyond bound 8$"):
        hh_hodge_table(pair, 8, 0)
    with pytest.raises(DegreeTooLarge, match="^degree 9 beyond bound 8$"):
        hh_hodge_table(pair.base, 8, 9)
    assert chain_cell.cache_info().misses == misses
    # absolute Q reaches degree min(w_max, n_max + 1) = 0 and succeeds
    assert hh_hodge_table(pair.base, 8, 0).dim(0, 0, 0) == 1


def test_hodge_convention_pin():
    # the signed action makes the image of e^(n) compute the top exterior
    # power; this is the test that distinguishes the two action conventions
    for syms in (("x",), ("x", "y")):
        a = polynomial_algebra(*syms)
        ht = hh_hodge_table(a, 3, 3)
        for n in range(4):
            for w in range(4):
                assert ht.dim(n, w, n) == omega_dims(a, n, w)


def test_unsigned_action_breaks_pin(monkeypatch):
    # caches are keyed on the action flag, so flipping it is safe here
    monkeypatch.setattr(hodge, "SIGNED_SLOT_ACTION", False)
    a = polynomial_algebra("x")
    broken = False
    try:
        ht = hh_hodge_table(a, 2, 2)
        broken = any(ht.dim(n, w, n) != omega_dims(a, n, w)
                     for n in range(3) for w in range(3))
    except AssertionError:
        broken = True  # chain-map check already trips
    assert broken


def test_hodge_sum_rule():
    # sum_i dim HH^(i)_n = dim HH_n on every cell
    for arg in (PAIR_Q, polynomial_algebra("x")):
        ht = hh_hodge_table(arg, 3, 2)
        plain = hh_table(arg, 3, 2)
        for n in range(4):
            for w in range(3):
                assert ht.marginal(n, w) == plain.dim(n, w), (arg, n, w)


def test_empty_cells_build_no_projectors(monkeypatch):
    # z has weight 2, so the absolute cells C_n at odd weight, or with
    # 2n > w, are empty.  A fresh symbol keeps cached cells of other tests
    # out of the way.
    a = polynomial_algebra("z", weights={"z": 2})
    built = []
    real = hodge.projector_matrix

    def counting(a_, n, w, e, i, signed):
        built.append((n, w, e))
        return real(a_, n, w, e, i, signed)

    monkeypatch.setattr(hodge, "projector_matrix", counting)
    ht = hh_hodge_table(a, 3, 4)
    assert built
    assert all(chain_cell(a, n, w, e).dim for n, w, e in built)
    visited = [(n, w) for w in range(5) for n in range(1, min(w, 4) + 1)]
    assert any(not chain_cell(a, n, w, 0).dim for n, w in visited)
    assert all(ht.dim(n, w, i) == 0 for n, w in visited
               for i in range(n + 1) if not chain_cell(a, n, w, 0).dim)
    assert ht.dim(1, 2, 1) == 1  # z dz, the Omega^1 of weight 2


def test_hh_hodge_relative_dual_q():
    ht = hh_hodge_table(PAIR_Q, 3, 0)
    assert ht.dim(2, 0, 1) == 1
    assert ht.dim(2, 0, 2) == 0
    assert ht.dim(0, 0, 0) == 1  # degree 0 sits at index 0


def test_hc_hodge_dual_q():
    t = hc_hodge_dual(PAIR_Q, 4, 0)
    q = polynomial_algebra()
    for n in range(5):
        for i in range(n + 1):
            expect = (omega_dims(q, 2 * i - n, 0)
                      if (n // 2 <= i <= n and 2 * i - n >= 0) else 0)
            assert t.dim(n, 0, i) == expect, (n, i)


def test_hc_hodge_dual_qx():
    t = hc_hodge_dual(PAIR_QX, 3, 3)
    qx = polynomial_algebra("x")
    assert [t.dim(1, w, 1) for w in range(4)] == [0, 1, 1, 1]  # Omega^1
    assert all(t.dim(2, w, 2) == 0 for w in range(4))          # Omega^2 = 0
    for n in range(4):
        for w in range(4):
            for i in range(n + 1):
                expect = (omega_dims(qx, 2 * i - n, w)
                          if (n // 2 <= i <= n and 2 * i - n >= 0) else 0)
                assert t.dim(n, w, i) == expect, (n, w, i)
    assert t.support_outliers() == []


def test_hc_sum_rule_against_hc_table():
    t = hc_hodge_dual(PAIR_QX, 3, 2)
    plain = hc_table(PAIR_QX, 3, 2)
    for n in range(4):
        for w in range(3):
            assert t.marginal(n, w) == plain.dim(n, w)


def test_hc_hodge_requires_dual():
    pair = tensor_artin(polynomial_algebra("x"), artin_algebra(("t", 3)))
    with pytest.raises(ValueError):
        hc_hodge_dual(pair, 2, 1)


def test_hn_hodge_shift():
    t = hn_hodge_dual(PAIR_QX, 3, 3)
    qx = polynomial_algebra("x")
    assert [t.dim(2, w, 2) for w in range(4)] == [omega_dims(qx, 1, w) for w in range(4)]
    assert all(t.dim(2, w, 1) == 0 for w in range(4))
    assert all(t.dim(0, w, i) == 0 for w in range(3) for i in range(3))


def test_hodge_table_json():
    t = hh_hodge_table(PAIR_Q, 2, 0)
    obj = t.to_json_dict()
    assert set(obj) == {"entries"}
    assert {"n": 2, "w": 0, "i": 1, "dim": 1} in obj["entries"]


# -- differential test against a Fraction projector oracle -------------------
#
# The oracle builds e^(i) in Q[S_n] straight from the descent generating
# function, for every index 0..n including the zero ones, acts on tensors
# by moving old slot k to new slot p(k), and forms the Fraction products
# b P_n and P_{n-1} b as entry dicts, ranked by the Fraction oracle.  It
# shares no code with the library's projectors or its rank.


def _oracle_idempotent(n, i):
    out = {}
    for p in itertools.permutations(range(1, n + 1)):
        d = sum(p[k] > p[k + 1] for k in range(n - 1))
        # binom(x - d + n - 1, n) = prod_j (x + n - 1 - d - j) / n!
        poly = [Fraction(1)]
        for j in range(n):
            root = n - 1 - d - j
            poly = [(poly[k - 1] if k else 0) + root * (poly[k] if k < len(poly) else 0)
                    for k in range(len(poly) + 1)]
        if i < len(poly) and poly[i]:
            out[p] = poly[i] / math.factorial(n)
    return out


def _oracle_projector(a, n, w, e, i, signed):
    cell = chain_cell(a, n, w, e)
    idx = cell.index()
    entries = {}
    for p, c in _oracle_idempotent(n, i).items():
        inversions = sum(p[x] > p[y] for x in range(n) for y in range(x + 1, n))
        c = c * (-1) ** inversions if signed else c
        for j, t in enumerate(cell.basis):
            s = list(t)
            for k in range(1, n + 1):
                s[p[k - 1]] = t[k]
            key = (idx[tuple(s)], j)
            entries[key] = entries.get(key, 0) + c
    return {k: v for k, v in entries.items() if v}


HODGE_WINDOWS = pytest.mark.parametrize("pair, w_max", [
    (PAIR_Q, 0),
    (PAIR_QX, 3),
    (dual_pair(polynomial_algebra("x", "y")), 2),
    (tensor_artin(polynomial_algebra("x"), artin_algebra(("t", 3))), 2),
    (tensor_artin(polynomial_algebra(), artin_algebra(("e", 2), ("f", 2))), 0),
], ids=["Q[e]", "Q[x][e]", "Q[x,y][e]", "Q[x](x)Q[t]/t3", "Q[e,f]/(e2,f2)"])


@HODGE_WINDOWS
def test_eigenspace_cells_match_fraction_oracle(pair, w_max):
    # per cell (n <= 3, w, e): the library raises exactly where some
    # b P^(i)_n = P^(i)_{n-1} b with i in 0..n fails, and otherwise reports
    # trace(P^(i)_n) and rank(b P^(i)_n) for i = 1..n
    n_max = 3
    for arg in (pair, pair.total, pair.base):
        a, e_min, _relative = cyclic._resolve(arg)
        failed = {True: 0, False: 0}
        for w in range(w_max + 1):
            for e in cyclic._e_range(a, e_min, n_max):
                for n in range(1, min(w + e, n_max) + 1):
                    b = _boundary(a, n, w, e).entries
                    for signed in (True, False):
                        ps = [_oracle_projector(a, n, w, e, i, signed) for i in range(n + 1)]
                        holds = all(matmul(b, ps[i])
                                    == matmul(_oracle_projector(a, n - 1, w, e, i, signed), b)
                                    for i in range(n + 1))
                        try:
                            got = hodge._eigenspace_cell(a, n, w, e, signed)
                        except AssertionError:
                            got = None
                        assert (got is not None) == holds, (arg, n, w, e, signed)
                        failed[signed] += not holds
                        if holds:
                            expect = tuple(
                                (sum(v for (r, c), v in p.items() if r == c),
                                 fraction_rank(matmul(b, p))) for p in ps[1:])
                            assert got == expect, (arg, n, w, e, signed)
        assert failed[True] == 0, arg
        # the unsigned action is caught on every algebra with a generator
        assert failed[False] > 0 or not a.generators, arg
