import contextlib
import functools
import itertools
import json
import math
import pathlib
from fractions import Fraction

import pytest

from cychom import cyclic, hodge
from cychom.algebra import (dual_pair, polynomial_algebra, tensor_artin,
                            artin_algebra)
from cychom.cyclic import Strip, chain_cell, hc_table, hh_table, strip
from cychom.differentials import omega_dims
from cychom.hodge import (MAX_SYMMETRIC_DEGREE, DegreeTooLarge, NegativeDimension,
                          eulerian_idempotents, hc_hodge_dual, hh_hodge_table,
                          hn_hodge_dual, perm_sign, projector_matrix,
                          verify_idempotent_identities)
from cychom.qlinalg import SparseMatrix, composes_to_zero
from fraction_oracle import (compose, convolution_identities, descent_class_products,
                             fraction_rank, full_walk_identities, index_loop_hodge_table,
                             matmul, matrix, per_index_projector, unsigned_slot_action,
                             walk_projectors)

PAIR_Q = dual_pair(polynomial_algebra())
PAIR_QX = dual_pair(polynomial_algebra("x"))
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "v1"


def _identity(n):
    return matrix(n, n, {(i, i): 1 for i in range(n)})


def _slot_action(signed):
    """The library's signed slot action, or with signed False the unsigned
    one that the oracle patches in."""
    return contextlib.nullcontext() if signed else unsigned_slot_action()


def test_degree_one_is_identity():
    # rows are n! e^(i) indexed by descent number
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
    b = strip(a, 1, 1).boundary(2)
    p2 = projector_matrix(a, 2, 1, 1, 1)
    p1 = projector_matrix(a, 1, 1, 1, 1)
    assert p1 == _identity(chain_cell(a, 1, 1, 1).dim)
    assert all(type(v) is int for v in p2.entries.values())
    lhs = b @ p2
    assert any(lhs.columns)
    assert lhs.entries == {k: 2 * v for k, v in (p1 @ b).entries.items()}
    # e^(2) vanishes in degree 1, so b kills its image
    assert composes_to_zero(projector_matrix(a, 2, 1, 1, 2), b)
    with pytest.raises(ValueError):
        projector_matrix(a, 2, 1, 1, 0)


def test_degree_one_boundary_must_vanish(monkeypatch):
    # at n = 1 the top-index identity b P^(1)_1 = 0 is b_1 = 0, which holds
    # on every commutative algebra; a nonzero b_1 must trip the check.
    # A fresh symbol keeps the cached cells of other tests out of the way,
    # and the fake b_1 is kept only on a strip built outside the cache.
    a = dual_pair(polynomial_algebra("s")).total
    cell1, cell0 = chain_cell(a, 1, 1, 1), chain_cell(a, 0, 1, 1)
    fake = matrix(cell0.dim, cell1.dim, {(0, 0): 1})
    monkeypatch.setattr(cyclic, "hochschild_boundary", lambda *args: fake)
    with pytest.raises(AssertionError, match=r"e\^\(1\) does not commute with b at n=1,"):
        hodge._eigenspace_cell(Strip(a, 1, 1), 1)


def test_degree_too_large_fails_before_any_cell():
    # a fresh Artin symbol, so no other test has built these cells
    pair = dual_pair(polynomial_algebra(), "h")
    misses = strip.cache_info().misses
    with pytest.raises(DegreeTooLarge, match="^degree 9 beyond bound 8$"):
        hh_hodge_table(pair, 8, 0)
    with pytest.raises(DegreeTooLarge, match="^degree 9 beyond bound 8$"):
        hh_hodge_table(pair.base, 8, 9)
    assert strip.cache_info().misses == misses
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


def test_unsigned_action_breaks_pin():
    # the oracle clears the caches on both sides of the unsigned action
    a = polynomial_algebra("x")
    broken = False
    with unsigned_slot_action():
        try:
            ht = hh_hodge_table(a, 2, 2)
            broken = any(ht.dim(n, w, n) != omega_dims(a, n, w)
                         for n in range(3) for w in range(3))
        except AssertionError as exc:
            assert "does not commute with b" in str(exc), exc
            broken = True  # chain-map check already trips
    assert broken


def test_hodge_sum_rule():
    # sum_i dim HH^(i)_n = dim HH_n on every cell
    for arg in (PAIR_Q, polynomial_algebra("x")):
        ht = hh_hodge_table(arg, 3, 2)
        plain = hh_table(arg, 3, 2)
        for n in range(4):
            for w in range(3):
                assert sum(ht.dim(n, w, i) for i in range(n + 1)) == plain.dim(n, w), \
                    (arg, n, w)


def _counting_orbits(monkeypatch):
    """Record (n, w, e) of every orbit-block build of a cell; the blocks are
    built once per (strip, degree), when the strip first derives them."""
    built = []
    real = hodge._orbits

    def counting(s, n):
        built.append((n, s.w, s.e))
        return real(s, n)

    monkeypatch.setattr(hodge, "_orbits", counting)
    return built


def test_empty_cells_build_no_projectors(monkeypatch):
    # z has weight 2, so the absolute cells C_n at odd weight, or with
    # 2n > w, are empty.  A fresh symbol keeps cached cells of other tests
    # out of the way.
    a = polynomial_algebra("z", weights={"z": 2})
    built = _counting_orbits(monkeypatch)
    ht = hh_hodge_table(a, 3, 4)
    assert built
    assert all(chain_cell(a, n, w, e).dim for n, w, e in built)
    visited = [(n, w) for w in range(5) for n in range(1, min(w, 4) + 1)]
    assert any(not chain_cell(a, n, w, 0).dim for n, w in visited)
    assert all(ht.dim(n, w, i) == 0 for n, w in visited
               for i in range(n + 1) if not chain_cell(a, n, w, 0).dim)
    assert ht.dim(1, 2, 1) == 1  # z dz, the Omega^1 of weight 2


def test_projectors_walk_once_per_nonempty_cell(monkeypatch):
    # Q[x][e] under a fresh symbol, so no other test has built its cells:
    # every nonempty cell with n >= 1 that the table visits gets the blocks
    # of all of its n projectors from one build of its orbits, and no other
    # build is made
    pair = dual_pair(polynomial_algebra("v"))
    walks = _counting_orbits(monkeypatch)
    hh_hodge_table(pair, 3, 3)
    visited = {(n, w, e) for _a, w, e, _m, top in cyclic._strips(pair, 3, 3)[1]
               for n in range(1, top + 1)}
    nonempty = [c for c in visited if chain_cell(pair.total, *c).dim]
    assert len(nonempty) < len(visited)
    assert len(walks) == len(set(walks)) == len(nonempty)
    assert set(walks) == set(nonempty)


def _fresh_strips(monkeypatch):
    """An empty strip cache in place of the shared one, so no cell or block
    that another test built hides a builder or a check."""
    fresh = functools.lru_cache(maxsize=cyclic.MAX_STRIPS)(cyclic.strip.__wrapped__)
    monkeypatch.setattr(cyclic, "strip", fresh)
    monkeypatch.setattr(hodge, "strip", fresh)
    return fresh


def test_table_path_places_no_projector(monkeypatch):
    # the eigenspace dimensions are read off the orbit blocks: with every
    # strip cold and projector_matrix refusing to run, the cyclic eigenspace
    # table of Q[x][e] still equals its golden fixture
    def refuse(*args):
        raise AssertionError("a table path placed a projector")

    fresh = _fresh_strips(monkeypatch)
    monkeypatch.setattr(hodge, "projector_matrix", refuse)
    golden = json.loads((FIXTURES / "hodge_hc_dual_Qx.json").read_text())
    assert hc_hodge_dual(PAIR_QX, 4, 4).to_json_dict() == golden
    assert fresh.cache_info().misses


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


def test_hc_sum_rule_against_hc_table():
    t = hc_hodge_dual(PAIR_QX, 3, 2)
    plain = hc_table(PAIR_QX, 3, 2)
    for n in range(4):
        for w in range(3):
            assert sum(t.dim(n, w, i) for i in range(n + 1)) == plain.dim(n, w)


def test_hc_hodge_requires_dual():
    pair = tensor_artin(polynomial_algebra("x"), artin_algebra(("t", 3)))
    with pytest.raises(ValueError):
        hc_hodge_dual(pair, 2, 1)


def test_negative_cyclic_eigenspace_is_caught(monkeypatch):
    # with HH^(1)_1 zeroed, HC^(1)_1 = HH^(1)_1 - HC^(0)_0 = 0 - 1 < 0
    hh = hh_hodge_table(PAIR_Q, 2, 0)
    assert hh.dim(1, 0, 1) == 1 and hh.dim(0, 0, 0) == 1
    hh.entries[(1, 0, 1)] = 0
    monkeypatch.setattr(hodge, "hh_hodge_table", lambda *args: hh)
    with pytest.raises(NegativeDimension, match=r"^HC\^\(1\)_1 at weight 0 came out -1$"):
        hc_hodge_dual(PAIR_Q, 2, 0)


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
    idx = cell.index
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


def _perms(n):
    return sorted(itertools.permutations(range(1, n + 1)))


def _expand(rows, n):
    """Rows indexed by descent number, spread over S_n in lexicographic order."""
    des = [sum(p[k] > p[k + 1] for k in range(n - 1)) for p in _perms(n)]
    return [[row[d] for d in des] for row in rows]


def test_descent_rows_match_oracle_idempotents():
    for n in range(1, 7):
        fact, perms = math.factorial(n), _perms(n)
        rows = _expand(eulerian_idempotents(n), n)
        assert len(rows) == n
        for i, row in enumerate(rows, start=1):
            oracle = _oracle_idempotent(n, i)
            assert row == [fact * oracle.get(p, 0) for p in perms], (n, i)
        if n <= 5:  # the n!-square composition table is slow at n = 6
            assert convolution_identities(n, rows)


def _corrupt_rows(n, balanced):
    """The descent rows at degree n >= 2 with +1 on c_(1,1), and with
    ``balanced`` also -1 on c_(2,1), which keeps every column sum."""
    rows = [list(row) for row in eulerian_idempotents(n)]
    rows[0][1] += 1
    if balanced:
        rows[1][1] -= 1
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("n, balanced", [
    pytest.param(4, False, id="column-sum"),
    pytest.param(4, True, id="column-sums-kept"),
    pytest.param(MAX_SYMMETRIC_DEGREE, False, id="column-sum-top"),
    pytest.param(MAX_SYMMETRIC_DEGREE, True, id="column-sums-kept-top"),
])
def test_idempotent_checks_reject_corruption(monkeypatch, n, balanced):
    message = (rf"^e\^\(\d\) \* e\^\(\d\) wrong at n={n}$" if balanced
               else rf"^idempotents do not sum to the identity at n={n}$")
    # the oracle convolves through an n! x n! composition table, out of
    # reach at n = 8, where the library check runs alone
    oracle = n <= 5
    assert verify_idempotent_identities(n)
    if oracle:
        assert convolution_identities(n, _expand(eulerian_idempotents(n), n))
    corrupt = _corrupt_rows(n, balanced)
    if balanced:
        # +1 on c_(1,1), -1 on c_(2,1): every column sum is kept, so only
        # the product check can catch it
        assert ([sum(col) for col in zip(*corrupt)]
                == [sum(col) for col in zip(*eulerian_idempotents(n))])
    monkeypatch.setattr(hodge, "eulerian_idempotents", lambda m: corrupt)
    with pytest.raises(AssertionError, match=message):
        verify_idempotent_identities(n)
    if oracle:
        with pytest.raises(AssertionError, match=message):
            convolution_identities(n, _expand(hodge.eulerian_idempotents(n), n))


def _raised(check, *args):
    with pytest.raises(AssertionError) as info:
        check(*args)
    return str(info.value)


def test_idempotent_check_matches_the_full_walk(monkeypatch):
    # the library compares D_a D_b at one permutation per descent number,
    # the full walk over S_n x S_n at every permutation
    for n in range(1, 7):
        perms, prod = descent_class_products(n)
        # the fact the library check rests on: the coefficients of D_a D_b
        # on a permutation depend only on its descent number
        by_class = {}
        for (p, d), m in zip(perms, prod):
            assert by_class.setdefault(d, m) == m, (n, p)
        assert sorted(by_class) == list(range(n))
        assert verify_idempotent_identities(n)
        assert full_walk_identities(n, eulerian_idempotents(n))
        # both corruptions need a second descent number and a second row
        for balanced in (False, True) if n >= 2 else ():
            corrupt = _corrupt_rows(n, balanced)
            with monkeypatch.context() as m:
                m.setattr(hodge, "eulerian_idempotents", lambda k: corrupt)
                got = _raised(verify_idempotent_identities, n)
            assert got == _raised(full_walk_identities, n, corrupt), (n, balanced)


def test_criterion_checks_every_accepted_degree(monkeypatch):
    # criterion 5 checks the identities on exactly the degrees hodge accepts
    from cychom import machine
    seen = []

    def recording(n):
        seen.append(n)
        return verify_idempotent_identities(n)

    monkeypatch.setattr(machine, "verify_idempotent_identities", recording)
    assert machine.criterion_eulerian_idempotents().startswith(
        f"orthogonal idempotents to degree {MAX_SYMMETRIC_DEGREE};")
    assert seen == list(range(1, MAX_SYMMETRIC_DEGREE + 1))


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
        failed = {True: 0, False: 0}
        for signed in (True, False):
            with _slot_action(signed):
                for a, w, e, m, _top in cyclic._strips(arg, n_max, w_max)[1]:
                    for n in range(1, m + 1):
                        b = strip(a, w, e).boundary(n).entries
                        ps = [_oracle_projector(a, n, w, e, i, signed) for i in range(n + 1)]
                        holds = all(matmul(b, ps[i])
                                    == matmul(_oracle_projector(a, n - 1, w, e, i, signed), b)
                                    for i in range(n + 1))
                        try:
                            got = hodge._eigenspace_cell(strip(a, w, e), n)
                        except AssertionError:
                            got = None
                        assert (got is not None) == holds, (arg, n, w, e, signed)
                        failed[signed] += not holds
                        if holds:
                            expect = {
                                (i,): (sum(v for (r, c), v in p.items() if r == c),
                                       fraction_rank(matmul(b, p)))
                                for i, p in enumerate(ps[1:], start=1)}
                            assert got == expect, (arg, n, w, e, signed)
        assert failed[True] == 0, arg
        # the unsigned action is caught on every algebra with a generator
        assert failed[False] > 0 or not a.generators, arg


@HODGE_WINDOWS
def test_shared_walk_matches_the_former_index_loop(pair, w_max):
    # the Hodge table summed by cyclic's one strip walk equals the one the
    # former per-index loop sums, entry for entry, on the pair, its total
    # algebra and its base
    for arg in (pair, pair.total, pair.base):
        assert (hh_hodge_table(arg, 3, w_max).entries
                == index_loop_hodge_table(arg, 3, w_max).entries), arg


@pytest.mark.parametrize("pair", [PAIR_Q, PAIR_QX, dual_pair(polynomial_algebra("x", "y"))],
                         ids=["Q[e]", "Q[x][e]", "Q[x,y][e]"])
def test_projectors_match_per_index_oracle(pair):
    # the one-walk projectors of a cell equal the former build, one walk
    # over S_n per index, entry for entry
    n_max = 4
    for signed in (True, False):
        with _slot_action(signed):
            for arg in (pair.total, pair.base):
                for a, w, e, _m, _top in cyclic._strips(arg, n_max, 3)[1]:
                    for n in range(1, n_max + 1):
                        for i in range(1, n + 1):
                            assert (projector_matrix(a, n, w, e, i).entries
                                    == per_index_projector(a, n, w, e, i, signed)), \
                                (a, n, w, e, i, signed)


@HODGE_WINDOWS
def test_orbit_projectors_match_tensor_walk(pair, w_max):
    # the projectors placed from orbit patterns equal the former build, one
    # walk of S_n over every basis tensor of the cell, entry for entry
    n_max = 4
    for signed in (True, False):
        with _slot_action(signed):
            for arg in (pair.total, pair.base):
                for a, w, e, _m, _top in cyclic._strips(arg, n_max, w_max)[1]:
                    for n in range(1, n_max + 1):
                        assert ([projector_matrix(a, n, w, e, i).entries
                                 for i in range(1, n + 1)]
                                == walk_projectors(a, n, w, e, signed)), (a, n, w, e, signed)


def _flip_one_block_entry(real):
    # adds 1 to an off-diagonal entry of the block of e^(1) on the orbits of
    # two distinct inner ids in degree 2, which keeps the trace
    def corrupt(n, mults):
        if (n, mults) != (2, (1, 1)):
            return real(n, mults)
        (cols, pivots), *rest = real(n, mults)
        assert sorted(cols[0]) == [0, 1]
        col = {0: cols[0][0], 1: cols[0][1] + 1}
        return ([col, *cols[1:]], pivots), *rest
    return corrupt


def _flip_one_sign(real):
    # the transposition of S_2 acts with the wrong sign
    return lambda p: -real(p) if p == (2, 1) else real(p)


@pytest.mark.parametrize("attr, corrupt", [
    ("_pattern", _flip_one_block_entry), ("perm_sign", _flip_one_sign),
], ids=["block-entry", "permutation-sign"])
def test_corrupt_pattern_trips_the_chain_map_check(monkeypatch, attr, corrupt):
    # the column check is not vacuous: one wrong entry of one pattern block,
    # or one wrong sign in the pattern walk, is caught.  A fresh strip cache
    # and a fresh pattern cache keep every cached block out of the way.
    pair = dual_pair(polynomial_algebra("c"))
    _fresh_strips(monkeypatch)
    monkeypatch.setattr(hodge, "_pattern",
                        functools.lru_cache(maxsize=None)(hodge._pattern.__wrapped__))
    monkeypatch.setattr(hodge, attr, corrupt(getattr(hodge, attr)))
    with pytest.raises(AssertionError,
                       match=r"^projector e\^\(\d\) does not commute with b at n=2,"):
        hh_hodge_table(pair, 2, 2)


def test_hodge_builds_each_pattern_once_and_multiplies_no_matrix(monkeypatch):
    # Q[x][e] at (3, 3) under a fresh symbol: the chain-map check and the
    # ranks read columns, so no SparseMatrix product is formed, and each
    # block pattern (n, multiplicities of the inner ids) is built
    # once, not once per tensor
    pair = dual_pair(polynomial_algebra("m"))
    products = []
    monkeypatch.setattr(SparseMatrix, "__matmul__", lambda *args: products.append(args))
    built = []
    raw = hodge._pattern.__wrapped__

    def counting(n, mults):
        built.append((n, mults))
        return raw(n, mults)

    monkeypatch.setattr(hodge, "_pattern", functools.lru_cache(maxsize=None)(counting))
    table = hc_hodge_dual(pair, 3, 3)
    assert not products
    tensors = [(n, t) for a, w, e, _m, top in cyclic._strips(pair, 3, 3)[1]
               for n in range(1, top + 1) for t in chain_cell(a, n, w, e).basis]
    patterns = {(n, tuple(t[1:].count(x) for x in sorted(set(t[1:])))) for n, t in tensors}
    assert sorted(built) == sorted(patterns)
    assert len(built) < len(tensors)
    assert table.entries == hc_hodge_dual(PAIR_QX, 3, 3).entries


def _add_one_on_the_diagonal(real):
    # adds 1 to the first diagonal entry of the block of e^(1) on the orbits
    # of two distinct inner codes in degree 2: every cell holding an odd
    # number of such orbits gets a trace that 2! does not divide
    def corrupt(n, mults):
        if (n, mults) != (2, (1, 1)):
            return real(n, mults)
        (cols, pivots), *rest = real(n, mults)
        return ([{**cols[0], 0: cols[0].get(0, 0) + 1}, *cols[1:]], pivots), *rest
    return corrupt


def test_corrupt_trace_trips_the_trace_check(monkeypatch):
    # the trace read off the blocks' diagonals is checked before a failed
    # chain-map identity is raised, so a trace that n! does not divide is
    # named as such.  Q[c][e] at (w, e) = (1, 1) holds one orbit
    # {1 (x) c (x) e, 1 (x) e (x) c} in degree 2.  A fresh strip cache and a
    # fresh pattern cache keep every cached block out of the way.
    pair = dual_pair(polynomial_algebra("c"))
    _fresh_strips(monkeypatch)
    monkeypatch.setattr(hodge, "_pattern", functools.lru_cache(maxsize=None)(
        _add_one_on_the_diagonal(hodge._pattern.__wrapped__)))
    with pytest.raises(AssertionError,
                       match=r"^projector trace is not a nonnegative integer; "):
        hh_hodge_table(pair, 2, 2)


@HODGE_WINDOWS
def test_eigenspace_dims_match_placed_projector_traces(pair, w_max):
    # the dimensions read off the orbit blocks equal trace(P_n) / n! of the
    # projectors placed the former way, for both actions and n <= 4.  Where
    # the unsigned action fails the chain-map identity, the cell raises that
    # failure, never the trace check: every placed trace is a multiple of n!
    n_max = 4
    for signed in (True, False):
        with _slot_action(signed):
            for arg in (pair.total, pair.base):
                for a, w, e, m, _top in cyclic._strips(arg, n_max, w_max)[1]:
                    s = strip(a, w, e)
                    for n in range(1, m + 1):
                        traces = []
                        for i in range(1, n + 1):
                            p = projector_matrix(a, n, w, e, i)
                            traces.append(sum(col.get(j, 0) for j, col in enumerate(p.columns)))
                        assert all(t % math.factorial(n) == 0 and t >= 0 for t in traces)
                        try:
                            got = hodge._eigenspace_cell(s, n)
                        except AssertionError as exc:
                            assert not signed and "does not commute with b" in str(exc), \
                                (a, n, w, e, signed)
                            continue
                        assert list(got) == [(i,) for i in range(1, n + 1)], \
                            (a, n, w, e, signed)
                        assert [d for d, _r in got.values()] == [t // math.factorial(n)
                                                                  for t in traces], \
                            (a, n, w, e, signed)
