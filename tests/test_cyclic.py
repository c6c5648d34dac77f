import contextlib
import itertools
import json
import re

import pytest

from cychom import cyclic
from cychom.algebra import (GradedAlgebra, artin_algebra, dual_pair,
                            polynomial_algebra, tensor_artin)
from cychom.cyclic import (chain_cell, hc_table, hn_rel_table,
                           hochschild_boundary, hh_table,
                           sbi_degeneration_check, split_exactness_check)
from cychom.differentials import hc_bundle
from cychom.hodge import hc_hodge_dual, hh_hodge_table, hn_hodge_dual
from cychom.qlinalg import SparseMatrix, rank
from fraction_oracle import (NumberedStrip, fraction_rank, matrix, monomial_mul, tuple_boundary,
                             tuple_chain_basis, untwisted_cyclic_operator)


PAIR_Q = dual_pair(polynomial_algebra())
QE = PAIR_Q.total
PAIR_QX = dual_pair(polynomial_algebra("x"))


def decode(a, c):
    """The exponent tuple of the monomial code c of the algebra a."""
    return tuple(c.to_bytes(a.ngens, "big"))


def _cyclic_operator(twist):
    """The library's Connes operator, or with twist False the untwisted one
    that the oracle patches in."""
    return contextlib.nullcontext() if twist else untwisted_cyclic_operator()


def test_boundary_degree_one_commutes_to_zero():
    m = hochschild_boundary(cyclic.strip(QE, 0, 1), 1)
    assert m == SparseMatrix.zero(1, 1)


def test_boundary_degree_two_doubles():
    m = hochschild_boundary(cyclic.strip(QE, 0, 2), 2)
    assert (m.rows, m.cols) == (1, 1)
    assert list(m.entries.values()) == [2]


def test_boundary_empty_cells():
    m = hochschild_boundary(cyclic.strip(QE, 0, 0), 3)
    assert (m.rows, m.cols) == (0, 0)


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


@pytest.mark.parametrize("build, key", [(hn_rel_table, (0, 0)), (hn_hodge_dual, (0, 0, 0))],
                         ids=["hn_rel_table", "hn_hodge_dual"])
def test_hn_at_degree_zero_holds_degree_zero_alone(build, key):
    # the shifted copy of HC_0 lies past n_max = 0 and is left out
    assert build(PAIR_Q, 0, 0).entries == {key: 0}


@pytest.mark.parametrize("build", [hn_rel_table, hc_hodge_dual, hn_hodge_dual],
                         ids=["hn_rel_table", "hc_hodge_dual", "hn_hodge_dual"])
def test_hn_requires_pair(build):
    with pytest.raises(TypeError):
        build(QE, 2, 0)


def test_connes_complex_dual():
    assert hc_table(PAIR_Q, 0, 0).column(0) == [1]
    # the rotation of 1(x)e(x)e is degenerate, so that tensor lies in
    # im(1-t) and has no class in C^lambda; the degree-2 cyclic class
    # lives in the e = 3 slice instead
    assert cyclic.strip(QE, 0, 2).lambda_cell(2).dim == 0
    assert cyclic.strip(QE, 0, 3).lambda_cell(2).dim == 1
    # e(x)e is fixed by the rotation, on which t acts by -1 in degree 1:
    # the orbit has no class, unless the sign twist is dropped
    assert cyclic.strip(QE, 0, 2).lambda_cell(1).dim == 0
    with untwisted_cyclic_operator():
        assert cyclic.strip(QE, 0, 2).lambda_cell(1).dim == 1


def test_connes_complex_empty_for_q():
    q = polynomial_algebra()
    assert all(cyclic.strip(q, 1, 0).lambda_cell(n).dim == 0 for n in range(3))


def _one_minus_t(a, n, w, e, twist):
    """Matrix of 1 - t on C_n, read off the chain-cell basis.

    t is the identity at n = 0, zero on tensors whose slot 0 is the unit,
    and otherwise (-1)^n times the rotation x_n (x) x_0 (x) ... (x) x_{n-1},
    the sign dropped without the twist.
    """
    cell = chain_cell(a, n, w, e)
    idx = cell.index
    sign = (-1) ** n if twist else 1
    entries = {(j, j): 1 for j in range(cell.dim)}
    for j, x in enumerate(cell.basis):
        if n == 0:
            rotated = x
        elif decode(a, x[0]) == a.one:
            continue
        else:
            rotated = (x[-1],) + x[:-1]
        key = (idx[rotated], j)
        entries[key] = entries.get(key, 0) - sign
    return matrix(cell.dim, cell.dim, {k: v for k, v in entries.items() if v})


def _boundary_without_cyclic_face(a, n, w, e):
    """Matrix of b' : C_n -> C_{n-1}, the alternating sum of the first n
    faces, multiplied by ``monomial_mul`` on the decoded exponent tuples."""
    def decoded(cell):
        return [tuple(decode(a, m) for m in t) for t in cell.basis]

    src, dst = decoded(chain_cell(a, n, w, e)), decoded(chain_cell(a, n - 1, w, e))
    idx = {t: i for i, t in enumerate(dst)}
    entries = {}
    for j, x in enumerate(src):
        for i in range(n):
            prod = monomial_mul(a, x[i], x[i + 1])
            if prod is not None:
                key = (idx[x[:i] + (prod,) + x[i + 2:]], j)
                entries[key] = entries.get(key, 0) + (-1) ** i
    return matrix(len(dst), len(src), {k: v for k, v in entries.items() if v})


def _stacked_quotient_hc(arg, n_max, w_max):
    """HC from ranks of stacked [b_n | (1-t)_{n-1}] matrices: the former
    library path, kept as an independent oracle for C^lambda, with every
    rank taken by the Fraction oracle.

    For Q = C / D with D = im(1-t):
      dim H_n(Q) = dim C_n + rank D_{n-1} - rank [b_n | D_{n-1}]
                   - rank [b_{n+1} | D_n],
    the final term being rank D_n when C_{n+1} = 0.
    """
    out = {}
    for a, w, e, m, _top in cyclic._strips(arg, n_max, w_max)[1]:
        def diff(n):
            return _one_minus_t(a, n, w, e, True)

        def stacked(n):
            return fraction_rank(cyclic.strip(a, w, e).boundary(n).hstack(diff(n - 1)).entries)

        for n in range(m + 1):
            h = chain_cell(a, n, w, e).dim
            if n >= 1:
                h += fraction_rank(diff(n - 1).entries) - stacked(n)
            h -= stacked(n + 1) if n + 1 <= w + e else fraction_rank(diff(n).entries)
            out[(n, w)] = out.get((n, w), 0) + h
    return out


# the algebras of the suite, with the window each lambda-complex test walks
SUITE = [
    ("Q[e]", PAIR_Q, 6, 0),
    ("Q[x][e]", PAIR_QX, 4, 3),
    ("Q[x,y][e]", dual_pair(polynomial_algebra("x", "y")), 3, 3),
    ("Q[x](x)Q[t]/t3", tensor_artin(polynomial_algebra("x"), artin_algebra(("t", 3))), 3, 2),
    ("Q[e,f]/(e2,f2)",
     tensor_artin(polynomial_algebra(), artin_algebra(("e", 2), ("f", 2))), 4, 0),
]
SUITE_IDS = [name for name, *_ in SUITE]
LAMBDA_WINDOWS = pytest.mark.parametrize(
    "pair, n_max, w_max", [window for _name, *window in SUITE], ids=SUITE_IDS)


@LAMBDA_WINDOWS
def test_lambda_complex_matches_stacked_quotient(pair, n_max, w_max):
    for arg in (pair, pair.total, pair.base):
        got = hc_table(arg, n_max, w_max)
        expect = _stacked_quotient_hc(arg, n_max, w_max)
        for n in range(n_max + 1):
            for w in range(w_max + 1):
                assert got.dim(n, w) == expect.get((n, w), 0), (arg, n, w)


@LAMBDA_WINDOWS
def test_lambda_cell_rotation_matches_one_minus_t(pair, n_max, w_max):
    # the t that Strip.lambda_cell builds, against the 1 - t read off the
    # basis; the untwisted t of the oracle, against 1 - t without the sign
    for twist in (True, False):
        with _cyclic_operator(twist):
            for arg in (pair, pair.total, pair.base):
                for a, w, e, _m, top in cyclic._strips(arg, n_max, w_max)[1]:
                    for n in range(top + 1):
                        dim = chain_cell(a, n, w, e).dim
                        entries = {(j, j): 1 for j in range(dim)}
                        cell = cyclic.strip(a, w, e).lambda_cell(n)
                        for j, i in enumerate(cell.rot):
                            if i is not None:
                                entries[i, j] = entries.get((i, j), 0) - cell.sign
                        got = matrix(dim, dim, {k: v for k, v in entries.items() if v})
                        assert got == _one_minus_t(a, n, w, e, twist), (arg, n, w, e, twist)


@LAMBDA_WINDOWS
def test_quotient_check_matches_matrix_identity(pair, n_max, w_max):
    # the HC cell, whose per-tensor check runs in its pass over the columns
    # of b, raises exactly where the matrix identity
    # b_n (1-t)_n = (1-t)_{n-1} b'_n fails, on every cell hc_table checks,
    # under Connes' operator and under the untwisted one of the oracle
    for arg, nilpotent in ((pair, True), (pair.total, True), (pair.base, False)):
        failed = {True: 0, False: 0}
        for twist in (True, False):
            with _cyclic_operator(twist):
                for a, w, e, _m, top in cyclic._strips(arg, n_max, w_max)[1]:
                    for n in range(1, top + 1):
                        b = cyclic.strip(a, w, e).boundary(n)
                        b_prime = _boundary_without_cyclic_face(a, n, w, e)
                        holds = (b @ _one_minus_t(a, n, w, e, twist)
                                 == _one_minus_t(a, n - 1, w, e, twist) @ b_prime)
                        try:
                            cyclic._lambda_dim_rank(cyclic.strip(a, w, e), n)
                            raised = False
                        except AssertionError:
                            raised = True
                        assert raised != holds, (arg, n, w, e, twist)
                        failed[twist] += not holds
        assert failed[True] == 0, arg
        if nilpotent:
            assert failed[False] > 0, arg


def _compressed_cells(arg, n_max, w_max):
    """(cell, its boundary matrix, the set of pivot columns kept for the
    cell below, those kept for it) for every HH b_n and HC b^lambda_n that
    a table of ``arg`` ranks."""
    for a, w, e, _m, top in cyclic._strips(arg, n_max, w_max)[1]:
        s = cyclic.strip(a, w, e)
        for boundary in (cyclic.Strip.boundary, cyclic._lambda_boundary):
            below: set[int] = set()
            for n in range(1, top + 1):
                pivots = s.derive(cyclic._pivots, n, boundary)
                yield (boundary.__name__, n, w, e), boundary(s, n), below, pivots
                below = set(pivots)


@LAMBDA_WINDOWS
def test_compressed_ranks_match_full_ranks(pair, n_max, w_max):
    # each boundary is ranked on the rows that the pivot columns of the one
    # below leave: that rank is the full rank, and the pivot columns kept
    # for the next degree are independent columns of the full boundary
    for arg in (pair, pair.total, pair.base):
        for cell, m, below, pivots in _compressed_cells(arg, n_max, w_max):
            full = rank(m)
            assert rank(m, below) == len(pivots) == full, (arg, cell)
            assert fraction_rank({(i, j): v for j in pivots
                                  for i, v in m.columns[j].items()}) == full, (arg, cell)


def test_skipping_other_rows_changes_a_rank():
    # the differential test above can fail: skipping as many rows, none of
    # them a pivot column of the cell below, loses rank on some cell
    lost = 0
    for _cell, m, below, _pivots in _compressed_cells(PAIR_QX, 4, 3):
        other = [i for i in range(m.rows) if i not in below][:len(below)]
        lost += rank(m, other) < rank(m)
    assert lost


@pytest.mark.parametrize("pair", [pair for _name, pair, *_ in SUITE], ids=SUITE_IDS)
def test_monomial_ids_match_exponent_tuple_path(pair):
    # chain cells and b on monomial codes, decoded, against the exponent-tuple
    # path, for every (n, w, e) with n <= 4 and w <= 3; a sum of two codes
    # of the strip is a code of it exactly when the product is nonzero and
    # in the window, and then decodes to the product
    for a in (pair.total, pair.base):
        for w in range(4):
            for e in range(a.max_nildeg() * 5 + 1):
                table = cyclic.strip(a, w, e)
                codes = [c for c, _w, _e in table.monomials]
                for cx in codes:
                    for cy in codes:
                        x, y = decode(a, cx), decode(a, cy)
                        xy = monomial_mul(a, x, y)
                        if xy is not None and (a.weight(xy) > w or a.nildeg(xy) > e):
                            xy = None   # outside the strip's window
                        p = cx + cy
                        assert (decode(a, p) if p in table.codes else None) == xy, \
                            (a, w, e, x, y)
                for n in range(5):
                    got = tuple(tuple(decode(a, m) for m in t)
                                for t in chain_cell(a, n, w, e).basis)
                    assert got == tuple_chain_basis(a, n, w, e), (a, n, w, e)
                    if n:
                        assert table.boundary(n) == tuple_boundary(a, n, w, e), \
                            (a, n, w, e)


@pytest.mark.parametrize("pair", [pair for _name, pair, *_ in SUITE], ids=SUITE_IDS)
def test_monomial_codes_match_numbered_strip(pair):
    # chain cells and b on monomial codes, decoded, against the former
    # numbered strip (ids in exponent-tuple order, products from a table by
    # monomial_mul, cells by a layer walk), entry for entry, for every
    # (n, w, e) with n <= 4 and w <= 3
    for a in (pair.total, pair.base):
        for w in range(4):
            for e in range(a.max_nildeg() * 5 + 1):
                s, old = cyclic.strip(a, w, e), NumberedStrip(a, w, e)
                assert [decode(a, c) for c, _w, _e in s.monomials] == list(old.monomials)
                assert all((a.weight(decode(a, c)), a.nildeg(decode(a, c))) == (ww, ee)
                           for c, ww, ee in s.monomials), (a, w, e)
                for n in range(5):
                    got = [tuple(decode(a, m) for m in t) for t in s.cell(n).basis]
                    expect = [tuple(old.monomials[i] for i in t) for t in old.cell(n)]
                    assert got == expect, (a, n, w, e)
                    if n:
                        assert s.boundary(n) == old.boundary(n), (a, n, w, e)


def test_cold_hc_build_makes_no_monomial_product(monkeypatch):
    # from cold strips, the codes, chain cells, b, the lambda-cells and the
    # quotient check multiply no monomial: every product is a sum of codes
    pair = dual_pair(polynomial_algebra("x", "y"))
    first = hc_table(pair, 3, 3)
    cyclic.strip.cache_clear()
    calls = []

    def counted(self, x, y):
        calls.append((x, y))
        return monomial_mul(self, x, y)

    # GradedAlgebra has no product method now; the spy sees one put back
    monkeypatch.setattr(GradedAlgebra, "mul", counted, raising=False)
    try:
        assert hc_table(pair, 3, 3).entries == first.entries
    finally:
        cyclic.strip.cache_clear()   # no strip built under the counter reaches another test
    assert calls == []


def test_monomial_codes_refuse_a_carry(monkeypatch, tmp_path, capsys):
    # a strip whose window or nilpotency lets an exponent pass EXPONENT_MAX is
    # refused before any monomial is enumerated, naming the generator
    from cychom import cli
    from cychom.algebra import Generator
    top = cyclic.EXPONENT_MAX

    def enumerated(self, w, e):
        raise AssertionError("enumerated a refused strip")

    wide = tensor_artin(polynomial_algebra("x"), artin_algebra(("t", top + 3))).total
    with monkeypatch.context() as m:
        m.setattr(GradedAlgebra, "bigraded_basis", enumerated)
        with pytest.raises(ValueError, match="generator 'x' reaches exponent"):
            cyclic.strip(polynomial_algebra("x"), top + 1, 0)
        with pytest.raises(ValueError, match="generator 'x' reaches exponent"):
            cyclic.strip(GradedAlgebra((Generator("x", 2),)), 2 * top + 2, 0)
        with pytest.raises(ValueError, match="generator 't' reaches exponent"):
            cyclic.strip(wide, 0, top + 1)
    # at the bound itself, and for a nilpotency that caps the exponent
    assert cyclic.strip(wide, 0, top).monomials[-1][1:] == (0, top)
    assert cyclic.strip(tensor_artin(polynomial_algebra(), artin_algebra(("t", 3))).total,
                        0, 4 * top).monomials[-1][1:] == (0, 2)
    refusal = (f"error: ValueError: generator 't' reaches exponent {top + 1} in the "
               f"(w, e) = (0, {top + 1}) strip; monomial codes hold exponents "
               f"up to {top}\n")
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"generators": [], "monomial_relations": [],
                                "artin": [{"symbol": "t", "nilpotency": top + 3}]}))
    assert cli.main(["hc", "--relative", "--algebra", str(spec), "--max-degree", "0",
                     "--max-weight", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == refusal

    # a nilpotency far past the bound is refused with the same message before
    # max_nildeg counts up to it
    def counted(self):
        raise AssertionError("counted the nilpotent degrees of a refused algebra")

    spec.write_text(json.dumps({"generators": [], "monomial_relations": [],
                                "artin": [{"symbol": "t", "nilpotency": 10**12}]}))
    with monkeypatch.context() as m:
        m.setattr(GradedAlgebra, "max_nildeg", counted)
        for argv in (["hh"], ["hc", "--relative"], ["hodge"], ["report"]):
            assert cli.main([*argv, "--algebra", str(spec), "--max-degree", "0",
                             "--max-weight", "0"]) == 1
            assert capsys.readouterr() == ("", refusal), argv


def test_tables_refuse_a_carrying_window_before_any_strip(monkeypatch, tmp_path, capsys):
    # the tables check every (w, e) they will walk, in walk order, before
    # building a strip: the first one past EXPONENT_MAX is named at once,
    # with the message a strip gives, and nothing is enumerated
    from cychom import cli
    top = cyclic.EXPONENT_MAX
    pair = dual_pair(polynomial_algebra("x"))

    def enumerated(self, w, e):
        raise AssertionError("enumerated a strip of a refused window")

    message = (f"generator 'x' reaches exponent {top + 1} in the (w, e) = ({top + 1}, 1) "
               f"strip; monomial codes hold exponents up to {top}")
    spec = tmp_path / "dual_qx.json"
    spec.write_text(json.dumps({"generators": [{"symbol": "x", "weight": 1}],
                                "artin": [{"symbol": "e", "nilpotency": 2}]}))
    with monkeypatch.context() as m:
        m.setattr(GradedAlgebra, "bigraded_basis", enumerated)
        for build in (hh_table, hc_table, hh_hodge_table, hc_hodge_dual):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(pair, 2, top + 3)
        for argv in (["hc", "--relative"], ["hh", "--relative"], ["hodge", "--kind", "hc"]):
            assert cli.main([*argv, "--algebra", str(spec), "--max-degree", "2",
                             "--max-weight", str(top + 3)]) == 1
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", f"error: ValueError: {message}\n"), argv


def test_hc_rebuild_makes_no_monomial_product(monkeypatch):
    # once the strips are warm, chain cells, b, the lambda-cells and the
    # quotient check read products off the codes alone: with every strip's
    # derived cells, boundaries and ranks dropped, and its codes kept, a
    # rebuild multiplies nothing
    pair = dual_pair(polynomial_algebra("x", "y"))
    first = hc_table(pair, 3, 3)
    strips = [cyclic.strip(a, w, e) for a, w, e, _m, _top in cyclic._strips(pair, 3, 3)[1]]
    for s in strips:
        s.derived.clear()
    calls = []

    def counted(self, x, y):
        calls.append((x, y))
        return monomial_mul(self, x, y)

    # GradedAlgebra has no product method now; the spy sees one put back
    monkeypatch.setattr(GradedAlgebra, "mul", counted, raising=False)
    assert hc_table(pair, 3, 3).entries == first.entries
    assert calls == []
    assert all(s is cyclic.strip(s.algebra, s.w, s.e) and s.derived for s in strips)
    # each strip holds exactly the normal-form monomials of its window, one
    # code each
    a = pair.total
    for table in strips:
        w, e = table.w, table.e
        expect = sorted(m for m in itertools.product(range(w + e + 1), repeat=a.ngens)
                        if not a.is_zero_monomial(m)
                        and a.weight(m) <= w and a.nildeg(m) <= e)
        assert [decode(a, c) for c, _w, _e in table.monomials] == expect, (w, e)
        assert table.codes == {c for c, _w, _e in table.monomials}
        assert len(table.codes) == len(expect)


def test_hc_builds_each_strip_cell_once(monkeypatch):
    # from cold strips, HC builds every (n, w, e) lambda-cell once and
    # every chain cell, with its index, once: the lambda-cell of degree n
    # serves both the boundary into it and the boundary out of it.  A chain
    # cell is read off the cells of smaller strips, so the relative walk
    # (e >= 1) also builds 6 cells of the e = 0 strips below it.  C_n is
    # asked of a sub-strip only for its tensors of n + 1 slots that are not
    # the unit, so never where n >= w + e: no cell of degree n > w + e is
    # built, and no C_w of an e = 0 strip
    pair = dual_pair(polynomial_algebra("x", "y"))
    first = hc_table(pair, 3, 3)
    cyclic.strip.cache_clear()
    built = {"chain": [], "lambda": []}

    def counting(kind, honest):
        def build(s, n):
            built[kind].append((s.algebra, s.w, s.e, n))
            return honest(s, n)
        return build

    monkeypatch.setattr(cyclic, "_chain_cell", counting("chain", cyclic._chain_cell))
    monkeypatch.setattr(cyclic, "_lambda_cell", counting("lambda", cyclic._lambda_cell))
    try:
        assert hc_table(pair, 3, 3).entries == first.entries
    finally:
        cyclic.strip.cache_clear()   # no cell kept under the counters reaches another test
    for kind, count in (("chain", 76), ("lambda", 70)):
        assert len(built[kind]) == len(set(built[kind])) == count, kind
    extra = set(built["chain"]) - set(built["lambda"])
    assert {key[1:] for key in extra} == {(w, 0, n) for w in range(4) for n in range(w)}
    assert not {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 1, 3)} & {key[1:] for key in built["chain"]}
    assert all(n <= w + e for _a, w, e, n in built["chain"])


def test_split_exactness_hh_and_hc():
    for artin in (None, ("t", 3)):
        pair = (PAIR_QX if artin is None
                else tensor_artin(polynomial_algebra("x"), artin_algebra(artin)))
        for kind in ("HH", "HC"):
            for c in split_exactness_check(pair, 3, 2, kind):
                assert c.ok, (artin, kind, c)


def test_sbi_degeneration():
    cells = sbi_degeneration_check(PAIR_Q, 3, 0)
    assert all(c.ok for c in cells)
    by_cell = {(c.n, c.w): c for c in cells}
    assert (by_cell[(1, 0)].lhs, by_cell[(1, 0)].rhs) == (1, 1)  # 1 = 0 + 1
    assert (by_cell[(2, 0)].lhs, by_cell[(2, 0)].rhs) == (1, 1)  # 1 = 1 + 0
    assert all(c.ok for c in sbi_degeneration_check(PAIR_QX, 3, 2))


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
    for order, n_max in ((3, 4), (4, 4), (12, 2)):
        d = order - 1
        pair = tensor_artin(polynomial_algebra(), artin_algebra(("t", order)))
        assert hc_table(pair, n_max, 0).column(0) == [d, 0, d, 0, d][:n_max + 1]
        assert hh_table(pair, n_max, 0).column(0) == [d] * (n_max + 1)


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
        cyclic.strip(a, 0, 0).lambda_cell(0)
    with pytest.raises(ValueError):
        Generator("u", 0)  # the construction-time guard


def test_corrupted_cyclic_sign_is_detected():
    # dropping the sign of Connes' operator breaks well-definedness of the
    # quotient boundary, which the builder asserts on every cell
    with untwisted_cyclic_operator():
        with pytest.raises(AssertionError, match=r"^b does not preserve im\(1-t\) at n=2,"):
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


TABLE_BUILDERS = [hh_table, hc_table, hn_rel_table, hh_hodge_table, hc_hodge_dual,
                  hn_hodge_dual]


@pytest.mark.parametrize("build", TABLE_BUILDERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n_max, w_max", [(-1, 2), (2, -1)], ids=["n_max", "w_max"])
def test_table_builders_refuse_negative_bounds(build, n_max, w_max):
    with pytest.raises(ValueError, match="^bounds must be nonnegative$"):
        build(PAIR_Q, n_max, w_max)


@pytest.mark.parametrize("build", TABLE_BUILDERS, ids=lambda f: f.__name__)
def test_table_builders_form_no_matrix_product(monkeypatch, build):
    # every check and rank of every table reads b column by column, so no
    # SparseMatrix product is formed.  A symbol of its own per builder keeps
    # every cached strip, and the work it would hide, out of the way.
    pair = dual_pair(polynomial_algebra(f"u_{build.__name__}"))
    products = []
    monkeypatch.setattr(SparseMatrix, "__matmul__", lambda *args: products.append(args))
    table = build(pair, 3, 3)
    assert not products
    assert table.entries == build(PAIR_QX, 3, 3).entries


@pytest.mark.parametrize("build", [hh_table, hc_table, hh_hodge_table],
                         ids=lambda f: f.__name__)
def test_table_builders_refuse_a_non_algebra(build):
    with pytest.raises(TypeError, match="expected GradedAlgebra or SplitNilpotentPair"):
        build("Q[x]", 2, 2)


@pytest.mark.parametrize("build", [hh_table, hc_table, hh_hodge_table],
                         ids=lambda f: f.__name__)
def test_square_zero_is_checked_on_every_cell_the_table_walks(monkeypatch, build):
    # the strip walk derives b o b = 0 once per degree 1 <= n <= top of every
    # strip it visits, empty cells included.  A symbol of its own per builder
    # keeps every cached strip, and the checks it would hide, out of the way.
    pair = dual_pair(polynomial_algebra(f"k_{build.__name__}"))
    checked = []
    honest = cyclic._assert_square_zero

    def counting(s, n):
        checked.append((s.w, s.e, n))
        return honest(s, n)

    monkeypatch.setattr(cyclic, "_assert_square_zero", counting)
    build(pair, 3, 3)
    walked = {(w, e, n) for _a, w, e, _m, top in cyclic._strips(pair, 3, 3)[1]
              for n in range(1, top + 1)}
    assert len(checked) == len(set(checked))
    assert set(checked) == walked
    assert any(not chain_cell(pair.total, n, w, e).dim for w, e, n in walked)


@pytest.mark.parametrize("build, message", [
    (hh_table, "b o b != 0 at n=3, (w,e)=(1,2)"),
    (hc_table, "b does not preserve im(1-t) at n=2, (w,e)=(1,2)"),
    (hh_hodge_table, "b o b != 0 at n=3, (w,e)=(1,2)"),
], ids=["hh", "hc", "hodge"])
def test_corrupted_boundary_is_caught(monkeypatch, build, message):
    # every entry of b made positive: the first failed check pins the order
    # in which the tables walk the cells and run the checks.  Q[q][e] is
    # built by no other test, so no cached cell hides the corruption and
    # the corrupted cells cached here reach no other test.
    honest = cyclic.hochschild_boundary

    def corrupted(s, n):
        b = honest(s, n)
        return matrix(b.rows, b.cols, {k: abs(v) for k, v in b.entries.items()})

    monkeypatch.setattr(cyclic, "hochschild_boundary", corrupted)
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        build(dual_pair(polynomial_algebra("q")), 3, 2)
