"""Fraction-based eliminations kept as independent oracles for the tests.

``fraction_rank`` is the former library rank: Gaussian elimination over
Q in Fractions with Markowitz pivoting over every row.  ``matmul`` forms
products of sparse matrices held as {(row, col): value} dicts, so rational
matrices such as the Eulerian projectors can be multiplied here without the
library's integer ``SparseMatrix``; ``matrix`` turns such a dict of ints
into a ``SparseMatrix``, which holds its columns.  ``artin_reduction_rules``
is the former private RREF of ``differentials``.  None of them shares
elimination code with ``cychom.qlinalg``.

``rref`` and its ``_eliminate`` are the former library reduced row echelon
form, fraction-free: each row is the integer multiple of its rational RREF
row with content 1 and a positive pivot.  ``echelon_artin_reduction_rules``
is the construction of the Artin reduction rules that read it: the Omega^1
relation rows of weight 0 reduced by that ``rref``.  The library keeps no
rules: it reduces each one-form term by its own row.  The rows the rref
reduces come from ``relation_rows``, the former
``OmegaModule.relation_rows``: one row mu * d(rel) ^ W per basis monomial
mu, relation rel and wedge W, its terms multiplied by
``monomial_mul`` and accumulated, zeros dropped.  The
library now writes one row d(x^D) ^ W per distinct product D = mu * rel,
and keeps each distinct row once.  Both read ``GradedAlgebra.relations``.

``_relation_vectors`` is the former private list of ``differentials``
that the library now keeps as ``GradedAlgebra.relations``: the declared
relations followed by one power g**nilpotency per nilpotent generator.
``box_max_nildeg`` and ``box_live`` are the former walks of the box of
nilpotency ranges behind ``GradedAlgebra.max_nildeg`` and the Artin
monomials a ``FunctionField`` keeps; the library now reads the first off
its one enumerator of graded pieces, and a field asks
``GradedAlgebra.is_zero_monomial`` of each term.
``_bigraded_basis`` is that enumerator as it was before: every
exponent of every generator from 0 to its top, copied into a new list per
step, the tuples that spend the budget kept and sorted by
``monomial_key`` at the end.  The library now tries only the top exponent
of the last generator of each kind, and reads the order off the walk.

``reduce_artin_components`` is the former reduction of the d(nilpotent)
components of a one-form: it splits each coefficient into one library
element per Artin monomial, eliminates on those slices in sorted pivot
order and multiplies the survivors back by their monomials.  It reads the
rules of ``echelon_artin_reduction_rules``, which the tests compare with
``artin_reduction_rules`` on their own.

``convolution_identities`` is the former check of the Eulerian idempotent
identities: n!-scaled rows over every permutation of S_n, convolved
through an n! x n! composition table (``composition_table``).
``full_walk_identities`` is the check that followed it, the former body of
``hodge.verify_idempotent_identities`` with the rows passed in: the
descent rows expanded bilinearly in the descent-class products D_a D_b,
which ``descent_class_products`` forms over all of S_n x S_n with
``compose``, and compared on every permutation.  The library now compares
them at one permutation per descent number, as the D_d span a subalgebra
of Q[S_n].
``per_index_projector`` is the former build of one Hodge projector:
one walk over S_n per Eulerian index, acting on tensors by slot tuples.
``walk_projectors`` is the build that followed it: all n projectors of a
cell from one walk of S_n over every basis tensor, summed into descent
classes; the library now builds one block per S_n-orbit pattern and
places it per orbit.  Both read the descent rows and the permutation
helpers of ``cychom.hodge``; the permutation table, the walks and the slot
action are their own.

``lambda_cell`` is the former builder of the lambda-cells, with the switch
``twist`` that drops the (-1)^n of Connes' operator t = (-1)^n rotation.
``untwisted_cyclic_operator`` runs the library with ``cyclic._lambda_cell``
reading it with twist False, and ``unsigned_slot_action`` runs it with
``hodge.perm_sign`` reading 1, the slot action without the sign
character.  Both clear the pattern cache and the strip cache on entry and
on exit, so no cell or block of one convention is read under the other.
The library keeps one convention of each (Loday, Cyclic Homology, 2.1 and
4.5); these are the wrong ones, under which the tests show its checks trip.

``index_loop_hodge_table`` is the former loop of ``hodge.hh_hodge_table``,
a strip walk of its own beside ``cyclic._table``: index 0 takes C_0 in
degree 0, each index i >= 1 sums ``homology_dims`` over the cells'
(dimension, rank) pairs of degrees i and up, and b o b = 0 is checked on the
nonempty cells only.  It reads the library's eigenspace cells, and the
library now sums them in the walk that HH and HC share.

``FractionFunctionField`` and its ``FunctionFieldElement`` are the former
function-field arithmetic, kept as written: polynomials with Fraction
coefficients, and fractions reduced to a monic denominator.  Their
integer gcd is the oracle's own ``prs_gcd`` below, not the library's.

``monomial_mul`` is the former ``GradedAlgebra.mul``: the product of two
normal-form monomials, None when a relation divides it.
``tuple_chain_basis`` and ``tuple_boundary`` are the former chain cells
and Hochschild boundary, whose tensors are tuples of exponent tuples
multiplied by ``monomial_mul``.  ``NumberedStrip`` is the strip that
followed them: it numbers the monomials of its window in exponent-tuple
order, tabulates their products by ``monomial_mul``, walks the slots
of each chain cell layer by layer and reads b off the table.  The library
now packs each exponent tuple into one integer code, whose sums are the
products, and reads each chain cell off the cells of smaller strips.

``kernel_basis``, ``apply`` and ``transpose`` are former library
operations on ``SparseMatrix`` that only the tests used; the kernel basis
reads the ``rref`` above.  ``without_rows`` deletes rows of a matrix, the
oracle of the rows that ``qlinalg.rank`` skips.  ``peel`` is the former
split of a Steinberg symbol into its constant part and three relative
factors.

``reduce_artin_components`` and ``kernel_basis`` read the integer rows
of ``rref`` as rationals, each over its pivot value.

``termwise_log`` and ``termwise_invert`` are the former bodies of
``symbols.nilpotent_log`` and ``FunctionFieldElement.invert``: each adds its
series one reduced term at a time, until a power of the nilpotent vanishes.
The library now sums both by Horner's rule in ``algebra.nilpotent_series``.

``ElementParser`` and ``element_parse_symbol`` are the former symbol
parser, which evaluated every intermediate result as a reduced library
element; the library now evaluates integer-polynomial fractions and
reduces each entry once.

``divide_exact``, ``int_mul`` and ``reduce_int_fraction`` are the former
integer kernel of the library's function field: a division that rescans
the remainder for its leading monomial and subtracts a product per
quotient term, and a reduction that divides num and den by the gcd after
the gcd has been certified by dividing by it.  The library now takes the
cofactors from the certifying divisions.

``prs_gcd`` is the former gcd fallback of ``cychom.intpoly``, the primitive
pseudo-remainder sequence, kept as written except that it multiplies and
divides with ``int_mul`` and ``divide_exact`` above.  The tests compare the
library's heuristic GCD with it, and ``poly_gcd`` and
``reduce_int_fraction`` take their gcd from it.  The library now runs the
heuristic GCD alone, until a candidate is certified.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Mapping

from cychom import cyclic, hodge
from cychom.algebra import DivisionByZero, FunctionField, GradedAlgebra, Monomial
from cychom.algebra import FunctionFieldElement as LibraryElement
from cychom.cyclic import LambdaCell, Strip, _assert_square_zero, _strips, chain_cell, strip
from cychom.differentials import (OmegaModule, _d_of_monomial, _insert_wedge, _wedges,
                                  wedge_weight)
from cychom.hodge import (HodgeTable, _descents, _dot, _eigenspace_cell,
                          eulerian_idempotents, inverse, perm_sign)
from cychom.intpoly import IntPoly, _glex, _scale_down, _sub
from cychom.qlinalg import SparseMatrix, _rows_of, homology_dims
from cychom.symbols import SteinbergSymbol, SymbolParseError, _tokenize

Entries = Mapping[tuple[int, int], object]


def matmul(a: Entries, b: Entries) -> dict[tuple[int, int], Fraction]:
    """Product of two sparse matrices given as entry dicts, zeros dropped."""
    a_by_col: dict[int, list[tuple[int, object]]] = {}
    for (i, k), v in a.items():
        a_by_col.setdefault(k, []).append((i, v))
    out: dict[tuple[int, int], Fraction] = {}
    for (k, j), bv in b.items():
        for i, av in a_by_col.get(k, ()):
            out[(i, j)] = out.get((i, j), Fraction(0)) + av * bv
    return {key: v for key, v in out.items() if v != 0}


def matrix(rows: int, cols: int, entries: Mapping[tuple[int, int], int]) -> SparseMatrix:
    """The ``SparseMatrix`` with these {(row, col): value} entries, zeros kept
    for its constructor to refuse."""
    columns: list[dict[int, int]] = [{} for _ in range(cols)]
    for (i, j), v in entries.items():
        columns[j][i] = v
    return SparseMatrix(rows, cols, columns)


def _elimination_data(entries: Entries):
    """Mutable row/column indexed copy of the matrix for elimination."""
    row: dict[int, dict[int, Fraction]] = {}
    col: dict[int, set[int]] = {}
    for (i, j), v in entries.items():
        row.setdefault(i, {})[j] = v
        col.setdefault(j, set()).add(i)
    return row, col


def _bucket_move(buckets: dict[int, set[int]], idx: int, old: int, new: int):
    if old:
        b = buckets.get(old)
        if b is not None:
            b.discard(idx)
            if not b:
                del buckets[old]
    if new:
        buckets.setdefault(new, set()).add(idx)


def _markowitz_pivot(row: dict[int, dict[int, Fraction]], col: dict[int, set[int]],
                     row_buckets: dict[int, set[int]],
                     col_buckets: dict[int, set[int]]) -> tuple[int, int]:
    """The entry minimizing the fill-in count (row_nnz - 1) * (col_nnz - 1).

    Rows are scanned by increasing nnz, and the scan stops at the first
    entry of count 0 (a singleton row or column), which no entry can beat;
    ties between positive counts go to the lowest (row, col).  The scan
    also stops once no later row bucket can beat the best count so far.
    """
    min_col_nnz = min(col_buckets)
    best_score = None
    best = (-1, -1)
    for rn in sorted(row_buckets):
        if best_score is not None and (rn - 1) * (min_col_nnz - 1) > best_score:
            break
        for i in row_buckets[rn]:
            for j in row[i]:
                score = (rn - 1) * (len(col[j]) - 1)
                if score == 0:
                    return i, j
                if (best_score is None or score < best_score
                        or (score == best_score and (i, j) < best)):
                    best_score, best = score, (i, j)
    return best


def fraction_rank(entries: Entries) -> int:
    """Rank over Q of the matrix with these nonzero entries.

    Entries may be ints or Fractions; every pivot quotient is a Fraction.
    """
    row, col = _elimination_data(entries)
    row_buckets: dict[int, set[int]] = {}
    for i, r in row.items():
        row_buckets.setdefault(len(r), set()).add(i)
    col_buckets: dict[int, set[int]] = {}
    for j, s in col.items():
        col_buckets.setdefault(len(s), set()).add(j)
    rk = 0
    while row:
        pi, pj = _markowitz_pivot(row, col, row_buckets, col_buckets)
        rk += 1
        pivot_row = row.pop(pi)
        _bucket_move(row_buckets, pi, len(pivot_row), 0)
        pv = Fraction(pivot_row.pop(pj))
        for j in pivot_row:
            s = col[j]
            old = len(s)
            s.discard(pi)
            _bucket_move(col_buckets, j, old, len(s))
            if not s:
                del col[j]
        targets = col.pop(pj)
        _bucket_move(col_buckets, pj, len(targets), 0)
        targets.discard(pi)
        for i in targets:
            ri = row[i]
            old_rn = len(ri)
            factor = ri.pop(pj) / pv
            for j, v in pivot_row.items():
                cur = ri.get(j)
                nv = -factor * v if cur is None else cur - factor * v
                if nv == 0:
                    if cur is not None:
                        del ri[j]
                        cs = col[j]
                        o = len(cs)
                        cs.discard(i)
                        _bucket_move(col_buckets, j, o, len(cs))
                        if not cs:
                            del col[j]
                else:
                    if cur is None:
                        cs = col.get(j)
                        if cs is None:
                            cs = col[j] = set()
                            o = 0
                        else:
                            o = len(cs)
                        cs.add(i)
                        _bucket_move(col_buckets, j, o, len(cs))
                    ri[j] = nv
            if ri:
                if len(ri) != old_rn:
                    _bucket_move(row_buckets, i, old_rn, len(ri))
            else:
                del row[i]
                _bucket_move(row_buckets, i, old_rn, 0)
    return rk


def artin_reduction_rules(ff):
    """RREF reduction rules for the d(nilpotent) components of ``ff``,
    eliminated directly over the (Artin monomial, generator) keys."""
    art = ff.artin
    if art is None:
        return {}
    a = art.algebra
    rows = []
    for rel in a.relations:
        drel = _d_of_monomial(a, rel)
        for mu in a.graded_basis(0):
            row: dict = {}
            for coef, mon, i in drel:
                prod = monomial_mul(a, mu, mon)
                if prod is None:
                    continue
                key = (prod, i)
                row[key] = row.get(key, Fraction(0)) + Fraction(coef)
            row = {k: v for k, v in row.items() if v != 0}
            if row:
                rows.append(row)
    key_order = sorted({k for row in rows for k in row},
                       key=lambda k: (a.monomial_key(k[0]), k[1]))
    pos = {k: i for i, k in enumerate(key_order)}
    echelon: list[tuple[object, dict]] = []
    for row in sorted(rows, key=lambda r: min(pos[k] for k in r)):
        row = dict(row)
        for pk, er in echelon:
            if pk in row:
                f = row[pk]
                for k, v in er.items():
                    nv = row.get(k, Fraction(0)) - f * v
                    if nv == 0:
                        row.pop(k, None)
                    else:
                        row[k] = nv
        if not row:
            continue
        pk = min(row, key=lambda k: pos[k])
        pv = row[pk]
        row = {k: v / pv for k, v in row.items()}
        for _opk, er in echelon:
            if pk in er:
                f = er[pk]
                for k, v in row.items():
                    nv = er.get(k, Fraction(0)) - f * v
                    if nv == 0:
                        er.pop(k, None)
                    else:
                        er[k] = nv
        echelon.append((pk, row))
    return {pk: {k: v for k, v in er.items() if k != pk}
            for pk, er in echelon}


def _relation_vectors(a: GradedAlgebra) -> list[Monomial]:
    """Declared relation monomials plus the power relations g**nilpotency."""
    rels = list(a.monomial_relations)
    for i, g in enumerate(a.generators):
        if g.nilpotency is not None:
            rels.append(tuple(g.nilpotency if j == i else 0
                              for j in range(a.ngens)))
    return rels


def box_max_nildeg(a: GradedAlgebra) -> int:
    """Largest nilpotent degree of a nonzero monomial (0 if no Artin part)."""
    best = 0
    ranges = []
    for g in a.generators:
        if g.weight == 0:
            ranges.append(range(g.nilpotency))
        else:
            ranges.append(range(1))
    for exps in itertools.product(*ranges):
        if not a.is_zero_monomial(exps):
            best = max(best, sum(exps))
    return best


@lru_cache(maxsize=None)
def _bigraded_basis(a: GradedAlgebra, w: int, e: int) -> tuple[Monomial, ...]:
    if w < 0 or e < 0:
        return ()
    gens = a.generators
    out: list[Monomial] = []

    def rec(i: int, rw: int, re_: int, acc: list[int]):
        if i == len(gens):
            if rw == 0 and re_ == 0:
                m = tuple(acc)
                if not a.is_zero_monomial(m):
                    out.append(m)
            return
        g = gens[i]
        if g.weight == 0:
            top = min(g.nilpotency - 1, re_)
            for ee in range(top + 1):
                rec(i + 1, rw, re_ - ee, acc + [ee])
        else:
            top = rw // g.weight
            if g.nilpotency is not None:
                top = min(top, g.nilpotency - 1)
            for ee in range(top + 1):
                rec(i + 1, rw - ee * g.weight, re_, acc + [ee])

    rec(0, w, e, [])
    return tuple(sorted(out, key=a.monomial_key))


def box_live(ff: FunctionField) -> frozenset[Monomial] | None:
    """The Artin parts that survive the relations: the normal-form monomials."""
    a = None if ff.artin is None else ff.artin.algebra
    return None if a is None else frozenset(
        m for m in itertools.product(*(range(g.nilpotency) for g in a.generators))
        if not a.is_zero_monomial(m))


def relation_rows(module: OmegaModule,
                  w: int) -> list[dict[tuple[Monomial, tuple[int, ...]], int]]:
    if module.p == 0:
        return []  # Omega^0 is the algebra itself
    a = module.base
    rows = []
    for rel in a.relations:
        drel = _d_of_monomial(a, rel)
        rel_w = a.weight(rel)
        for wedge in _wedges(a, module.p - 1):
            ww = wedge_weight(a, wedge) + rel_w
            if ww > w:
                continue
            for mu in a.graded_basis(w - ww):
                row: dict[tuple[Monomial, tuple[int, ...]], int] = {}
                for coef, mon, i in drel:
                    ins = _insert_wedge(i, wedge)
                    if ins is None:
                        continue
                    sign, full = ins
                    prod = monomial_mul(a, mu, mon)
                    if prod is None:
                        continue
                    key = (prod, full)
                    row[key] = row.get(key, 0) + sign * coef
                row = {k: v for k, v in row.items() if v != 0}
                if row:
                    rows.append(row)
    return rows


@lru_cache(maxsize=None)
def echelon_artin_reduction_rules(ff):
    """The former library construction of the Artin reduction rules: the
    Omega^1 relation rows of weight 0 placed in a ``SparseMatrix`` over the
    sorted (Artin monomial, generator) keys and reduced by ``rref`` below,
    as pivot -> (pivot value, rest of the integer row), kept per field as
    the library kept them."""
    art = ff.artin
    if art is None:
        return {}
    a = art.algebra
    # an Artin part sits in weight 0, and a one-form wedge is one generator
    rows = [{(m, i): v for (m, (i,)), v in row.items()}
            for row in relation_rows(OmegaModule(a, 1), 0)]
    keys = sorted({k for row in rows for k in row},
                  key=lambda k: (a.monomial_key(k[0]), k[1]))
    mat = SparseMatrix(len(rows), len(keys),
                       [{r: row[k] for r, row in enumerate(rows) if k in row} for k in keys])
    return {keys[pc]: (er[pc], {keys[j]: v for j, v in er.items() if j != pc})
            for pc, er in rref(mat)}


# -- the former per-slice reduction of the d(nilpotent) components ------------


def reduce_artin_components(ff: FunctionField, coeffs: dict[str, LibraryElement]):
    art = ff.artin
    if art is None:
        return coeffs
    rules = echelon_artin_reduction_rules(ff)
    if not rules:
        return coeffs
    nc = ff.ncoords
    art_syms = [g.symbol for g in art.algebra.generators]
    # split the d(t_j) coefficients into (Artin monomial) slices
    slices: dict[tuple[Monomial, int], LibraryElement] = {}
    out = {s: c for s, c in coeffs.items() if s not in art_syms}
    for j, s in enumerate(art_syms):
        c = coeffs.get(s)
        if c is None or c.is_zero():
            continue
        by_art: dict[Monomial, IntPoly] = {}
        for m, v in c.num.items():
            art_m = m[nc:]
            coord_m = m[:nc] + (0,) * len(art_m)
            by_art.setdefault(art_m, {})[coord_m] = v
        for art_m, num in by_art.items():
            slices[(art_m, j)] = LibraryElement(ff, num, c.den)
    # eliminate pivots; an RREF row is clear of every other pivot, so one
    # pass over the pivots present leaves none behind
    for key in sorted(slices.keys() & rules.keys(),
                      key=lambda k: (art.algebra.monomial_key(k[0]), k[1])):
        coef = slices.pop(key)
        pv, row = rules[key]
        for k2, v in row.items():
            slices[k2] = slices.get(k2, ff.zero()) - coef * ff.const(Fraction(v, pv))
    # reassemble
    acc: dict[int, LibraryElement] = {}
    for (art_m, j), coef in slices.items():
        if coef.is_zero():
            continue
        mono = LibraryElement(ff, {(0,) * nc + art_m: 1}, {(0,) * ff.nvars: 1})
        term = coef * mono
        acc[j] = acc[j] + term if j in acc else term
    for j, c in acc.items():
        out[art_syms[j]] = c
    return out


# -- the former per-permutation check of the Eulerian idempotents --------------


def composition_table(n: int) -> list[list[int]]:
    """comp[a][b]: the index of p_a o p_b, over S_n in lexicographic order."""
    perms = sorted(itertools.permutations(range(1, n + 1)))
    idx = {p: k for k, p in enumerate(perms)}
    return [[idx[tuple(p[v - 1] for v in q)] for q in perms] for p in perms]


def convolution_identities(n: int, vecs) -> bool:
    """n! e^(1)..n! e^(n), as rows over S_n in lexicographic order, sum to
    n! id and convolve as (n! e^(i)) (n! e^(j)) = delta_ij n! (n! e^(i));
    AssertionError on any failed identity."""
    comp = composition_table(n)
    size = len(comp)
    fact = math.factorial(n)
    id_pos = 0  # the identity comes first lexicographically
    totals = [sum(col) for col in zip(*vecs)]
    if totals != [fact if k == id_pos else 0 for k in range(size)]:
        raise AssertionError(f"idempotents do not sum to the identity at n={n}")

    def conv(u, w):
        out = [0] * size
        for a, ca in enumerate(u):
            if ca:
                row = comp[a]
                for b, cb in enumerate(w):
                    if cb:
                        out[row[b]] += ca * cb
        return out

    zero = [0] * size
    for i, vi in enumerate(vecs):
        for j, vj in enumerate(vecs):
            got = conv(vi, vj)
            expect = [fact * x for x in vi] if i == j else zero
            if got != expect:
                raise AssertionError(f"e^({i + 1}) * e^({j + 1}) wrong at n={n}")
    return True


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def descent_class_products(n: int):
    """(perms, prod): each p in S_n with its descent number, and prod[k][a][b],
    the coefficient of the k-th permutation in D_a D_b, from every product
    in S_n x S_n."""
    perms = [(p, _descents(p)) for p in itertools.permutations(range(1, n + 1))]
    pos = {p: k for k, (p, _d) in enumerate(perms)}
    # prod[k][a][b]: the coefficient of the k-th permutation in D_a D_b
    prod = [[[0] * n for _ in range(n)] for _ in perms]
    for p, dp in perms:
        for q, dq in perms:
            prod[pos[compose(p, q)]][dp][dq] += 1
    return perms, prod


def full_walk_identities(n: int, rows) -> bool:
    """Exact check that the rows n! e^(1)..n! e^(n), indexed by descent
    number, are orthogonal idempotents summing to n! id: column sums against
    D_0 = id, then every product expanded bilinearly in the D_a D_b and
    compared on every permutation; AssertionError on any failed identity."""
    fact = math.factorial(n)
    if [sum(col) for col in zip(*rows)] != [fact] + [0] * (n - 1):
        raise AssertionError(f"idempotents do not sum to the identity at n={n}")
    perms, prod = descent_class_products(n)
    for (_p, d), m in zip(perms, prod):
        # mc[j][a] = sum_b m[a][b] c_(j,b)
        mc = [[_dot(m_a, cj) for m_a in m] for cj in rows]
        for i, ci in enumerate(rows):
            for j, mj in enumerate(mc):
                if _dot(ci, mj) != (fact * ci[d] if i == j else 0):
                    raise AssertionError(f"e^({i + 1}) * e^({j + 1}) wrong at n={n}")
    return True


# -- the former per-index walk of the Hodge projectors -------------------------


def _act(p_inv, t):
    """Slot permutation: new slot i holds old slot p^{-1}(i)."""
    return (t[0],) + tuple(t[p_inv[i - 1]] for i in range(1, len(p_inv) + 1))


def perm_index(n: int) -> list[tuple[tuple[int, ...], int, int, tuple[int, ...]]]:
    """(p, descent number, sign, inverse) for each p in S_n, lexicographically."""
    return [(p, _descents(p), perm_sign(p), inverse(p))
            for p in sorted(itertools.permutations(range(1, n + 1)))]


def per_index_projector(a, n: int, w: int, e: int, i: int,
                        signed: bool) -> dict[tuple[int, int], int]:
    """Entries of n! e^(i), 1 <= i <= n, on the last n slots of the (w, e)
    cell, from one walk over S_n for this index alone; zeros dropped."""
    cell = chain_cell(a, n, w, e)
    idx = cell.index
    entries: dict[tuple[int, int], int] = {}
    row = eulerian_idempotents(n)[i - 1]
    for _p, d, sign, p_inv in perm_index(n):
        c = row[d] * sign if signed else row[d]
        if not c:
            continue
        for j, t in enumerate(cell.basis):
            key = (idx[_act(p_inv, t)], j)
            entries[key] = entries.get(key, 0) + c
    return {k: v for k, v in entries.items() if v}


def walk_projectors(a, n: int, w: int, e: int,
                    signed: bool) -> list[dict[tuple[int, int], int]]:
    """Entries of n! e^(1)..n! e^(n) on the last n slots of the (w, e) cell,
    from one walk over S_n: each permutation acts on each basis tensor
    once, its signed image is added to the descent class of the
    permutation, and n! e^(i) = sum_d c_(i,d) D_d; zeros dropped."""
    cell = chain_cell(a, n, w, e)
    idx = cell.index
    classes: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    for _p, d, sign, p_inv in perm_index(n):
        cls = classes[d]
        for j, t in enumerate(cell.basis):
            key = (idx[_act(p_inv, t)], j)
            cls[key] = cls.get(key, 0) + (sign if signed else 1)
    out = []
    for row in eulerian_idempotents(n):
        entries: dict[tuple[int, int], int] = {}
        for c, cls in zip(row, classes):
            for key, v in cls.items():
                entries[key] = entries.get(key, 0) + c * v
        out.append({k: v for k, v in entries.items() if v})
    return out


# -- the wrong sign conventions -------------------------------------------------


def lambda_cell(s: Strip, n: int, twist: bool) -> LambdaCell:
    """Basis of C^lambda_n on the strip s: rotation orbits whose stabiliser
    acts by +1.

    The cyclic operator is t = (-1)^n rot, with
    rot(x_0 (x) ... (x) x_n) = x_n (x) x_0 (x) ... (x) x_{n-1}, the sign
    being dropped when ``twist`` is False.  A tensor whose slot 0 is the
    unit rotates to one with the unit in an inner slot, which is zero in
    the normalized complex, so t has no entry for it: it is its own image
    under 1 - t and has no class.  At n = 0, t is the identity and the
    whole cell survives.

    With x_k = rot^k(x), (1 - t)x_k = x_k - s x_{k+1} for the sign s of t,
    so the class of x_k is s^k times that of x; an orbit of size m closes
    up consistently iff s^m = 1.
    """
    cell = s.cell(n)
    idx = cell.index
    sign = -1 if twist and n % 2 else 1
    # code 0 is the unit
    rot = tuple(idx[(x[-1],) + x[:-1]] if n == 0 or x[0] != 0 else None
                for x in cell.basis)
    reps: list[int] = []
    coords: list[tuple[int, int] | None] = [None] * cell.dim
    seen: set[int] = set()
    for j, i in enumerate(rot):
        if i is None or j in seen:
            continue
        orbit, c = [(j, 1)], sign
        while i != j:
            orbit.append((i, c))
            i, c = rot[i], c * sign
        seen.update(k for k, _ in orbit)
        if c == 1:
            pair = {1: (len(reps), 1), -1: (len(reps), -1)}
            for k, ck in orbit:
                coords[k] = pair[ck]
            reps.append(j)
    return LambdaCell(sign, rot, tuple(reps), tuple(coords))


@contextlib.contextmanager
def _sign_source(module, name: str, wrong):
    """``module.name`` reads ``wrong`` inside the block, with the pattern
    cache and the strip cache cleared on entry and on exit."""
    real = getattr(module, name)
    hodge._pattern.cache_clear()
    cyclic.strip.cache_clear()
    setattr(module, name, wrong)
    try:
        yield
    finally:
        setattr(module, name, real)
        hodge._pattern.cache_clear()
        cyclic.strip.cache_clear()


def untwisted_cyclic_operator():
    """The library with t = rotation in Connes' complex: every lambda-cell
    is the former builder's with twist False."""
    return _sign_source(cyclic, "_lambda_cell", lambda s, n: lambda_cell(s, n, False))


def unsigned_slot_action():
    """The library with the Hodge slot action unsigned: every permutation
    has sign 1 in the pattern walk."""
    return _sign_source(hodge, "perm_sign", lambda p: 1)


# -- the former loop of the Hodge table ----------------------------------------


def index_loop_hodge_table(arg, n_max: int, w_max: int) -> HodgeTable:
    """Eigenspace dimensions of the Hochschild table under the signed slot
    action, summed per index by the former loop of ``hodge.hh_hodge_table``."""
    _relative, strips = _strips(arg, n_max, w_max)
    table = HodgeTable(n_max, w_max)
    for a, w, e, m, top in strips:
        s = strip(a, w, e)
        for n in range(1, top + 1):
            if s.cell(n).dim:
                s.derive(_assert_square_zero, n)
        cells = {n: s.derive(_eigenspace_cell, n) for n in range(1, top + 1)}
        # index 0 is degree 0 alone, all of it a cycle since b_1 = 0
        table.entries[(0, w, 0)] += chain_cell(a, 0, w, e).dim
        for i in range(1, m + 1):
            dims = {n: cells[n][(i,)][0] for n in range(i, m + 1)}
            ranks = {n: cells[n][(i,)][1] for n in range(i, top + 1)}
            for n, h in homology_dims(dims, ranks).items():
                table.entries[(n, w, i)] += h
    return table


def monomial_mul(a: GradedAlgebra, m1: Monomial, m2: Monomial) -> Monomial | None:
    """Product of two normal-form monomials of ``a``; None means zero."""
    m = tuple(x + y for x, y in zip(m1, m2))
    return None if a.is_zero_monomial(m) else m


# -- the former exponent-tuple chain cells and boundary ------------------------


def tuple_chain_basis(a, n: int, w: int, e: int) -> tuple[tuple[Monomial, ...], ...]:
    """Normalized chain basis a_0 (x) abar_1 (x) ... (x) abar_n at (w, e),
    each tensor a tuple of exponent tuples, sorted."""
    if n < 0 or w < 0 or e < 0:
        return ()
    tensors = []
    bases = {(ww, ee): a.bigraded_basis(ww, ee)
             for ww in range(w + 1) for ee in range(e + 1)}

    def inner(slot, rw, re_, acc):
        if slot == n:
            if rw == 0 and re_ == 0:
                tensors.append(tuple(acc))
            return
        # remaining inner slots each need weight + nildeg >= 1
        slots_left = n - slot
        for ww in range(rw + 1):
            for ee in range(re_ + 1):
                if ww + ee == 0:
                    continue
                if (rw - ww) + (re_ - ee) < slots_left - 1:
                    continue
                for m in bases[ww, ee]:
                    inner(slot + 1, rw - ww, re_ - ee, acc + [m])

    for w0 in range(w + 1):
        for e0 in range(e + 1):
            for m0 in bases[w0, e0]:
                inner(0, w - w0, e - e0, [m0])
    tensors.sort()
    return tuple(tensors)


def tuple_boundary(a, n: int, w: int, e: int) -> SparseMatrix:
    """The boundary b : C_n -> C_{n-1} at (w, e) on the exponent-tuple bases:
    adjacent products by ``monomial_mul``, the last face cyclic."""
    src, dst = tuple_chain_basis(a, n, w, e), tuple_chain_basis(a, n - 1, w, e)
    idx = {t: i for i, t in enumerate(dst)}
    entries: dict[tuple[int, int], int] = {}

    def add(t, col, sign):
        key = (idx[t], col)
        v = entries.get(key, 0) + sign
        if v == 0:
            entries.pop(key, None)
        else:
            entries[key] = v

    for col, t in enumerate(src):
        for i in range(n):
            prod = monomial_mul(a, t[i], t[i + 1])
            if prod is None:
                continue
            add(t[:i] + (prod,) + t[i + 2:], col, -1 if i % 2 else 1)
        prod = monomial_mul(a, t[n], t[0])
        if prod is not None:
            add((prod,) + t[1:n], col, -1 if n % 2 else 1)
    return matrix(len(dst), len(src), entries)


class NumberedStrip:
    """The former (w, e) strip: numbered monomials and their product table.

    ``monomials[i]`` is the exponent tuple of id i, in exponent-tuple order,
    so id 0 is the unit; ``ids[ww, ee]`` lists the ids of weight ww and
    nilpotent degree ee.  ``prod[i][j]`` is the id of monomials[i] *
    monomials[j], or None when that product is zero or leaves the window.
    """

    def __init__(self, a, w: int, e: int):
        graded = {(ww, ee): a.bigraded_basis(ww, ee)
                  for ww in range(w + 1) for ee in range(e + 1)}
        degree = {m: we for we, ms in graded.items() for m in ms}
        monomials = tuple(sorted(degree))
        number = {m: i for i, m in enumerate(monomials)}

        def times(x, y):
            (wx, ex), (wy, ey) = degree[x], degree[y]
            return number.get(monomial_mul(a, x, y)) if wx + wy <= w and ex + ey <= e else None

        self.w, self.e, self.monomials = w, e, monomials
        self.ids = {we: tuple(sorted(number[m] for m in ms)) for we, ms in graded.items()}
        self.prod = tuple(tuple(times(x, y) for y in monomials) for x in monomials)

    def cell(self, n: int) -> tuple[tuple[int, ...], ...]:
        """The sorted id tensors of C_n, slot by slot, keyed by the bidegree
        left to place; inner slots hold augmentation-ideal monomials."""
        w, e = self.w, self.e
        if n < 0 or w < 0 or e < 0:
            return ()
        layer: dict[tuple[int, int], list[tuple[int, ...]]] = {(w, e): [()]}
        for slot in range(n + 1):
            left = n - slot
            grown: dict[tuple[int, int], list[tuple[int, ...]]] = {}
            for (rw, re_), accs in layer.items():
                for ww in range(rw + 1):
                    for ee in range(re_ + 1):
                        rest = rw - ww + re_ - ee
                        if (slot and ww + ee == 0) or rest < left or (not left and rest):
                            continue
                        ms = self.ids[ww, ee]
                        if ms:
                            grown.setdefault((rw - ww, re_ - ee), []).extend(
                                [acc + (m,) for acc in accs for m in ms])
            layer = grown
        return tuple(sorted(layer.get((0, 0), ())))

    def boundary(self, n: int) -> SparseMatrix:
        """b : C_n -> C_{n-1}, each product read from the table."""
        src, dst, prod = self.cell(n), self.cell(n - 1), self.prod
        idx = {t: i for i, t in enumerate(dst)}
        columns = []
        for t in src:
            col: dict[int, int] = {}
            for i in range(n):
                p = prod[t[i]][t[i + 1]]
                if p is not None:
                    r = idx[t[:i] + (p,) + t[i + 2:]]
                    col[r] = col.get(r, 0) + (-1 if i % 2 else 1)
            p = prod[t[n]][t[0]]
            if p is not None:
                r = idx[(p,) + t[1:n]]
                col[r] = col.get(r, 0) + (-1 if n % 2 else 1)
            columns.append({r: v for r, v in col.items() if v})
        return SparseMatrix(len(dst), len(src), columns)


# -- the former Fraction-coefficient function field ---------------------------

PolyDict = dict[Monomial, Fraction]


class FractionFunctionField(FunctionField):
    """The library's ``FunctionField`` with the former Fraction polynomial
    helpers and element constructors."""

    def reduce_monomial(self, m: Monomial) -> Monomial | None:
        """Truncate by the Artin relations; None means the monomial is zero."""
        if self.artin is None:
            return m
        if self.artin.algebra.is_zero_monomial(m[self.ncoords:]):
            return None
        return m

    # polynomial helpers -----------------------------------------------

    def poly(self, d: PolyDict) -> PolyDict:
        out: PolyDict = {}
        for m, c in d.items():
            if c == 0:
                continue
            rm = self.reduce_monomial(m)
            if rm is not None:
                out[rm] = out.get(rm, Fraction(0)) + c
        return {m: c for m, c in out.items() if c != 0}

    def p_const(self, c) -> PolyDict:
        c = Fraction(c)
        return {} if c == 0 else {(0,) * self.nvars: c}

    def p_var(self, symbol: str) -> PolyDict:
        i = self.symbols.index(symbol)
        m = tuple(1 if j == i else 0 for j in range(self.nvars))
        return {m: Fraction(1)}

    def p_add(self, a: PolyDict, b: PolyDict) -> PolyDict:
        out = dict(a)
        for m, c in b.items():
            nv = out.get(m, Fraction(0)) + c
            if nv == 0:
                out.pop(m, None)
            else:
                out[m] = nv
        return out

    def p_neg(self, a: PolyDict) -> PolyDict:
        return {m: -c for m, c in a.items()}

    def p_mul(self, a: PolyDict, b: PolyDict) -> PolyDict:
        out: PolyDict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                m = self.reduce_monomial(m)
                if m is None:
                    continue
                nv = out.get(m, Fraction(0)) + ca * cb
                if nv == 0:
                    out.pop(m, None)
                else:
                    out[m] = nv
        return out

    def p_derivative(self, a: PolyDict, i: int) -> PolyDict:
        out: PolyDict = {}
        for m, c in a.items():
            if m[i] == 0:
                continue
            dm = m[:i] + (m[i] - 1,) + m[i + 1:]
            nv = out.get(dm, Fraction(0)) + c * m[i]
            if nv == 0:
                out.pop(dm, None)
            else:
                out[dm] = nv
        return out

    def p_nilfree(self, a: PolyDict) -> PolyDict:
        """Set every nilpotent generator to zero."""
        nc = self.ncoords
        return {m: c for m, c in a.items() if all(e == 0 for e in m[nc:])}

    def p_is_coordinate(self, a: PolyDict) -> bool:
        nc = self.ncoords
        return all(all(e == 0 for e in m[nc:]) for m in a)

    def p_str(self, a: PolyDict) -> str:
        if not a:
            return "0"
        terms = []
        for m in sorted(a, key=lambda mo: (sum(mo), mo), reverse=True):
            c = a[m]
            factors = []
            for e, s in zip(m, self.symbols):
                if e == 1:
                    factors.append(s)
                elif e > 1:
                    factors.append(f"{s}^{e}")
            body = "*".join(factors)
            if not body:
                terms.append(str(c))
            elif c == 1:
                terms.append(body)
            elif c == -1:
                terms.append(f"-{body}")
            else:
                terms.append(f"{c}*{body}")
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    # element constructors ----------------------------------------------

    def zero(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self, {}, self.p_const(1), _reduced=True)

    def one(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self, self.p_const(1), self.p_const(1), _reduced=True)

    def const(self, c) -> "FunctionFieldElement":
        return FunctionFieldElement(self, self.p_const(c), self.p_const(1), _reduced=True)

    def var(self, symbol: str) -> "FunctionFieldElement":
        return FunctionFieldElement(self, self.p_var(symbol), self.p_const(1), _reduced=True)


def _raw_mul(a: PolyDict, b: PolyDict) -> PolyDict:
    out: PolyDict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            nv = out.get(m, Fraction(0)) + ca * cb
            if nv == 0:
                out.pop(m, None)
            else:
                out[m] = nv
    return out


def _raw_sub(a: PolyDict, b: PolyDict) -> PolyDict:
    out = dict(a)
    for m, c in b.items():
        nv = out.get(m, Fraction(0)) - c
        if nv == 0:
            out.pop(m, None)
        else:
            out[m] = nv
    return out


def poly_gcd(a: PolyDict, b: PolyDict, nvars: int) -> PolyDict:
    """GCD of coordinate-only polynomials over Q, monic-normalized.

    Denominators are cleared and the integer gcd comes from ``prs_gcd``,
    the primitive pseudo-remainder sequence.
    """
    if not a:
        return _monic(b)
    if not b:
        return _monic(a)
    g = prs_gcd(_to_int_poly(a), _to_int_poly(b), nvars)
    return _monic({m: Fraction(c) for m, c in g.items()})


def _to_int_poly(p: PolyDict) -> IntPoly:
    den = math.lcm(*(c.denominator for c in p.values()))
    return {m: int(c * den) for m, c in p.items()}


def _monic(p: PolyDict) -> PolyDict:
    if not p:
        return {}
    lm = max(p, key=lambda m: (sum(m), m))
    lc = p[lm]
    return {m: c / lc for m, c in p.items()}


class FunctionFieldElement:
    """Reduced fraction in Q(coords) tensor Artin part.

    The denominator involves coordinate symbols only and is monic with
    respect to graded-lex order.  Equality, units and zero tests are exact.
    """

    __slots__ = ("ff", "num", "den", "_inv")

    def __init__(self, ff: FunctionField, num: PolyDict, den: PolyDict,
                 _reduced: bool = False):
        if not den:
            raise DivisionByZero("zero denominator")
        self.ff = ff
        num = ff.poly(num)
        if not ff.p_is_coordinate(den):
            raise ValueError("denominator must be free of nilpotent generators")
        if _reduced and num:
            self.num, self.den = num, den
            return
        self.num, self.den = _reduce_fraction(ff, num, den)

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def nilfree_part(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self.ff, self.ff.p_nilfree(self.num), self.den)

    def is_unit(self) -> bool:
        return bool(self.ff.p_nilfree(self.num))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionFieldElement):
            return NotImplemented
        lhs = self.ff.p_mul(self.num, other.den)
        rhs = self.ff.p_mul(other.num, self.den)
        return lhs == rhs

    def __hash__(self):
        raise TypeError("unhashable")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "FunctionFieldElement":
        other = self._coerce(other)
        if self.den == other.den:
            return FunctionFieldElement(
                self.ff, self.ff.p_add(self.num, other.num), self.den)
        num = self.ff.p_add(self.ff.p_mul(self.num, other.den),
                            self.ff.p_mul(other.num, self.den))
        return FunctionFieldElement(self.ff, num, _raw_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self.ff, self.ff.p_neg(self.num), self.den, _reduced=True)

    def __sub__(self, other) -> "FunctionFieldElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other) -> "FunctionFieldElement":
        other = self._coerce(other)
        return FunctionFieldElement(self.ff, self.ff.p_mul(self.num, other.num),
                                    _raw_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FunctionFieldElement":
        return self * self._coerce(other).invert()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.invert()

    def __pow__(self, k: int) -> "FunctionFieldElement":
        if k < 0:
            return self.invert() ** (-k)
        out = self.ff.one()
        for _ in range(k):
            out = out * self
        return out

    def invert(self) -> "FunctionFieldElement":
        """Exact inverse; the nilpotent tail is expanded geometrically.

        1/(u + n) = (1/u) * sum_k (-n/u)**k, the sum finite because n is
        nilpotent.  Requires the nilpotent-free part u to be nonzero.
        The result is memoized on the instance.
        """
        cached = getattr(self, "_inv", None)
        if cached is not None:
            return cached
        ff = self.ff
        u = ff.p_nilfree(self.num)
        if not u:
            raise DivisionByZero("element has zero constant (nilpotent-free) part")
        n = _raw_sub(self.num, u)
        # 1/(u+n) = den / (u+n);  (u+n)^-1 = u^-1 * sum (-n u^-1)^k
        inv_u = FunctionFieldElement(ff, self.den, u)
        if not n:
            self._inv = inv_u
            return inv_u
        n_el = FunctionFieldElement(ff, n, self.den)
        t = n_el * inv_u  # nilpotent
        acc = ff.one()
        term = ff.one()
        while True:
            term = term * (-t)
            if term.is_zero():
                break
            acc = acc + term
        out = inv_u * acc
        self._inv = out
        return out

    def derivative_wrt(self, symbol: str) -> "FunctionFieldElement":
        """d/dsymbol by the quotient rule."""
        ff = self.ff
        i = ff.symbols.index(symbol)
        dn = ff.p_derivative(self.num, i)
        dd = ff.p_derivative(self.den, i)
        num = _raw_sub(ff.p_mul(dn, self.den), ff.p_mul(self.num, dd))
        return FunctionFieldElement(ff, num, _raw_mul(self.den, self.den))

    def _coerce(self, other) -> "FunctionFieldElement":
        if isinstance(other, FunctionFieldElement):
            if other.ff != self.ff:
                raise ValueError("elements of different function fields")
            return other
        return self.ff.const(other)

    def __str__(self) -> str:
        ff = self.ff
        if self.is_zero():
            return "0"
        num = ff.p_str(self.num)
        if self.den == ff.p_const(1):
            return num
        num_p = num if len(self.num) == 1 and not num.startswith("-") else f"({num})"
        den = ff.p_str(self.den)
        den_p = den if len(self.den) == 1 else f"({den})"
        return f"{num_p}/{den_p}"

    __repr__ = __str__


def _reduce_fraction(ff: FunctionField, num: PolyDict, den: PolyDict):
    """Cancel the common coordinate-polynomial factor and make den monic."""
    if not num:
        return {}, ff.p_const(1)
    nc = ff.nvars
    one = {(0,) * nc: Fraction(1)}
    # common factor of den and every Artin-monomial slice of num; a
    # constant den has none, so it needs no gcd
    g = one if len(den) == 1 and not any(next(iter(den))) else den
    art_slices: dict[Monomial, PolyDict] = {}
    for m, c in num.items():
        art = (0,) * ff.ncoords + m[ff.ncoords:]
        coord = m[:ff.ncoords] + (0,) * (nc - ff.ncoords)
        art_slices.setdefault(art, {})[coord] = c
    for sl in art_slices.values():
        if g == one:
            break
        g = poly_gcd(g, sl, nc)
    if g != one:
        # num and den scaled by one integer; by Gauss's lemma the primitive
        # part of g divides both integer images exactly
        gp = _scale_down(_to_int_poly(g))
        scale = math.lcm(*(c.denominator for p in (num, den) for c in p.values()))
        num = divide_exact({m: int(c * scale) for m, c in num.items()}, gp)
        den = divide_exact({m: int(c * scale) for m, c in den.items()}, gp)
    lm = max(den, key=lambda m: (sum(m), m))
    lc = den[lm]
    if lc != 1 or g != one:     # the integer quotients become Fractions here
        num = {m: Fraction(c, lc) for m, c in num.items()}
        den = {m: Fraction(c, lc) for m, c in den.items()}
    return num, den


# -- the former integer division and fraction reduction ----------------------


def int_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    out: IntPoly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            nv = out.get(m, 0) + ca * cb
            if nv == 0:
                out.pop(m, None)
            else:
                out[m] = nv
    return out


def divide_exact(p: IntPoly, d: IntPoly) -> IntPoly:
    """Exact division of integer polynomials (Gauss: stays integral)."""
    q: IntPoly = {}
    r = dict(p)
    lm_d = max(d, key=_glex)
    lc_d = d[lm_d]
    while r:
        lm_r = max(r, key=_glex)
        qm = tuple(x - y for x, y in zip(lm_r, lm_d))
        if any(e < 0 for e in qm) or r[lm_r] % lc_d:
            raise ArithmeticError("inexact polynomial division")
        qc = r[lm_r] // lc_d
        q[qm] = q.get(qm, 0) + qc
        r = _sub(r, int_mul({qm: qc}, d))
    return q


def reduce_int_fraction(ff: FunctionField, num: IntPoly, den: IntPoly):
    """The library's canonical form of num/den, by dividing by the gcd."""
    nv = ff.nvars
    if not num:
        return {}, {(0,) * nv: 1}
    nc = ff.ncoords
    art_slices: dict[Monomial, IntPoly] = {}
    for m, c in num.items():
        art = (0,) * nc + m[nc:]
        coord = m[:nc] + (0,) * (nv - nc)
        art_slices.setdefault(art, {})[coord] = c
    g = den
    for sl in art_slices.values():
        if _is_constant(g):
            break
        g = prs_gcd(g, sl, nv)
    if _is_constant(g):
        c = math.gcd(next(iter(g.values())), *num.values())
        if c != 1:
            num = {m: v // c for m, v in num.items()}
            den = {m: v // c for m, v in den.items()}
    else:
        num = divide_exact(num, g)
        den = divide_exact(den, g)
    if den[max(den, key=_glex)] < 0:
        num = {m: -v for m, v in num.items()}
        den = {m: -v for m, v in den.items()}
    return num, den


def _is_constant(p: IntPoly) -> bool:
    return len(p) == 1 and not any(next(iter(p)))


# -- the former gcd fallback: the primitive pseudo-remainder sequence --------


def prs_gcd(a: IntPoly, b: IntPoly, nvars: int) -> IntPoly:
    """GCD of integer polynomials, up to sign, by primitive pseudo-remainder
    sequences (recursive in the last active variable)."""
    if not a:
        return b
    if not b:
        return a
    active = [i for i in range(nvars)
              if _degree(a, i) > 0 or _degree(b, i) > 0]
    if not active:
        return {(0,) * nvars: math.gcd(next(iter(a.values())), next(iter(b.values())))}
    i = active[-1]
    ca = _content_in_var(a, i, nvars)
    cb = _content_in_var(b, i, nvars)
    f = divide_exact(a, ca)
    g = divide_exact(b, cb)
    cont_gcd = prs_gcd(ca, cb, nvars)
    if _degree(f, i) < _degree(g, i):
        f, g = g, f
    while g:
        r = _pseudo_rem(f, g, i)
        if r:
            r = divide_exact(r, _content_in_var(r, i, nvars))
        f, g = g, r
    return int_mul(cont_gcd, f)


def _content_in_var(p: IntPoly, i: int, nvars: int) -> IntPoly:
    """GCD of the coefficients of p viewed as univariate in variable i."""
    g: IntPoly = {}
    for e in range(_degree(p, i) + 1):
        ce = _coeff_in_var(p, i, e)
        if ce:
            g = prs_gcd(g, ce, nvars)
            if len(g) == 1 and sum(next(iter(g))) == 0 and abs(next(iter(g.values()))) == 1:
                break
    return g


def _pseudo_rem(f: IntPoly, g: IntPoly, i: int) -> IntPoly:
    dg = _degree(g, i)
    lc_g = _coeff_in_var(g, i, dg)
    r = dict(f)
    while r:
        dr = _degree(r, i)
        if dr < dg:
            break
        lc_r = _coeff_in_var(r, i, dr)
        r = _sub(int_mul(lc_g, r), _shift_var(int_mul(lc_r, g), i, dr - dg))
        r = _scale_down(r)
    return r


def _degree(a: IntPoly, i: int) -> int:
    return max((m[i] for m in a), default=0)


def _coeff_in_var(a: IntPoly, i: int, e: int) -> IntPoly:
    out = {}
    for m, c in a.items():
        if m[i] == e:
            out[m[:i] + (0,) + m[i + 1:]] = c
    return out


def _shift_var(a: IntPoly, i: int, e: int) -> IntPoly:
    return {m[:i] + (m[i] + e,) + m[i + 1:]: c for m, c in a.items()}


# -- the former rref, kernel basis, apply and transpose; row deletion


def _eliminate(r: dict[int, int], er: dict[int, int], pc: int) -> dict[int, int]:
    """The positive multiple of r - (r[pc] / er[pc]) er with content 1; er[pc] > 0."""
    g = gcd(er[pc], r[pc])
    scale, c = er[pc] // g, r[pc] // g
    out = {j: scale * v for j, v in r.items()}
    for j, v in er.items():
        nv = out.get(j, 0) - c * v
        if nv:
            out[j] = nv
        else:
            out.pop(j, None)
    content = gcd(*out.values())
    return {j: v // content for j, v in out.items()} if content > 1 else out


def rref(m: SparseMatrix) -> list[tuple[int, dict[int, int]]]:
    """Reduced row echelon form of ``m`` as (pivot column, row) pairs.

    Each row is integer, with content 1 and a positive pivot, and clear in
    every other pivot column: divided by its pivot it is the row of the
    unique RREF of the row space for the given column order.  Sorted by
    pivot column.
    """
    echelon: list[tuple[int, dict[int, int]]] = []
    for r in sorted(_rows_of(m).values(), key=min):
        for pc, er in echelon:
            if pc in r:
                r = _eliminate(r, er, pc)
        if r:
            pc = min(r)
            content = gcd(*r.values()) if r[pc] > 0 else -gcd(*r.values())
            r = {j: v // content for j, v in r.items()}
            # back-substitute so every echelon row is clear of the new pivot
            echelon = [(epc, _eliminate(er, r, pc) if pc in er else er)
                       for epc, er in echelon]
            echelon.append((pc, r))
    echelon.sort(key=lambda t: t[0])
    return echelon


def kernel_basis(m: SparseMatrix) -> list[dict[int, Fraction]]:
    """Basis of ker(m) as sparse column vectors {index: value}.

    One basis vector per free column of ``rref(m)``, whose integer
    rows are read over their pivots.  Deterministic; length is always
    cols - rank(m).
    """
    echelon = rref(m)
    pivots = {pc for pc, _ in echelon}
    basis = []
    for j in range(m.cols):
        if j in pivots:
            continue
        vec = {j: Fraction(1)}
        for pc, er in echelon:
            if j in er:
                vec[pc] = -Fraction(er[j], er[pc])
        basis.append(vec)
    return basis


def apply(m: SparseMatrix, vec: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """Matrix times sparse column vector, zeros dropped."""
    out: dict[int, Fraction] = {}
    for j, x in vec.items():
        if x == 0:
            continue
        for i, v in m.columns[j].items():
            out[i] = out.get(i, 0) + v * x
    return {i: v for i, v in out.items() if v != 0}


def transpose(m: SparseMatrix) -> SparseMatrix:
    return matrix(m.cols, m.rows, {(j, i): v for (i, j), v in m.entries.items()})


def without_rows(m: SparseMatrix, rows) -> dict[tuple[int, int], int]:
    """The entries of ``m`` with the given rows deleted and the rows below
    them renumbered, for ``fraction_rank``."""
    kept = {i: k for k, i in enumerate(i for i in range(m.rows) if i not in rows)}
    return {(kept[i], j): v for (i, j), v in m.entries.items() if i in kept}


# -- the former peel of a Steinberg symbol ------------------------------------


@dataclass
class PeeledSymbol:
    """Constant symbol and the three relative factors of a peeled symbol."""

    constant: tuple[LibraryElement, LibraryElement]
    factors: tuple[tuple[LibraryElement, LibraryElement], ...]


def peel(s: SteinbergSymbol) -> PeeledSymbol:
    """Split off the constant symbol {f0, g0} by bimultiplicativity."""
    one = s.ff.one()
    f0 = s.f.nilfree_part()
    g0 = s.g.nilfree_part()
    phi = s.f / f0 - one
    gamma = s.g / g0 - one
    return PeeledSymbol(
        constant=(f0, g0),
        factors=((f0, one + gamma), (one + phi, g0), (one + phi, one + gamma)))


# -- the former term-by-term nilpotent series ---------------------------------


def termwise_log(u: LibraryElement) -> LibraryElement:
    """log(1 + u) for nilpotent u; the series terminates exactly."""
    if u.is_unit():
        raise ValueError("argument must be nilpotent")
    acc = u.ff.zero()
    power = u.ff.one()
    k = 0
    while True:
        power = power * u
        k += 1
        if power.is_zero():
            return acc
        term = power / u.ff.const(k)
        acc = acc + term if k % 2 else acc - term


def termwise_invert(el: LibraryElement) -> LibraryElement:
    """Exact inverse; the nilpotent tail is expanded geometrically.

    1/(u + n) = (1/u) * sum_k (-n/u)**k, the sum finite because n is
    nilpotent.  Requires the nilpotent-free part u to be nonzero.
    """
    ff = el.ff
    u = ff.p_nilfree(el.num)
    if not u:
        raise DivisionByZero("element has zero constant (nilpotent-free) part")
    n = _sub(el.num, u)
    # 1/(u+n) = den / (u+n);  (u+n)^-1 = u^-1 * sum (-n u^-1)^k
    inv_u = LibraryElement(ff, el.den, u)
    if not n:
        return inv_u
    n_el = LibraryElement(ff, n, el.den)
    t = n_el * inv_u  # nilpotent
    acc = ff.one()
    term = ff.one()
    while True:
        term = term * (-t)
        if term.is_zero():
            break
        acc = acc + term
    return inv_u * acc


# -- the former symbol parser ------------------------------------------------


class ElementParser:
    """The former parser: every literal, symbol and intermediate result of
    + - * / ^ is a reduced library element.  The tokenizer is the
    library's; the grammar walk and its messages are kept as written."""

    def __init__(self, tokens: list[str], ff: FunctionField):
        self.toks = tokens
        self.pos = 0
        self.ff = ff

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise SymbolParseError("unexpected end of input")
        if expect is not None and tok != expect:
            raise SymbolParseError(f"expected {expect!r}, found {tok!r}")
        self.pos += 1
        return tok

    def expr(self) -> LibraryElement:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> LibraryElement:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            out = out * rhs if op == "*" else out / rhs
        return out

    def factor(self) -> LibraryElement:
        tok = self.peek()
        if tok == "-":
            self.take()
            return -self.factor()
        if tok == "+":
            self.take()
            return self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.take()
            neg = self.peek() == "-"
            if neg:
                self.take()
            tok = self.take()
            if not tok.isdecimal():
                raise SymbolParseError(f"exponent must be an integer, found {tok!r}")
            return base ** (-int(tok) if neg else int(tok))
        return base

    def atom(self) -> LibraryElement:
        tok = self.take()
        if tok == "(":
            out = self.expr()
            self.take(")")
            return out
        if tok.isdecimal():
            return self.ff.const(int(tok))
        if tok in self.ff.symbols:
            return self.ff.var(tok)
        raise SymbolParseError(f"unknown symbol {tok!r}")


def element_parse_symbol(text: str, ff: FunctionField) -> SteinbergSymbol:
    """``parse_symbol`` as it was, through ``ElementParser``."""
    p = ElementParser(_tokenize(text), ff)
    p.take("{")
    f = p.expr()
    p.take(",")
    g = p.expr()
    p.take("}")
    if p.peek() is not None:
        raise SymbolParseError(f"trailing input at {p.peek()!r}")
    return SteinbergSymbol(f, g)
