"""Fraction-based eliminations kept as independent oracles for the tests.

``fraction_rank`` is the former library rank: Gaussian elimination over
Q in Fractions with Markowitz pivoting over every row.  ``matmul`` forms
products of sparse matrices held as {(row, col): value} dicts, so rational
matrices such as the Eulerian projectors can be multiplied here without the
library's integer ``SparseMatrix``.  ``artin_reduction_rules`` is the former
private RREF of ``differentials``.  None of them shares elimination code
with ``cychom.qlinalg``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from cychom.differentials import _d_of_monomial, _relation_vectors

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
    for rel in _relation_vectors(a):
        drel = _d_of_monomial(a, rel)
        for mu in art.basis:
            row: dict = {}
            for coef, mon, i in drel:
                prod = a.mul(mu, mon)
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
