"""Exact sparse linear algebra over Q on integer matrices.

Every matrix the chain-complex modules build (boundaries, projectors,
Cech differentials, Kaehler relations) has small integer entries, so a
``SparseMatrix`` holds nonzero ints and its products never leave Z.

``rank`` is fraction-free Gaussian elimination over Z, whose rank is the
rank over Q.  A unit pivot (+-1) subtracts an integer multiple of the
pivot row; any other pivot first scales the target row so that the
subtraction is exact, then divides the row by its content, which keeps
entries small.  Pivots follow the Markowitz rule (the entry minimizing
(row_nnz - 1) * (col_nnz - 1)) searched over the three sparsest rows,
which keeps fill-in small on the very sparse boundary matrices.

Rationals appear in one place, ``rref``: the reduced row echelon form,
read by ``kernel_basis`` and by the Artin reduction rules of
``differentials``.  ``homology_dims`` is the one homology primitive every
table is built on.  All operations are pure and deterministic: the same
input yields bit-identical output on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse integer matrix, read over Q.

    ``entries`` maps (row, col) to a nonzero int; absent means zero.
    Zero-dimensional shapes (n x 0, 0 x n) are legal and show up as the
    empty boundary maps at the ends of a chain complex.
    """

    rows: int
    cols: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"entry index {(i, j)} out of bounds")
            if type(v) is not int:
                raise ValueError(f"entry {v!r} at {(i, j)} is not an int")
            if v == 0:
                raise ValueError("stored zero entry")

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix(rows, cols, {})

    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows,
                            {(j, i): v for (i, j), v in self.entries.items()})

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        other_by_col: dict[int, list[tuple[int, int]]] = {}
        for (k, j), v in other.entries.items():
            other_by_col.setdefault(j, []).append((k, v))
        self_by_col: dict[int, list[tuple[int, int]]] = {}
        for (i, k), v in self.entries.items():
            self_by_col.setdefault(k, []).append((i, v))
        out: dict[tuple[int, int], int] = {}
        for j, col in other_by_col.items():
            acc: dict[int, int] = {}
            for k, bv in col:
                for i, av in self_by_col.get(k, ()):
                    acc[i] = acc.get(i, 0) + av * bv
            for i, v in acc.items():
                if v != 0:
                    out[(i, j)] = v
        return SparseMatrix(self.rows, other.cols, out)

    def hstack(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i, j + self.cols)] = v
        return SparseMatrix(self.rows, self.cols + other.cols, entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)


def _rows_of(m: SparseMatrix) -> dict[int, dict[int, int]]:
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    return rows


def _bucket_move(buckets: dict[int, set[int]], idx: int, old: int, new: int):
    if old:
        b = buckets[old]
        b.discard(idx)
        if not b:
            del buckets[old]
    if new:
        buckets.setdefault(new, set()).add(idx)


def _markowitz_pivot(row: dict[int, dict[int, int]], col: dict[int, set[int]],
                     row_buckets: dict[int, set[int]]) -> tuple[int, int]:
    """The entry of least fill-in count (row_nnz - 1) * (col_nnz - 1) in the
    three sparsest rows (Zlatev, SIAM J. Numer. Anal. 17, 1980).

    The scan stops at the first entry of count 0 (a singleton row or
    column), which no entry can beat; ties between positive counts go to
    the lowest (row, col).
    """
    best_score = None
    best = (-1, -1)
    searched = 0
    for rn in sorted(row_buckets):
        for i in row_buckets[rn]:
            for j in row[i]:
                score = (rn - 1) * (len(col[j]) - 1)
                if score == 0:
                    return i, j
                if (best_score is None or score < best_score
                        or (score == best_score and (i, j) < best)):
                    best_score, best = score, (i, j)
            searched += 1
            if searched == 3:
                return best
    return best


def rank(m: SparseMatrix) -> int:
    """Rank of ``m`` over Q by fraction-free sparse elimination over Z.

    Pivots follow ``_markowitz_pivot``; the rank does not depend on the
    pivot order.  Row counts are kept in incremental buckets so the pivot
    search never recounts them.
    """
    row = _rows_of(m)
    col: dict[int, set[int]] = {}
    for i, j in m.entries:
        col.setdefault(j, set()).add(i)
    row_buckets: dict[int, set[int]] = {}
    for i, r in row.items():
        row_buckets.setdefault(len(r), set()).add(i)
    rk = 0
    while row:
        pi, pj = _markowitz_pivot(row, col, row_buckets)
        rk += 1
        pivot_row = row.pop(pi)
        _bucket_move(row_buckets, pi, len(pivot_row), 0)
        pv = pivot_row.pop(pj)
        for j in pivot_row:
            s = col[j]
            s.discard(pi)
            if not s:
                del col[j]
        targets = col.pop(pj)
        targets.discard(pi)
        unit = pv == 1 or pv == -1
        for i in targets:
            ri = row[i]
            old_rn = len(ri)
            f = ri.pop(pj)
            if unit:
                c = f * pv                  # ri - (f / pv) * pivot row
            else:
                g = gcd(pv, f)
                scale, c = pv // g, f // g  # scale * ri - c * pivot row
                if scale != 1:
                    for j in ri:
                        ri[j] *= scale
            for j, v in pivot_row.items():
                cur = ri.get(j)
                nv = -c * v if cur is None else cur - c * v
                if nv == 0:
                    if cur is not None:
                        del ri[j]
                        s = col[j]
                        s.discard(i)
                        if not s:
                            del col[j]
                else:
                    if cur is None:
                        col.setdefault(j, set()).add(i)
                    ri[j] = nv
            if not ri:
                del row[i]
                _bucket_move(row_buckets, i, old_rn, 0)
                continue
            if not unit:
                content = gcd(*ri.values())
                if content > 1:
                    for j in ri:
                        ri[j] //= content
            if len(ri) != old_rn:
                _bucket_move(row_buckets, i, old_rn, len(ri))
    return rk


def rref(m: SparseMatrix) -> list[tuple[int, dict[int, Fraction]]]:
    """Reduced row echelon form of ``m`` as (pivot column, row) pairs.

    Each row is scaled to pivot 1 and cleared in every other pivot
    column, so the result is the unique RREF of the row space for the
    given column order.  Sorted by pivot column; entries are Fractions.
    """
    echelon: list[tuple[int, dict[int, Fraction]]] = []
    for r in sorted(_rows_of(m).values(), key=min):
        for pc, er in echelon:
            if pc in r:
                f = r[pc]
                for j, v in er.items():
                    nv = r.get(j, 0) - f * v
                    if nv == 0:
                        r.pop(j, None)
                    else:
                        r[j] = nv
        if r:
            pc = min(r)
            pv = Fraction(r[pc])
            r = {j: v / pv for j, v in r.items()}
            # back-substitute so every echelon row is clear of the new pivot
            for _epc, er in echelon:
                if pc in er:
                    f = er[pc]
                    for j, v in r.items():
                        nv = er.get(j, 0) - f * v
                        if nv == 0:
                            er.pop(j, None)
                        else:
                            er[j] = nv
            echelon.append((pc, r))
    echelon.sort(key=lambda t: t[0])
    return echelon


def kernel_basis(m: SparseMatrix) -> list[dict[int, Fraction]]:
    """Basis of ker(m) as sparse column vectors {index: value}.

    One basis vector per free column of ``rref(m)``.  Deterministic;
    length is always cols - rank(m).
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
                vec[pc] = -er[j]
        basis.append(vec)
    return basis


def apply(m: SparseMatrix, vec: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """Matrix times sparse column vector."""
    out: dict[int, Fraction] = {}
    cols: dict[int, list[tuple[int, int]]] = {}
    for (i, j), v in m.entries.items():
        cols.setdefault(j, []).append((i, v))
    for j, x in vec.items():
        if x == 0:
            continue
        for i, v in cols.get(j, ()):
            out[i] = out.get(i, 0) + v * x
    return {i: v for i, v in out.items() if v != 0}


def homology_dims(dims: Mapping[int, int], ranks: Mapping[int, int]) -> dict[int, int]:
    """Homology dimensions of a finite complex from its dimensions and ranks.

    ``dims[n]`` is dim C_n for each degree wanted, and ``ranks[n]`` the rank
    of the differential between C_n and C_{n-1}, in either direction, so
    chain and cochain complexes read the same.  A missing rank is 0, as at
    the ends of the complex:  H_n = dim C_n - rank d_n - rank d_{n+1}.
    The caller owns the d o d = 0 check; without it the result means
    nothing.
    """
    return {n: c - ranks.get(n, 0) - ranks.get(n + 1, 0) for n, c in dims.items()}
