"""Exact sparse linear algebra over Q.

Ranks and kernel bases of sparse matrices with Fraction or int entries,
and the one homology primitive every table is built on.  Elimination is
fraction-based Gaussian elimination with Markowitz pivoting: the pivot
minimizing (row_nnz - 1) * (col_nnz - 1), which keeps fill-in small on
the very sparse boundary matrices produced by the chain-complex modules.
All operations are pure and deterministic: the same input yields
bit-identical output on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix over Q.

    ``entries`` maps (row, col) to a nonzero Fraction or int; absent means
    zero.  Elimination divides only by Fraction pivots, so int entries stay
    exact.
    Zero-dimensional shapes (n x 0, 0 x n) are legal and show up as the
    empty boundary maps at the ends of a chain complex.
    """

    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"entry index {(i, j)} out of bounds")
            if v == 0:
                raise ValueError("stored zero entry")

    @staticmethod
    def from_entries(rows: int, cols: int,
                     entries: Mapping[tuple[int, int], object]) -> "SparseMatrix":
        clean = {}
        for (i, j), v in entries.items():
            fv = _as_fraction(v)
            if fv != 0:
                clean[(i, j)] = fv
        return SparseMatrix(rows, cols, clean)

    @staticmethod
    def from_rows(data: Iterable[Iterable[object]], cols: int | None = None) -> "SparseMatrix":
        rows = [list(r) for r in data]
        ncols = cols if cols is not None else (len(rows[0]) if rows else 0)
        entries = {}
        for i, r in enumerate(rows):
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(r):
                fv = _as_fraction(v)
                if fv != 0:
                    entries[(i, j)] = fv
        return SparseMatrix(len(rows), ncols, entries)

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(n, n, {(i, i): Fraction(1) for i in range(n)})

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
        other_by_col: dict[int, list[tuple[int, Fraction]]] = {}
        for (k, j), v in other.entries.items():
            other_by_col.setdefault(j, []).append((k, v))
        self_by_col: dict[int, list[tuple[int, Fraction]]] = {}
        for (i, k), v in self.entries.items():
            self_by_col.setdefault(k, []).append((i, v))
        out: dict[tuple[int, int], Fraction] = {}
        for j, col in other_by_col.items():
            acc: dict[int, Fraction] = {}
            for k, bv in col:
                for i, av in self_by_col.get(k, ()):
                    acc[i] = acc.get(i, Fraction(0)) + av * bv
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


def _elimination_data(m: SparseMatrix):
    """Mutable row/column indexed copy of the matrix for elimination."""
    row: dict[int, dict[int, Fraction]] = {}
    col: dict[int, set[int]] = {}
    for (i, j), v in m.entries.items():
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


def rank(m: SparseMatrix) -> int:
    """Rank of ``m`` over Q by exact sparse Gaussian elimination.

    Pivots follow the Markowitz rule of ``_markowitz_pivot``; the rank
    does not depend on the pivot order.  Row and column counts are kept
    in incremental buckets so the pivot scan never recounts them.
    """
    row, col = _elimination_data(m)
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


def kernel_basis(m: SparseMatrix) -> list[dict[int, Fraction]]:
    """Basis of ker(m) as sparse column vectors {index: value}.

    Row-reduces to reduced echelon form with pivots taken in column order,
    then reads one basis vector per free column.  Deterministic; length is
    always cols - rank(m).
    """
    row, _col = _elimination_data(m)
    work = sorted(row.values(), key=lambda r: min(r))
    echelon: list[tuple[int, dict[int, Fraction]]] = []  # (pivot col, row)
    for r in work:
        r = dict(r)
        for pc, er in echelon:
            if pc in r:
                f = r[pc]
                for j, v in er.items():
                    nv = r.get(j, Fraction(0)) - f * v
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
                        nv = er.get(j, Fraction(0)) - f * v
                        if nv == 0:
                            er.pop(j, None)
                        else:
                            er[j] = nv
            echelon.append((pc, r))
    echelon.sort(key=lambda t: t[0])
    pivots = [pc for pc, _ in echelon]
    pivot_set = set(pivots)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        vec = {j: Fraction(1)}
        for pc, er in echelon:
            c = er.get(j)
            if c is not None and c != 0:
                vec[pc] = -c
        basis.append(vec)
    return basis


def apply(m: SparseMatrix, vec: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """Matrix times sparse column vector."""
    out: dict[int, Fraction] = {}
    cols: dict[int, list[tuple[int, Fraction]]] = {}
    for (i, j), v in m.entries.items():
        cols.setdefault(j, []).append((i, v))
    for j, x in vec.items():
        if x == 0:
            continue
        for i, v in cols.get(j, ()):
            out[i] = out.get(i, Fraction(0)) + v * x
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
