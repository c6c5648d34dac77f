"""Exact sparse linear algebra over Q on integer matrices.

Every matrix the chain-complex modules build (boundaries, projectors,
Cech differentials, Kaehler relations) has small integer entries, so a
``SparseMatrix`` holds nonzero ints and its products never leave Z.  It
holds them column by column, as each builder makes them: one column per
basis element of the source.

``rank`` is fraction-free Gaussian elimination over Z, whose rank is the
rank over Q, and the one exact rank kernel.  A unit pivot (+-1) subtracts
an integer multiple of the pivot row; any other pivot first scales the
target row so that the subtraction is exact, then divides the row by its
content, which keeps entries small.  Pivots follow the Markowitz rule
(the entry minimizing (row_nnz - 1) * (col_nnz - 1)) searched over the
sparsest row, which keeps fill-in small on the very sparse boundary
matrices.  ``rank`` can leave out a set of rows, which it then never
builds, and hand back its pivot columns: columns of ``m`` that form a
basis of its column space without those rows.  That is how ``cyclic``
ranks each boundary on the rows that the one below leaves, and where
``hodge`` takes the image basis of each projector block.  It is the one
elimination in the library: ``differentials`` reduces a one-form modulo
the Artin relations term by term, each term by its own relation row.

``homology_dims`` is the one homology primitive every table is built on,
and ``composes_to_zero`` the one d o d = 0 check, a column walk that
forms no product.  ``DimTable`` is what every table of dimensions holds:
its zero-filled entries, and their JSON entry list, CSV and text grid.
All operations are pure and deterministic: the same input yields
bit-identical output on every run.
"""

from __future__ import annotations

from math import gcd


class SparseMatrix:
    """Immutable sparse integer matrix, read over Q.

    ``columns[j]`` maps the row of each nonzero entry of column j to its
    int value; absent means zero.  The columns are the one stored layout:
    builders fill them, and products, checks and ranks read them in place.
    Zero-dimensional shapes (n x 0, 0 x n) are legal and show up as the
    empty boundary maps at the ends of a chain complex.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: list[dict[int, int]]):
        self.rows, self.cols, self.columns = rows, cols, columns
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(columns) != cols:
            raise ValueError(f"{len(columns)} columns for a matrix of {cols}")
        for j, col in enumerate(columns):
            for i, v in col.items():
                if not 0 <= i < rows:
                    raise ValueError(f"entry index {(i, j)} out of bounds")
                if type(v) is not int:
                    raise ValueError(f"entry {v!r} at {(i, j)} is not an int")
                if v == 0:
                    raise ValueError("stored zero entry")

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix(rows, cols, [{} for _ in range(cols)])

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """(row, col) -> value, derived from the columns on each read; only
        the tests and the perfbench tracer read it."""
        return {(i, j): v for j, col in enumerate(self.columns) for i, v in col.items()}

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        left, out = self.columns, []
        for col in other.columns:
            acc: dict[int, int] = {}
            for k, bv in col.items():
                for i, av in left[k].items():
                    acc[i] = acc.get(i, 0) + av * bv
            out.append({i: v for i, v in acc.items() if v})
        return SparseMatrix(self.rows, other.cols, out)

    def hstack(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return SparseMatrix(self.rows, self.cols + other.cols, self.columns + other.columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.columns) == (other.rows, other.cols, other.columns)


def _rows_of(m: SparseMatrix, skip=()) -> dict[int, dict[int, int]]:
    rows: dict[int, dict[int, int]] = {}
    for j, col in enumerate(m.columns):
        for i, v in col.items():
            if i not in skip:
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
    """The entry of least fill-in count (row_nnz - 1) * (col_nnz - 1) in a
    sparsest row (Zlatev, SIAM J. Numer. Anal. 17, 1980).

    Within one row the count grows with col_nnz alone, so the entry of the
    sparsest column wins; the scan stops at a singleton column, which no
    entry can beat, and ties go to the first entry of the row.
    """
    i = next(iter(row_buckets[min(row_buckets)]))
    best, best_nnz = -1, 0
    for j in row[i]:
        nnz = len(col[j])
        if nnz == 1:
            return i, j
        if not best_nnz or nnz < best_nnz:
            best, best_nnz = j, nnz
    return i, best


def rank(m: SparseMatrix, skip=(), pivots: list[int] | None = None) -> int:
    """Rank of ``m`` over Q by fraction-free sparse elimination over Z.

    Rows in ``skip`` are left out: the rank is that of ``m`` without them.
    When ``pivots`` is a list, the pivot column of each elimination step is
    appended to it; those columns of ``m`` (without the skipped rows) are
    independent, and there are rank of them.

    Pivots follow ``_markowitz_pivot``; the rank does not depend on the
    pivot order.  Row counts are kept in incremental buckets so the pivot
    search never recounts them.
    """
    row = _rows_of(m, skip)
    col = {j: {i for i in c if i not in skip} if skip else set(c)
           for j, c in enumerate(m.columns) if c}
    row_buckets: dict[int, set[int]] = {}
    for i, r in row.items():
        row_buckets.setdefault(len(r), set()).add(i)
    rk = 0
    while row:
        pi, pj = _markowitz_pivot(row, col, row_buckets)
        rk += 1
        if pivots is not None:
            pivots.append(pj)
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


def homology_dims(dims: dict[int, int], ranks: dict[int, int]) -> dict[int, int]:
    """Homology dimensions of a finite complex from its dimensions and ranks.

    ``dims[n]`` is dim C_n for each degree wanted, and ``ranks[n]`` the rank
    of the differential between C_n and C_{n-1}, in either direction, so
    chain and cochain complexes read the same.  A missing rank is 0, as at
    the ends of the complex:  H_n = dim C_n - rank d_n - rank d_{n+1}.
    The caller owns the d o d = 0 check; without it the result means
    nothing.
    """
    return {n: c - ranks.get(n, 0) - ranks.get(n + 1, 0) for n, c in dims.items()}


def composes_to_zero(first: SparseMatrix, then: SparseMatrix) -> bool:
    """Whether ``then`` after ``first`` is zero: each column of ``first``
    walked through the columns of ``then``, so no product is formed."""
    low = then.columns
    for col in first.columns:
        acc: dict[int, int] = {}
        for k, v in col.items():
            for i, u in low[k].items():
                acc[i] = acc.get(i, 0) + u * v
        if any(acc.values()):
            return False
    return True


class DimTable:
    """Exact dimensions keyed by tuples of ints, zero-filled over given keys.

    ``axes`` names the positions of a key: they head the CSV and name the
    fields of each JSON entry, and the first two label the text grid.  A
    table class adds its head fields and text layout, and defines its own
    ``to_json_dict`` and ``to_json``.
    """

    __slots__ = ("entries",)
    axes: tuple[str, ...] = ()

    def __init__(self, keys, entries: dict | None = None):
        self.entries = {} if entries is None else entries
        for key in keys:
            self.entries.setdefault(key, 0)

    def dim(self, *key: int) -> int:
        return self.entries.get(key, 0)

    def json_entries(self) -> list[dict]:
        return [dict(zip(self.axes, key), dim=self.entries[key]) for key in sorted(self.entries)]

    def to_csv(self) -> str:
        lines = [",".join(self.axes) + ",dim"]
        lines += [",".join(map(str, key)) + f",{self.entries[key]}"
                  for key in sorted(self.entries)]
        return "\n".join(lines) + "\n"

    def grid(self, rows: range, cols: range) -> str:
        """One line per row key, its dimensions under the column keys."""
        width = max(4, max(len(str(x)) for x in [*self.entries.values(), *cols, 0]) + 1)
        lines = ["\\".join(self.axes[:2]) + " " + "".join(f"{c:>{width}}" for c in cols)]
        for r in rows:
            lines.append(f"{r:>3} " + "".join(f"{self.dim(r, c):>{width}}" for c in cols))
        return "\n".join(lines) + "\n"
