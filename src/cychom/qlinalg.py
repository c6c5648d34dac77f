"""Exact sparse linear algebra over Q on integer matrices.

Every matrix the chain-complex modules build (boundaries, projectors,
Cech differentials, Kaehler relations) has small integer entries, so a
``SparseMatrix`` holds nonzero ints and its products never leave Z.  It
holds them column by column, as each builder makes them: one column per
basis element of the source.

``rank`` is fraction-free row reduction over Z, whose rank is the rank
over Q, and the one exact rank kernel.  It takes the rows sparsest
first, each divided by its integer content.  A row's lead is its entry
in the column of fewest nonzeros, counted once before the reduction
(ties to the lower index).  A row whose lead another row already holds is
reduced against that row by an integer combination that cancels the lead
exactly, and divided by its content when it was scaled, which keeps
entries small; of the two rows the sparser is the one kept, which keeps
fill-in small on the very sparse boundary matrices.  Each step moves the
lead to a later column in that order, so the reduction ends, and the
kept rows are triangular on their leads, so the lead columns are
independent.  ``rank`` can leave out a set of rows, which it then never
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


def rank(m: SparseMatrix, skip=(), pivots: list[int] | None = None) -> int:
    """Rank of ``m`` over Q by fraction-free row reduction over Z.

    Rows in ``skip`` are left out: the rank is that of ``m`` without them.
    The columns are relabelled by (nonzero count, index), and ``kept`` maps
    each lead, a row's least label, to the one reduced row that holds it.
    A row r whose lead k is taken by p becomes scale * r - c * p, which
    cancels r[k]; neither row has a label below k, so the lead moves up.
    When ``pivots`` is a list, the column of each new lead is appended to
    it: those columns of ``m`` (without the skipped rows) are independent,
    and there are rank of them.
    """
    rows, count = [], {}
    for r in _rows_of(m, skip).values():
        g = gcd(*r.values())
        rows.append({j: v // g for j, v in r.items()} if g > 1 else r)
        for j in r:
            count[j] = count.get(j, 0) + 1
    column = sorted(count, key=lambda j: (count[j], j))
    label = {j: k for k, j in enumerate(column)}
    kept: dict[int, dict[int, int]] = {}
    for r in sorted(rows, key=len):
        r = {label[j]: v for j, v in r.items()}
        while r:
            k = min(r)
            p = kept.get(k)
            if p is None:
                kept[k] = r
                if pivots is not None:
                    pivots.append(column[k])
                break
            if len(r) < len(p):
                kept[k], r, p = r, p, r
            g = gcd(r[k], p[k]) if p[k] > 0 else -gcd(r[k], p[k])
            scale, c = p[k] // g, r[k] // g     # scale > 0
            if scale != 1:
                for j in r:
                    r[j] *= scale
            for j, v in p.items():
                nv = r.get(j, 0) - c * v
                if nv:
                    r[j] = nv
                else:
                    del r[j]
            if scale != 1:
                g = gcd(*r.values())
                if g > 1:
                    for j in r:
                        r[j] //= g
    return len(kept)


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
