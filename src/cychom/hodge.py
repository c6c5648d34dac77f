"""Eulerian idempotents and the Hodge (Adams eigenspace) decomposition.

The rational symmetric-group algebra Q[S_n] contains orthogonal
idempotents e^(1)..e^(n) defined by the descent generating function

    sum_i e^(i) x^i  =  sum_{sigma in S_n} binom(x - des(sigma) + n - 1, n) sigma.

The coefficient of sigma depends only on its descent number d (Loday,
Cyclic Homology, 4.5), and n! binom(x - d + n - 1, n) is the falling
factorial (x + n - 1 - d)(x + n - 2 - d)...(x - d), a product of monic
integer linear factors.  So the module holds n! e^(i) as the integer row
c_(i,d), d = 0..n-1: its coefficient on every permutation of descent
number d.  The identities sum_i e^(i) = 1 and e^(i) e^(j) = delta_ij e^(i)
are checked through the descent-class sums D_d = sum_{des(sigma) = d} sigma:
D_0 is the identity, and the products D_a D_b expand (n! e^(i)) (n! e^(j))
= delta_ij n! (n! e^(i)).  The D_d span a subalgebra of Q[S_n] (Garsia and
Reutenauer 1989; Loday, 4.5), so that expansion is compared at one
permutation per descent number, all read off one walk over S_n.

Acting on the last n slots of a normalized Hochschild chain
a_0 (x) abar_1 (x) ... (x) abar_n - with the sign character, so that the
top idempotent is the antisymmetrizer - they commute with the boundary
and split Hochschild homology of a commutative algebra into eigenspaces
of the Adams operations psi^k = sum_i k^i e^(i).  In degree n the index
runs over 1..n; degree 0 is index 0 alone.  For P = n! e^(i) in degree n
the chain-map identity is b P_n = n P_{n-1} b, asserted exactly on every
column of every cell; an eigenspace has dimension trace(P_n) / n!, and b
on it the rank of b P_n.  The projectors keep each S_n-orbit of C_n (a
slot 0 and a multiset of inner monomial codes), and on it depend only on
the code multiplicities: one walk over S_n per such pattern, its signed
images summed into descent classes, gives the pattern's n blocks, and
``qlinalg.rank`` hands back pivot columns spanning their images.  A cell
walks the block columns of its orbits once per index: it reads the trace
off the blocks' diagonals, checks the identity column by column from the
columns of b and the blocks, and ranks the matrix of the pivot columns
of b P_n.  The orbits
and the result are kept on the Strip, no table path places a projector
matrix, and ``cyclic._table``, the walk of HH and HC, sums the cells.
These ranks are not compressed as HH's are, for want of a measured gain:
compression would be exact.  Let J be the indexes in C_{n-1} of the
pivot columns of b P_{n-1}.  P_{n-1} acts as (n-1)! on its image, so a
vector v of ker b and im P_{n-1} supported on J has
b P_{n-1} v = (n-1)! b v = 0, a vanishing combination of independent
columns, and v = 0.  im b P_n lies in ker b and im P_{n-1}, so leaving
out the rows J keeps its rank.

For dual-number pairs the periodicity map vanishes on the relative
theory and the eigenspace long exact sequence collapses to

    0 -> HC^(i-1)_{n-1} -> HH^(i)_n -> HC^(i)_n -> 0,

so cyclic eigenspace dimensions follow by the upward recursion
dim HC^(i)_n = dim HH^(i)_n - dim HC^(i-1)_{n-1} with HC_0 concentrated
in index 0, and negative cyclic eigenspaces are the shifted copy
HN^(i)_n = HC^(i-1)_{n-1}.  A ``HodgeTable`` is a ``qlinalg.DimTable``
keyed by (n, w, i); its text is its CSV, as three indices fit no grid.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from functools import lru_cache

from .algebra import GradedAlgebra, SplitNilpotentPair
# hh_table stays bound here: perfbench/tracer.py wraps it in this namespace
from .cyclic import Strip, _strips, _table, chain_cell, hh_table, strip  # noqa: F401
from .qlinalg import DimTable, SparseMatrix, rank

MAX_SYMMETRIC_DEGREE = 8


class DegreeTooLarge(Exception):
    """Symmetric-group degree beyond the supported factorial bound."""


class NegativeDimension(Exception):
    """The eigenspace recursion produced a negative value: a convention
    mismatch (sign twist or idempotent formula), not a data error."""


Perm = tuple[int, ...]  # one-line notation, values 1..n


def _descents(p: Perm) -> int:
    return sum(1 for a, b in zip(p, p[1:]) if a > b)


def perm_sign(p: Perm) -> int:
    inv = sum(1 for i, a in enumerate(p) for b in p[i + 1:] if a > b)
    return -1 if inv % 2 else 1


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def _falling_factorial(shift: int, n: int) -> list[int]:
    """Coefficients of (x + shift)(x + shift - 1)...(x + shift - n + 1) =
    n! binom(x + shift, n) as a polynomial in x, from x^0."""
    coeffs = [1]
    for j in range(n):
        root = shift - j
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] += c * root
        coeffs = nxt
    return coeffs


@lru_cache(maxsize=None)
def eulerian_idempotents(n: int) -> tuple[tuple[int, ...], ...]:
    """n! e^(1)..n! e^(n) as integer rows indexed by descent number 0..n-1."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_SYMMETRIC_DEGREE:
        raise DegreeTooLarge(f"degree {n} beyond bound {MAX_SYMMETRIC_DEGREE}")
    polys = [_falling_factorial(n - 1 - d, n) for d in range(n)]
    return tuple(tuple(poly[i] for poly in polys) for i in range(1, n + 1))


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def verify_idempotent_identities(n: int) -> bool:
    """Exact check that e^(1)..e^(n) are orthogonal idempotents summing to 1.

    Column sums against D_0 = id, then every product expanded bilinearly
    in the descent-class products D_a D_b and compared at one permutation
    per descent number, from one walk over S_n and no table of S_n x S_n;
    AssertionError on any failed identity.
    """
    fact = math.factorial(n)
    rows = eulerian_idempotents(n)
    if [sum(col) for col in zip(*rows)] != [fact] + [0] * (n - 1):
        raise AssertionError(f"idempotents do not sum to the identity at n={n}")
    # m[a][b], the coefficient in D_a D_b of p_d = (d+1, d, ..., 1, d+2, ..., n) with d
    # descents, is #{q : des q = b, des(p_d o q^-1) = a}; act: (0, *p) -> (0, *(p o q^-1))
    reps = [(0, *range(d + 1, 0, -1), *range(d + 2, n + 1)) for d in range(n)]
    counts = [[[0] * n for _ in range(n)] for _ in reps]
    for q in itertools.permutations(range(1, n + 1)):
        act, b = operator.itemgetter(0, *inverse(q)), _descents(q)
        for p, m in zip(reps, counts):
            m[_descents(act(p))][b] += 1
    for d, m in enumerate(counts):
        # mc[j][a] = sum_b m[a][b] c_(j,b)
        mc = [[_dot(m_a, cj) for m_a in m] for cj in rows]
        for i, ci in enumerate(rows):
            for j, mj in enumerate(mc):
                if _dot(ci, mj) != (fact * ci[d] if i == j else 0):
                    raise AssertionError(f"e^({i + 1}) * e^({j + 1}) wrong at n={n}")
    return True


# -- action on chains --------------------------------------------------------


@lru_cache(maxsize=None)
def _pattern(n: int, mults: tuple[int, ...]) -> tuple[tuple, ...]:
    """Per index i = 1..n, the block of n! e^(i) on an S_n-orbit whose inner
    codes have multiplicities ``mults`` (in code order): its columns, each a
    {row: value} dict, and for i < n pivot columns spanning its image.  The
    orbit's sorted tensors match the sorted words on letters 0, 1, ...
    (k mults[k] times) behind a slot 0; p puts old slot p^{-1}(k) in slot k
    and multiplies by its sign.
    """
    rows = eulerian_idempotents(n)   # a degree past the bound walks nothing
    words = sorted({(0, *v) for v in itertools.permutations(
        [k for k, m in enumerate(mults) for _ in range(m)])})
    at = {v: q for q, v in enumerate(words)}
    # classes[d][q]: column q of the descent class sum D_d on the orbit
    classes = [[{} for _ in words] for _ in range(n)]
    for p in itertools.permutations(range(1, n + 1)):
        act, cls = operator.itemgetter(0, *inverse(p)), classes[_descents(p)]
        sgn = perm_sign(p)
        for col, v in zip(cls, words):
            r = at[act(v)]
            col[r] = col.get(r, 0) + sgn
    blocks = []
    for i, row in enumerate(rows, start=1):
        cols: list[dict[int, int]] = [{} for _ in words]
        for c, cls in zip(row, classes):
            for col, ccol in zip(cols, cls):
                for r, v in ccol.items():
                    col[r] = col.get(r, 0) + c * v
        block = SparseMatrix(len(words), len(words),
                             [{r: v for r, v in col.items() if v} for col in cols])
        pivots: list[int] = []
        if i < n:
            rank(block, (), pivots)
        blocks.append((block.columns, tuple(pivots)))
    return tuple(blocks)


def _orbits(s: Strip, n: int) -> list[tuple[list[int], tuple]]:
    """Per S_n-orbit of C_n of s, n >= 1: the cell indexes of its tensors, in
    basis order, and the blocks of its pattern, whose letters number the
    orbit's inner codes in code order."""
    orbits: dict[tuple[int, ...], list[int]] = {}
    for j, t in enumerate(s.cell(n).basis):
        orbits.setdefault((t[0], *sorted(t[1:])), []).append(j)
    return [(pos, _pattern(n, tuple(len(list(g)) for _k, g in itertools.groupby(key[1:]))))
            for key, pos in orbits.items()]


def projector_matrix(a: GradedAlgebra, n: int, w: int, e: int, i: int) -> SparseMatrix:
    """Integer matrix of n! e^(i), 1 <= i <= n, on the last n slots of the
    (w, e) cell.

    The action permutes slots and multiplies by the sign character (the
    convention pinned by the top-exterior-power test).  The matrix is
    placed on demand from the orbit blocks of the cell and kept nowhere; no
    table reads it, only the tests and the layer tracer.  An empty cell
    places nothing.
    """
    if not 1 <= i <= n:
        raise ValueError(f"Eulerian index {i} outside 1..{n}")
    dim = chain_cell(a, n, w, e).dim
    if not dim:
        return SparseMatrix.zero(0, 0)
    columns: list = [None] * dim   # the orbits cover the cell
    for pos, blocks in strip(a, w, e).derive(_orbits, n):
        for j, col in zip(pos, blocks[i - 1][0]):
            columns[j] = {pos[r]: v for r, v in col.items()}
    return SparseMatrix(dim, dim, columns)


def _eigenspace_cell(s: Strip, n: int) -> dict[tuple, tuple[int, int]]:
    """{(i,): (dim, rank of b)} of the image of e^(i) on C_n of s, n >= 1,
    i = 1..n.

    With P = n! e^(i), the projectors are chain maps:  b P_n = n P_{n-1} b.
    e^(n) vanishes in degree n - 1, so at the top index the identity is
    b P_n = 0 and the rank is 0; at n = 1, where P_1 is the identity, it
    is b_1 = 0, which is also all that index 0 (the identity in degree 0,
    zero above) would assert.  One walk per index over the block columns
    of every orbit reads all three.  Column j of b P_n sums columns of b
    over the orbit of x_j, weighted by a block column; column j of
    P_{n-1} b sums block columns over the terms of b x_j.  The dimension is
    trace(P_n) / n!, the sum of the blocks' diagonals over the orbits,
    asserted a nonnegative integer before a failed identity is raised; the
    rank is that of b P_n on the pivot columns, which span im P_n.  An
    empty C_n builds nothing: both sides of the identity are maps out of the
    zero space, and P_{n-1} is still checked at degree n - 1.
    """
    cell = s.cell(n)
    if not cell.dim:
        return {(i,): (0, 0) for i in range(1, n + 1)}
    fact = math.factorial(n)
    bcols = s.boundary(n).columns
    orbits = s.derive(_orbits, n)
    # per index u of C_{n-1}: its orbit's indexes, its blocks and its column there
    low = {u: (lpos, lblocks, q) for lpos, lblocks in s.derive(_orbits, n - 1)
           for q, u in enumerate(lpos)} if n > 1 and s.cell(n - 1).dim else {}
    out = {}
    for i in range(1, n + 1):
        trace, span, commutes = 0, [], True   # span: the pivot columns of b P_n
        for pos, blocks in orbits:
            cols, pivots = blocks[i - 1]
            for q, col in enumerate(cols):
                trace += col.get(q, 0)
                acc: dict[int, int] = {}   # column pos[q] of b P_n, then of b P_n - n P_{n-1} b
                for r, v in col.items():
                    for k, bv in bcols[pos[r]].items():
                        acc[k] = acc.get(k, 0) + v * bv
                if q in pivots:
                    span.append({k: v for k, v in acc.items() if v})
                for u, bv in bcols[pos[q]].items() if i < n else ():
                    lpos, lblocks, lq = low[u]
                    for r, v in lblocks[i - 1][0][lq].items():
                        acc[lpos[r]] = acc.get(lpos[r], 0) - n * bv * v
                commutes = commutes and not any(acc.values())
        dim, rem = divmod(trace, fact)
        if rem or dim < 0:
            raise AssertionError("projector trace is not a nonnegative integer; "
                                 "the idempotent construction is broken")
        if not commutes:
            raise AssertionError(f"projector e^({i}) does not commute with b at n={n}, "
                                 f"(w,e)=({s.w},{s.e})")
        out[(i,)] = dim, rank(SparseMatrix(s.cell(n - 1).dim, len(span), span)) if i < n else 0
    return out


# -- tables -------------------------------------------------------------------


class HodgeTable(DimTable):
    """Eigenspace dimensions indexed by (degree n, weight w, index i)."""

    __slots__ = ()
    axes = ("n", "w", "i")

    def __init__(self, n_max: int, w_max: int):
        super().__init__((n, w, i) for w in range(w_max + 1) for n in range(n_max + 1)
                         for i in range(n + 1))

    def to_json_dict(self) -> dict:
        return {"entries": self.json_entries()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        return self.to_csv()


def hh_hodge_table(arg, n_max: int, w_max: int) -> HodgeTable:
    """Eigenspace decomposition of the Hochschild table.

    Dimensions of the homology of each projector-image subcomplex; the
    projectors commute with the boundary (asserted per cell), so the
    summands add up to the plain Hochschild dimensions.  The chain-map
    check reaches degree min(w + e, n_max + 1); past the symmetric-group
    cap DegreeTooLarge is raised before any cell is built.
    """
    _relative, strips = _strips(arg, n_max, w_max)
    if max((top for *_, top in strips), default=0) > MAX_SYMMETRIC_DEGREE:
        raise DegreeTooLarge(f"degree {MAX_SYMMETRIC_DEGREE + 1} "
                             f"beyond bound {MAX_SYMMETRIC_DEGREE}")
    return _table(HodgeTable(n_max, w_max), strips, _eigenspace_cell)


def hc_hodge_dual(pair: SplitNilpotentPair, n_max: int, w_max: int) -> HodgeTable:
    """Cyclic eigenspace dimensions of a dual-number pair.

    Upward recursion dim HC^(i)_n = dim HH^(i)_n - dim HC^(i-1)_{n-1}
    from the collapsed eigenspace SBI sequence; degree 0 is concentrated
    in index 0.  A negative intermediate value aborts: it means the sign
    or idempotent convention is wrong, never the data.
    """
    if not isinstance(pair, SplitNilpotentPair):
        raise TypeError("cyclic eigenspaces need a split nilpotent pair")
    if not pair.is_dual_numbers():
        raise ValueError("eigenspace recursion requires a dual-number Artin part")
    hh = hh_hodge_table(pair, n_max, w_max)
    table = HodgeTable(n_max, w_max)
    for w in range(w_max + 1):
        table.entries[(0, w, 0)] = hh.dim(0, w, 0)
        for n in range(1, n_max + 1):
            for i in range(1, n + 1):
                v = hh.dim(n, w, i) - table.dim(n - 1, w, i - 1)
                if v < 0:
                    raise NegativeDimension(
                        f"HC^({i})_{n} at weight {w} came out {v}")
                table.entries[(n, w, i)] = v
    return table


def hn_hodge_dual(pair: SplitNilpotentPair, n_max: int, w_max: int) -> HodgeTable:
    """Negative cyclic eigenspaces: the index- and degree-shifted copy
    HN^(i)_n = HC^(i-1)_{n-1}; degree 0 vanishes."""
    # degree 0 needs no HC; a negative n_max goes through to be refused
    hc = hc_hodge_dual(pair, n_max - 1 if n_max > 0 else n_max, w_max)
    table = HodgeTable(n_max, w_max)
    table.entries.update({(n + 1, w, i + 1): d for (n, w, i), d in hc.entries.items()
                          if n < n_max})
    return table

