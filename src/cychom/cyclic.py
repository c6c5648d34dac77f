"""Normalized Hochschild and Connes complexes, and exact homology tables.

Chains are computed per bidegree (w, e): weight w and total nilpotent
degree e.  In the normalized complex every inner tensor slot holds an
augmentation-ideal basis monomial, and each such monomial has
weight + nilpotent degree >= 1, so chains vanish above homological degree
w + e.  That boundedness is what makes every homology dimension below an
exact integer rather than a truncation estimate.

What is computed for one bidegree (w, e) lives on its ``Strip``, and
``strip``, the one cache, holds the MAX_STRIPS most recently used.  Every
normal-form monomial has one integer code, its exponent tuple read as
big-endian bytes: codes sort as exponent tuples do, the unit is 0, and the
product of two monomials is the sum of their codes, as no byte of an
in-window exponent sum carries.  A strip lists the codes of weight <= w and
nilpotent degree <= e; a basis tensor is a tuple of codes, and a product of
two of its slots is kept when the sum is one of the strip's codes.  The
inner n slots of C_n at (w, e) behind a slot 0 of bidegree (w0, e0) are
the tensors of C_{n-1} at (w - w0, e - e0) whose slot 0 is not the unit,
so each chain cell is read off the cells of smaller strips.  Per degree n
the strip builds once, and keeps, the chain cell with its index, b_n
(column by column, one column per basis tensor), the lambda-cell and what
is derived from them; every builder takes the strip and n.

Cyclic homology is the homology of Connes' complex C^lambda = C / im(1 - t),
t = (-1)^n (rotation) the signed cyclic operator - in characteristic zero
it replaces the full bicomplex.  ``Strip.lambda_cell`` holds t and
C^lambda per cell: in the normalized complex a tensor whose slot 0 is the
unit lies in im(1 - t), the rotation permutes the other tensors, and an
orbit leaves one class when its stabiliser acts by +1 and none when it
acts by -1.  The boundary b^lambda is b projected onto those classes, well
defined because b(1 - t) = (1 - t)b'.  Two walks over the columns of b per
cell use it: ``_lambda_dim_rank`` walks every column and asserts that
identity, one basis tensor at a time, from the t of both lambda-cells and
the cyclic face (b' itself is never built); ``_lambda_boundary`` then walks
the columns of the orbit representatives alone and projects them, which
gives the columns of b^lambda.  ``qlinalg.composes_to_zero`` asserts
b o b = 0 on every cell, so no table forms a matrix product.  Relative
groups for a split nilpotent pair are computed on the subcomplex of chains
of nilpotent degree e >= 1, which the splitting identifies with the kernel
complex of the quotient map.  Relative negative cyclic homology is the
degree shift HN_n = HC_{n-1}, valid for nilpotent ideals.

HH, HC and the Hodge eigenspaces are one walk (``_table``) over the strips
that ``_strips`` lists: per degree it checks b o b = 0, reads the table's
cell (each complex's dimension and boundary rank, by key suffix, kept on
the strip) and sums ``qlinalg.homology_dims`` of each complex.
A ``HomologyTable`` is a ``qlinalg.DimTable`` keyed by (n, w): zero-filled
over its window, and printed as its head above the n-by-w grid.

Each boundary of HH and of Connes' complex is ranked compressed, by the
boundary below it (the compression half of Bauer, Kerber and Reininghaus,
"Clear and compress: computing persistent homology in chunks", 2014).  If
the columns J of b_{n-1} are a basis of its image, then
C_{n-1} = ker b_{n-1} (+) span(e_J), so dropping the coordinates J is
injective on ker b_{n-1}, which holds im b_n as b o b = 0: b_n has the rank
of b_n without the rows J.  The pivot columns of an exact elimination are
such a J, so ``_pivots`` ranks b_n without the pivot columns of b_{n-1}
and keeps its own on the strip for degree n + 1.  The same holds for
b^lambda, a differential of the quotient complex once b(1-t) = (1-t)b'
holds; the walk asserts both before every compressed rank.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import lru_cache

from .algebra import GradedAlgebra, SplitNilpotentPair
from .qlinalg import DimTable, SparseMatrix, composes_to_zero, homology_dims, rank


class UnboundedComplex(Exception):
    """The algebra violates the convention making bidegrees bounded."""


Tensor = tuple[int, ...]   # monomial codes
MAX_STRIPS = 256   # strips held by ``strip``
EXPONENT_MAX = 127   # largest exponent a strip may hold: two sum within a byte


class ChainCell:
    """Basis of the normalized n-chains of one strip, and its index.

    Each basis tensor is a tuple of monomial codes, sorted; as codes follow
    exponent-tuple order, so does the basis.  ``index`` sends each tensor
    to its position in ``basis``.
    """

    __slots__ = ("basis", "index")

    def __init__(self, basis: tuple[Tensor, ...], index: dict[Tensor, int]):
        self.basis, self.index = basis, index

    @property
    def dim(self) -> int:
        return len(self.basis)


class Strip:
    """One (w, e) strip: the codes of its monomials and what is derived from them.

    ``monomials`` lists (code, weight, nilpotent degree) of every normal-form
    monomial of weight <= w and nilpotent degree <= e, ascending, so the
    unit comes first; ``codes`` is the set of their codes.  A strip whose
    window or nilpotency allows an exponent past EXPONENT_MAX, where the
    sum of two could carry into the next byte, is refused before any
    enumeration.  ``derived`` holds what ``derive`` built, and goes with
    the strip.
    """

    __slots__ = ("algebra", "w", "e", "monomials", "codes", "derived")

    def __init__(self, a: GradedAlgebra, w: int, e: int):
        _check_window(a, w, e)
        self.algebra, self.w, self.e = a, w, e
        self.monomials = sorted((int.from_bytes(bytes(m), "big"), ww, ee)
                                for ww in range(w + 1) for ee in range(e + 1)
                                for m in a.bigraded_basis(ww, ee))
        self.codes = {c for c, _w, _e in self.monomials}
        self.derived: dict[tuple, object] = {}

    def derive(self, build, n: int, *args):
        """``build(self, n, *args)``, built on first use and kept; the one
        extra argument any builder takes is the boundary that ``_pivots``
        ranks."""
        key = (build, n, *args)
        if key not in self.derived:
            self.derived[key] = build(self, n, *args)
        return self.derived[key]

    def cell(self, n: int) -> ChainCell:
        return self.derive(_chain_cell, n)

    def boundary(self, n: int) -> SparseMatrix:   # b : C_n -> C_{n-1}
        # by its global name, so that a rebinding of it is what builds b
        return self.derive(hochschild_boundary, n)

    def lambda_cell(self, n: int) -> LambdaCell:
        return self.derive(_lambda_cell, n)


def _check_window(a: GradedAlgebra, w: int, e: int) -> None:
    """Refuse a (w, e) strip of ``a`` that is unbounded, or in which some
    generator's ``max_exponent`` passes EXPONENT_MAX."""
    for g in a.generators:
        if g.weight == 0 and g.nilpotency is None:
            raise UnboundedComplex(
                f"generator {g.symbol!r} has weight 0 and no nilpotency; "
                "bidegrees of the normalized complex would be unbounded")
        if (top := g.max_exponent(w, e)) > EXPONENT_MAX:
            raise ValueError(
                f"generator {g.symbol!r} reaches exponent {top} in the (w, e) = "
                f"({w}, {e}) strip; monomial codes hold exponents up to {EXPONENT_MAX}")


@lru_cache(maxsize=MAX_STRIPS)
def strip(a: GradedAlgebra, w: int, e: int) -> Strip:
    """The (w, e) strip of ``a``; evicted strips are rebuilt identically."""
    return Strip(a, w, e)


def chain_cell(a: GradedAlgebra, n: int, w: int, e: int) -> ChainCell:
    """Normalized chain basis: a_0 (x) abar_1 (x) ... (x) abar_n at (w, e)."""
    return strip(a, w, e).cell(n)


def _chain_cell(s: Strip, n: int) -> ChainCell:
    """C_n of s: per slot-0 code m, in order, m before each tensor of
    C_{n-1} on the strip (w - w(m), e - e(m)) whose slot 0 is not the unit
    (code 0), which sorts the basis by construction.  Every such slot has
    weight + nilpotent degree >= 1, so a remainder below n holds none, and
    its strip is not asked."""
    w, e = s.w, s.e
    if n < 0 or w < 0 or e < 0:
        return ChainCell((), {})
    if n == 0:
        basis = tuple((c,) for c, ww, ee in s.monomials if ww == w and ee == e)
    else:
        out: list[Tensor] = []
        for c, ww, ee in s.monomials:
            if (w - ww) + (e - ee) < n:
                continue
            tail = strip(s.algebra, w - ww, e - ee).cell(n - 1).basis
            out += [(c,) + t for t in tail[bisect_left(tail, (1,)):]]
        basis = tuple(out)
    return ChainCell(basis, {t: i for i, t in enumerate(basis)})


def hochschild_boundary(s: Strip, n: int) -> SparseMatrix:
    """Matrix of the boundary b : C_n -> C_{n-1} of the strip s.

    b is the alternating sum of adjacent multiplications, the last term
    cyclically multiplying the final slot into slot zero; each product is
    the sum of two codes.  Products that hit a relation are not codes of
    the strip and are dropped; products of augmentation-ideal monomials can
    never be the unit, so normalization needs no extra identifications here.

    Faces i < j < n of a tensor t differ in slot i, t_i t_{i+1} against t_i
    (an inner slot's code is not 0), so each is stored by assignment.  The
    cyclic face puts t_n t_0 in slot 0, where faces i >= 1 keep t_0, so it
    meets face 0 alone, when every inner slot is equal (entry 2 at even n,
    0 at odd n): it alone is summed, a cancelled entry dropped.  A column
    that ends empty (every b_1 column over a commutative algebra does) is
    stored as a fresh dict, smaller than one emptied by deletions.
    """
    src, dst, codes = s.cell(n), s.cell(n - 1), s.codes
    idx, columns = dst.index, []
    sign = [-1 if i % 2 else 1 for i in range(n + 1)]
    for t in src.basis:
        col: dict[int, int] = {}
        for i in range(n):
            p = t[i] + t[i + 1]
            if p in codes:
                col[idx[t[:i] + (p,) + t[i + 2:]]] = sign[i]
        p = t[n] + t[0]
        if p in codes:
            r = idx[(p,) + t[1:n]]
            if v := col.get(r, 0) + sign[n]:
                col[r] = v
            else:
                del col[r]
        columns.append(col or {})
    return SparseMatrix(dst.dim, src.dim, columns)


def _pivots(s: Strip, n: int, boundary) -> tuple[int, ...]:
    """Pivot columns of ``boundary(s, n)``, ranked without the rows
    that the pivot columns of degree n - 1 name (none at n = 1).

    Those columns of the boundary below span its image, so dropping their
    coordinates is injective on its kernel, which holds the image of this
    boundary once b o b = 0: the rank is unchanged, and these pivot columns
    span this boundary's image in turn.  No check runs here.  They are kept
    as a tuple, a fraction of the size of a set.
    """
    skip = set(s.derive(_pivots, n - 1, boundary)) if n > 1 else ()
    pivots: list[int] = []
    rank(boundary(s, n), skip, pivots)
    return tuple(pivots)


def _dim_rank(s: Strip, n: int) -> dict[tuple, tuple[int, int]]:
    """{(): (dim C_n, rank of b : C_n -> C_{n-1})}."""
    return {(): (s.cell(n).dim, len(s.derive(_pivots, n, Strip.boundary)))}


def _assert_square_zero(s: Strip, n: int) -> None:
    """b o b = 0 on C_n, read off the columns of b_n and b_{n-1}."""
    if n >= 2 and not composes_to_zero(s.boundary(n), s.boundary(n - 1)):
        raise AssertionError(f"b o b != 0 at n={n}, (w,e)=({s.w},{s.e})")


def _strips(arg, n_max: int, w_max: int) -> tuple[bool, list[tuple]]:
    """(relative?, one (a, w, e, m, top) per bidegree a table visits).

    A pair's strips are those of its total algebra with e >= 1.  Chains
    vanish above degree w + e, so a table reads dimensions up to
    m = min(w + e, n_max) and ranks boundaries up to top = min(w + e, n_max + 1).
    """
    if n_max < 0 or w_max < 0:
        raise ValueError("bounds must be nonnegative")
    if isinstance(arg, SplitNilpotentPair):
        a, e_min, relative = arg.total, 1, True
    elif isinstance(arg, GradedAlgebra):
        a, e_min, relative = arg, 0, False
    else:
        raise TypeError(f"expected GradedAlgebra or SplitNilpotentPair, got {type(arg)!r}")
    # a generator with g^(EXPONENT_MAX + 1) != 0 makes max_nildeg > EXPONENT_MAX, so
    # the walk reaches (0, EXPONENT_MAX + 1), the first strip whose check fails:
    # refuse that strip before max_nildeg counts up to the nilpotency
    big = EXPONENT_MAX + 1
    if any(g.weight == 0 and not a.is_zero_monomial((0,) * k + (big,) + (0,) * (a.ngens - k - 1))
           for k, g in enumerate(a.generators)):
        _check_window(a, 0, big)
    # every slot holds nilpotent degree <= max_nildeg, and there are n + 1 slots
    e_max = a.max_nildeg() * (n_max + 1)
    strips = [(a, w, e, min(w + e, n_max), min(w + e, n_max + 1))
              for w in range(w_max + 1) for e in range(e_min, e_max + 1)]
    for _a, w, e, _m, _top in strips:   # refuse the window before any strip is built
        _check_window(a, w, e)
    return relative, strips


# -- tables ------------------------------------------------------------------


class HomologyTable(DimTable):
    """Exact dimensions indexed by (homological degree, weight)."""

    __slots__ = ("kind", "relative", "n_max", "w_max")   # kind: HH, HC or HN
    axes = ("n", "w")

    def __init__(self, kind: str, relative: bool, n_max: int, w_max: int, entries=None):
        self.kind, self.relative, self.n_max, self.w_max = kind, relative, n_max, w_max
        super().__init__(((n, w) for w in range(w_max + 1) for n in range(n_max + 1)), entries)

    def column(self, w: int) -> list[int]:
        return [self.dim(n, w) for n in range(self.n_max + 1)]

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "relative": self.relative, "entries": self.json_entries()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        head = self.kind + (" (relative)" if self.relative else "")
        return head + "\n" + self.grid(range(self.n_max + 1), range(self.w_max + 1))


def _table(table: DimTable, strips: list[tuple], cell) -> DimTable:
    """The one strip walk, summing homology into ``table``: ``cell(s, n)``
    maps the key suffix of each complex on strip s to (dim, rank of the
    boundary out of) its degree n >= 1, kept on s, and b o b = 0 is checked
    on C_n before it.

    Degree 0 is all of C_0 under the suffix of zeros (t and e^(0) are the
    identity there).
    """
    zero = (0,) * (len(table.axes) - 2)
    for a, w, e, m, top in strips:
        s = strip(a, w, e)
        dims, ranks = {zero: {0: s.cell(0).dim}}, {}
        for n in range(1, top + 1):
            s.derive(_assert_square_zero, n)
            for suffix, (d, r) in s.derive(cell, n).items():
                if n <= m:
                    dims.setdefault(suffix, {})[n] = d
                ranks.setdefault(suffix, {})[n] = r
        for suffix, ds in dims.items():
            for n, h in homology_dims(ds, ranks.get(suffix, {})).items():
                table.entries[(n, w, *suffix)] += h
    return table


def hh_table(arg, n_max: int, w_max: int) -> HomologyTable:
    """Hochschild homology dimensions for n <= n_max, w <= w_max.

    A SplitNilpotentPair argument yields the relative table (chains of
    nilpotent degree >= 1, which the splitting identifies with the kernel
    complex); a GradedAlgebra yields the absolute table.
    """
    relative, strips = _strips(arg, n_max, w_max)
    return _table(HomologyTable("HH", relative, n_max, w_max), strips, _dim_rank)


class LambdaCell:
    """Connes' complex C^lambda_n = C_n / im(1 - t) in one bidegree.

    t is one sign times a map of chain-cell indexes: t x_j = sign x_rot[j],
    and t x_j = 0 where rot[j] is None.  ``reps`` holds the chain-cell
    index of one representative per surviving rotation orbit; ``coords[k]``
    is (the position in ``reps`` of the orbit of x_k, c) when x_k has the
    nonzero class c times the representative's, c = +-1, and None when
    x_k has no class.  Both are tuples over the chain cell, and the two
    coordinates of an orbit are shared, since every lambda-cell is kept on
    its strip.
    """

    __slots__ = ("sign", "rot", "reps", "coords")

    def __init__(self, sign: int, rot: tuple, reps: tuple[int, ...], coords: tuple):
        self.sign, self.rot, self.reps, self.coords = sign, rot, reps, coords

    @property
    def dim(self) -> int:
        return len(self.reps)


def _lambda_cell(s: Strip, n: int) -> LambdaCell:
    """Basis of C^lambda_n on the strip s: rotation orbits whose stabiliser
    acts by +1.

    The cyclic operator is t = (-1)^n rot, with
    rot(x_0 (x) ... (x) x_n) = x_n (x) x_0 (x) ... (x) x_{n-1} (Loday,
    Cyclic Homology, 2.1).  A tensor whose slot 0 is the unit rotates to
    one with the unit in an inner slot, which is zero in the normalized
    complex, so t has no entry for it: it is its own image under 1 - t and
    has no class.  At n = 0, t is the identity and the whole cell survives.

    With x_k = rot^k(x), (1 - t)x_k = x_k - s x_{k+1} for the sign s of t,
    so the class of x_k is s^k times that of x; an orbit of size m closes
    up consistently iff s^m = 1.
    """
    cell = s.cell(n)
    idx = cell.index
    sign = -1 if n % 2 else 1
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


def _lambda_dim_rank(s: Strip, n: int) -> dict[tuple, tuple[int, int]]:
    """{(): (dim C^lambda_n, rank of b^lambda : C^lambda_n -> C^lambda_{n-1})},
    once b(im(1-t)) in im(1-t) is checked on the cell.

    The second check is the exact identity b(1-t) = (1-t)b', with
    b' = b - (-1)^n d_n the boundary without its cyclic face
    d_n(x) = x_n x_0 (x) x_1 (x) ... (x) x_{n-1}; the identity exhibits
    every b(1-t)x as an explicit element of im(1-t).  It is checked per
    basis tensor x of C_n in the rearranged form

        t(bx) - b(tx) + (-1)^n (1-t)(d_n x) = 0,

    read off the columns of b and the cyclic operators t of the
    lambda-cells of degrees n and n - 1, so b' is never built.  b^lambda
    (``_lambda_boundary``) is then ranked on the rows that the pivot
    columns of b^lambda_{n-1} leave, which reads those pivots and runs no
    check of degree n - 1.
    """
    cell, codes, idx = s.cell(n), s.codes, s.cell(n - 1).index
    src, dst = s.lambda_cell(n), s.lambda_cell(n - 1)
    cols = s.boundary(n).columns
    face_sign = -1 if n % 2 else 1
    for j, x in enumerate(cell.basis):
        acc: dict[int, int] = {}
        # t(bx)
        for i, v in cols[j].items():
            k = dst.rot[i]
            if k is not None:
                acc[k] = acc.get(k, 0) + dst.sign * v
        # -b(tx)
        k = src.rot[j]
        if k is not None:
            for i, v in cols[k].items():
                acc[i] = acc.get(i, 0) - src.sign * v
        # (-1)^n (1-t)(d_n x)
        p = x[n] + x[0]
        if p in codes:
            i = idx[(p,) + x[1:n]]
            acc[i] = acc.get(i, 0) + face_sign
            k = dst.rot[i]
            if k is not None:
                acc[k] = acc.get(k, 0) - dst.sign * face_sign
        if any(acc.values()):
            raise AssertionError(
                f"b does not preserve im(1-t) at n={n}, (w,e)=({s.w},{s.e})")
    return {(): (src.dim, len(s.derive(_pivots, n, _lambda_boundary)))}


def _lambda_boundary(s: Strip, n: int) -> SparseMatrix:
    """b^lambda : C^lambda_n -> C^lambda_{n-1}, the columns of b at the
    representatives of C^lambda_n projected onto the classes of
    C^lambda_{n-1}; well defined once ``_lambda_dim_rank`` has checked the
    cell."""
    src, dst = s.lambda_cell(n), s.lambda_cell(n - 1)
    cols = s.boundary(n).columns
    columns = []
    for j in src.reps:
        col: dict[int, int] = {}
        for i, v in cols[j].items():
            hit = dst.coords[i]
            if hit is not None:
                r, c = hit
                col[r] = col.get(r, 0) + c * v
        columns.append({r: v for r, v in col.items() if v})
    return SparseMatrix(dst.dim, src.dim, columns)


def hc_table(arg, n_max: int, w_max: int) -> HomologyTable:
    """Cyclic homology dimensions from Connes' complex C^lambda.

    Relative tables (pair arguments) are cyclic homology of the pair.
    Absolute tables are the homology of the normalized C^lambda, which is
    the reduced theory together with the unit class in degree 0:
    it agrees with full cyclic homology in every positive weight, and in
    weight 0 it omits exactly the ground-field periodicity classes (one
    copy of Q in each even degree >= 2).  Those classes cancel in every
    relative or split-exactness comparison, so all consistency checks in
    this package are unaffected.
    """
    relative, strips = _strips(arg, n_max, w_max)
    return _table(HomologyTable("HC", relative, n_max, w_max), strips, _lambda_dim_rank)


def hn_rel_table(pair: SplitNilpotentPair, n_max: int, w_max: int) -> HomologyTable:
    """Relative negative cyclic homology via the nilpotent degree shift.

    HN_n of a split nilpotent pair equals HC_{n-1} of the same pair;
    HN_0 = HC_{-1} = 0.  Only the relative nilpotent form is computed:
    the absolute theory is not bounded per bidegree.
    """
    if not isinstance(pair, SplitNilpotentPair):
        raise TypeError("relative negative cyclic homology needs a split nilpotent pair")
    # HN_0 needs no HC; a negative n_max goes through for hc_table to refuse
    hc = hc_table(pair, n_max - 1 if n_max > 0 else n_max, w_max)
    return HomologyTable("HN", True, n_max, w_max,
                         {(n + 1, w): d for (n, w), d in hc.entries.items() if n < n_max})


# -- consistency reports ---------------------------------------------------


class CellCheck:
    __slots__ = ("n", "w", "lhs", "rhs")

    def __init__(self, n: int, w: int, lhs: int, rhs: int):
        self.n, self.w, self.lhs, self.rhs = n, w, lhs, rhs

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def sbi_degeneration_check(pair: SplitNilpotentPair, n_max: int,
                           w_max: int) -> list[CellCheck]:
    """dim HH_n = dim HC_n + dim HC_{n-1} (relative), cell by cell.

    The periodicity map vanishes on the relative theory of a square-zero
    extension, so the long exact sequence splits into short ones.
    """
    if not pair.is_dual_numbers():
        raise ValueError("degeneration check requires a dual-number Artin part")
    hh = hh_table(pair, n_max, w_max)
    hc = hc_table(pair, n_max, w_max)
    return [CellCheck(n, w, hh.dim(n, w),
                      hc.dim(n, w) + (hc.dim(n - 1, w) if n >= 1 else 0))
            for w in range(w_max + 1) for n in range(n_max + 1)]


def split_exactness_check(pair: SplitNilpotentPair, n_max: int, w_max: int,
                          kind: str = "HH") -> list[CellCheck]:
    """dim(augmented) = dim(absolute) + dim(relative), cell by cell."""
    build = hh_table if kind == "HH" else hc_table
    augmented = build(pair.total, n_max, w_max)
    absolute = build(pair.base, n_max, w_max)
    relative = build(pair, n_max, w_max)
    return [CellCheck(n, w, augmented.dim(n, w),
                      absolute.dim(n, w) + relative.dim(n, w))
            for w in range(w_max + 1) for n in range(n_max + 1)]
