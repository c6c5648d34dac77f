"""Normalized Hochschild and Connes complexes, and exact homology tables.

Chains are computed per bidegree (w, e): weight w and total nilpotent
degree e.  In the normalized complex every inner tensor slot holds an
augmentation-ideal basis monomial, and each such monomial has
weight + nilpotent degree >= 1, so chains vanish above homological degree
w + e.  That boundedness is what makes every homology dimension below an
exact integer rather than a truncation estimate.

Cyclic homology is the homology of Connes' complex C^lambda = C / im(1 - t),
t = (-1)^n (rotation) the signed cyclic operator - in characteristic zero
it replaces the full bicomplex.  C^lambda is built per cell: in the
normalized complex a tensor whose slot 0 is the unit lies in im(1 - t), the
rotation permutes the other tensors, and an orbit leaves one class when
its stabiliser acts by +1 and none when it acts by -1.  The boundary b^lambda
is b projected onto those classes, well defined because
b(1 - t) = (1 - t)b'.  That identity is asserted on every cell, one basis
tensor at a time, from the columns of b, the rotation and the cyclic face;
b' itself is never built.  Relative groups
for a split nilpotent pair are computed on the subcomplex of chains of
nilpotent degree e >= 1, which the splitting identifies with the kernel
complex of the quotient map.  Relative negative cyclic homology is the
degree shift HN_n = HC_{n-1}, valid for nilpotent ideals.

Every table is ``qlinalg.homology_dims`` of per-cell dimensions and cached
per-cell ranks.

``CYCLIC_SIGN_TWIST`` is a test hook: flipping it to False drops the
(-1)^n in the cyclic operator, which corrupts the convention and is
detected by the well-definedness check of b^lambda.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import GradedAlgebra, Monomial, SplitNilpotentPair
from .qlinalg import SparseMatrix, homology_dims, rank

# test hook; see module docstring
CYCLIC_SIGN_TWIST = True


class BidegreeMismatch(Exception):
    """Chain cells that should be adjacent in one bidegree are not."""


class UnboundedComplex(Exception):
    """The algebra violates the convention making bidegrees bounded."""


Tensor = tuple[Monomial, ...]


@dataclass(frozen=True)
class ChainCell:
    """Basis of the normalized n-chains in one bidegree (w, e)."""

    algebra: GradedAlgebra
    n: int
    w: int
    e: int
    basis: tuple[Tensor, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self) -> dict[Tensor, int]:
        return {t: i for i, t in enumerate(self.basis)}


def _check_bounded(a: GradedAlgebra) -> None:
    for g in a.generators:
        if g.weight == 0 and g.nilpotency is None:
            raise UnboundedComplex(
                f"generator {g.symbol!r} has weight 0 and no nilpotency; "
                "bidegrees of the normalized complex would be unbounded")


@lru_cache(maxsize=None)
def chain_cell(a: GradedAlgebra, n: int, w: int, e: int) -> ChainCell:
    """Normalized chain basis: a_0 (x) abar_1 (x) ... (x) abar_n at (w, e)."""
    _check_bounded(a)
    if n < 0 or w < 0 or e < 0:
        return ChainCell(a, n, w, e, ())
    tensors: list[Tensor] = []

    def inner(slot: int, rw: int, re_: int, acc: list[Monomial]):
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
                for m in a.bigraded_basis(ww, ee):
                    inner(slot + 1, rw - ww, re_ - ee, acc + [m])

    for w0 in range(w + 1):
        for e0 in range(e + 1):
            for m0 in a.bigraded_basis(w0, e0):
                inner(0, w - w0, e - e0, [m0])
    tensors.sort()
    return ChainCell(a, n, w, e, tuple(tensors))


def hochschild_boundary(cell_n: ChainCell, cell_n_minus_1: ChainCell) -> SparseMatrix:
    """Matrix of the boundary b : C_n -> C_{n-1} in one bidegree.

    b is the alternating sum of adjacent multiplications, the last term
    cyclically multiplying the final slot into slot zero.  Inner products
    that hit a relation are dropped; products of augmentation-ideal
    monomials can never be the unit, so normalization needs no extra
    identifications here.
    """
    if (cell_n.algebra, cell_n.w, cell_n.e) != \
            (cell_n_minus_1.algebra, cell_n_minus_1.w, cell_n_minus_1.e):
        raise BidegreeMismatch("cells disagree in algebra or bidegree")
    if cell_n.n != cell_n_minus_1.n + 1:
        raise BidegreeMismatch(
            f"homological degrees {cell_n.n} and {cell_n_minus_1.n} are not adjacent")
    a = cell_n.algebra
    n = cell_n.n
    idx = cell_n_minus_1.index()
    entries: dict[tuple[int, int], int] = {}

    def add(t: Tensor, col: int, sign: int):
        i = idx[t]
        key = (i, col)
        v = entries.get(key, 0) + sign
        if v == 0:
            entries.pop(key, None)
        else:
            entries[key] = v

    for col, t in enumerate(cell_n.basis):
        for i in range(n):
            prod = a.mul(t[i], t[i + 1])
            if prod is None:
                continue
            add(t[:i] + (prod,) + t[i + 2:], col, -1 if i % 2 else 1)
        prod = a.mul(t[n], t[0])
        if prod is not None:
            add((prod,) + t[1:n], col, -1 if n % 2 else 1)
    return SparseMatrix(cell_n_minus_1.dim, cell_n.dim, entries)


@lru_cache(maxsize=None)
def _boundary(a: GradedAlgebra, n: int, w: int, e: int) -> SparseMatrix:
    return hochschild_boundary(chain_cell(a, n, w, e), chain_cell(a, n - 1, w, e))


def _rotation(cell: ChainCell, twist: bool) -> dict[int, tuple[int, int]]:
    """The cyclic operator t on the cell as {j: (i, s)}, meaning t x_j = s x_i.

    t = (-1)^n rot, rot(x_0 (x) ... (x) x_n) = x_n (x) x_0 (x) ... (x) x_{n-1},
    the sign being dropped when ``twist`` is False.  A tensor whose slot 0
    is the unit rotates to one with the unit in an inner slot, which is zero
    in the normalized complex, so it has no entry.  At n = 0, t is the
    identity.
    """
    n = cell.n
    if n == 0:
        return {j: (j, 1) for j in range(cell.dim)}
    idx = cell.index()
    one = cell.algebra.one
    sign = (-1 if n % 2 else 1) if twist else 1
    return {j: (idx[(x[-1],) + x[:-1]], sign)
            for j, x in enumerate(cell.basis) if x[0] != one}


@lru_cache(maxsize=None)
def _rank_boundary(a: GradedAlgebra, n: int, w: int, e: int) -> int:
    return rank(_boundary(a, n, w, e))


@lru_cache(maxsize=None)
def _assert_square_zero(a: GradedAlgebra, n: int, w: int, e: int) -> bool:
    if n >= 2 and not (_boundary(a, n - 1, w, e) @ _boundary(a, n, w, e)).is_zero():
        raise AssertionError(f"b o b != 0 at n={n}, (w,e)=({w},{e})")
    return True


def _e_range(a: GradedAlgebra, e_min: int, n_max: int) -> range:
    per_slot = a.max_nildeg()
    if per_slot == 0:
        return range(e_min, 1) if e_min == 0 else range(0)
    return range(e_min, per_slot * (n_max + 1) + 1)


# -- tables ------------------------------------------------------------------


@dataclass
class HomologyTable:
    """Exact dimensions indexed by (homological degree, weight)."""

    kind: str                     # "HH" | "HC" | "HN"
    relative: bool
    n_max: int
    w_max: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def dim(self, n: int, w: int) -> int:
        return self.entries.get((n, w), 0)

    def column(self, w: int) -> list[int]:
        return [self.dim(n, w) for n in range(self.n_max + 1)]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "relative": self.relative,
            "entries": [{"n": n, "w": w, "dim": self.entries[(n, w)]}
                        for (n, w) in sorted(self.entries)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_csv(self) -> str:
        lines = ["n,w,dim"]
        lines += [f"{n},{w},{self.entries[(n, w)]}" for (n, w) in sorted(self.entries)]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        head = self.kind + (" (relative)" if self.relative else "")
        width = max(4, max((len(str(v)) for v in self.entries.values()), default=1) + 1)
        lines = [head, "n\\w " + "".join(f"{w:>{width}}" for w in range(self.w_max + 1))]
        for n in range(self.n_max + 1):
            lines.append(f"{n:>3} " + "".join(
                f"{self.dim(n, w):>{width}}" for w in range(self.w_max + 1)))
        return "\n".join(lines) + "\n"


def _resolve(arg) -> tuple[GradedAlgebra, int, bool]:
    """(algebra, minimal nilpotent degree, relative?) for a table argument."""
    if isinstance(arg, SplitNilpotentPair):
        return arg.total, 1, True
    if isinstance(arg, GradedAlgebra):
        return arg, 0, False
    raise TypeError(f"expected GradedAlgebra or SplitNilpotentPair, got {type(arg)!r}")


def hh_table(arg, n_max: int, w_max: int) -> HomologyTable:
    """Hochschild homology dimensions for n <= n_max, w <= w_max.

    A SplitNilpotentPair argument yields the relative table (chains of
    nilpotent degree >= 1, which the splitting identifies with the kernel
    complex); a GradedAlgebra yields the absolute table.
    """
    if n_max < 0 or w_max < 0:
        raise ValueError("bounds must be nonnegative")
    a, e_min, relative = _resolve(arg)
    table = HomologyTable("HH", relative, n_max, w_max)
    for w in range(w_max + 1):
        for n in range(n_max + 1):
            table.entries[(n, w)] = 0
        for e in _e_range(a, e_min, n_max):
            top = min(w + e, n_max + 1)
            for n in range(top + 1):
                _assert_square_zero(a, n, w, e)
            dims = {n: chain_cell(a, n, w, e).dim for n in range(min(w + e, n_max) + 1)}
            ranks = {n: _rank_boundary(a, n, w, e) for n in range(1, top + 1)}
            for n, h in homology_dims(dims, ranks).items():
                table.entries[(n, w)] += h
    return table


@lru_cache(maxsize=None)
def _check_quotient_well_defined(a: GradedAlgebra, n: int, w: int, e: int,
                                 twist: bool) -> bool:
    """b maps im(1-t) into im(1-t).

    Verified through the exact identity b(1-t) = (1-t)b', with
    b' = b - (-1)^n d_n the boundary without its cyclic face
    d_n(x) = x_n x_0 (x) x_1 (x) ... (x) x_{n-1}; the identity exhibits
    every b(1-t)x as an explicit element of im(1-t).  It is checked per
    basis tensor x of C_n in the rearranged form

        t(bx) - b(tx) + (-1)^n (1-t)(d_n x) = 0,

    read off the columns of b and the rotation, so b' is never built.
    """
    cell = chain_cell(a, n, w, e)
    below = chain_cell(a, n - 1, w, e)
    rot, rot_below = _rotation(cell, twist), _rotation(below, twist)
    idx = below.index()
    cols: dict[int, list[tuple[int, int]]] = {}
    for (i, j), v in _boundary(a, n, w, e).entries.items():
        cols.setdefault(j, []).append((i, v))
    face_sign = -1 if n % 2 else 1
    for j, x in enumerate(cell.basis):
        # t(bx)
        terms = [(rot_below[i][0], rot_below[i][1] * v)
                 for i, v in cols.get(j, ()) if i in rot_below]
        # -b(tx)
        if j in rot:
            k, s = rot[j]
            terms += [(i, -s * v) for i, v in cols.get(k, ())]
        # (-1)^n (1-t)(d_n x)
        prod = a.mul(x[n], x[0])
        if prod is not None:
            i = idx[(prod,) + x[1:n]]
            terms.append((i, face_sign))
            if i in rot_below:
                k, s = rot_below[i]
                terms.append((k, -s * face_sign))
        acc: dict[int, int] = {}
        for i, v in terms:
            acc[i] = acc.get(i, 0) + v
        if any(acc.values()):
            raise AssertionError(
                f"b does not preserve im(1-t) at n={n}, (w,e)=({w},{e})")
    return True


@dataclass(frozen=True)
class LambdaCell:
    """Connes' complex C^lambda_n = C_n / im(1 - t) in one bidegree.

    ``reps`` holds the chain-cell index of one representative per surviving
    rotation orbit; ``coords`` sends the chain-cell index of every tensor
    with a nonzero class to (its orbit's position in ``reps``, sign), the
    class being sign times the representative's class.
    """

    reps: tuple[int, ...]
    coords: dict[int, tuple[int, int]]

    @property
    def dim(self) -> int:
        return len(self.reps)


def lambda_cell(a: GradedAlgebra, n: int, w: int, e: int, twist: bool) -> LambdaCell:
    """Basis of C^lambda_n at (w, e): rotation orbits whose stabiliser acts by +1.

    With x_k = rot^k(x), (1 - t)x_k = x_k - s x_{k+1} for the sign s of t,
    so the class of x_k is s^k times that of x; an orbit of size m closes
    up consistently iff s^m = 1.  Tensors with the unit in slot 0 are their
    own image under 1 - t and have no class.  At n = 0, t is the identity
    and the whole cell survives.
    """
    rot = _rotation(chain_cell(a, n, w, e), twist)
    reps: list[int] = []
    coords: dict[int, tuple[int, int]] = {}
    seen: set[int] = set()
    for j in rot:
        if j in seen:
            continue
        orbit = [(j, 1)]
        i, c = rot[j]
        while i != j:
            orbit.append((i, c))
            i, s = rot[i]
            c *= s
        seen.update(k for k, _ in orbit)
        if c == 1:
            for k, ck in orbit:
                coords[k] = (len(reps), ck)
            reps.append(j)
    return LambdaCell(tuple(reps), coords)


@lru_cache(maxsize=None)
def _rank_lambda_boundary(a: GradedAlgebra, n: int, w: int, e: int, twist: bool) -> int:
    """Rank of b^lambda : C^lambda_n -> C^lambda_{n-1}, projected from b."""
    src = lambda_cell(a, n, w, e, twist)
    dst = lambda_cell(a, n - 1, w, e, twist)
    col_of = {j: k for k, j in enumerate(src.reps)}
    entries: dict[tuple[int, int], int] = {}
    for (i, j), v in _boundary(a, n, w, e).entries.items():
        k = col_of.get(j)
        hit = dst.coords.get(i)
        if k is None or hit is None:
            continue
        r, s = hit
        key = (r, k)
        nv = entries.get(key, 0) + s * v
        if nv == 0:
            entries.pop(key, None)
        else:
            entries[key] = nv
    return rank(SparseMatrix(dst.dim, src.dim, entries))


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
    if n_max < 0 or w_max < 0:
        raise ValueError("bounds must be nonnegative")
    a, e_min, relative = _resolve(arg)
    twist = CYCLIC_SIGN_TWIST
    table = HomologyTable("HC", relative, n_max, w_max)
    for w in range(w_max + 1):
        for n in range(n_max + 1):
            table.entries[(n, w)] = 0
        for e in _e_range(a, e_min, n_max):
            top = min(w + e, n_max + 1)
            for n in range(1, top + 1):
                _assert_square_zero(a, n, w, e)
                _check_quotient_well_defined(a, n, w, e, twist)
            dims = {n: lambda_cell(a, n, w, e, twist).dim
                    for n in range(min(w + e, n_max) + 1)}
            ranks = {n: _rank_lambda_boundary(a, n, w, e, twist) for n in range(1, top + 1)}
            for n, h in homology_dims(dims, ranks).items():
                table.entries[(n, w)] += h
    return table


def hn_rel_table(pair: SplitNilpotentPair, n_max: int, w_max: int) -> HomologyTable:
    """Relative negative cyclic homology via the nilpotent degree shift.

    HN_n of a split nilpotent pair equals HC_{n-1} of the same pair;
    HN_0 = HC_{-1} = 0.  Only the relative nilpotent form is computed:
    the absolute theory is not bounded per bidegree.
    """
    if not isinstance(pair, SplitNilpotentPair):
        raise TypeError("relative negative cyclic homology needs a split nilpotent pair")
    hc = hc_table(pair, max(n_max - 1, 0), w_max)
    table = HomologyTable("HN", True, n_max, w_max)
    for w in range(w_max + 1):
        table.entries[(0, w)] = 0
        for n in range(1, n_max + 1):
            table.entries[(n, w)] = hc.dim(n - 1, w)
    return table


# -- consistency reports ---------------------------------------------------


@dataclass
class CellCheck:
    n: int
    w: int
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class SbiReport:
    """Per-cell record of dim HH_n = dim HC_n + dim HC_{n-1} (relative)."""

    cells: list[CellCheck]

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.cells)

    def failures(self) -> list[CellCheck]:
        return [c for c in self.cells if not c.ok]


def sbi_degeneration_check(pair: SplitNilpotentPair, n_max: int, w_max: int) -> SbiReport:
    """Check the degenerate SBI identity for a dual-number pair.

    The periodicity map vanishes on the relative theory of a square-zero
    extension, so the long exact sequence splits into short ones and
    dim HH_n = dim HC_n + dim HC_{n-1} cell by cell.
    """
    if not pair.is_dual_numbers():
        raise ValueError("degeneration check requires a dual-number Artin part")
    hh = hh_table(pair, n_max, w_max)
    hc = hc_table(pair, n_max, w_max)
    cells = []
    for w in range(w_max + 1):
        for n in range(n_max + 1):
            rhs = hc.dim(n, w) + (hc.dim(n - 1, w) if n >= 1 else 0)
            cells.append(CellCheck(n, w, hh.dim(n, w), rhs))
    return SbiReport(cells)


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
