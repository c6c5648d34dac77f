"""Eulerian idempotents and the Hodge (Adams eigenspace) decomposition.

The rational symmetric-group algebra Q[S_n] contains orthogonal
idempotents e^(1)..e^(n) defined by the descent generating function

    sum_i e^(i) x^i  =  sum_{sigma in S_n} binom(x - des(sigma) + n - 1, n) sigma.

Their coefficients lie in the lattice (1/n!) Z, so the module holds each
one as the integer row n! e^(i) over the permutations of S_n in
lexicographic order, and every identity is checked on those rows or on
the integer matrices they give: e^(i) e^(j) = delta_ij e^(i) reads
(n! e^(i)) (n! e^(j)) = delta_ij n! (n! e^(i)).

Acting on the last n slots of a normalized Hochschild chain
a_0 (x) abar_1 (x) ... (x) abar_n - with the sign character, so that the
top idempotent is the antisymmetrizer - they commute with the boundary
and split Hochschild homology of a commutative algebra into eigenspaces
of the Adams operations psi^k = sum_i k^i e^(i).  In degree n the index
runs over 1..n; degree 0 is index 0 alone.  For P = n! e^(i) in degree n
the chain-map identity is b P_n = n P_{n-1} b, asserted exactly on every
cell; the dimension of an eigenspace is trace(P_n) / n! and the rank of
b on it the rank of b P_n.

For dual-number pairs the periodicity map vanishes on the relative
theory and the eigenspace long exact sequence collapses to

    0 -> HC^(i-1)_{n-1} -> HH^(i)_n -> HC^(i)_n -> 0,

so cyclic eigenspace dimensions follow by the upward recursion
dim HC^(i)_n = dim HH^(i)_n - dim HC^(i-1)_{n-1} with HC_0 concentrated
in index 0, and negative cyclic eigenspaces are the shifted copy
HN^(i)_n = HC^(i-1)_{n-1}.

``SIGNED_SLOT_ACTION`` is a test hook: turning the sign character off
corrupts the convention and is caught by the pinning test that matches
the image of e^(n) against the top exterior power.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .algebra import GradedAlgebra, SplitNilpotentPair
# hh_table stays bound here: perfbench/tracer.py wraps it in this namespace
from .cyclic import _boundary, _e_range, _resolve, chain_cell, hh_table  # noqa: F401
from .qlinalg import SparseMatrix, homology_dims, rank

# test hook; see module docstring
SIGNED_SLOT_ACTION = True

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
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return -1 if inv % 2 else 1


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def _binomial_poly(shift: int, n: int) -> list[Fraction]:
    """Coefficients of binom(x + shift, n) as a polynomial in x, from x^0."""
    coeffs = [Fraction(1)]
    for j in range(n):
        root = shift - j
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] += c * root
        coeffs = nxt
    fact = math.factorial(n)
    return [c / fact for c in coeffs]


@lru_cache(maxsize=None)
def _perm_index(n: int):
    perms = sorted(itertools.permutations(range(1, n + 1)))
    return perms, {p: k for k, p in enumerate(perms)}


@lru_cache(maxsize=None)
def eulerian_idempotents(n: int) -> tuple[tuple[int, ...], ...]:
    """n! e^(1)..n! e^(n) as integer rows over the permutations of ``_perm_index``."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_SYMMETRIC_DEGREE:
        raise DegreeTooLarge(f"degree {n} beyond bound {MAX_SYMMETRIC_DEGREE}")
    fact = math.factorial(n)
    # binom(x - d + n - 1, n) depends on sigma only through d = des(sigma)
    by_descent = []
    for d in range(n):
        scaled = [c * fact for c in _binomial_poly(n - 1 - d, n)]
        if any(c.denominator != 1 for c in scaled):
            raise AssertionError("idempotent coefficients exceed the 1/n! lattice")
        by_descent.append([int(c) for c in scaled])
    polys = [by_descent[_descents(p)] for p in _perm_index(n)[0]]
    return tuple(tuple(poly[i] for poly in polys) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _composition_table(n: int):
    perms, idx = _perm_index(n)
    return [[idx[compose(p, q)] for q in perms] for p in perms]


def verify_idempotent_identities(n: int) -> bool:
    """Exact check that e^(1)..e^(n) are orthogonal idempotents summing to 1.

    Convolution of the n!-scaled integer rows against a precomputed
    composition table; AssertionError on any failed identity.
    """
    perms, idx = _perm_index(n)
    comp = _composition_table(n)
    fact = math.factorial(n)
    vecs = eulerian_idempotents(n)
    id_pos = idx[tuple(range(1, n + 1))]
    totals = [sum(col) for col in zip(*vecs)]
    if totals != [fact if k == id_pos else 0 for k in range(len(perms))]:
        raise AssertionError(f"idempotents do not sum to the identity at n={n}")

    def conv(u, w):
        out = [0] * len(perms)
        for a, ca in enumerate(u):
            if ca:
                row = comp[a]
                for b, cb in enumerate(w):
                    if cb:
                        out[row[b]] += ca * cb
        return out

    zero = [0] * len(perms)
    for i, vi in enumerate(vecs):
        for j, vj in enumerate(vecs):
            got = conv(vi, vj)
            expect = [fact * x for x in vi] if i == j else zero
            if got != expect:
                raise AssertionError(f"e^({i + 1}) * e^({j + 1}) wrong at n={n}")
    return True


# -- action on chains --------------------------------------------------------


def _act(p_inv: Perm, t):
    """Slot permutation: new slot i holds old slot p^{-1}(i)."""
    return (t[0],) + tuple(t[p_inv[i - 1]] for i in range(1, len(p_inv) + 1))


@lru_cache(maxsize=None)
def projector_matrix(a: GradedAlgebra, n: int, w: int, e: int, i: int,
                     signed: bool) -> SparseMatrix:
    """Integer matrix of n! e^(i), 1 <= i <= n, on the last n slots of the
    (w, e) cell.

    The action permutes slots and multiplies by the sign character when
    ``signed`` (the convention pinned by the top-exterior-power test).
    """
    if not 1 <= i <= n:
        raise ValueError(f"Eulerian index {i} outside 1..{n}")
    cell = chain_cell(a, n, w, e)
    idx = cell.index()
    entries: dict[tuple[int, int], int] = {}
    for p, c in zip(_perm_index(n)[0], eulerian_idempotents(n)[i - 1]):
        if not c:
            continue
        if signed:
            c *= perm_sign(p)
        p_inv = inverse(p)
        for j, t in enumerate(cell.basis):
            key = (idx[_act(p_inv, t)], j)
            entries[key] = entries.get(key, 0) + c
    return SparseMatrix(cell.dim, cell.dim, {k: v for k, v in entries.items() if v})


@lru_cache(maxsize=None)
def _eigenspace_cell(a: GradedAlgebra, n: int, w: int, e: int,
                     signed: bool) -> tuple[tuple[int, int], ...]:
    """(dim, rank of b) of the image of e^(i) in degree n >= 1, for i = 1..n.

    With P = n! e^(i), the projectors are chain maps:  b P_n = n P_{n-1} b.
    e^(n) vanishes in degree n - 1, so at the top index the identity is
    b P_n = 0 and the rank is 0; at n = 1, where P_1 is the identity, it
    is b_1 = 0, which is also all that index 0 (the identity in degree 0,
    zero above) would assert.  The dimension is trace(P_n) / n!, asserted
    a nonnegative integer, and the rank is rank(b P_n).  An empty C_n
    builds nothing: both sides of the identity are maps out of the zero
    space, and P_{n-1} is still checked at degree n - 1.
    """
    if not chain_cell(a, n, w, e).dim:
        return ((0, 0),) * n
    b = _boundary(a, n, w, e)
    fact = math.factorial(n)
    out = []
    for i in range(1, n + 1):
        p = projector_matrix(a, n, w, e, i, signed)
        dim, rem = divmod(sum(v for (r, c), v in p.entries.items() if r == c), fact)
        if rem or dim < 0:
            raise AssertionError("projector trace is not a nonnegative integer; "
                                 "the idempotent construction is broken")
        lhs = b @ p
        rhs = {} if i == n else {
            k: n * v for k, v in
            (projector_matrix(a, n - 1, w, e, i, signed) @ b).entries.items()}
        if lhs.entries != rhs:
            raise AssertionError(
                f"projector e^({i}) does not commute with b at n={n}, "
                f"(w,e)=({w},{e})")
        out.append((dim, rank(lhs) if i < n else 0))
    return tuple(out)


# -- tables -------------------------------------------------------------------


@dataclass
class HodgeTable:
    """Eigenspace dimensions indexed by (degree n, weight w, index i)."""

    kind: str
    relative: bool
    n_max: int
    w_max: int
    entries: dict[tuple[int, int, int], int] = field(default_factory=dict)

    def dim(self, n: int, w: int, i: int) -> int:
        return self.entries.get((n, w, i), 0)

    def marginal(self, n: int, w: int) -> int:
        return sum(v for (nn, ww, _i), v in self.entries.items()
                   if nn == n and ww == w)

    def to_json_dict(self) -> dict:
        return {"entries": [{"n": n, "w": w, "i": i, "dim": self.entries[(n, w, i)]}
                            for (n, w, i) in sorted(self.entries)]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def support_outliers(self) -> list[tuple[int, int, int]]:
        """Nonzero cells outside both printed eigenspace windows.

        The two window conventions in circulation differ only at
        i = n/2 (cyclic) resp. the shifted analogue; a nonzero entry with
        i < floor(n/2) or i > n falls outside both and is flagged.
        """
        out = []
        for (n, w, i), v in sorted(self.entries.items()):
            if v and (i < n // 2 or i > n):
                out.append((n, w, i))
        return out


def hh_hodge_table(arg, n_max: int, w_max: int) -> HodgeTable:
    """Eigenspace decomposition of the Hochschild table.

    Dimensions of the homology of each projector-image subcomplex; the
    projectors commute with the boundary (asserted per cell), so the
    summands add up to the plain Hochschild dimensions.  The chain-map
    check reaches degree min(w + e, n_max + 1); past the symmetric-group
    cap DegreeTooLarge is raised before any cell is built.
    """
    if n_max < 0 or w_max < 0:
        raise ValueError("bounds must be nonnegative")
    a, e_min, relative = _resolve(arg)
    es = _e_range(a, e_min, n_max)
    if es and min(w_max + es[-1], n_max + 1) > MAX_SYMMETRIC_DEGREE:
        raise DegreeTooLarge(f"degree {MAX_SYMMETRIC_DEGREE + 1} "
                             f"beyond bound {MAX_SYMMETRIC_DEGREE}")
    signed = SIGNED_SLOT_ACTION
    table = HodgeTable("HH", relative, n_max, w_max)
    for w in range(w_max + 1):
        for n in range(n_max + 1):
            for i in range(n + 1):
                table.entries[(n, w, i)] = 0
        for e in es:
            top = min(w + e, n_max + 1)
            cells = {n: _eigenspace_cell(a, n, w, e, signed) for n in range(1, top + 1)}
            # index 0 is degree 0 alone, all of it a cycle since b_1 = 0
            table.entries[(0, w, 0)] += chain_cell(a, 0, w, e).dim
            for i in range(1, min(w + e, n_max) + 1):
                dims = {n: cells[n][i - 1][0] for n in range(i, min(w + e, n_max) + 1)}
                ranks = {n: cells[n][i - 1][1] for n in range(i, top + 1)}
                for n, h in homology_dims(dims, ranks).items():
                    table.entries[(n, w, i)] += h
    return table


def hc_hodge_dual(pair: SplitNilpotentPair, n_max: int, w_max: int) -> HodgeTable:
    """Cyclic eigenspace dimensions of a dual-number pair.

    Upward recursion dim HC^(i)_n = dim HH^(i)_n - dim HC^(i-1)_{n-1}
    from the collapsed eigenspace SBI sequence; degree 0 is concentrated
    in index 0.  A negative intermediate value aborts: it means the sign
    or idempotent convention is wrong, never the data.
    """
    if not pair.is_dual_numbers():
        raise ValueError("eigenspace recursion requires a dual-number Artin part")
    hh = hh_hodge_table(pair, n_max, w_max)
    table = HodgeTable("HC", True, n_max, w_max)
    for w in range(w_max + 1):
        table.entries[(0, w, 0)] = hh.dim(0, w, 0)
        for n in range(1, n_max + 1):
            for i in range(0, n + 1):
                if i == 0:
                    table.entries[(n, w, i)] = 0
                    continue
                v = hh.dim(n, w, i) - table.dim(n - 1, w, i - 1)
                if v < 0:
                    raise NegativeDimension(
                        f"HC^({i})_{n} at weight {w} came out {v}")
                table.entries[(n, w, i)] = v
    return table


def hn_hodge_dual(pair: SplitNilpotentPair, n_max: int, w_max: int) -> HodgeTable:
    """Negative cyclic eigenspaces: the index- and degree-shifted copy
    HN^(i)_n = HC^(i-1)_{n-1}; degree 0 vanishes."""
    hc = hc_hodge_dual(pair, max(n_max - 1, 0), w_max)
    table = HodgeTable("HN", True, n_max, w_max)
    for w in range(w_max + 1):
        for n in range(n_max + 1):
            for i in range(n + 1):
                table.entries[(n, w, i)] = (
                    0 if n == 0 or i == 0 else hc.dim(n - 1, w, i - 1))
    return table

