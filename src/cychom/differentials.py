"""Kaehler differentials of monomial-presented algebras and function fields.

For an algebra A = Q[g_1..g_k]/(monomial relations) the module of
p-forms is presented as the free A-module on wedge monomials
dg_{i1} ^ ... ^ dg_{ip} modulo the relation rows d(m) ^ W, one for each
declared relation monomial m, each wedge W of p-1 generators, and each
basis monomial coefficient.  Graded dimensions come out of an exact rank
computation on that presentation.  Differentials are absolute (over Q);
for Q-algebras these agree with the differentials over Z.

Weights: d(g) carries the weight of g, so x^k dx sits in weight k+1 and
the differential of a weight-0 nilpotent generator stays in weight 0.

Over a function field Q(x_1..x_k) extended by nilpotent generators the
one-forms are a free module on the dx_i with function-field coefficients
(smoothness of the generic point) plus dt_j generators for the nilpotent
part, reduced modulo the rows d(m) for the declared Artin relations
(e.g. e * de = 0 when e^2 = 0, in characteristic zero).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import (FunctionField, FunctionFieldElement, GradedAlgebra,
                      Monomial, PolyDict)
from .qlinalg import SparseMatrix, rank, rref

Wedge = tuple[int, ...]  # strictly increasing generator indices


def _relation_vectors(a: GradedAlgebra) -> list[Monomial]:
    """Declared relation monomials plus the power relations g**nilpotency."""
    rels = list(a.monomial_relations)
    for i, g in enumerate(a.generators):
        if g.nilpotency is not None:
            rels.append(tuple(g.nilpotency if j == i else 0
                              for j in range(a.ngens)))
    return rels


def _d_of_monomial(a: GradedAlgebra, m: Monomial) -> list[tuple[int, Monomial, int]]:
    """d(m) as a list of (coefficient, monomial, generator index) triples.

    Terms whose coefficient monomial reduces to zero are dropped; the
    remaining ones all share the weight of m.
    """
    out = []
    for i, e in enumerate(m):
        if e == 0:
            continue
        coeff_mon = m[:i] + (e - 1,) + m[i + 1:]
        if not a.is_zero_monomial(coeff_mon):
            out.append((e, coeff_mon, i))
    return out


def wedge_weight(a: GradedAlgebra, w: Wedge) -> int:
    return sum(a.generators[i].weight for i in w)


def _wedges(a: GradedAlgebra, p: int) -> list[Wedge]:
    return list(itertools.combinations(range(a.ngens), p))


def _insert_wedge(i: int, wedge: Wedge) -> tuple[int, Wedge] | None:
    """dg_i ^ wedge as (sign, sorted wedge); None if i already occurs."""
    if i in wedge:
        return None
    pos = sum(1 for j in wedge if j < i)
    sign = -1 if pos % 2 else 1
    return sign, tuple(sorted(wedge + (i,)))


@dataclass(frozen=True)
class OmegaModule:
    """Presentation of the p-forms of a monomial-presented algebra."""

    base: GradedAlgebra
    p: int

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("negative exterior degree")

    def free_basis(self, w: int) -> list[tuple[Monomial, Wedge]]:
        """Weight-w basis of the ambient free module, before relations."""
        out = []
        for wedge in _wedges(self.base, self.p):
            ww = wedge_weight(self.base, wedge)
            if ww > w:
                continue
            for m in self.base.graded_basis(w - ww):
                out.append((m, wedge))
        return out

    def relation_rows(self, w: int) -> list[dict[tuple[Monomial, Wedge], int]]:
        if self.p == 0:
            return []  # Omega^0 is the algebra itself
        a = self.base
        rows = []
        for rel in _relation_vectors(a):
            drel = _d_of_monomial(a, rel)
            rel_w = a.weight(rel)
            for wedge in _wedges(a, self.p - 1):
                ww = wedge_weight(a, wedge) + rel_w
                if ww > w:
                    continue
                for mu in a.graded_basis(w - ww):
                    row: dict[tuple[Monomial, Wedge], int] = {}
                    for coef, mon, i in drel:
                        ins = _insert_wedge(i, wedge)
                        if ins is None:
                            continue
                        sign, full = ins
                        prod = a.mul(mu, mon)
                        if prod is None:
                            continue
                        key = (prod, full)
                        row[key] = row.get(key, 0) + sign * coef
                    row = {k: v for k, v in row.items() if v != 0}
                    if row:
                        rows.append(row)
        return rows

    def graded_dim(self, w: int) -> int:
        free = self.free_basis(w)
        if not free:
            return 0
        index = {b: i for i, b in enumerate(free)}
        rows = self.relation_rows(w)
        entries = {}
        for r, row in enumerate(rows):
            for key, v in row.items():
                entries[(r, index[key])] = v
        return len(free) - rank(SparseMatrix(len(rows), len(free), entries))


@lru_cache(maxsize=None)
def omega_dims(base: GradedAlgebra, p: int, w: int) -> int:
    """dim over Q of the weight-w piece of the p-forms of ``base``."""
    if p < 0 or w < 0:
        raise ValueError("p and w must be nonnegative")
    if p > base.ngens:
        return 0
    return OmegaModule(base, p).graded_dim(w)


@dataclass(frozen=True)
class OmegaBundle:
    """Direct sum of form modules in degrees descending by two."""

    base: GradedAlgebra
    degrees: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.degrees, self.degrees[1:]):
            if b != a - 2:
                raise ValueError("bundle degrees must descend in steps of 2")

    def graded_dim(self, w: int) -> int:
        return sum(omega_dims(self.base, p, w) for p in self.degrees)


def hc_bundle(p_top: int, base: GradedAlgebra) -> OmegaBundle:
    """Omega^{p_top} + Omega^{p_top-2} + ..., ending at Omega^1 or Omega^0.

    This is the bundle whose graded dimensions equal relative cyclic
    homology of the dual-number extension of a regular base in degree
    p_top.
    """
    if p_top < 0:
        raise ValueError("negative top degree")
    return OmegaBundle(base, tuple(range(p_top, -1, -2)))


def hn_bundle(m: int, j: int, base: GradedAlgebra) -> OmegaBundle:
    """The bundle with top degree m + j - 1, descending by two.

    Its local cohomology in degree j gives the supported relative negative
    cyclic homology of the dual-number thickening at a codimension-j point.
    An empty bundle (m + j = 0) is legal.
    """
    top = m + j - 1
    if top < 0:
        return OmegaBundle(base, ())
    return OmegaBundle(base, tuple(range(top, -1, -2)))


# -- differential forms ------------------------------------------------------
#
# Forms over a function field with nilpotent generators: free on the
# d(symbol) with FunctionFieldElement coefficients, reduced modulo the
# differentials of the Artin relations.  The reduction rules are obtained
# once per field from the reduced row echelon form of the Q-linear span of
# mu * d(rel) inside the (Artin monomial) x (d generator) coordinates.


class OneForm:
    """A 1-form over a FunctionField, kept in normal form."""

    __slots__ = ("ff", "coeffs")

    def __init__(self, ff: FunctionField, coeffs: dict[str, FunctionFieldElement]):
        self.ff = ff
        reduced = _reduce_artin_components(ff, coeffs)
        self.coeffs = {s: c for s, c in reduced.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "OneForm") -> "OneForm":
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out[s] + c if s in out else c
        return OneForm(self.ff, out)

    def __sub__(self, other: "OneForm") -> "OneForm":
        return self + (-other)

    def __neg__(self) -> "OneForm":
        # negation keeps each coefficient and the form in normal form
        out = OneForm.__new__(OneForm)
        out.ff = self.ff
        out.coeffs = {s: -c for s, c in self.coeffs.items()}
        return out

    def scale(self, f: FunctionFieldElement) -> "OneForm":
        return OneForm(self.ff, {s: f * c for s, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, OneForm):
            return NotImplemented
        return (self - other).is_zero()

    def coefficient(self, symbol: str) -> FunctionFieldElement:
        return self.coeffs.get(symbol, self.ff.zero())

    def strip_dual(self) -> "OneForm":
        """Divide out the square-zero generator of a dual-number field.

        Every coefficient of a relative form over Q(x..)[e] with e^2 = 0 is
        e times a coordinate function, and the de component vanishes; the
        result is the corresponding form over the coordinate field.
        """
        art = self.ff.artin
        if art is None or not art.is_dual_numbers():
            raise ValueError("strip_dual needs a dual-number extension")
        sym = art.algebra.generators[0].symbol
        base = FunctionField(self.ff.coords)
        ei = self.ff.symbols.index(sym)
        out: dict[str, FunctionFieldElement] = {}
        for s, c in self.coeffs.items():
            if s == sym:
                raise ValueError("form has a surviving d(e) component")
            num: PolyDict = {}
            for m, v in c.num.items():
                if m[ei] != 1:
                    raise ValueError("coefficient is not divisible by e")
                num[m[:ei] + m[ei + 1:]] = v
            den = {m[:ei] + m[ei + 1:]: v for m, v in c.den.items()}
            out[s] = FunctionFieldElement(base, num, den)
        return OneForm(base, out)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for s in self.ff.symbols:
            if s not in self.coeffs:
                continue
            c = self.coeffs[s]
            cs = str(c)
            if cs == "1":
                parts.append(f"d{s}")
            elif cs == "-1":
                parts.append(f"-d{s}")
            elif ("+" in cs[1:] or "-" in cs[1:] or "/" in cs) and not (
                    cs.startswith("(") and cs.endswith(")")):
                parts.append(f"({cs})*d{s}")
            else:
                parts.append(f"{cs}*d{s}")
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    __repr__ = __str__

    def to_coeff_strings(self) -> dict[str, str]:
        return {f"d{s}": str(c) for s, c in sorted(self.coeffs.items())}


def zero_form(ff: FunctionField) -> OneForm:
    return OneForm(ff, {})


def d(f: FunctionFieldElement) -> OneForm:
    """Exterior derivative of a function-field element."""
    ff = f.ff
    return OneForm(ff, {s: f.derivative_wrt(s) for s in ff.symbols})


def dlog(f: FunctionFieldElement) -> OneForm:
    """d(f)/f for a unit f."""
    return d(f).scale(f.invert())


@lru_cache(maxsize=None)
def _artin_reduction_rules(ff: FunctionField):
    """RREF reduction rules for the d(nilpotent) components.

    Coordinates are pairs (Artin basis monomial, Artin generator index),
    ordered by monomial key and then generator; rows are mu * d(rel) over
    all Artin basis monomials mu and declared relations (including the
    nilpotency powers).  Returns a pivot -> row map read off
    ``qlinalg.rref``; rows are Q-linear, so the same elimination applies
    verbatim to function-field coefficients.
    """
    art = ff.artin
    if art is None:
        return {}
    a = art.algebra
    rows = []
    for rel in _relation_vectors(a):
        drel = _d_of_monomial(a, rel)
        for mu in art.basis:
            row: dict[tuple[Monomial, int], int] = {}
            for coef, mon, i in drel:
                prod = a.mul(mu, mon)
                if prod is None:
                    continue
                key = (prod, i)
                row[key] = row.get(key, 0) + coef
            rows.append(row)
    keys = sorted({k for row in rows for k in row},
                  key=lambda k: (a.monomial_key(k[0]), k[1]))
    pos = {k: i for i, k in enumerate(keys)}
    mat = SparseMatrix(len(rows), len(keys), {
        (r, pos[k]): v for r, row in enumerate(rows) for k, v in row.items() if v})
    return {keys[pc]: {keys[j]: v for j, v in er.items() if j != pc}
            for pc, er in rref(mat)}


def _reduce_artin_components(ff: FunctionField, coeffs: dict[str, FunctionFieldElement]):
    art = ff.artin
    if art is None:
        return coeffs
    rules = _artin_reduction_rules(ff)
    if not rules:
        return coeffs
    nc = ff.ncoords
    art_syms = [g.symbol for g in art.algebra.generators]
    # split the d(t_j) coefficients into (Artin monomial) slices
    slices: dict[tuple[Monomial, int], FunctionFieldElement] = {}
    out = {s: c for s, c in coeffs.items() if s not in art_syms}
    for j, s in enumerate(art_syms):
        c = coeffs.get(s)
        if c is None or c.is_zero():
            continue
        by_art: dict[Monomial, PolyDict] = {}
        for m, v in c.num.items():
            art_m = m[nc:]
            coord_m = m[:nc] + (0,) * len(art_m)
            by_art.setdefault(art_m, {})[coord_m] = v
        for art_m, num in by_art.items():
            slices[(art_m, j)] = FunctionFieldElement(ff, num, c.den)
    # eliminate pivots
    changed = True
    while changed:
        changed = False
        for key in sorted(slices, key=lambda k: (art.algebra.monomial_key(k[0]), k[1])):
            if key in rules:
                coef = slices.pop(key)
                if not coef.is_zero():
                    for k2, v in rules[key].items():
                        prev = slices.get(k2, ff.zero())
                        slices[k2] = prev - coef * ff.const(v)
                changed = True
                break
    # reassemble
    acc: dict[int, FunctionFieldElement] = {}
    for (art_m, j), coef in slices.items():
        if coef.is_zero():
            continue
        mono_poly: PolyDict = {(0,) * nc + art_m: Fraction(1)}
        term = coef * FunctionFieldElement(ff, mono_poly, ff.p_const(1))
        acc[j] = acc[j] + term if j in acc else term
    for j, c in acc.items():
        out[art_syms[j]] = c
    return out
