"""Kaehler differentials of monomial-presented algebras and function fields.

For an algebra A = Q[g_1..g_k]/(monomial relations) the module of
p-forms is presented as the free A-module on wedge monomials
dg_{i1} ^ ... ^ dg_{ip} modulo the relation rows d(m) ^ W, one for each
relation monomial m (declared, or a nilpotency power), each wedge W of p-1
generators, and each basis monomial coefficient.  Graded dimensions come out of an exact rank
computation on that presentation.  Differentials are absolute (over Q);
for Q-algebras these agree with the differentials over Z.

Weights: d(g) carries the weight of g, so x^k dx sits in weight k+1 and
the differential of a weight-0 nilpotent generator stays in weight 0.

Over a function field Q(x_1..x_k) extended by nilpotent generators the
one-forms are a free module on the dx_i with function-field coefficients
(smoothness of the generic point) plus dt_j generators for the nilpotent
part, reduced modulo the rows d(x^D) for the monomials x^D that the Artin
relations kill (e.g. e * de = 0 when e^2 = 0, in characteristic zero).  Each
numerator term is reduced by its own row, which ``is_zero_monomial`` gives,
so a field with a large nilpotency costs what its terms cost.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .algebra import FunctionField, FunctionFieldElement, GradedAlgebra, Monomial
from .qlinalg import SparseMatrix, rank

Wedge = tuple[int, ...]  # strictly increasing generator indices


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


class OmegaModule:
    """Presentation of the p-forms of a monomial-presented algebra."""

    __slots__ = ("base", "p")

    def __init__(self, base: GradedAlgebra, p: int):
        if p < 0:
            raise ValueError("negative exterior degree")
        self.base, self.p = base, p

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
        """The distinct nonzero rows d(x^D) ^ W of weight w, over the
        (p-1)-wedges W and the products D = mu * rel of a basis monomial mu
        and a relation rel of ``GradedAlgebra.relations``.

        mu * d(rel) ^ W is d(x^D) ^ W on its nonzero terms: the term at
        (x^(D - e_i), dg_i ^ W) survives only if x^(D - e_i) is nonzero,
        which forces mu_i = 0, as rel divides x^(D - e_i) otherwise, so its
        coefficient rel_i is D_i.  Rows of equal D are equal, and each
        generator i gives one coordinate, so no term cancels.  Two wedges
        may still give one row, which is kept once.
        """
        if self.p == 0:
            return []  # Omega^0 is the algebra itself
        a = self.base
        rels = [(rel, a.weight(rel)) for rel in a.relations]
        rows = {}
        for wedge in _wedges(a, self.p - 1):
            ww = wedge_weight(a, wedge)
            products = dict.fromkeys(tuple(map(sum, zip(mu, rel)))
                                     for rel, rel_w in rels
                                     for mu in a.graded_basis(w - ww - rel_w))
            for big in products:
                row = {}
                for coef, mon, i in _d_of_monomial(a, big):
                    ins = _insert_wedge(i, wedge)
                    if ins is not None:
                        sign, full = ins
                        row[mon, full] = sign * coef
                if row:
                    rows.setdefault(frozenset(row.items()), row)
        return list(rows.values())

    def graded_dim(self, w: int) -> int:
        free = self.free_basis(w)
        if not free:
            return 0
        index = {b: i for i, b in enumerate(free)}
        # the transpose of the relation matrix, one relation per column: same rank
        rows = [{index[key]: v for key, v in row.items()} for row in self.relation_rows(w)]
        return len(free) - rank(SparseMatrix(len(free), len(rows), rows))


@lru_cache(maxsize=None)
def omega_dims(base: GradedAlgebra, p: int, w: int) -> int:
    """dim over Q of the weight-w piece of the p-forms of ``base``."""
    if p < 0 or w < 0:
        raise ValueError("p and w must be nonnegative")
    if p > base.ngens:
        return 0
    return OmegaModule(base, p).graded_dim(w)


class OmegaBundle:
    """Direct sum of form modules in degrees descending by two."""

    __slots__ = ("base", "degrees")

    def __init__(self, base: GradedAlgebra, degrees: tuple[int, ...]):
        for a, b in zip(degrees, degrees[1:]):
            if b != a - 2:
                raise ValueError("bundle degrees must descend in steps of 2")
        self.base, self.degrees = base, degrees

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
    return hc_bundle(m + j - 1, base) if m + j >= 1 else OmegaBundle(base, ())


# -- differential forms ------------------------------------------------------
#
# Forms over a function field with nilpotent generators: free on the
# d(symbol) with FunctionFieldElement coefficients, reduced modulo the
# differentials of the Artin relations.  Each numerator term x^mu of a
# d(t_j) coefficient is reduced by the one row d(x^D), D = mu + e_j, that
# can hold it, read off ``GradedAlgebra.is_zero_monomial``: no rule table is
# built, and nothing lists the Artin basis.


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

    def strip_dual(self) -> "OneForm":
        """Divide out the square-zero generator of a dual-number field.

        Every coefficient of a relative form over Q(x..)[e] with e^2 = 0 is
        e times a coordinate function (``artin_coefficient``), and the de
        component vanishes; the result is the form over the coordinate field.
        """
        art = self.ff.artin
        if art is None or not art.is_dual_numbers():
            raise ValueError("strip_dual needs a dual-number extension")
        if art.algebra.generators[0].symbol in self.coeffs:
            raise ValueError("form has a surviving d(e) component")
        base = FunctionField(self.ff.coords)
        return OneForm(base, {s: c.artin_coefficient((1,), base)
                              for s, c in self.coeffs.items()})

    def __str__(self) -> str:
        return self.text(self.to_coeff_strings())

    def text(self, coeff_strings: dict[str, str]) -> str:
        """The form as printed, from its ``to_coeff_strings``."""
        if self.is_zero():
            return "0"
        parts = []
        for s in self.ff.symbols:
            cs = coeff_strings.get(f"d{s}")
            if cs is None:
                continue
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


def _reduce_artin_components(ff: FunctionField, coeffs: dict[str, FunctionFieldElement]):
    """Reduce each numerator term x^mu dt_j of the d(t_j) coefficients by its own row.

    Coordinates are pairs (Artin monomial, Artin generator index), ordered
    by ``monomial_key`` and then generator.  The relations are the weight-0
    rows of Omega^1 of the Artin part (``OmegaModule.relation_rows``): one
    row d(x^D) per product D = mu * rel of a basis monomial and a relation,
    whose coordinates are (D - e_k, k) with value D_k for each k with
    D_k > 0 and x^(D - e_k) nonzero (``_d_of_monomial``).  A coordinate
    (mu, j) names its D = mu + e_j, so rows of distinct D share no
    coordinate, and a numerator term x^mu dt_j (x^mu nonzero) lies in at
    most one row:
    - if x^D is nonzero, no row holds the term, and it stays;
    - otherwise a relation rel divides D but not mu, so rel_j > 0 and
      D - rel divides mu: D is such a product, and its row holds the term.
      Every coordinate of the row has nilpotent degree |D| - 1, and D - e_k
      is lexicographically least for the least k, so the row's pivot is its
      least k.  A term that is not its row's pivot stays.  The pivot term c
      leaves, and moves to -(D_k / D_j) c x^(D - e_k) dt_k for every other
      coordinate k of the row.
    The targets are pivots of no row, so one pass leaves no pivot term
    behind, and the result is the reduced normal form.  Rows are Q-linear,
    so the same moves apply verbatim to function-field coefficients.  Each
    term costs a divisibility test per relation, whatever the nilpotency.
    """
    art = ff.artin
    if art is None:
        return coeffs
    a, nc = art.algebra, ff.ncoords
    art_syms = [g.symbol for g in a.generators]
    out = dict(coeffs)
    # the terms moved from dt_j to dt_k over one denominator D_j * den
    moved: dict[tuple[int, int, int], dict] = {}   # (j, D_j, k) -> numerator
    for j, s in enumerate(art_syms):
        c = coeffs.get(s)
        if c is None:
            continue
        kept = {}
        for m, v in c.num.items():
            mu = m[nc:]
            big = mu[:j] + (mu[j] + 1,) + mu[j + 1:]
            row = _d_of_monomial(a, big) if a.is_zero_monomial(big) else ()
            if not row or row[0][2] != j:   # in no row, or not its pivot
                kept[m] = v
                continue
            for dk, mu2, k in row[1:]:
                moved.setdefault((j, big[j], k), {})[m[:nc] + mu2] = -dk * v
        if len(kept) < len(c.num):
            out[s] = FunctionFieldElement(ff, kept, c.den)
    for (j, dj, k), num in moved.items():
        den = {m: dj * dv for m, dv in coeffs[art_syms[j]].den.items()}
        term = FunctionFieldElement(ff, num, den)
        s2 = art_syms[k]
        out[s2] = out[s2] + term if s2 in out else term
    return out
