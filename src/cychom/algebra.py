"""Weight-graded commutative Q-algebras presented by monomial relations.

An algebra here is generated by named symbols, each carrying a weight
(coordinate generators default to weight 1; nilpotent "Artin" generators
have weight 0 and a declared nilpotency order), modulo monomial relations
only.  Normal forms are therefore computed by exponent truncation: a
monomial is zero exactly when one of the algebra's ``relations`` divides
it, a declared relation monomial or a power g**nilpotency(g) of a
generator g.  No Groebner bases are needed, and every graded piece is a
finite set of normal-form monomials.  A divisor of a nonzero monomial is
nonzero, so the nonzero monomials are closed under division.

The module also provides Artinian local algebras (nilpotent generators
only), split nilpotent pairs (R tensor A, R tensor m) with their canonical
splitting, and exact arithmetic in function fields Q(x_1..x_k) extended by
the nilpotent generators, which is what the Steinberg-symbol tangent map
works over.  Function-field elements are fractions of integer polynomials
(`cychom.intpoly.IntPoly`) in a canonical reduced form; all arithmetic is
over Z, and a printed coefficient c/lc is reduced by an integer gcd.

Monomials are exponent tuples over the generator list; the monomial order
used for bases, leading terms and printing is graded lexicographic, with
ties broken by generator declaration order.  Generators, algebras, Artin
parts, pairs and function fields are plain values, equal and hashed by
their fields within one class, so the caches of the package key on them.
Spec files give every number as a JSON integer.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from operator import attrgetter, ge

from .intpoly import IntPoly, _add, _glex, _mul, _scale, _sub, heu_gcd


class NameCollision(Exception):
    """Generator symbol clash when combining algebras."""


class DivisionByZero(ZeroDivisionError):
    """Inversion of a function-field element with vanishing constant part."""


_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

Monomial = tuple[int, ...]


class _Value:
    """Equality and hash by the fields that ``_fields`` reads, within one class.

    The hash is kept in ``_hash`` on first use; an instance built without
    ``__init__`` has the slot unset until then too.
    """

    __slots__ = ("_hash",)

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is type(self)
                                 and self._fields(self) == other._fields(other))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(self._fields(self))
            return h


class Generator(_Value):
    __slots__ = ("symbol", "weight", "nilpotency")  # g**nilpotency == 0, or None
    _fields = attrgetter(*__slots__)

    def __init__(self, symbol: str, weight: int = 1, nilpotency: int | None = None):
        if not _IDENT.match(symbol):
            raise ValueError(f"generator symbol {symbol!r} is not an identifier")
        if weight < 0:
            raise ValueError("negative weight")
        if nilpotency is not None and nilpotency < 2:
            raise ValueError("nilpotency order must be at least 2")
        if weight == 0 and nilpotency is None:
            raise ValueError(
                f"weight-0 generator {symbol!r} must be nilpotent, "
                "otherwise graded pieces are infinite dimensional")
        self.symbol, self.weight, self.nilpotency = symbol, weight, nilpotency

    def max_exponent(self, w: int, e: int) -> int:
        """Largest exponent of this generator in a monomial of weight <= w and
        nilpotent degree <= e: the range the enumerator and ``cyclic`` read."""
        top = e if self.weight == 0 else w // self.weight
        return top if self.nilpotency is None else min(top, self.nilpotency - 1)


class GradedAlgebra(_Value):
    """Finitely presented weight-graded commutative Q-algebra.

    ``relations`` is derived: the declared monomial relations followed by
    one power g**nilpotency(g) per nilpotent generator g, as exponent
    vectors.
    """

    __slots__ = ("generators", "monomial_relations", "relations")
    _fields = attrgetter("generators", "monomial_relations")

    def __init__(self, generators: tuple[Generator, ...], monomial_relations: tuple = ()):
        symbols = [g.symbol for g in generators]
        if len(set(symbols)) != len(symbols):
            raise NameCollision(f"duplicate generator symbols in {symbols}")
        k = len(generators)
        for rel in monomial_relations:
            if len(rel) != k:
                raise ValueError("relation exponent vector has wrong length")
            if all(e == 0 for e in rel):
                raise ValueError("relation 1 = 0 is not allowed")
            if any(e < 0 for e in rel):
                raise ValueError("negative exponent in relation")
        self.generators, self.monomial_relations = generators, monomial_relations
        self.relations = monomial_relations + tuple(
            tuple(g.nilpotency if j == i else 0 for j in range(k))
            for i, g in enumerate(generators) if g.nilpotency is not None)

    # -- monomial arithmetic ------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.generators)

    @property
    def one(self) -> Monomial:
        return (0,) * self.ngens

    def is_zero_monomial(self, m: Monomial) -> bool:
        """Whether m is zero: some relation, declared or a nilpotency power,
        divides it.  A divisor of a nonzero monomial is therefore nonzero."""
        for rel in self.relations:
            if all(map(ge, m, rel)):
                return True
        return False

    def weight(self, m: Monomial) -> int:
        return sum(e * g.weight for e, g in zip(m, self.generators))

    def nildeg(self, m: Monomial) -> int:
        """Total exponent of weight-0 (Artin) generators in m."""
        return sum(e for e, g in zip(m, self.generators) if g.weight == 0)

    def monomial_key(self, m: Monomial):
        return (self.weight(m), self.nildeg(m), m)

    # -- graded bases -----------------------------------------------------

    def bigraded_basis(self, w: int, e: int) -> tuple[Monomial, ...]:
        """Normal-form monomials of weight w and nilpotent degree e."""
        return _bigraded_basis(self, w, e)

    def graded_basis(self, w: int) -> list[Monomial]:
        """All normal-form monomials of weight w, in ``monomial_key`` order:
        the bigraded pieces by ascending nilpotent degree, each sorted.

        Empty for negative w.
        """
        if w < 0:
            return []
        out: list[Monomial] = []
        for e in range(self.max_nildeg() + 1):
            out.extend(self.bigraded_basis(w, e))
        return out

    def max_nildeg(self) -> int:
        """Largest nilpotent degree of a nonzero monomial (0 if no Artin part).

        The weight-0 part of a nonzero monomial is nonzero of the same
        nilpotent degree, and the nonzero monomials are closed under
        division, so the degrees e with a nonzero weight-0 monomial run from
        0 to the largest: walk e up while the (0, e + 1) piece is nonempty,
        in O(N) on Q[t]/(t^N).  It calls the module enumerator, so
        ``bigraded_basis`` is called by the enumeration of graded pieces alone.
        """
        e = 0
        while _bigraded_basis(self, 0, e + 1):
            e += 1
        return e

    @property
    def coordinate_generators(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.generators if g.weight > 0)


@lru_cache(maxsize=None)
def _bigraded_basis(a: GradedAlgebra, w: int, e: int) -> tuple[Monomial, ...]:
    """The (w, e) piece in ``monomial_key`` order, with no sort: exponents are
    picked generator by generator, ascending up to ``max_exponent`` of the
    budget left, so the tuples come out lexicographic, which is that order
    at fixed weight and nilpotent degree.  The last generator of each kind
    (weight 0, positive weight) can spend its kind's budget with its top
    exponent alone, so it tries no other: a piece costs one branch per
    choice of the other exponents, linear in its size with one generator
    of each kind."""
    if w < 0 or e < 0:
        return ()
    gens = a.generators
    last = {g.weight > 0: i for i, g in enumerate(gens)}   # the last of each kind
    m = [0] * len(gens)
    out: list[Monomial] = []

    def rec(i: int, rw: int, re_: int):
        if i == len(gens):
            if rw == re_ == 0 and not a.is_zero_monomial(t := tuple(m)):
                out.append(t)
            return
        g = gens[i]
        top = g.max_exponent(rw, re_)
        for x in range(top if last[g.weight > 0] == i else 0, top + 1):
            m[i] = x
            rec(i + 1, rw - x * g.weight, re_ - (0 if g.weight else x))

    rec(0, w, e)
    return tuple(out)


# -- standard constructions ---------------------------------------------


def polynomial_algebra(*symbols: str, weights: dict[str, int] | None = None) -> GradedAlgebra:
    """Free polynomial algebra Q[symbols], coordinate weights default to 1."""
    weights = weights or {}
    gens = tuple(Generator(s, weights.get(s, 1)) for s in symbols)
    return GradedAlgebra(gens)


class ArtinLocal(_Value):
    """Artinian local Q-algebra: weight-0 nilpotent generators only.

    The augmentation sends every maximal-ideal monomial to 0 and has
    residue field Q.
    """

    __slots__ = ("algebra",)
    _fields = attrgetter(*__slots__)

    def __init__(self, algebra: GradedAlgebra):
        for g in algebra.generators:
            if g.weight != 0 or g.nilpotency is None:
                raise ValueError("Artin local algebras are generated by "
                                 "weight-0 nilpotent generators")
        self.algebra = algebra

    def is_dual_numbers(self) -> bool:
        return self.algebra.relations == ((2,),)


def dual_numbers(symbol: str = "e") -> ArtinLocal:
    return ArtinLocal(GradedAlgebra((Generator(symbol, 0, nilpotency=2),)))


def artin_algebra(*gens: tuple[str, int],
                  monomial_relations: tuple[Monomial, ...] = ()) -> ArtinLocal:
    """Artin local algebra from (symbol, nilpotency) pairs."""
    return ArtinLocal(GradedAlgebra(
        tuple(Generator(s, 0, nilpotency=k) for s, k in gens),
        monomial_relations=monomial_relations))


class SplitNilpotentPair(_Value):
    """An algebra R tensor A with nilpotent ideal R tensor m and the
    canonical splitting R -> R tensor A.

    ``total`` holds all generators; ``base`` is the subalgebra generated by
    the coordinate (positive-weight) generators, which is also the quotient
    by the ideal.  The ideal is spanned by the basis monomials of positive
    nilpotent degree.
    """

    __slots__ = ("total", "artin")
    _fields = attrgetter(*__slots__)

    def __init__(self, total: GradedAlgebra, artin: ArtinLocal):
        artin_syms = {g.symbol for g in artin.algebra.generators}
        total_syms = {g.symbol for g in total.generators}
        if not artin_syms <= total_syms:
            raise ValueError("Artin generators missing from the total algebra")
        for g in total.generators:
            if g.weight == 0 and g.symbol not in artin_syms:
                raise ValueError("weight-0 generator outside the Artin part")
        self.total, self.artin = total, artin

    @property
    def base(self) -> GradedAlgebra:
        """The split copy of R inside the total algebra."""
        coord = self.total.coordinate_generators
        keep = [i for i, g in enumerate(self.total.generators) if g.weight > 0]
        rels = []
        for rel in self.total.monomial_relations:
            if all(rel[i] == 0 for i in range(len(rel)) if i not in keep):
                rels.append(tuple(rel[i] for i in keep))
        return GradedAlgebra(coord, tuple(rels))

    def is_dual_numbers(self) -> bool:
        return self.artin.is_dual_numbers()


def tensor_artin(r: GradedAlgebra, a: ArtinLocal) -> SplitNilpotentPair:
    """The pair (R tensor A, R tensor m) with its canonical splitting."""
    r_syms = {g.symbol for g in r.generators}
    a_syms = {g.symbol for g in a.algebra.generators}
    clash = r_syms & a_syms
    if clash:
        raise NameCollision(f"generator symbols shared by both factors: {sorted(clash)}")
    gens = r.generators + a.algebra.generators
    na = a.algebra.ngens
    nr = r.ngens
    rels = tuple(rel + (0,) * na for rel in r.monomial_relations)
    rels += tuple((0,) * nr + rel for rel in a.algebra.monomial_relations)
    return SplitNilpotentPair(GradedAlgebra(gens, rels), a)


def dual_pair(r: GradedAlgebra, symbol: str = "e") -> SplitNilpotentPair:
    """(R[e], (e)) with e**2 = 0."""
    return tensor_artin(r, dual_numbers(symbol))


# -- polynomials and function fields -------------------------------------
#
# A FunctionField is Q(coordinate symbols) tensor (Artin part).  An element
# is a fraction num/den of integer polynomials (IntPoly) in this canonical
# form: den involves the coordinate symbols only and has a positive
# graded-lex leading coefficient; num is a polynomial in coordinates and
# nilpotent generators, with no term that the Artin relations kill (the
# field asks ``GradedAlgebra.is_zero_monomial`` of each term, and lists no
# Artin basis); and den shares no factor in Z[coords], integer content
# included, with all Artin slices of num jointly.  The form is unique, so
# equality compares num and den directly.  It is reached by one gcd chain
# over den and the slices, whose certifying divisions leave the cofactors
# that make the reduced num and den; nothing is divided after the chain.
# Rationals appear only in printing, which divides by lc(den) to show a
# monic denominator.


class FunctionField(_Value):
    """Q(coords) tensor the Artin part, over ``symbols``: coords, then Artin generators."""

    __slots__ = ("coords", "artin", "symbols", "nvars", "ncoords")
    _fields = attrgetter("coords", "artin")

    def __init__(self, coords: tuple[str, ...], artin: ArtinLocal | None = None):
        for s in coords:
            if not _IDENT.match(s):
                raise ValueError(f"bad coordinate symbol {s!r}")
        art = () if artin is None else tuple(g.symbol for g in artin.algebra.generators)
        clash = set(coords) & set(art)
        if clash:
            raise NameCollision(f"coordinate and Artin symbols clash: {sorted(clash)}")
        self.coords, self.artin, self.symbols = coords, artin, coords + art
        self.nvars, self.ncoords = len(self.symbols), len(coords)

    # polynomial helpers -----------------------------------------------

    def poly(self, d: IntPoly) -> IntPoly:
        """Drop zero coefficients and monomials the Artin relations kill."""
        if self.artin is None:
            return {m: c for m, c in d.items() if c}
        zero, nc = self.artin.algebra.is_zero_monomial, self.ncoords
        return {m: c for m, c in d.items() if c and not zero(m[nc:])}

    def p_derivative(self, a: IntPoly, i: int) -> IntPoly:
        return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                for m, c in a.items() if m[i]}

    def p_nilfree(self, a: IntPoly) -> IntPoly:
        """Set every nilpotent generator to zero."""
        nc = self.ncoords
        return {m: c for m, c in a.items() if all(e == 0 for e in m[nc:])}

    def p_is_coordinate(self, a: IntPoly) -> bool:
        nc = self.ncoords
        return all(all(e == 0 for e in m[nc:]) for m in a)

    def p_str(self, a: IntPoly, lc: int = 1) -> str:
        """a/lc, lc > 0, printed with rational coefficients."""
        if not a:
            return "0"
        terms = []
        for m in sorted(a, key=lambda mo: (sum(mo), mo), reverse=True):
            g = math.gcd(a[m], lc)
            c = str(a[m] // g) if g == lc else f"{a[m] // g}/{lc // g}"
            factors = []
            for e, s in zip(m, self.symbols):
                if e == 1:
                    factors.append(s)
                elif e > 1:
                    factors.append(f"{s}^{e}")
            body = "*".join(factors)
            if not body:
                terms.append(c)
            elif c == "1":
                terms.append(body)
            elif c == "-1":
                terms.append(f"-{body}")
            else:
                terms.append(f"{c}*{body}")
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    # element constructors ----------------------------------------------

    def zero(self) -> "FunctionFieldElement":
        return self.const(0)

    def one(self) -> "FunctionFieldElement":
        return self.const(1)

    def const(self, c) -> "FunctionFieldElement":
        """The constant c: an int, or any rational in lowest terms."""
        one = (0,) * self.nvars
        return FunctionFieldElement(self, {one: c.numerator} if c else {},
                                    {one: c.denominator}, _reduced=True)

    def var(self, symbol: str) -> "FunctionFieldElement":
        i = self.symbols.index(symbol)
        m = tuple(1 if j == i else 0 for j in range(self.nvars))
        return FunctionFieldElement(self, {m: 1}, {(0,) * self.nvars: 1}, _reduced=True)


def poly_gcd(a: IntPoly, b: IntPoly, nvars: int) -> tuple[IntPoly, IntPoly, IntPoly]:
    """(g, a/g, b/g): the GCD g of coordinate-only integer polynomials,
    integer content included, up to sign, and its cofactors.

    When either input is one term, g is the gcd of every coefficient times
    the componentwise least exponent over every term of both, with no
    evaluation.  Otherwise it comes from `intpoly.heu_gcd`: a heuristic GCD
    whose candidate is accepted only after it divides both inputs exactly;
    the cofactors are the quotients of those divisions.
    """
    if not a or not b:
        one = {(0,) * nvars: 1}
        return a or b, one if a else {}, one if b else {}
    if len(a) == 1 or len(b) == 1:
        low = tuple(map(min, zip(*a, *b)))
        c = math.gcd(*a.values(), *b.values())
        qa, qb = ({tuple(x - y for x, y in zip(m, low)): v // c for m, v in p.items()}
                  for p in (a, b))
        return {low: c}, qa, qb
    return heu_gcd(a, b, nvars)


def _is_constant(p: IntPoly) -> bool:
    return len(p) == 1 and not any(next(iter(p)))


class FunctionFieldElement:
    """Fraction num/den of integer polynomials in Q(coords) tensor Artin part.

    Held in the canonical form of the comment above: den is coordinate-only
    with positive graded-lex leading coefficient, and coprime in Z[coords]
    to the Artin slices of num jointly.  Equality, units and zero tests are
    exact.
    """

    __slots__ = ("ff", "num", "den")

    def __init__(self, ff: FunctionField, num: IntPoly, den: IntPoly,
                 _reduced: bool = False):
        if not den:
            raise DivisionByZero("zero denominator")
        self.ff = ff
        num = ff.poly(num)
        if not ff.p_is_coordinate(den):
            raise ValueError("denominator must be free of nilpotent generators")
        if _reduced and num:
            self.num, self.den = num, den
            return
        self.num, self.den = _reduce_fraction(ff, num, den)

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def nilfree_part(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self.ff, self.ff.p_nilfree(self.num), self.den)

    def is_unit(self) -> bool:
        return bool(self.ff.p_nilfree(self.num))

    def __eq__(self, other) -> bool:   # and so unhashable
        if not isinstance(other, FunctionFieldElement):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "FunctionFieldElement":
        other = self._coerce(other)
        if self.den == other.den:
            return FunctionFieldElement(self.ff, _add(self.num, other.num), self.den)
        num = _add(_mul(self.num, other.den), _mul(other.num, self.den))
        return FunctionFieldElement(self.ff, num, _mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self.ff, {m: -c for m, c in self.num.items()},
                                    self.den, _reduced=True)

    def __sub__(self, other) -> "FunctionFieldElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other) -> "FunctionFieldElement":
        other = self._coerce(other)
        return FunctionFieldElement(self.ff, _mul(self.num, other.num),
                                    _mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FunctionFieldElement":
        return self * self._coerce(other).invert()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.invert()

    def __pow__(self, k: int) -> "FunctionFieldElement":
        if k < 0:
            return self.invert() ** (-k)
        out = self.ff.one()
        for _ in range(k):
            out = out * self
        return out

    def invert(self) -> "FunctionFieldElement":
        """Exact inverse; the nilpotent tail is expanded geometrically.

        For self = (u + n)/den, u nilpotent-free and n nilpotent, it is
        (den/u) * sum_k (-n/u)**k, a finite ``nilpotent_series``.  Requires
        u to be nonzero.
        """
        ff = self.ff
        u = ff.p_nilfree(self.num)
        if not u:
            raise DivisionByZero("element has zero constant (nilpotent-free) part")
        inv_u, neg_n = FunctionFieldElement(ff, self.den, u), _sub(u, self.num)
        if neg_n:
            inv_u = inv_u * nilpotent_series(FunctionFieldElement(ff, neg_n, u), lambda k: (1, 1))
        return inv_u

    def artin_coefficient(self, art_m: Monomial,
                          target: FunctionField) -> "FunctionFieldElement":
        """The coordinate function c with self = c * art_m, in the coordinate
        field ``target``; ValueError if a term carries another Artin monomial."""
        nc = self.ff.ncoords
        if any(m[nc:] != art_m for m in self.num):
            raise ValueError(f"coefficient is not a multiple of the Artin monomial {art_m}")
        # one Artin slice, coprime to den: already in canonical form
        return FunctionFieldElement(target, {m[:nc]: v for m, v in self.num.items()},
                                    {m[:nc]: v for m, v in self.den.items()}, _reduced=True)

    def derivative_wrt(self, symbol: str) -> "FunctionFieldElement":
        """d/dsymbol by the quotient rule."""
        ff = self.ff
        i = ff.symbols.index(symbol)
        dn = ff.p_derivative(self.num, i)
        dd = ff.p_derivative(self.den, i)
        num = _sub(_mul(dn, self.den), _mul(self.num, dd))
        return FunctionFieldElement(ff, num, _mul(self.den, self.den))

    def _coerce(self, other) -> "FunctionFieldElement":
        if isinstance(other, FunctionFieldElement):
            if other.ff != self.ff:
                raise ValueError("elements of different function fields")
            return other
        return self.ff.const(other)

    def __str__(self) -> str:
        ff = self.ff
        if self.is_zero():
            return "0"
        lc = self.den[max(self.den, key=_glex)]
        num = ff.p_str(self.num, lc)
        if _is_constant(self.den):
            return num
        num_p = num if len(self.num) == 1 and not num.startswith("-") else f"({num})"
        den = ff.p_str(self.den, lc)
        den_p = den if len(self.den) == 1 else f"({den})"
        return f"{num_p}/{den_p}"

    __repr__ = __str__


def nilpotent_series(u: FunctionFieldElement, coeff) -> FunctionFieldElement:
    """sum_k a_k/b_k * u**k for nilpotent u, with (a_k, b_k) = coeff(k).

    The terms of u**k have nilpotent degree k * low or more, low the least
    among u's terms, and none above top, the sum of the (nilpotency - 1),
    is nonzero: the sum stops at top // low, with no Artin basis listed.
    Horner's rule sums c_k = L a_k/b_k, L = lcm(b_k), in one reduced product
    per term.  The k-th value is taken times u**k, where its terms above
    top - k * low vanish, so its product reads no factor term that lands
    only there.  num + c den needs no gcd, as gcd(den, N_0 + c den) =
    gcd(den, N_0), and as den is coprime to the slices, dividing by L at
    the end cancels an integer only.
    """
    ff, nc = u.ff, u.ff.ncoords
    top = sum(g.nilpotency - 1 for g in ff.artin.algebra.generators) if u.num else 0
    low = min((sum(m[nc:]) for m in u.num), default=1)
    terms = [coeff(k) for k in range(top // low + 1)]
    lcm = math.lcm(*(b for _a, b in terms))
    acc = ff.zero()
    for k, (a, b) in reversed(list(enumerate(terms))):
        kept = ({m: v for m, v in p.items() if sum(m[nc:]) <= d}
                for p, d in ((acc.num, top - (k + 1) * low), (u.num, top - k * low)))
        acc = FunctionFieldElement(ff, _mul(*kept), _mul(acc.den, u.den))
        acc = FunctionFieldElement(ff, _add(acc.num, _scale(acc.den, lcm * a // b)), acc.den,
                                   _reduced=True)
    g = math.gcd(lcm, *acc.num.values())
    return FunctionFieldElement(ff, {m: v // g for m, v in acc.num.items()},
                                _scale(acc.den, lcm // g), _reduced=True)


def _reduce_fraction(ff: FunctionField, num: IntPoly, den: IntPoly):
    """Cancel the common factor in Z[coords] of den and all Artin slices of
    num, integer content included, and make lc(den) positive.

    The gcd runs along the slices, g_j = gcd(g_(j-1), slice_j) from
    g_0 = den, and each step keeps its cofactors g_(j-1)/g_j and
    slice_j/g_j; den/g and every slice/g are products of them, so nothing
    is divided by g.
    """
    nv = ff.nvars
    if not num:
        return {}, {(0,) * nv: 1}
    nc = ff.ncoords
    art_slices: dict[Monomial, IntPoly] = {}
    for m, c in num.items():
        art = (0,) * nc + m[nc:]
        coord = m[:nc] + (0,) * (nv - nc)
        art_slices.setdefault(art, {})[coord] = c
    # once the running gcd is a constant (at once, for a constant den), only
    # the integer content of num is left to meet
    g = den
    chain = []          # (Artin part, slice_j/g_j, g_(j-1)/g_j) per step
    for art, sl in art_slices.items():
        if _is_constant(g):
            break
        g, down, sl_g = poly_gcd(g, sl, nv)
        chain.append((art, sl_g, down))
    if _is_constant(g):
        c = math.gcd(next(iter(g.values())), *num.values())
        if c != 1:
            num = {m: v // c for m, v in num.items()}
            den = {m: v // c for m, v in den.items()}
    else:
        # slice_j/g = (slice_j/g_j) (g_j/g_(j+1)) ... and den/g = the product
        # of every g_(j-1)/g_j, built from the last step back
        num, den = {}, None
        for art, sl_g, down in reversed(chain):
            for m, v in (sl_g if den is None else _mul(sl_g, den)).items():
                num[m[:nc] + art[nc:]] = v
            den = down if den is None else _mul(down, den)
    if den[max(den, key=_glex)] < 0:
        num = {m: -v for m, v in num.items()}
        den = {m: -v for m, v in den.items()}
    return num, den


# -- algebra spec files ----------------------------------------------------


_JSON = {int: "an integer", str: "a string", list: "a list of objects"}


def _value(entry: dict, key: str, kind: type, default=None):
    """entry[key] or the default, of exactly the JSON type ``kind``: 1.5 is no int."""
    value = entry.get(key, default)
    if type(value) is not kind or kind is list and any(type(x) is not dict for x in value):
        raise ValueError(f"spec {key!r} must be {_JSON[kind]}, in {entry!r}")
    return value


def algebra_from_spec(spec: dict):
    """Build (coordinate algebra, Artin part or None, pair or None) from the
    JSON algebra format::

        {"generators": [{"symbol": "x", "weight": 1}],
         "monomial_relations": [{"x": 3}],
         "artin": [{"symbol": "e", "nilpotency": 2}]}

    Exponent maps omit zero entries, and every number is a JSON integer.
    Returns the pair (R tensor A, R tensor m) when an Artin part is present.
    A malformed entry is a ValueError that names it.
    """
    gens = tuple(Generator(_value(g, "symbol", str), _value(g, "weight", int, 1))
                 for g in _value(spec, "generators", list, []))
    symbols = [g.symbol for g in gens]
    rels = []
    for rel in _value(spec, "monomial_relations", list, []):
        for s in rel:
            if s not in symbols:
                raise ValueError(f"spec relation names unknown generator {s!r}, in {rel!r}")
        rels.append(tuple(_value(rel, s, int, 0) for s in symbols))
    r = GradedAlgebra(gens, tuple(rels))
    artin_specs = _value(spec, "artin", list, [])
    if not artin_specs:
        return r, None, None
    artin = artin_algebra(*[(_value(a, "symbol", str), _value(a, "nilpotency", int))
                            for a in artin_specs])
    pair = tensor_artin(r, artin)
    return r, artin, pair


def function_field_from_spec(spec: dict) -> FunctionField:
    """Function field of the coordinate part, extended by the Artin part."""
    r, artin, _pair = algebra_from_spec(spec)
    if r.monomial_relations:
        raise ValueError("function field requires a free coordinate part")
    return FunctionField(tuple(g.symbol for g in r.generators), artin)
