"""Steinberg symbols over function fields with nilpotents and their
tangent forms.

A symbol {f, g} is a pair of units of Q(x_1..x_k) tensor A, A an Artin
local piece.  Writing f = f0 (1 + phi) and g = g0 (1 + gamma) with f0, g0
the nilpotent-free parts, bimultiplicativity splits the symbol into the
constant part {f0, g0} and three relative factors

    {f0, 1 + gamma} {1 + phi, g0} {1 + phi, 1 + gamma},

each of which becomes trivial when the nilpotents are set to zero.  The
tangent map applies the truncated-logarithm rule {a, 1+u} -> log(1+u) * da/a
to each relative factor:

    T{f, g} = log(1+gamma) dlog(f0) - log(1+phi) dlog(g0)
              + log(1+gamma) dlog(1+phi).

Over dual numbers, f = f0 + e f1 and g = g0 + e g1, the third term dies
(e * de = 0), log(1+gamma) = e g1/g0 and log(1+phi) = e f1/f0, so the map
reduces to e times the closed form

    (g1/g0) df0/f0 - (f1/f0) dg0/g0

over the coordinate field: Green and Griffiths' tangent map.  It is
bimultiplicative, antisymmetric and kills {f, 1-f} as an exact symbolic
identity.  Dropping the two 1/f0, 1/g0 denominators would destroy both
bilinearity and the Steinberg relation, so they are essential.
``tangent`` evaluates this closed form directly, one reduced fraction per
coordinate.  For a general Artin piece the three-term formula is
evaluated inside the one-forms of the full extension (``tangent_general``);
bimultiplicativity is still exact, while the Steinberg value T{f, 1-f} is
reported rather than assumed to vanish.  Over dual numbers
``tangent_general`` is the independent oracle for ``tangent``.

``parse_symbol`` reads the CLI's symbol text.  It evaluates each entry as
a fraction of integer polynomials and reduces it once, into the entry's
element.
"""

from __future__ import annotations

from .algebra import FunctionField, FunctionFieldElement, nilpotent_series
from .differentials import OneForm, dlog, zero_form
from .intpoly import IntPoly, _add, _mul, _sub


class NonUnit(Exception):
    """Symbol argument whose nilpotent-free part vanishes."""


#: Conventions recorded in machine-readable output.  The third relative
#: factor receives the plain truncated-logarithm rule with no extra
#: combinatorial coefficient; over dual numbers it vanishes identically.
FORMULA_NOTES = {
    "tangent_rule": "log(1+gamma)*dlog(f0) - log(1+phi)*dlog(g0) "
                    "+ log(1+gamma)*dlog(1+phi)",
    "denominators": "dlog (not plain d) on the constant parts; required for "
                    "bimultiplicativity and Steinberg vanishing",
    "third_factor": "plain truncated-logarithm rule, no extra coefficient",
}


class SteinbergSymbol:
    """{f, g} with both entries units (nonzero nilpotent-free part)."""

    __slots__ = ("f", "g")

    def __init__(self, f: FunctionFieldElement, g: FunctionFieldElement):
        if f.ff != g.ff:
            raise ValueError("symbol entries live in different fields")
        for name, el in (("f", f), ("g", g)):
            if not el.is_unit():
                raise NonUnit(f"entry {name} has vanishing constant part")
        self.f, self.g = f, g

    @property
    def ff(self) -> FunctionField:
        return self.f.ff


def nilpotent_log(u: FunctionFieldElement) -> FunctionFieldElement:
    """log(1 + u) for nilpotent u: ``nilpotent_series`` of (-1)**(k+1) u**k / k."""
    if u.is_unit():
        raise ValueError("argument must be nilpotent")
    return nilpotent_series(u, lambda k: ((-1) ** (k + 1) if k else 0, k or 1))


def _dual_slices(el: FunctionFieldElement, nc: int) -> tuple[IntPoly, IntPoly, IntPoly]:
    """(N0, N1, D) over the coordinates, with el = (N0 + e*N1)/D."""
    slices: tuple[IntPoly, IntPoly] = ({}, {})
    for m, v in el.num.items():
        slices[m[nc]][m[:nc]] = v
    return slices[0], slices[1], {m[:nc]: v for m, v in el.den.items()}


def _dlog_num(ff: FunctionField, n: IntPoly, d: IntPoly, i: int) -> IntPoly:
    """Numerator of d_i(n/d)/(n/d) over the denominator n*d."""
    return _sub(_mul(ff.p_derivative(n, i), d), _mul(n, ff.p_derivative(d, i)))


def tangent(s: SteinbergSymbol) -> OneForm:
    """Tangent form of a symbol over a dual-number extension.

    The closed form of the module docstring: with f = (N0 + e*N1)/Df and
    g = (M0 + e*M1)/Dg, the d(x_s) coefficient is the one fraction

        [M1 (dN0 Df - N0 dDf) Dg - N1 (dM0 Dg - M0 dDg) Df] / (N0 M0 Df Dg),

    d = d/dx_s, reduced once.  Each coefficient is built as e times that
    fraction and the square-zero generator is divided out
    (``OneForm.strip_dual``), so {b, 1 + a*b*e} maps to a db.
    Nilpotent-free symbols map to zero over the coordinate field.
    """
    ff = s.ff
    art = ff.artin
    if art is None or not art.is_dual_numbers():
        raise ValueError("tangent() needs a dual-number extension; "
                         "use tangent_general for other Artin parts")
    nc = ff.ncoords
    n0, n1, df = _dual_slices(s.f, nc)
    m0, m1, dg = _dual_slices(s.g, nc)
    if not n1 and not m1:
        return zero_form(FunctionField(ff.coords))
    den = {m + (0,): v for m, v in _mul(_mul(n0, m0), _mul(df, dg)).items()}
    coeffs = {}
    for i, sym in enumerate(ff.coords):
        num = _sub(_mul(_mul(m1, _dlog_num(ff, n0, df, i)), dg),
                   _mul(_mul(n1, _dlog_num(ff, m0, dg, i)), df))
        if num:
            coeffs[sym] = FunctionFieldElement(ff, {m + (1,): v for m, v in num.items()}, den)
    return OneForm(ff, coeffs).strip_dual()


def tangent_general(s: SteinbergSymbol) -> OneForm:
    """Three-term logarithmic tangent form over an arbitrary Artin extension.

    Evaluated inside the one-forms of the full extension (with the
    d(nilpotent) generators and their truncation relations); no further
    quotient is applied.  Bimultiplicativity is exact here; Steinberg
    vanishing is a reported observable, not an assumption.  Since dlog is
    multiplicative, the first and third terms combine:
    log(1+gamma) dlog(f0) + log(1+gamma) dlog(1+phi) = log(1+gamma) dlog(f),
    which is also the cheaper way to evaluate them.  Without an Artin part
    both logarithms vanish and the form is zero.
    """
    one = s.ff.one()
    f0 = s.f.nilfree_part()
    g0 = s.g.nilfree_part()
    phi = s.f / f0 - one
    gamma = s.g / g0 - one
    lg = nilpotent_log(gamma)
    lf = nilpotent_log(phi)
    out = zero_form(s.ff)
    if not lg.is_zero():
        out = out + dlog(s.f).scale(lg)
    if not lf.is_zero():
        out = out - dlog(g0).scale(lf)
    return out


def random_unit(ff: FunctionField, rng, max_degree: int = 2) -> FunctionFieldElement:
    """Seeded random unit with a nilpotent tail, for the property suites."""
    def coord_poly():
        out = ff.zero()
        for _ in range(2):
            term = ff.const(rng.randint(-3, 3))
            for s in ff.coords:
                term = term * ff.var(s) ** rng.randint(0, max_degree)
            out = out + term
        return out

    num = coord_poly()
    if ff.artin is not None:
        for g in ff.artin.algebra.generators:
            num = num + coord_poly() * ff.var(g.symbol) ** rng.randint(1, g.nilpotency - 1)
    den = ff.zero()
    while den.is_zero():
        den = coord_poly() + ff.const(rng.randint(1, 3))
    el = num / den
    while not el.is_unit():
        el = el + ff.const(rng.randint(1, 5))
    return el


# -- symbol parsing ----------------------------------------------------------
#
# Grammar for CLI input:  "{" expr "," expr "}" with expr over + - * / ^
# (or **), integer literals, parentheses, and the declared generator
# symbols.  Each entry is evaluated as an integer-polynomial fraction
# with no gcd on the way, and reduced once, into its element.

_Pair = tuple[IntPoly, IntPoly]
MAX_EXPONENT = 100   # largest |k| in f^k: a power is multiplied out factor by factor


class SymbolParseError(ValueError):
    pass


def _shown(tok: str) -> str:
    """A number token as an error names it: its first digits and its length."""
    return tok if len(tok) <= 20 else f"{tok[:10]}... ({len(tok)} digits)"


def _tokenize(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            out.append(text[i:j])
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        elif text.startswith("**", i):
            out.append("^")
            i += 2
        elif c in "+-*/^(),{}":
            out.append(c)
            i += 1
        else:
            raise SymbolParseError(f"unexpected character {c!r}")
    return out


class _Parser:
    """Recursive descent over the grammar, evaluating (num, den) pairs.

    A pair is an unreduced fraction of integer polynomials over
    ``ff.symbols``: den is coordinate-only and nonzero, and num is
    truncated by the Artin relations after each product.  Equal
    denominators add without cross-multiplying.  A divisor free of
    nilpotents inverts by swapping num and den; any other goes through
    ``FunctionFieldElement.invert``: ``algebra.nilpotent_series`` sums a
    nilpotent tail, and a zero nilpotent-free part raises DivisionByZero.
    Division happens as it is parsed, so a zero divisor raises before any
    later token is read.
    """

    def __init__(self, tokens: list[str], ff: FunctionField):
        self.toks = tokens
        self.pos = 0
        self.ff = ff
        one = (0,) * ff.nvars
        self.one = one
        self.unit: IntPoly = {one: 1}
        self.vars = {s: {one[:i] + (1,) + one[i + 1:]: 1}
                     for i, s in enumerate(ff.symbols)}

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise SymbolParseError("unexpected end of input")
        if expect is not None and tok != expect:
            raise SymbolParseError(f"expected {expect!r}, found {tok!r}")
        self.pos += 1
        return tok

    def expr(self) -> _Pair:
        num, den = self.term()
        while self.peek() in ("+", "-"):
            combine = _add if self.take() == "+" else _sub
            r_num, r_den = self.term()
            if r_den == den:
                num = combine(num, r_num)
            else:
                num = combine(self.by_den(num, r_den), self.by_den(r_num, den))
                den = self.by_den(den, r_den)
        return num, den

    def term(self) -> _Pair:
        num, den = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            r_num, r_den = self.factor()
            if op == "/":
                r_num, r_den = self.invert(r_num, r_den)
            num, den = self.ff.poly(_mul(num, r_num)), self.by_den(den, r_den)
        return num, den

    def by_den(self, p: IntPoly, den: IntPoly) -> IntPoly:
        """p times a denominator, with no product when den is the unit."""
        return p if den == self.unit else _mul(p, den)

    def invert(self, num: IntPoly, den: IntPoly) -> _Pair:
        if num and self.ff.p_is_coordinate(num):
            return den, num
        inv = FunctionFieldElement(self.ff, num, den).invert()
        return inv.num, inv.den

    def factor(self) -> _Pair:
        tok = self.peek()
        if tok == "-":
            self.take()
            num, den = self.factor()
            return {m: -c for m, c in num.items()}, den
        if tok == "+":
            self.take()
            return self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.take()
            neg = self.peek() == "-"
            if neg:
                self.take()
            tok = self.take()
            if not tok.isdecimal():
                raise SymbolParseError(f"exponent must be an integer, found {tok!r}")
            # refused by its digits, before int() reads a long token or any
            # product is formed: a nonzero digit left of the last few is too many
            width = len(str(MAX_EXPONENT))
            k = int(tok[-width:])
            if any(map(int, tok[:-width])) or k > MAX_EXPONENT:
                raise SymbolParseError(f"exponent {_shown(tok)} is above {MAX_EXPONENT}")
            if k == 0:
                return self.unit, self.unit
            if neg:
                base = self.invert(*base)
            num, den = base
            for _ in range(k - 1):
                num, den = self.ff.poly(_mul(num, base[0])), self.by_den(den, base[1])
            return num, den
        return base

    def atom(self) -> _Pair:
        tok = self.take()
        if tok == "(":
            out = self.expr()
            self.take(")")
            return out
        if tok.isdecimal():
            try:
                c = int(tok)
            except ValueError:   # beyond the digit limit of int()
                raise SymbolParseError(f"integer literal {_shown(tok)} is too long") from None
            return ({self.one: c} if c else {}), self.unit
        if tok in self.vars:
            return self.vars[tok], self.unit
        raise SymbolParseError(f"unknown symbol {tok!r}")


def parse_symbol(text: str, ff: FunctionField) -> SteinbergSymbol:
    p = _Parser(_tokenize(text), ff)
    p.take("{")
    f = FunctionFieldElement(ff, *p.expr())
    p.take(",")
    g = FunctionFieldElement(ff, *p.expr())
    p.take("}")
    if p.peek() is not None:
        raise SymbolParseError(f"trailing input at {p.peek()!r}")
    return SteinbergSymbol(f, g)
