"""Exact rational functions over Q, independent of the library under test.

The tangent-batch check compares printed one-form coefficients with the
closed-form tangent of the symbol.  Parsing them back with cychom would let
a bug in its function-field arithmetic hide itself, so this module
evaluates the printed strings and the closed form on its own: a polynomial
is a dict from exponent tuples to integers, a rational function is an
unreduced (numerator, denominator) pair, and a difference is zero exactly
when its numerator is the zero polynomial.  No gcd is ever taken.

Grammar (the one `cychom tangent --symbol` accepts): integers, the given
symbols, parentheses, binary + - * /, unary minus, and ^ with an integer
exponent.
"""

from __future__ import annotations

import re

Poly = dict[tuple[int, ...], int]
RatFunc = tuple[Poly, Poly]

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|\*\*|[-+*/^()])")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:]!r}")
        out.append("^" if m.group(1) == "**" else m.group(1))
        pos = m.end()
    return out


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _const(c, nvars: int) -> Poly:
    return {(0,) * nvars: c} if c else {}


class _Parser:
    def __init__(self, text: str, symbols: tuple[str, ...]):
        self.toks = _tokens(text)
        self.pos = 0
        self.symbols = symbols
        self.n = len(symbols)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect=None) -> str:
        tok = self.peek()
        if tok is None or (expect is not None and tok != expect):
            raise ValueError(f"expected {expect or 'a token'}, found {tok!r}")
        self.pos += 1
        return tok

    def expr(self) -> RatFunc:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rn, rd = self.term()
            if op == "-":
                rn = {m: -c for m, c in rn.items()}
            out = add(out, (rn, rd))
        return out

    def term(self) -> RatFunc:
        num, den = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rn, rd = self.factor()
            if op == "/":
                rn, rd = rd, rn
                if not rd:
                    raise ZeroDivisionError("division by zero")
            num, den = _mul(num, rn), _mul(den, rd)
        return num, den

    def factor(self) -> RatFunc:
        if self.peek() == "-":
            self.take()
            num, den = self.factor()
            return {m: -c for m, c in num.items()}, den
        if self.peek() == "+":
            self.take()
            return self.factor()
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        neg = self.peek() == "-"
        if neg:
            self.take()
        k = int(self.take())
        num, den = (base[1], base[0]) if neg else base
        out_n, out_d = _const(1, self.n), _const(1, self.n)
        for _ in range(k):
            out_n, out_d = _mul(out_n, num), _mul(out_d, den)
        return out_n, out_d

    def atom(self) -> RatFunc:
        tok = self.take()
        one = _const(1, self.n)
        if tok == "(":
            out = self.expr()
            self.take(")")
            return out
        if tok.isdigit():
            return _const(int(tok), self.n), one
        if tok in self.symbols:
            i = self.symbols.index(tok)
            return {tuple(int(j == i) for j in range(self.n)): 1}, one
        raise ValueError(f"unknown symbol {tok!r}")


def parse(text: str, symbols: tuple[str, ...]) -> RatFunc:
    """Evaluate a printed expression to an unreduced rational function."""
    p = _Parser(text, symbols)
    out = p.expr()
    if p.peek() is not None:
        raise ValueError(f"trailing input at {p.peek()!r}")
    if not out[1]:
        raise ZeroDivisionError("zero denominator")
    return out


def add(a: RatFunc, b: RatFunc) -> RatFunc:
    return _add(_mul(a[0], b[1]), _mul(b[0], a[1])), _mul(a[1], b[1])


def sub(a: RatFunc, b: RatFunc) -> RatFunc:
    return add(a, ({m: -c for m, c in b[0].items()}, b[1]))


def mul(a: RatFunc, b: RatFunc) -> RatFunc:
    return _mul(a[0], b[0]), _mul(a[1], b[1])


def div(a: RatFunc, b: RatFunc) -> RatFunc:
    if not b[0]:
        raise ZeroDivisionError("division by zero")
    return _mul(a[0], b[1]), _mul(a[1], b[0])


def _diff(p: Poly, i: int) -> Poly:
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in p.items() if m[i]}


def diff(a: RatFunc, i: int) -> RatFunc:
    """Partial derivative in the i-th symbol, by the quotient rule."""
    num, den = a
    neg_num = {m: -c for m, c in num.items()}
    return _add(_mul(_diff(num, i), den), _mul(neg_num, _diff(den, i))), _mul(den, den)


def is_zero(a: RatFunc) -> bool:
    return not a[0]
