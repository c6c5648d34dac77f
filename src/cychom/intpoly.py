"""Exact gcd of multivariate polynomials with integer coefficients.

A polynomial is a dict from exponent tuples, all of length nvars, to
nonzero ints.  `heu_gcd` is the heuristic GCD, GCDHEU, of Char, Geddes
and Gonnet (J. Symbolic Comput. 7, 1989):

- remove the integer content of each input;
- evaluate one variable at an integer xi and take the gcd of the images
  recursively, down to the integer gcd;
- read the candidate off the symmetric xi-adic digits of that gcd and
  take its primitive part.

For primitive a, b and xi >= 2*min(|a|, |b|) + 2 (max norms), a primitive
candidate that divides both is their gcd, so a candidate is accepted only
after exact division by it succeeds, and xi never starts below that bound.
A rejected candidate raises xi, and the loop runs until one is accepted.
No step uses floating point.

The loop terminates.  Let g = gcd(a, b), a = g a', b = g b', and let h be
the gcd, integer content included, of the images of a' and b' at x_i = xi.
Then h divides the resultant r of a' and b' in x_i (r = u a' + v b' and r
has no x_i); if neither has x_i, h = +-1.  An irreducible factor of r
divides both images for only finitely many xi, for otherwise it would
divide the coprime a' and b'; so for every large enough xi, h is an
integer dividing the content of r.  The image is then +-h g(xi), and once
xi > 2|h g| its symmetric digits give h g exactly, whose primitive part is
g.  xi starts at 2*min(|a|, |b|) + 2 >= 4, and each step multiplies it by
73794/27011 > 2 times isqrt(isqrt(xi)) >= 1 and rounds down, which still
more than doubles it, so it gets there.  The recursion drops one active
variable per level, so induction on their number covers it, and the bound
above makes any accepted candidate the gcd.

`heu_gcd` returns the cofactors a/g and b/g with g: they are the quotients
of the two exact divisions that certify g, so a caller never divides by g
again.  `_divide_exact` takes the leading monomials of the remainder in
graded-lex order from a heap and updates the remainder in place.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from operator import add, neg, sub

Monomial = tuple[int, ...]
IntPoly = dict[Monomial, int]


def heu_gcd(a: IntPoly, b: IntPoly, nvars: int) -> tuple[IntPoly, IntPoly, IntPoly]:
    """(g, a/g, b/g): the GCD g of two nonzero integer polynomials, up to
    sign, and its cofactors (GCDHEU)."""
    ca, cb = _content(a), _content(b)
    c = math.gcd(ca, cb)
    active = [i for i in range(nvars)
              if any(m[i] for m in a) or any(m[i] for m in b)]
    if not active:
        one = (0,) * nvars
        return {one: c}, {one: a[one] // c}, {one: b[one] // c}
    a = {m: v // ca for m, v in a.items()}
    b = {m: v // cb for m, v in b.items()}
    i = active[-1]
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    while True:
        ea, eb = _eval(a, i, xi), _eval(b, i, xi)
        image = heu_gcd(ea, eb, nvars)[0] if ea and eb else ea or eb
        cand = _scale_down(_xi_adic(image, i, xi))
        if cand[max(cand, key=_glex)] < 0:
            cand = {m: -v for m, v in cand.items()}
        if len(cand) == 1 and not any(next(iter(cand))):
            # the constant candidate 1 divides both without a check
            qa, qb = a, b
            break
        qa = _quotient(a, cand)
        qb = None if qa is None else _quotient(b, cand)
        if qb is not None:
            break
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return _scale(cand, c), _scale(qa, ca // c), _scale(qb, cb // c)


def _eval(p: IntPoly, i: int, xi: int) -> IntPoly:
    """Substitute xi for variable i."""
    out: IntPoly = {}
    for m, v in p.items():
        k = m[:i] + (0,) + m[i + 1:]
        out[k] = out.get(k, 0) + v * xi ** m[i]
    return {m: v for m, v in out.items() if v}


def _xi_adic(p: IntPoly, i: int, xi: int) -> IntPoly:
    """Spread each coefficient into its symmetric base-xi digits along
    variable i: the polynomial with digits in (-xi/2, xi/2] whose value at
    xi is p."""
    out: IntPoly = {}
    half = xi // 2
    for m, v in p.items():
        e = 0
        while v:
            d = v % xi
            if d > half:
                d -= xi
            if d:
                out[m[:i] + (e,) + m[i + 1:]] = d
            v = (v - d) // xi
            e += 1
    return out


def _quotient(p: IntPoly, d: IntPoly) -> IntPoly | None:
    """p/d, or None when d does not divide p."""
    try:
        return _divide_exact(p, d)
    except ArithmeticError:
        return None


def _glex(m: Monomial):
    return (sum(m), m)


# -- integer polynomial arithmetic -------------------------------------------


def _content(p: IntPoly) -> int:
    return math.gcd(*p.values()) or 1


def _scale(p: IntPoly, k: int) -> IntPoly:
    return p if k == 1 else {m: k * v for m, v in p.items()}


def _scale_down(p: IntPoly) -> IntPoly:
    c = _content(p)
    return p if c == 1 else {m: v // c for m, v in p.items()}


def _mul(a: IntPoly, b: IntPoly) -> IntPoly:
    out: IntPoly = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            nv = get(m, 0) + ca * cb
            if nv:
                out[m] = nv
            else:
                out.pop(m, None)
    return out


def _add(a: IntPoly, b: IntPoly) -> IntPoly:
    out = dict(a)
    for m, c in b.items():
        nv = out.get(m, 0) + c
        if nv == 0:
            out.pop(m, None)
        else:
            out[m] = nv
    return out


def _sub(a: IntPoly, b: IntPoly) -> IntPoly:
    out = dict(a)
    for m, c in b.items():
        nv = out.get(m, 0) - c
        if nv == 0:
            out.pop(m, None)
        else:
            out[m] = nv
    return out


def _divide_exact(p: IntPoly, d: IntPoly) -> IntPoly:
    """Exact division of integer polynomials (Gauss: stays integral).

    Each step takes the leading monomial of the remainder, in graded-lex
    order, from a heap keyed by (-degree, -exponents); a monomial that
    cancelled leaves a stale heap entry, skipped when popped.  A leading
    monomial that lm(d) does not divide, or a coefficient that lc(d) does
    not divide, raises ArithmeticError.
    """
    lm_d = max(d, key=_glex)
    lc_d = d[lm_d]
    tail = [(m, c) for m, c in d.items() if m != lm_d]
    r = dict(p)
    heap = [(-sum(m), tuple(map(neg, m)), m) for m in r]
    heapify(heap)
    q: IntPoly = {}
    while r:
        lm_r = heappop(heap)[2]
        c_r = r.get(lm_r)
        if c_r is None:
            continue
        qm = tuple(map(sub, lm_r, lm_d))
        if min(qm, default=0) < 0 or c_r % lc_d:
            raise ArithmeticError("inexact polynomial division")
        qc = q[qm] = c_r // lc_d
        del r[lm_r]
        for m, c in tail:
            m = tuple(map(add, qm, m))
            v = r.get(m)
            if v is None:
                r[m] = -qc * c
                heappush(heap, (-sum(m), tuple(map(neg, m)), m))
            else:
                v -= qc * c
                if v:
                    r[m] = v
                else:
                    del r[m]
    return q
