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
After six values of xi, `prs_gcd`, the primitive pseudo-remainder
sequence, decides instead.  No step uses floating point.
"""

from __future__ import annotations

import math

Monomial = tuple[int, ...]
IntPoly = dict[Monomial, int]

_HEU_TRIES = 6


def heu_gcd(a: IntPoly, b: IntPoly, nvars: int) -> IntPoly:
    """GCD of two nonzero integer polynomials, up to sign (GCDHEU)."""
    ca, cb = _content(a), _content(b)
    c = math.gcd(ca, cb)
    active = [i for i in range(nvars)
              if any(m[i] for m in a) or any(m[i] for m in b)]
    if not active:
        return {(0,) * nvars: c}
    a = {m: v // ca for m, v in a.items()}
    b = {m: v // cb for m, v in b.items()}
    i = active[-1]
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    for _ in range(_HEU_TRIES):
        ea, eb = _eval(a, i, xi), _eval(b, i, xi)
        image = heu_gcd(ea, eb, nvars) if ea and eb else ea or eb
        cand = _scale_down(_xi_adic(image, i, xi))
        if cand[max(cand, key=_glex)] < 0:
            cand = {m: -v for m, v in cand.items()}
        constant = len(cand) == 1 and not any(next(iter(cand)))
        # the constant candidate 1 divides both without a check
        if constant or _divides(a, cand) and _divides(b, cand):
            break
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    else:
        cand = prs_gcd(a, b, nvars)
    return {m: c * v for m, v in cand.items()}


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


def _divides(p: IntPoly, d: IntPoly) -> bool:
    try:
        _divide_exact(p, d)
    except ArithmeticError:
        return False
    return True


def _glex(m: Monomial):
    return (sum(m), m)


# -- primitive pseudo-remainder sequence ------------------------------------


def prs_gcd(a: IntPoly, b: IntPoly, nvars: int) -> IntPoly:
    """GCD of integer polynomials, up to sign, by primitive pseudo-remainder
    sequences (recursive in the last active variable)."""
    if not a:
        return b
    if not b:
        return a
    active = [i for i in range(nvars)
              if _degree(a, i) > 0 or _degree(b, i) > 0]
    if not active:
        return {(0,) * nvars: math.gcd(next(iter(a.values())), next(iter(b.values())))}
    i = active[-1]
    ca = _content_in_var(a, i, nvars)
    cb = _content_in_var(b, i, nvars)
    f = _divide_exact(a, ca)
    g = _divide_exact(b, cb)
    cont_gcd = prs_gcd(ca, cb, nvars)
    if _degree(f, i) < _degree(g, i):
        f, g = g, f
    while g:
        r = _pseudo_rem(f, g, i)
        if r:
            r = _divide_exact(r, _content_in_var(r, i, nvars))
        f, g = g, r
    return _mul(cont_gcd, f)


def _content_in_var(p: IntPoly, i: int, nvars: int) -> IntPoly:
    """GCD of the coefficients of p viewed as univariate in variable i."""
    g: IntPoly = {}
    for e in range(_degree(p, i) + 1):
        ce = _coeff_in_var(p, i, e)
        if ce:
            g = prs_gcd(g, ce, nvars)
            if len(g) == 1 and sum(next(iter(g))) == 0 and abs(next(iter(g.values()))) == 1:
                break
    return g


def _pseudo_rem(f: IntPoly, g: IntPoly, i: int) -> IntPoly:
    dg = _degree(g, i)
    lc_g = _coeff_in_var(g, i, dg)
    r = dict(f)
    while r:
        dr = _degree(r, i)
        if dr < dg:
            break
        lc_r = _coeff_in_var(r, i, dr)
        r = _sub(_mul(lc_g, r), _shift_var(_mul(lc_r, g), i, dr - dg))
        r = _scale_down(r)
    return r


def _degree(a: IntPoly, i: int) -> int:
    return max((m[i] for m in a), default=0)


def _coeff_in_var(a: IntPoly, i: int, e: int) -> IntPoly:
    out = {}
    for m, c in a.items():
        if m[i] == e:
            out[m[:i] + (0,) + m[i + 1:]] = c
    return out


def _shift_var(a: IntPoly, i: int, e: int) -> IntPoly:
    return {m[:i] + (m[i] + e,) + m[i + 1:]: c for m, c in a.items()}


# -- integer polynomial arithmetic -------------------------------------------


def _content(p: IntPoly) -> int:
    return math.gcd(*p.values()) or 1


def _scale_down(p: IntPoly) -> IntPoly:
    c = _content(p)
    return p if c == 1 else {m: v // c for m, v in p.items()}


def _mul(a: IntPoly, b: IntPoly) -> IntPoly:
    out: IntPoly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            nv = out.get(m, 0) + ca * cb
            if nv == 0:
                out.pop(m, None)
            else:
                out[m] = nv
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
    """Exact division of integer polynomials (Gauss: stays integral)."""
    q: IntPoly = {}
    r = dict(p)
    lm_d = max(d, key=_glex)
    lc_d = d[lm_d]
    while r:
        lm_r = max(r, key=_glex)
        qm = tuple(x - y for x, y in zip(lm_r, lm_d))
        if any(e < 0 for e in qm) or r[lm_r] % lc_d:
            raise ArithmeticError("inexact polynomial division")
        qc = r[lm_r] // lc_d
        q[qm] = q.get(qm, 0) + qc
        r = _sub(r, _mul({qm: qc}, d))
    return q
