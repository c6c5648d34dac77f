import itertools
import json
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cychom import cyclic, differentials
from cychom.algebra import (ArtinLocal, DivisionByZero, FunctionField,
                            FunctionFieldElement, Generator, GradedAlgebra,
                            NameCollision, algebra_from_spec, artin_algebra,
                            dual_numbers, dual_pair, function_field_from_spec,
                            polynomial_algebra, tensor_artin)


# -- graded bases -----------------------------------------------------------

def test_graded_basis_qx():
    a = polynomial_algebra("x")
    assert a.graded_basis(3) == [(3,)]


def test_graded_basis_truncated():
    a = GradedAlgebra((Generator("x", 1),), ((3,),))
    assert a.graded_basis(5) == []
    assert len(a.graded_basis(2)) == 1


def test_graded_basis_dual_extension():
    a = dual_pair(polynomial_algebra("x"), "e").total
    assert a.graded_basis(2) == [(2, 0), (2, 1)]  # x^2, x^2*e


# polynomial, weighted, truncated and Artin algebras, alone and tensored
_SUITE_ALGEBRAS = [
    polynomial_algebra(), polynomial_algebra("x"), polynomial_algebra("x", "y"),
    polynomial_algebra("x", "y", weights={"y": 2}),
    GradedAlgebra((Generator("x", 1),), ((3,),)),
    GradedAlgebra((Generator("x", 1), Generator("y", 1)), ((2, 1),)),
    dual_pair(polynomial_algebra()).total, dual_pair(polynomial_algebra("x")).total,
    dual_pair(polynomial_algebra("x", "y")).total,
    tensor_artin(polynomial_algebra("x"), artin_algebra(("t", 3))).total,
    tensor_artin(polynomial_algebra(), artin_algebra(("e", 2), ("f", 2))).total,
    artin_algebra(("e", 3), ("f", 2), monomial_relations=((2, 1),)).algebra,
]


def test_graded_basis_is_in_monomial_key_order():
    # the bigraded pieces of one weight, by ascending nilpotent degree, are
    # each sorted by monomial_key, so their concatenation needs no re-sort
    for a in _SUITE_ALGEBRAS:
        for w in range(6):
            basis = a.graded_basis(w)
            assert basis == sorted(basis, key=a.monomial_key), (a, w)


def _random_graded_algebra(rng):
    """1-4 generators of weight 0-3, those of weight 0 nilpotent and the
    others nilpotent or not, and 0-2 declared relations of exponents up to 2."""
    gens = []
    for i in range(rng.randint(1, 4)):
        weight = rng.randint(0, 3)
        nilpotency = rng.randint(2, 4) if weight == 0 else rng.choice([None, None, 2, 3])
        gens.append(Generator(f"g{i}", weight, nilpotency))
    rels = {tuple(rng.randint(0, 2) for _ in gens) for _ in range(rng.randint(0, 2))}
    return GradedAlgebra(tuple(gens), tuple(sorted(r for r in rels if any(r))))


def test_bigraded_basis_matches_the_former_enumerator():
    # the ordered walk lists every (w, e) piece as the former sorting
    # enumerator did, piece for piece and in the same order, on the suite
    # algebras and on 500 random ones
    from fraction_oracle import _bigraded_basis
    rng = random.Random(34)
    algebras = _SUITE_ALGEBRAS + [_random_graded_algebra(rng) for _ in range(500)]
    assert sum(any(g.weight == 0 for g in a.generators) for a in algebras) > 200
    assert sum(any(g.weight and g.nilpotency for g in a.generators) for a in algebras) > 200
    assert sum(bool(a.monomial_relations) for a in algebras) > 200
    for a in algebras:
        for w in range(6):
            for e in range(6):
                assert a.bigraded_basis(w, e) == _bigraded_basis(a, w, e), (a, w, e)


def test_max_nildeg_is_linear_in_the_nilpotency():
    # a cold max_nildeg of Q[t]/(t^400) walks the 400 pieces (0, e) at a few
    # calls each; the former enumerator tried every exponent of t in each
    # piece, 85 791 calls in all
    from cychom import algebra
    a = artin_algebra(("t", 400)).algebra
    algebra._bigraded_basis.cache_clear()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_filename == algebra.__file__

    sys.setprofile(count)
    try:
        assert a.max_nildeg() == 399
    finally:
        sys.setprofile(None)
    assert calls <= 8000


def test_extend_dual_numbers_doubles_dims():
    a = polynomial_algebra("x", "y")
    ae = dual_pair(a).total
    for w in range(5):
        assert len(ae.graded_basis(w)) == 2 * len(a.graded_basis(w))


def test_extend_dual_numbers_q():
    ae = dual_pair(polynomial_algebra()).total
    assert ae.graded_basis(0) == [(0,), (1,)]  # 1, e


def test_extend_dual_numbers_weight_one_basis():
    ae = dual_pair(polynomial_algebra("x")).total
    assert ae.graded_basis(1) == [(1, 0), (1, 1)]  # x, x*e


def test_artin_augmentation():
    # the augmentation reads the coefficient of the unit monomial, which is
    # the one basis monomial outside the maximal ideal
    a = artin_algebra(("t", 3))
    one = a.algebra.one
    t = (1,)
    assert one == (0,) and a.algebra.graded_basis(0) == [one, t, (2,)]
    coeffs = {one: Fraction(5, 2), t: Fraction(7)}
    assert coeffs.get(one, 0) == Fraction(5, 2)
    assert {t: Fraction(7)}.get(one, 0) == 0


def test_extend_dual_numbers_name_collision():
    with pytest.raises(NameCollision):
        dual_pair(polynomial_algebra("e"), "e")


def test_weight_zero_generator_must_be_nilpotent():
    with pytest.raises(ValueError):
        Generator("u", 0)


def test_tensor_dims_multiply():
    # dim (a tensor b)_w = sum_{u+v=w} dim a_u * dim b_v
    r = GradedAlgebra((Generator("x", 1),), ((4,),))
    a = artin_algebra(("t", 3))
    pair = tensor_artin(r, a)
    a_dim = len(a.algebra.graded_basis(0))  # all of A sits in weight 0
    for w in range(6):
        lhs = len(pair.total.graded_basis(w))
        rhs = sum(len(r.graded_basis(u)) * (a_dim if v == 0 else 0)
                  for u in range(w + 1) for v in [w - u])
        assert lhs == rhs


def _ideal_basis(pair, w):
    """Basis monomials of the ideal (nilpotent degree >= 1) at weight w."""
    return [m for m in pair.total.graded_basis(w) if pair.total.nildeg(m) >= 1]


def test_tensor_artin_splitting():
    pair = tensor_artin(polynomial_algebra("x"), dual_numbers("e"))
    base, total = pair.base, pair.total
    keep = [i for i, g in enumerate(total.generators) if g.weight > 0]
    for w in range(4):
        for m in base.graded_basis(w):
            # the splitting pads the Artin exponents with zeros; the
            # quotient map drops them again
            it = iter(m)
            embedded = tuple(next(it) if g.weight > 0 else 0 for g in total.generators)
            assert embedded in total.graded_basis(w) and total.nildeg(embedded) == 0
            assert tuple(embedded[i] for i in keep) == m
    assert _ideal_basis(pair, 1) == [(1, 1)]  # x*e


def test_tensor_artin_t3():
    pair = tensor_artin(polynomial_algebra(), artin_algebra(("t", 3)))
    art = pair.artin
    assert [m for m in art.algebra.graded_basis(0)
            if m != art.algebra.one] == [(1,), (2,)]  # t, t^2
    # the maximal ideal's nilpotency order: least k with m^k = 0
    assert art.algebra.max_nildeg() + 1 == 3


def test_tensor_artin_dims():
    pair = tensor_artin(GradedAlgebra((Generator("x", 1),), ((2,),)),
                        dual_numbers("e"))
    total = sum(len(pair.total.graded_basis(w)) for w in range(4))
    ideal = sum(len(_ideal_basis(pair, w)) for w in range(4))
    assert (total, ideal) == (4, 2)


def test_tensor_artin_collision():
    with pytest.raises(NameCollision):
        tensor_artin(polynomial_algebra("t"), artin_algebra(("t", 2)))


def test_ideal_power_vanishes():
    from fraction_oracle import monomial_mul
    pair = tensor_artin(polynomial_algebra("x"), artin_algebra(("t", 3)))
    alg = pair.total
    k = pair.artin.algebra.max_nildeg() + 1  # least k with m^k = 0
    ideal = [m for w in range(3) for m in _ideal_basis(pair, w)]
    # every product of k ideal monomials is zero
    for combo in itertools.product(ideal[:3], repeat=k):
        acc = alg.one
        for m in combo:
            acc = monomial_mul(alg, acc, m) if acc is not None else None
        assert acc is None


def test_multiplication_associative_commutative_low_weight():
    # exhaustive over all basis triples up to weight 6
    from fraction_oracle import monomial_mul
    a = GradedAlgebra(
        (Generator("x", 1), Generator("y", 2), Generator("e", 0, nilpotency=2)),
        monomial_relations=((3, 0, 0),))
    basis = [m for w in range(7) for m in a.graded_basis(w)]
    for m1 in basis:
        for m2 in basis:
            assert monomial_mul(a, m1, m2) == monomial_mul(a, m2, m1)
            p12 = monomial_mul(a, m1, m2)
            for m3 in basis:
                p23 = monomial_mul(a, m2, m3)
                lhs = None if p12 is None else monomial_mul(a, p12, m3)
                rhs = None if p23 is None else monomial_mul(a, m1, p23)
                assert lhs == rhs


def test_artin_requires_weight_zero():
    with pytest.raises(ValueError):
        ArtinLocal(polynomial_algebra("x"))


# -- function field arithmetic ----------------------------------------------


@pytest.fixture
def ffxe():
    return FunctionField(("x",), dual_numbers("e"))


def test_invert_geometric(ffxe):
    x, e, one = ffxe.var("x"), ffxe.var("e"), ffxe.one()
    assert (one + x * e).invert() == one - x * e


def test_invert_x(ffxe):
    x = ffxe.var("x")
    assert x.invert() * x == ffxe.one()


def test_derivative_quotient_rule(ffxe):
    x, one = ffxe.var("x"), ffxe.one()
    f = (x * x) / (one + x)
    # verified by clearing denominators: d(x^2/(1+x)) = (x^2+2x)/(1+x)^2
    assert f.derivative_wrt("x") == (x * x + 2 * x) / ((one + x) * (one + x))


def test_invert_requires_unit(ffxe):
    e = ffxe.var("e")
    with pytest.raises(DivisionByZero):
        e.invert()


def test_denominator_normalized_monic(ffxe):
    x, e, one = ffxe.var("x"), ffxe.var("e"), ffxe.one()
    g = FunctionFieldElement(ffxe, {(2, 0): 2, (1, 0): 2}, {(1, 0): 2})
    assert g == one + x
    assert (g.num, g.den) == ({(1, 0): 1, (0, 0): 1}, {(0, 0): 1})
    # held in integers: the common content cancelled and lc(den) > 0 ...
    h = FunctionFieldElement(ffxe, {(1, 0): 4, (0, 1): 6}, {(1, 0): -6, (0, 0): -2})
    assert (h.num, h.den) == ({(1, 0): -2, (0, 1): -3}, {(1, 0): 3, (0, 0): 1})
    assert h == -(2 * x + 3 * e) / (3 * x + 1)
    # ... and printed with a monic denominator
    assert str(h) == "(-2/3*x - e)/(x + 1/3)"
    assert str(x / 3) == "1/3*x"


def _random_element(ff, rng, unit=True):
    x = ff.var("x")
    e = ff.var("e")
    def rand_poly():
        return sum((ff.const(rng.randint(-3, 3)) * x ** rng.randint(0, 2)
                    for _ in range(2)), ff.zero())
    num = rand_poly() + rand_poly() * e
    den = ff.zero()
    while den.is_zero():
        den = rand_poly() + ff.const(rng.randint(1, 3))
    el = num / den
    if unit:
        while not el.is_unit():
            el = el + ff.const(rng.randint(1, 5))
    return el


def test_field_axioms_random():
    ff = FunctionField(("x",), dual_numbers("e"))
    rng = random.Random(7)
    for _ in range(100):
        f = _random_element(ff, rng)
        g = _random_element(ff, rng)
        h = _random_element(ff, rng)
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f.invert() * f == ff.one()


def test_leibniz_rule_random():
    ff = FunctionField(("x",), dual_numbers("e"))
    rng = random.Random(11)
    for _ in range(50):
        f = _random_element(ff, rng, unit=False)
        g = _random_element(ff, rng, unit=False)
        lhs = (f * g).derivative_wrt("x")
        rhs = f.derivative_wrt("x") * g + f * g.derivative_wrt("x")
        assert lhs == rhs


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_constants_behave_like_q(a, b, d):
    ff = FunctionField(("x",))
    fa = ff.const(Fraction(a, d))
    fb = ff.const(Fraction(b, d))
    assert fa + fb == ff.const(Fraction(a + b, d))
    assert fa * fb == ff.const(Fraction(a, d) * Fraction(b, d))


def _positive(p):
    """p with a positive graded-lex leading coefficient."""
    if p and p[max(p, key=lambda m: (sum(m), m))] < 0:
        return {m: -v for m, v in p.items()}
    return p


_small_poly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).filter(bool),
    min_size=1, max_size=3)


@given(_small_poly, _small_poly, _small_poly)
@settings(max_examples=120, deadline=None)
def test_poly_gcd_divides_and_sees_common_factor(a, b, c):
    from cychom.algebra import poly_gcd
    from cychom.intpoly import _divide_exact, _mul

    ac, bc = _mul(a, c), _mul(b, c)
    g, ac_g, bc_g = poly_gcd(ac, bc, 2)
    # g divides both products exactly, and the cofactors are the quotients
    assert _divide_exact(ac, g) == ac_g
    assert _divide_exact(bc, g) == bc_g
    # and the common factor c, integer content included, divides g
    _divide_exact(g, poly_gcd(g, c, 2)[0])
    assert _positive(poly_gcd(g, c, 2)[0]) == _positive(poly_gcd(c, c, 2)[0]) == _positive(c)


def _prs_gcd(a, b, nvars):
    """Oracle: the primitive pseudo-remainder gcd, lc made positive."""
    from fraction_oracle import prs_gcd
    return _positive(prs_gcd(a, b, nvars))


@st.composite
def _gcd_case(draw):
    """Two integer polynomials in 1-3 variables with a planted common factor
    and coefficients up to 10^6; now and then the second one is a constant."""
    from cychom.intpoly import _mul
    nvars = draw(st.integers(1, 3))

    def poly(max_size):
        return draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * nvars),
            st.integers(-10**6, 10**6).filter(bool),
            min_size=1, max_size=max_size))

    common = poly(3)
    a = _mul(poly(3), common)
    if draw(st.booleans()) and draw(st.booleans()):
        b = {(0,) * nvars: draw(st.integers(1, 10**6))}
    else:
        b = _mul(poly(3), common)
    return a, b, nvars


@given(_gcd_case())
@settings(max_examples=150, deadline=None)
def test_heuristic_gcd_matches_prs(case):
    from cychom.algebra import poly_gcd
    a, b, nvars = case
    assert _positive(poly_gcd(a, b, nvars)[0]) == _prs_gcd(a, b, nvars)
    assert _positive(poly_gcd(b, a, nvars)[0]) == _prs_gcd(a, b, nvars)


def test_monomial_gcd_matches_heuristic_gcd():
    # a one-term input takes the least-exponent gcd with no evaluation: its
    # g agrees with heu_gcd's up to sign, the cofactors follow that sign,
    # and g times each cofactor gives back its input exactly
    from cychom.algebra import poly_gcd
    from cychom.intpoly import _mul, heu_gcd
    rng = random.Random(37)
    for _ in range(300):
        nvars, k = rng.randint(1, 3), rng.randint(1, 6)
        exps = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(5)]
        mono = {exps[0]: k * rng.choice((-1, 1)) * rng.randint(1, 9)}
        poly = {m: k * rng.choice((-1, 1)) * rng.randint(1, 9) for m in exps[rng.randint(0, 4):]}
        for a, b in ((mono, poly), (poly, mono)):
            g, qa, qb = poly_gcd(a, b, nvars)
            hg, hqa, hqb = heu_gcd(a, b, nvars)
            assert _positive(g) == _positive(hg)
            if g != hg:
                hqa, hqb = ({m: -v for m, v in q.items()} for q in (hqa, hqb))
            assert (qa, qb) == (hqa, hqb)
            assert _mul(g, qa) == a and _mul(g, qb) == b


def test_heuristic_gcd_falls_back_to_prs():
    from cychom import algebra, intpoly
    common = {(1, 1): 1, (0, 0): -3}                       # xy - 3
    a = intpoly._mul(common, {(2, 0): 5, (0, 0): 1})
    b = intpoly._mul(common, {(0, 2): 4, (1, 0): 3})
    assert _prs_gcd(a, b, 2) == common
    assert _positive(algebra.poly_gcd(a, b, 2)[0]) == common


def _past_six_xis(g, c, i, nvars):
    """a = g (x_i + c) and b = g (x_i + c + P), P the product of xi_k + c
    over the first six values xi_k that heu_gcd tries on these inputs.

    With g primitive and |a| <= |b|, xi_0 = 2|a| + 2 and each xi_{k+1}
    follows from xi_k alone.  At each of them gcd(xi_k + c, P) = xi_k + c,
    so the image gcd is a(xi_k), whose digits give a itself, and a does
    not divide b.
    """
    from cychom.intpoly import _mul
    x = tuple(int(j == i) for j in range(nvars))
    one = (0,) * nvars
    a = _mul(g, {x: 1, one: c})
    xi, prod = 2 * max(map(abs, a.values())) + 2, 1
    for _ in range(6):
        prod *= xi + c
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return a, _mul(g, {x: 1, one: c + prod})


@pytest.mark.parametrize("g, i, nvars", [
    ({(0,): 1}, 0, 1),                                   # 1
    ({(1,): 2, (0,): -5}, 0, 1),                         # 2x - 5
    ({(2,): 3, (0,): 7}, 0, 1),                          # 3x^2 + 7
    ({(1, 1): 1, (0, 0): -3}, 1, 2),                     # xy - 3, built in y
])
def test_heuristic_gcd_runs_past_six_values_of_xi(g, i, nvars, monkeypatch):
    from cychom import intpoly
    a, b = _past_six_xis(g, 3, i, nvars)
    xis = []
    evaluate = intpoly._eval

    def counted(p, j, xi):
        if j == i and p in (a, b):
            xis.append(xi)
        return evaluate(p, j, xi)

    monkeypatch.setattr(intpoly, "_eval", counted)
    for p, q in ((a, b), (b, a)):
        xis.clear()
        assert _positive(_assert_gcd_triple(p, q, nvars)) == _prs_gcd(p, q, nvars) == g
        assert len(set(xis)) > 6


def _assert_gcd_triple(a, b, nvars):
    """poly_gcd's (g, a', b'): g a' = a, g b' = b, and a', b' coprime."""
    from cychom.algebra import poly_gcd
    from cychom.intpoly import _mul
    g, a_g, b_g = poly_gcd(a, b, nvars)
    assert _mul(g, a_g) == a and _mul(g, b_g) == b
    assert _prs_gcd(a_g, b_g, nvars) == {(0,) * nvars: 1}
    return g


@given(_gcd_case())
@settings(max_examples=100, deadline=None)
def test_gcd_cofactors_are_exact_and_coprime(case):
    a, b, nvars = case
    _assert_gcd_triple(a, b, nvars)
    _assert_gcd_triple(b, a, nvars)
    # a constant second input gives a constant gcd: the integer content
    k = {(0,) * nvars: 6}
    _assert_gcd_triple(a, k, nvars)
    _assert_gcd_triple(k, b, nvars)


def test_gcd_cofactors_of_a_zero_input():
    from cychom.algebra import poly_gcd
    p = {(1, 0): 2, (0, 0): -4}
    assert poly_gcd(p, {}, 2) == (p, {(0, 0): 1}, {})
    assert poly_gcd({}, p, 2) == (p, {}, {(0, 0): 1})


_division_poly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
    st.integers(-5, 5).filter(bool), min_size=1, max_size=4)


@given(_division_poly, _division_poly, _division_poly, st.booleans())
@settings(max_examples=200, deadline=None)
def test_exact_division_matches_the_former_division(p, d, q, exact):
    # the heap-ordered division against the former max()-rescan division:
    # the same quotient on exact inputs, ArithmeticError on the same inexact
    # ones (a leading monomial or a coefficient that does not divide)
    from cychom.intpoly import _divide_exact, _mul
    from fraction_oracle import divide_exact, int_mul
    assert _mul(p, q) == int_mul(p, q)
    if exact:
        p = _mul(d, q)
    try:
        want = divide_exact(p, d)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _divide_exact(p, d)
    else:
        assert _divide_exact(p, d) == want
        if exact:
            assert want == q


def test_exact_division_raises_on_either_inexact_step():
    from cychom.intpoly import _divide_exact
    with pytest.raises(ArithmeticError):          # x does not divide y
        _divide_exact({(0, 1): 1}, {(1, 0): 1})
    with pytest.raises(ArithmeticError):          # 2 does not divide 3
        _divide_exact({(1, 0): 3}, {(1, 0): 2})
    with pytest.raises(ArithmeticError):          # x + 1 does not divide x^2 + 2
        _divide_exact({(2, 0): 1, (0, 0): 2}, {(1, 0): 1, (0, 0): 1})


_FRACTION_FIELDS = (
    FunctionField(("x",), dual_numbers("e")),
    FunctionField(("x", "y"), dual_numbers("e")),
    FunctionField(("x",), artin_algebra(("e", 2), ("f", 3))),
)


@st.composite
def _fraction_case(draw):
    """A fraction num/den over one of the fields, with a planted common
    coordinate factor, num spread over several Artin slices."""
    from cychom.intpoly import _mul
    ff = draw(st.sampled_from(_FRACTION_FIELDS))
    nc, nv = ff.ncoords, ff.nvars

    def poly(artin, max_size):
        exps = [st.integers(0, 2)] * nc + [st.integers(0, 2 if artin else 0)] * (nv - nc)
        return draw(st.dictionaries(st.tuples(*exps), st.integers(-4, 4).filter(bool),
                                    min_size=1, max_size=max_size))

    common = poly(False, 3)
    num = ff.poly(_mul(common, poly(True, 5)))
    den = _mul(common, poly(False, 3)) if draw(st.booleans()) else poly(False, 3)
    return ff, num, den


@given(_fraction_case())
@settings(max_examples=150, deadline=None)
def test_reduce_fraction_matches_the_former_reduction(case):
    from cychom.algebra import _reduce_fraction
    from fraction_oracle import reduce_int_fraction
    ff, num, den = case
    assert _reduce_fraction(ff, num, den) == reduce_int_fraction(ff, num, den)


def test_reduction_divides_only_to_certify_the_gcd(monkeypatch):
    # (x+1)e / ((x+1)(x+2)): the gcd x+1 is certified by dividing both
    # inputs by it, and those quotients are the reduced fraction
    from cychom import algebra, intpoly
    calls = []
    divide = intpoly._divide_exact

    def counted(p, d):
        calls.append(d)
        return divide(p, d)

    monkeypatch.setattr(intpoly, "_divide_exact", counted)
    monkeypatch.setattr(algebra, "_divide_exact", counted, raising=False)
    ff = FunctionField(("x",), dual_numbers("e"))
    num = {(1, 1): 1, (0, 1): 1}
    den = {(2, 0): 1, (1, 0): 3, (0, 0): 2}
    assert algebra._reduce_fraction(ff, num, den) == ({(0, 1): 1}, {(1, 0): 1, (0, 0): 2})
    assert len(calls) == 2


def test_forged_value_hashes_like_the_constructed_one():
    # the hash is kept on first use; an instance built without __init__
    # (as test_unbounded_complex_rejected forges one) computes it then
    g = Generator("x", 1)
    a = GradedAlgebra((g,), ((3,),))
    forged_g = object.__new__(Generator)
    for name, value in (("symbol", "x"), ("weight", 1), ("nilpotency", None)):
        object.__setattr__(forged_g, name, value)
    forged = object.__new__(GradedAlgebra)
    object.__setattr__(forged, "generators", (forged_g,))
    object.__setattr__(forged, "monomial_relations", ((3,),))
    assert hash(forged) == hash(a) == hash(forged)
    assert forged == a and a == forged and forged_g == g
    assert {a: 1}[forged] == 1
    assert hash(GradedAlgebra((g,), ((2,),))) != hash(a)


def test_function_field_elements_are_canonical():
    ff = FunctionField(("x", "y"), dual_numbers("e"))
    x, y, e = ff.var("x"), ff.var("y"), ff.var("e")
    rng = random.Random(3)

    def rand_el():
        def rand_poly():
            return sum((ff.const(rng.randint(-4, 4)) * x ** rng.randint(0, 2)
                        * y ** rng.randint(0, 1) for _ in range(3)), ff.zero())
        den = ff.zero()
        while den.is_zero():
            den = rand_poly() + ff.const(rng.randint(1, 3))
        return (rand_poly() + rand_poly() * e) / den

    elements = []
    for _ in range(40):
        f, g = rand_el(), rand_el()
        elements += [f, f + g, f - g, f * g, f.derivative_wrt("x"), -f]
        if g.is_unit():
            elements.append(f / g)
    nc, nv = ff.ncoords, ff.nvars
    one = {(0,) * nv: 1}
    for el in elements:
        assert all(type(c) is int for p in (el.num, el.den) for c in p.values())
        assert el.den[max(el.den, key=lambda m: (sum(m), m))] > 0
        # den may share a factor with one Artin slice of num (as x does
        # in (x + e)/x), never with all of them together, and that
        # includes the integer content
        slices = {}
        for m, c in el.num.items():
            slices.setdefault(m[nc:], {})[m[:nc] + (0,) * (nv - nc)] = c
        g = el.den
        for sl in slices.values():
            g = _prs_gcd(g, sl, nv)
        assert g == one
        again = FunctionFieldElement(ff, el.num, el.den)
        assert (again.num, again.den) == (el.num, el.den)


# -- differential test against the former Fraction-coefficient class ------


def _same_elements(ff, seed):
    """Batches of elements built alike in any function field class: the
    property-suite generators, then + - * /, derivatives, inverses, nilfree
    parts and powers, with equal elements reached along different paths."""
    from cychom.symbols import random_unit
    rng = random.Random(seed)
    batches = []
    for _ in range(4):
        f = random_unit(ff, rng, 1)
        g = (_random_element(ff, rng, unit=False) if "e" in ff.symbols
             else random_unit(ff, rng, 2) - ff.const(rng.randint(0, 2)))
        batch = [ff.zero(), ff.one(), f, g, f + g, f - g, -(g - f), f * g, g / f,
                 (f * g) / f, f / 2, 2 * g / 4, f.invert(), f.nilfree_part(),
                 g.nilfree_part(), f ** 2, f ** -2, g ** 0, g ** 3]
        batch += [h.derivative_wrt(s) for h in (f, g) for s in ff.symbols]
        if g.is_unit():
            batch += [f / g, g.invert()]
        batches.append(batch)
    return batches


@pytest.mark.parametrize("coords,artin", [
    (("x",), dual_numbers("e")),
    (("x", "y"), dual_numbers("e")),
    (("x",), artin_algebra(("t", 3))),
    (("x",), artin_algebra(("e", 2), ("f", 2))),
], ids=["qx_e", "qxy_e", "qx_t3", "qx_ef"])
def test_function_field_matches_fraction_oracle(coords, artin):
    from fraction_oracle import FractionFunctionField
    for seed in range(3):
        batches = zip(_same_elements(FunctionField(coords, artin), seed),
                      _same_elements(FractionFunctionField(coords, artin), seed))
        for new, old in batches:
            assert [str(a) for a in new] == [str(b) for b in old]
            for i, j in itertools.combinations(range(len(new)), 2):
                assert (new[i] == new[j]) == (old[i] == old[j]), (seed, i, j)


# -- spec files --------------------------------------------------------------


def test_algebra_from_spec_roundtrip():
    spec = {"generators": [{"symbol": "x", "weight": 1}],
            "monomial_relations": [{"x": 3}],
            "artin": [{"symbol": "e", "nilpotency": 2}]}
    r, artin, pair = algebra_from_spec(spec)
    assert len(r.graded_basis(2)) == 1 and len(r.graded_basis(3)) == 0
    assert artin.is_dual_numbers()
    assert len(pair.total.graded_basis(2)) == 2


def test_algebra_from_spec_no_artin():
    r, artin, pair = algebra_from_spec({"generators": [{"symbol": "x"}]})
    assert artin is None and pair is None
    assert len(r.graded_basis(4)) == 1


_SPECS = sorted((pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "specs")
                .glob("*.json"))


@pytest.mark.parametrize("path", _SPECS, ids=lambda p: p.stem)
def test_parsed_specs_are_values(path):
    # the algebras key the caches (strip, _bigraded_basis, omega_dims) by
    # value; a broken hash would only miss the caches, which no output byte
    # shows.  Two parses give one field value, whose elements combine
    spec = json.loads(path.read_text())
    (r1, a1, p1), (r2, a2, p2) = algebra_from_spec(spec), algebra_from_spec(
        json.loads(path.read_text()))
    ff1, ff2 = function_field_from_spec(spec), function_field_from_spec(dict(spec))
    for x, y, fields in ((r1, r2, (r1.generators, r1.monomial_relations)),
                         (a1, a2, (a1.algebra,)), (p1, p2, (p1.total, p1.artin)),
                         (ff1, ff2, (ff1.coords, ff1.artin))):
        assert x is not y and x == y and hash(x) == hash(y)
        assert x != fields and fields != x          # no namedtuple
    assert all(g == h and hash(g) == hash(h) and g != (g.symbol, g.weight, g.nilpotency)
               for g, h in zip(p1.total.generators, p2.total.generators))
    # a table on the second copy reads the strips of the first
    cyclic.hc_table(p1, 2, 1)
    before = cyclic.strip.cache_info()
    cyclic.hc_table(p2, 2, 1)
    after = cyclic.strip.cache_info()
    assert after.hits > before.hits and after.misses == before.misses
    # elements of the two copies combine, and equal coefficients give equal
    # one-forms
    u, v = ff1.var(ff1.symbols[-1]), ff2.var(ff2.symbols[-1])
    assert (u - v).is_zero() and (u * v).ff == ff2
    form1, form2 = differentials.OneForm(ff1, {s: u for s in ff1.symbols}), \
        differentials.OneForm(ff2, {s: v for s in ff2.symbols})
    assert form1 == form2 and (form1 - form2).is_zero() and str(form1) == str(form2)
    # one changed number makes another value
    changed = json.loads(path.read_text())
    changed["artin"][0]["nilpotency"] += 1
    _r3, a3, p3 = algebra_from_spec(changed)
    assert a3 != a1 and p3 != p1 and function_field_from_spec(changed) != ff1
    if spec["generators"]:
        changed["generators"][0]["weight"] = 2
        r4, _a4, p4 = algebra_from_spec(changed)
        assert r4 != r1 and p4 != p1
