import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cychom.algebra import (ArtinLocal, DivisionByZero, FunctionField,
                            FunctionFieldElement, Generator, GradedAlgebra,
                            NameCollision, algebra_from_spec, artin_algebra,
                            dual_numbers, dual_pair, extend_dual_numbers,
                            polynomial_algebra, tensor_artin,
                            truncated_polynomial_algebra)


# -- graded bases -----------------------------------------------------------

def test_graded_basis_qx():
    a = polynomial_algebra("x")
    assert [a.monomial_str(m) for m in a.graded_basis(3)] == ["x^3"]


def test_graded_basis_truncated():
    a = truncated_polynomial_algebra("x", 3)
    assert a.graded_basis(5) == []
    assert len(a.graded_basis(2)) == 1


def test_graded_basis_dual_extension():
    a = extend_dual_numbers(polynomial_algebra("x"), "e")
    assert [a.monomial_str(m) for m in a.graded_basis(2)] == ["x^2", "x^2*e"]


def test_extend_dual_numbers_doubles_dims():
    a = polynomial_algebra("x", "y")
    ae = extend_dual_numbers(a)
    for w in range(5):
        assert ae.dim_weight(w) == 2 * a.dim_weight(w)


def test_extend_dual_numbers_q():
    ae = extend_dual_numbers(polynomial_algebra())
    assert [ae.monomial_str(m) for m in ae.graded_basis(0)] == ["1", "e"]


def test_extend_dual_numbers_weight_one_basis():
    ae = extend_dual_numbers(polynomial_algebra("x"))
    assert [ae.monomial_str(m) for m in ae.graded_basis(1)] == ["x", "x*e"]


def test_artin_augmentation():
    from fractions import Fraction
    a = artin_algebra(("t", 3))
    one = a.algebra.one
    t = (1,)
    coeffs = {one: Fraction(5, 2), t: Fraction(7)}
    assert a.augmentation(coeffs) == Fraction(5, 2)
    assert a.augmentation({t: Fraction(7)}) == 0


def test_extend_dual_numbers_name_collision():
    with pytest.raises(NameCollision):
        extend_dual_numbers(polynomial_algebra("e"), "e")


def test_weight_zero_generator_must_be_nilpotent():
    with pytest.raises(ValueError):
        Generator("u", 0)


def test_tensor_dims_multiply():
    # dim (a tensor b)_w = sum_{u+v=w} dim a_u * dim b_v
    r = truncated_polynomial_algebra("x", 4)
    a = artin_algebra(("t", 3))
    pair = tensor_artin(r, a)
    b_dims = {0: a.dim}  # all of A sits in weight 0
    for w in range(6):
        lhs = pair.total.dim_weight(w)
        rhs = sum(r.dim_weight(u) * (a.dim if v == 0 else 0)
                  for u in range(w + 1) for v in [w - u])
        assert lhs == rhs


def test_tensor_artin_splitting():
    pair = tensor_artin(polynomial_algebra("x"), dual_numbers("e"))
    base = pair.base
    for w in range(4):
        for m in base.graded_basis(w):
            assert pair.project(pair.embed(m)) == m
    assert [pair.total.monomial_str(m) for m in pair.ideal_basis_weight(1)] == ["x*e"]


def test_tensor_artin_t3():
    pair = tensor_artin(polynomial_algebra(), artin_algebra(("t", 3)))
    assert [pair.artin.algebra.monomial_str(m)
            for m in pair.artin.maximal_ideal_basis] == ["t", "t^2"]
    assert pair.ideal_nilpotency_order == 3


def test_tensor_artin_dims():
    pair = tensor_artin(truncated_polynomial_algebra("x", 2), dual_numbers("e"))
    total = sum(pair.total.dim_weight(w) for w in range(4))
    ideal = sum(len(pair.ideal_basis_weight(w)) for w in range(4))
    assert (total, ideal) == (4, 2)


def test_tensor_artin_collision():
    with pytest.raises(NameCollision):
        tensor_artin(polynomial_algebra("t"), artin_algebra(("t", 2)))


def test_ideal_power_vanishes():
    pair = tensor_artin(polynomial_algebra("x"), artin_algebra(("t", 3)))
    alg = pair.total
    k = pair.ideal_nilpotency_order
    ideal = [m for w in range(3) for m in pair.ideal_basis_weight(w)]
    # every product of k ideal monomials is zero
    for combo in itertools.product(ideal[:3], repeat=k):
        acc = alg.one
        for m in combo:
            acc = alg.mul(acc, m) if acc is not None else None
        assert acc is None


def test_multiplication_associative_commutative_low_weight():
    # exhaustive over all basis triples up to weight 6
    a = GradedAlgebra(
        (Generator("x", 1), Generator("y", 2), Generator("e", 0, nilpotency=2)),
        monomial_relations=((3, 0, 0),))
    basis = [m for w in range(7) for m in a.graded_basis(w)]
    for m1 in basis:
        for m2 in basis:
            assert a.mul(m1, m2) == a.mul(m2, m1)
            p12 = a.mul(m1, m2)
            for m3 in basis:
                p23 = a.mul(m2, m3)
                lhs = None if p12 is None else a.mul(p12, m3)
                rhs = None if p23 is None else a.mul(m1, p23)
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
    x, one = ffxe.var("x"), ffxe.one()
    g = FunctionFieldElement(ffxe, {(2, 0): Fraction(2), (1, 0): Fraction(2)},
                             {(1, 0): Fraction(2)})
    assert g == one + x
    lead = max(g.den, key=lambda m: (sum(m), m))
    assert g.den[lead] == 1


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


_small_poly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).filter(bool).map(Fraction),
    min_size=1, max_size=3)


@given(_small_poly, _small_poly, _small_poly)
@settings(max_examples=120, deadline=None)
def test_poly_gcd_divides_and_sees_common_factor(a, b, c):
    from cychom.algebra import _raw_mul, _to_int_poly, poly_gcd
    from cychom.intpoly import _divide_exact, _scale_down

    def clean(p):
        return {m: v for m, v in p.items() if v != 0}

    def divide(p, d):
        # exact over Z by Gauss's lemma when d divides p over Q
        _divide_exact(_to_int_poly(p), _scale_down(_to_int_poly(d)))

    a, b, c = clean(a), clean(b), clean(c)
    ac, bc = _raw_mul(a, c), _raw_mul(b, c)
    g = poly_gcd(ac, bc, 2)
    # g divides both products exactly
    divide(ac, g)
    divide(bc, g)
    # and the common factor c divides g
    divide(g, poly_gcd(g, c, 2))
    assert poly_gcd(g, c, 2) == poly_gcd(c, c, 2)


def _prs_gcd(a, b, nvars):
    """Oracle: the primitive pseudo-remainder gcd, made monic."""
    from cychom.algebra import _monic, _to_int_poly
    from cychom.intpoly import prs_gcd
    if not a or not b:
        return _monic(a or b)
    g = prs_gcd(_to_int_poly(a), _to_int_poly(b), nvars)
    return _monic({m: Fraction(v) for m, v in g.items()})


@st.composite
def _gcd_case(draw):
    """Two polynomials in 1-3 variables with a planted common factor and
    coefficients up to 10^6; now and then the second one is a constant."""
    nvars = draw(st.integers(1, 3))

    def poly(max_size):
        return draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * nvars),
            st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool),
                      st.sampled_from([1, 1, 1, 2, 7])),
            min_size=1, max_size=max_size))

    from cychom.algebra import _raw_mul
    common = poly(3)
    a = _raw_mul(poly(3), common)
    if draw(st.booleans()) and draw(st.booleans()):
        b = {(0,) * nvars: draw(st.builds(Fraction, st.integers(1, 10**6)))}
    else:
        b = _raw_mul(poly(3), common)
    return a, b, nvars


@given(_gcd_case())
@settings(max_examples=150, deadline=None)
def test_heuristic_gcd_matches_prs(case):
    from cychom.algebra import poly_gcd
    a, b, nvars = case
    assert poly_gcd(a, b, nvars) == _prs_gcd(a, b, nvars)
    assert poly_gcd(b, a, nvars) == _prs_gcd(a, b, nvars)


def test_heuristic_gcd_falls_back_to_prs(monkeypatch):
    from cychom import algebra, intpoly
    common = {(1, 1): Fraction(1), (0, 0): Fraction(-3)}           # xy - 3
    a = algebra._raw_mul(common, {(2, 0): Fraction(5), (0, 0): Fraction(1)})
    b = algebra._raw_mul(common, {(0, 2): Fraction(4, 3), (1, 0): Fraction(1)})
    assert _prs_gcd(a, b, 2) == common
    assert algebra.poly_gcd(a, b, 2) == common
    monkeypatch.setattr(intpoly, "_HEU_TRIES", 0)     # PRS decides alone
    assert algebra.poly_gcd(a, b, 2) == common


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
    one = {(0,) * nv: Fraction(1)}
    for el in elements:
        assert el.den[max(el.den, key=lambda m: (sum(m), m))] == 1
        # den may share a factor with one Artin slice of num (as x does
        # in (x + e)/x), never with all of them together
        slices = {}
        for m, c in el.num.items():
            slices.setdefault(m[nc:], {})[m[:nc] + (0,) * (nv - nc)] = c
        g = el.den
        for sl in slices.values():
            g = _prs_gcd(g, sl, nv)
        assert g == one
        again = FunctionFieldElement(ff, el.num, el.den)
        assert (again.num, again.den) == (el.num, el.den)


# -- spec files --------------------------------------------------------------


def test_algebra_from_spec_roundtrip():
    spec = {"generators": [{"symbol": "x", "weight": 1}],
            "monomial_relations": [{"x": 3}],
            "artin": [{"symbol": "e", "nilpotency": 2}]}
    r, artin, pair = algebra_from_spec(spec)
    assert r.dim_weight(2) == 1 and r.dim_weight(3) == 0
    assert artin.is_dual_numbers()
    assert pair.total.dim_weight(2) == 2


def test_algebra_from_spec_no_artin():
    r, artin, pair = algebra_from_spec({"generators": [{"symbol": "x"}]})
    assert artin is None and pair is None
    assert r.dim_weight(4) == 1
