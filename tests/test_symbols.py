import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from cychom import algebra
from cychom.algebra import (FunctionField, FunctionFieldElement, artin_algebra,
                            dual_numbers)
from cychom.differentials import OneForm, d
from cychom.symbols import (FORMULA_NOTES, NonUnit, SteinbergSymbol,
                            SymbolParseError, nilpotent_log, parse_symbol,
                            random_unit, tangent, tangent_general)
from fraction_oracle import element_parse_symbol, peel, termwise_invert, termwise_log
from test_differentials import SUITE_ARTIN, _random_fields

FF_AB = FunctionField(("a", "b"), dual_numbers("e"))
FF_XY = FunctionField(("x", "y"), dual_numbers("e"))


def test_symbol_requires_units():
    e = FF_AB.var("e")
    with pytest.raises(NonUnit):
        SteinbergSymbol(e, FF_AB.one())


def _reassembles(p, s):
    """First slots multiply back to f and second slots to g."""
    f0, g0 = p.constant
    return f0 * p.factors[1][0] == s.f and g0 * p.factors[0][1] == s.g


def _constant_parts_trivial(p):
    """Setting nilpotents to zero in each factor gives {.,1} or {1,.}."""
    one = p.constant[0].ff.one()
    return all(a.nilfree_part() == one or b.nilfree_part() == one
               for a, b in p.factors)


def test_peel_constant_symbol():
    x, y = FF_XY.var("x"), FF_XY.var("y")
    p = peel(SteinbergSymbol(x, y))
    assert p.constant[0] == x and p.constant[1] == y
    one = FF_XY.one()
    for fa, fb in p.factors:
        assert fa == one or fb == one
    assert _reassembles(p, SteinbergSymbol(x, y))


def test_peel_nilpotent_first_slot():
    x, y, e, one = (FF_XY.var("x"), FF_XY.var("y"), FF_XY.var("e"), FF_XY.one())
    s = SteinbergSymbol(x + e, y)
    p = peel(s)
    assert p.constant == (x, y)
    assert p.factors[0] == (x, one)               # gamma = 0
    assert p.factors[1][0] == one + e / x         # 1 + phi
    assert p.factors[1][1] == y
    assert p.factors[2] == (one + e / x, one)
    assert _reassembles(p, s) and _constant_parts_trivial(p)


def test_peel_nilpotent_second_slot():
    x, e, one = FF_XY.var("x"), FF_XY.var("e"), FF_XY.one()
    p = peel(SteinbergSymbol(x, one + x * e))
    assert p.factors[0] == (x, one + x * e)
    assert p.factors[1][0] == one


def test_peel_random_reassembly():
    rng = random.Random(10)
    for _ in range(20):
        s = SteinbergSymbol(random_unit(FF_AB, rng, 1), random_unit(FF_AB, rng, 1))
        p = peel(s)
        assert _reassembles(p, s)
        assert _constant_parts_trivial(p)


def test_nilpotent_log():
    ff = FunctionField(("x",), artin_algebra(("t", 4)))
    t, x = ff.var("t"), ff.var("x")
    u = x * t
    # log(1+u) = u - u^2/2 + u^3/3 for u^4 = 0
    assert nilpotent_log(u) == u - u * u / 2 + u * u * u / 3
    with pytest.raises(ValueError):
        nilpotent_log(ff.one())


def _random_nilpotent(ff, rng):
    """1-3 terms on random Artin monomials of positive degree over a random
    coordinate denominator."""
    nc, nv = ff.ncoords, ff.nvars
    mons = [mu for mu in ff.artin.algebra.graded_basis(0) if any(mu)]
    num = {tuple(rng.randint(0, 2) for _ in range(nc)) + mu: rng.choice([-3, -2, -1, 1, 2, 3])
           for mu in rng.sample(mons, min(len(mons), rng.randint(1, 3)))}
    x_k = (rng.randint(1, 2),) + (0,) * (nv - 1)
    return FunctionFieldElement(ff, num, {(0,) * nv: rng.randint(1, 3), x_k: rng.randint(-2, 2) or 1})


def _series_cases(ff, rng, top: bool):
    """0 and a random nilpotent element of ff, and units with and without a
    nilpotent tail; with ``top``, also the sum of the Artin generators times
    x/(x + 1), at whose last power the bound is met when no declared
    relation kills the top monomial."""
    x = ff.var("x")
    nils = [ff.zero()]
    if ff.artin is not None:
        nils.append(_random_nilpotent(ff, rng))
        if top:
            gens = sum((ff.var(g.symbol) for g in ff.artin.algebra.generators), ff.zero())
            nils.append(gens * x / (x + 1))
    return nils, [x / (x - 2)] + [n + x - 1 for n in nils[1:]] + [1 + n for n in nils[2:]]


def test_nilpotent_series_matches_the_termwise_series():
    # log(1 + u) and the inverse by Horner's rule equal the former series
    # that added one reduced term at a time, num and den alike, on every
    # suite field and the 240 random Artin parts over Q(x) and Q(x, y),
    # whose declared relations leave the bound on the last power loose
    suite = [FunctionField(coords, art) for art in [None, *SUITE_ARTIN]
             for coords in (("x",), ("x", "y"))] + [FF_XY]
    rng = random.Random(36)
    for ff in suite + _random_fields():
        nils, units = _series_cases(ff, rng, ff in suite)
        for u in nils:
            got, want = nilpotent_log(u), termwise_log(u)
            assert (got.num, got.den) == (want.num, want.den), (ff.artin, u)
        for el in units:
            got, want = el.invert(), termwise_invert(el)
            assert (got.num, got.den) == (want.num, want.den), (ff.artin, el)


def test_nilpotent_log_reduces_once_per_term(monkeypatch):
    # log(1 + t/x) over Q(x)[t]/(t^200) stops at K = 199 and makes one
    # reduced product per term; the former series reduced each power,
    # quotient and partial sum
    ff = FunctionField(("x",), artin_algebra(("t", 200)))
    u = ff.var("t") / ff.var("x")
    reductions = []
    reduce_fraction = algebra._reduce_fraction

    def counted(*args):
        reductions.append(args)
        return reduce_fraction(*args)

    monkeypatch.setattr(algebra, "_reduce_fraction", counted)
    got = nilpotent_log(u)
    monkeypatch.undo()
    assert len(reductions) <= 199 + 3
    # sum (-1)**(k+1) t**k / (k x**k) over the one denominator L x**199
    lcm = math.lcm(*range(1, 200))
    want = FunctionFieldElement(ff, {(199 - k, k): (-1) ** (k + 1) * (lcm // k)
                                     for k in range(1, 200)}, {(199, 0): lcm})
    assert got == want


def test_tangent_generator_surjectivity():
    a, b, e, one = (FF_AB.var("a"), FF_AB.var("b"), FF_AB.var("e"), FF_AB.one())
    base = FunctionField(("a", "b"))
    form = tangent(SteinbergSymbol(b, one + a * b * e))
    assert form == OneForm(base, {"b": base.var("a")})


def test_tangent_steinberg_relation():
    ff = FunctionField(("x",), dual_numbers("e"))
    rng = random.Random(3)
    one = ff.one()
    checked = 0
    while checked < 20:
        f = random_unit(ff, rng, 1)
        if not (one - f).is_unit():
            continue
        assert tangent(SteinbergSymbol(f, one - f)).is_zero()
        checked += 1


def test_tangent_unipotent_pair_vanishes():
    a, b, e, one = (FF_AB.var("a"), FF_AB.var("b"), FF_AB.var("e"), FF_AB.one())
    assert tangent(SteinbergSymbol(one + a * e, one + b * e)).is_zero()


def test_tangent_bimultiplicative_sample():
    rng = random.Random(17)
    for _ in range(10):
        f, f2, g = (random_unit(FF_AB, rng, 1) for _ in range(3))
        lhs = tangent(SteinbergSymbol(f * f2, g))
        rhs = tangent(SteinbergSymbol(f, g)) + tangent(SteinbergSymbol(f2, g))
        assert (lhs - rhs).is_zero()


def test_tangent_antisymmetric_over_dual_numbers():
    rng = random.Random(23)
    for _ in range(10):
        f, g = random_unit(FF_AB, rng, 1), random_unit(FF_AB, rng, 1)
        assert (tangent(SteinbergSymbol(f, g))
                + tangent(SteinbergSymbol(g, f))).is_zero()


_DUAL_FIELDS = [FunctionField(coords, dual_numbers("e"))
                for coords in (("x",), ("x", "y"), ("x", "y", "z"))]


def _assert_closed_form_matches_oracle(s):
    got, want = tangent(s), tangent_general(s).strip_dual()
    assert got == want
    assert (str(got), got.to_coeff_strings()) == (str(want), want.to_coeff_strings())
    return got


@pytest.mark.parametrize("ff", _DUAL_FIELDS, ids=["qx", "qxy", "qxyz"])
def test_tangent_closed_form_matches_three_term_oracle(ff):
    # the closed form against the three-term rule in the full dual field,
    # with e divided out
    rng = random.Random(40 + ff.ncoords)
    degree = 2 if ff.ncoords < 3 else 1
    one = ff.one()
    steinberg = 0
    for _ in range(12):
        f, g = random_unit(ff, rng, degree), random_unit(ff, rng, degree)
        _assert_closed_form_matches_oracle(SteinbergSymbol(f, g))
        if (one - f).is_unit():
            assert _assert_closed_form_matches_oracle(SteinbergSymbol(f, one - f)).is_zero()
            steinberg += 1
    assert steinberg > 0
    x, e = ff.var(ff.coords[0]), ff.var("e")
    y = ff.var(ff.coords[-1])
    # a nilpotent-free pair and a unipotent pair both map to zero
    nilfree = SteinbergSymbol(x + 2, (x * y + 1) / (y + 3))
    unipotent = SteinbergSymbol(one + x * e / (y + 1), one + (x * y - 2) * e)
    assert _assert_closed_form_matches_oracle(nilfree).is_zero()
    assert _assert_closed_form_matches_oracle(unipotent).is_zero()


def test_tangent_general_truncated_cubic():
    ff = FunctionField(("a", "b"), artin_algebra(("t", 3)))
    a, b, t, one = ff.var("a"), ff.var("b"), ff.var("t"), ff.one()
    form = tangent_general(SteinbergSymbol(b, one + a * b * t))
    # log(1 + abt) = abt - (abt)^2/2, times db/b
    expected = OneForm(ff, {"b": a * t - a * a * b * t * t / 2})
    assert (form - expected).is_zero()


def test_tangent_general_bimultiplicative():
    ff = FunctionField(("a",), artin_algebra(("t", 3)))
    rng = random.Random(5)
    for _ in range(8):
        f, f2, g = (random_unit(ff, rng, 1) for _ in range(3))
        lhs = tangent_general(SteinbergSymbol(f * f2, g))
        rhs = (tangent_general(SteinbergSymbol(f, g))
               + tangent_general(SteinbergSymbol(f2, g)))
        assert (lhs - rhs).is_zero()


def test_tangent_nilfree_symbol_is_zero():
    x, y = FF_XY.var("x"), FF_XY.var("y")
    assert tangent(SteinbergSymbol(x, y)).is_zero()
    assert tangent_general(SteinbergSymbol(x, y)).is_zero()
    # without an Artin part the three-term rule gives the zero form
    ff = FunctionField(("x", "y"))
    assert tangent_general(SteinbergSymbol(ff.var("x") + 1, ff.var("y"))).is_zero()


def test_steinberg_residual_dual_zero_cubic_nonzero():
    ff = FunctionField(("a",), artin_algebra(("t", 3)))
    a, t, one = ff.var("a"), ff.var("t"), ff.one()
    f = a + t
    res = tangent_general(SteinbergSymbol(f, one - f))
    # frozen from the hand expansion of the three-term formula at t^3 = 0
    ca = (one - 2 * a) * t * t / (2 * a * a * (one - a) * (one - a))
    ct = -t / (a * (one - a))
    assert (res - OneForm(ff, {"a": ca, "t": ct})).is_zero()
    # over dual numbers the residual is identically zero
    ffd = FunctionField(("a",), dual_numbers("e"))
    fd = ffd.var("a") + ffd.var("e")
    assert tangent_general(SteinbergSymbol(fd, ffd.one() - fd)).is_zero()


def test_antisymmetry_defect_is_exact_differential():
    # T{f,g} + T{g,f} = d(log(1+phi) log(1+gamma)): check at t^3 = 0
    ff = FunctionField(("a",), artin_algebra(("t", 3)))
    rng = random.Random(8)
    for _ in range(5):
        f, g = random_unit(ff, rng, 1), random_unit(ff, rng, 1)
        one = ff.one()
        phi = f / f.nilfree_part() - one
        gamma = g / g.nilfree_part() - one
        defect = (tangent_general(SteinbergSymbol(f, g))
                  + tangent_general(SteinbergSymbol(g, f)))
        assert (defect - d(nilpotent_log(phi) * nilpotent_log(gamma))).is_zero()


def test_formula_notes_present():
    assert "dlog" in FORMULA_NOTES["denominators"]


def test_parse_symbol_roundtrip():
    ff = FunctionField(("x",), dual_numbers("e"))
    s = parse_symbol("{x + e, 1 - x^2}", ff)
    x, e, one = ff.var("x"), ff.var("e"), ff.one()
    assert s.f == x + e and s.g == one - x * x
    s2 = parse_symbol("{(1+x)*x/2, 3}", ff)
    assert s2.f == (one + x) * x / 2
    # ** is ^, unary - and + bind to a whole power, an exponent may be negative
    s3 = parse_symbol("{-x**2 + e, +x^-2 - -1}", ff)
    assert s3.f == e - x * x and s3.g == one / (x * x) + one


def test_parse_element_errors():
    # the same element errors, raised from inside a symbol
    ff = FunctionField(("x",))
    with pytest.raises(SymbolParseError, match="unexpected end of input"):
        parse_symbol("{x, x + ", ff)
    with pytest.raises(SymbolParseError, match="unknown symbol 'y'"):
        parse_symbol("{y, x}", ff)
    with pytest.raises(SymbolParseError, match="unexpected character '\\$'"):
        parse_symbol("{x $ 2, x}", ff)
    with pytest.raises(SymbolParseError, match="trailing input at 'x'"):
        parse_symbol("{x, x} x", ff)
    with pytest.raises(SymbolParseError, match="exponent must be an integer, found 'y'"):
        parse_symbol("{x^y, 2}", ff)
    with pytest.raises(SymbolParseError, match="exponent must be an integer, found '\\('"):
        parse_symbol("{x^(2), 2}", ff)
    with pytest.raises(SymbolParseError, match="unexpected character '²'"):
        parse_symbol("{x^², 2}", ff)


def test_parse_symbol_refuses_a_huge_exponent_at_once():
    # x^99999999 would be multiplied out term by term before the gcd ever
    # ran; an exponent above the bound is refused before any product, and
    # a negative one is bounded alike
    with pytest.raises(SymbolParseError, match="exponent 99999999 is above 100"):
        parse_symbol("{x^99999999 + e, y}", FF_XY)
    with pytest.raises(SymbolParseError, match="exponent 101 is above 100"):
        parse_symbol("{x, (x + y)^-101}", FF_XY)
    s = parse_symbol("{x^100 + e, y}", FF_XY)
    assert s.f == FF_XY.var("x") ** 100 + FF_XY.var("e")


_PARSE_FIELDS = {
    "qx_e": FunctionField(("x",), dual_numbers("e")),
    "qxy_e": FunctionField(("x", "y"), dual_numbers("e")),
    "qx_t3": FunctionField(("x",), artin_algebra(("t", 3))),
    "qx_ef": FunctionField(("x",), artin_algebra(("e", 2), ("f", 2))),
}


def _expressions(ff):
    """Expression texts over the grammar: literals, every symbol, zero
    divisors such as (x-x), divisors with a nilpotent tail, and negative
    and zero exponents, -0 among them."""
    x, nil = ff.coords[0], ff.symbols[ff.ncoords]
    leaves = st.sampled_from(
        ["0", "1", "2", "3", "12", *ff.symbols, f"({x}-{x})", f"({nil}-{nil})",
         f"(1 + {nil})", f"({x} + {x}*{nil})", f"(2*{nil} - {x})"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "*", " / ", "/"]), inner)
            .map("".join),
            st.tuples(inner, st.sampled_from(["^", "**"]), st.sampled_from(["", "-"]),
                      st.integers(0, 3))
            .map(lambda t: f"({t[0]}){t[1]}{t[2]}{t[3]}"),
            st.tuples(st.sampled_from(["-", "+", "- -"]), inner).map("".join),
            inner.map(lambda a: f"({a})"))

    return st.recursive(leaves, extend, max_leaves=10)


def _parse_outcome(parse, text, ff):
    try:
        s = parse(text, ff)
    except Exception as exc:
        return type(exc), str(exc)
    return (s.f.num, s.f.den, str(s.f)), (s.g.num, s.g.den, str(s.g))


@pytest.mark.parametrize("name", list(_PARSE_FIELDS))
def test_parse_symbol_matches_element_parser(name):
    # the fraction parser against the former parser that reduced every
    # intermediate element: the same canonical entries, or the same error
    ff = _PARSE_FIELDS[name]

    @given(_expressions(ff), _expressions(ff))
    @settings(max_examples=120, deadline=None)
    def check(f, g):
        text = "{" + f + ", " + g + "}"
        assert (_parse_outcome(parse_symbol, text, ff)
                == _parse_outcome(element_parse_symbol, text, ff))

    check()


def test_parse_symbol_reduces_each_entry_once(monkeypatch):
    reductions = []
    reduce_fraction = algebra._reduce_fraction

    def counted(*args):
        reductions.append(args)
        return reduce_fraction(*args)

    monkeypatch.setattr(algebra, "_reduce_fraction", counted)
    entry = "(3 + 2*x - x*y + e*(2 + x))/(4 + x)"
    s = parse_symbol("{" + entry + ", 1 - " + entry + "}", FF_XY)
    assert len(reductions) == 2
    x, y, e, one = FF_XY.var("x"), FF_XY.var("y"), FF_XY.var("e"), FF_XY.one()
    f = (3 + 2 * x - x * y + e * (2 + x)) / (4 + x)
    assert s.f == f and s.g == one - f


def test_tangent_output_matches_the_golden_bytes(capsys):
    # stdout of `cychom tangent` on the first tangent-batch symbols of
    # perfbench seed 1, in json, text and --general (scripts/make_goldens.py)
    from cychom import cli
    root = pathlib.Path(__file__).resolve().parents[1]
    cases = json.loads((root / "tests" / "fixtures" / "v1" / "tangent_symbols.json").read_text())
    assert len(cases) == 75
    for case in cases:
        argv = list(case["argv"])
        i = argv.index("--algebra") + 1
        argv[i] = str(root / argv[i])
        assert cli.main(argv) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == (case["stdout"], ""), case["argv"]
