import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from cychom.algebra import (FunctionField, FunctionFieldElement, Generator,
                            GradedAlgebra, artin_algebra, dual_numbers,
                            dual_pair, polynomial_algebra)
from cychom.differentials import (OmegaBundle, OmegaModule, OneForm, _reduce_artin_components,
                                  d, dlog, hc_bundle, hn_bundle, omega_dims, zero_form)
from fraction_oracle import (_relation_vectors, artin_reduction_rules, box_live,
                             box_max_nildeg, echelon_artin_reduction_rules, fraction_rank,
                             reduce_artin_components, relation_rows)


def test_omega_qx_line():
    a = polynomial_algebra("x")
    assert omega_dims(a, 1, 3) == 1  # x^2 dx


def test_omega_truncated_total():
    a = GradedAlgebra((Generator("x", 1),), ((2,),))
    # Omega^1 = A dx / (2x dx): basis {dx}, x dx = 0
    assert sum(omega_dims(a, 1, w) for w in range(6)) == 1


def test_omega_of_q_vanishes():
    a = polynomial_algebra()
    for w in range(3):
        assert omega_dims(a, 1, w) == 0
        assert omega_dims(a, 2, w) == 0


def test_omega_free_counts():
    # for Q[x_1..x_k]: weight-w piece of Omega^p counts monomial*wedge terms
    for k in (1, 2, 3):
        a = polynomial_algebra(*[f"x{i}" for i in range(k)])
        for p in range(k + 2):
            for w in range(5):
                if p > k:
                    assert omega_dims(a, p, w) == 0
                else:
                    monos = len(a.graded_basis(w - p))
                    assert omega_dims(a, p, w) == comb(k, p) * monos


def test_omega_dual_numbers_relation():
    # e^2 = 0 forces e de = 0 in characteristic zero, so Omega^1 is Q de
    qe = dual_pair(polynomial_algebra()).total
    assert omega_dims(qe, 1, 0) == 1
    assert sum(omega_dims(qe, 1, w) for w in range(1, 4)) == 0


def test_omega_truncated_t3():
    # Q[t]/(t^3), t nilpotent of weight 0: Omega^1 = (A dt)/(3 t^2 dt)
    a = artin_algebra(("t", 3)).algebra
    assert omega_dims(a, 1, 0) == 2  # dt, t dt


def test_hc_bundle_shapes():
    qx = polynomial_algebra("x")
    q = polynomial_algebra()
    assert hc_bundle(0, qx).degrees == (0,)
    assert hc_bundle(3, qx).degrees == (3, 1)
    assert [hc_bundle(3, qx).graded_dim(w) for w in range(4)] == [0, 1, 1, 1]
    b = hc_bundle(2, q)
    assert b.degrees == (2, 0) and b.graded_dim(0) == 1


def test_hn_bundle_shapes():
    qx = polynomial_algebra("x")
    qxy = polynomial_algebra("x", "y")
    assert hn_bundle(2, 0, qx).degrees == (1,)
    assert hn_bundle(0, 2, qxy).degrees == (1,)
    assert hn_bundle(1, 1, qx).degrees == (1,)
    assert hn_bundle(0, 0, qx).degrees == ()


def test_bundle_degree_validation():
    with pytest.raises(ValueError):
        OmegaBundle(polynomial_algebra("x"), (3, 2))


def _random_ff_element(ff, rng, unit=False):
    x = ff.var(ff.coords[0])
    y = ff.var(ff.coords[1]) if len(ff.coords) > 1 else ff.one()
    nil = ff.one()
    if ff.artin is not None:
        nil = ff.var(ff.artin.algebra.generators[0].symbol)
    el = ff.zero()
    for _ in range(3):
        el = el + (ff.const(rng.randint(-3, 3))
                   * x ** rng.randint(0, 2) * y ** rng.randint(0, 1))
    el = el + ff.const(rng.randint(-2, 2)) * nil * x ** rng.randint(0, 1)
    den = ff.const(rng.randint(1, 3)) + x ** rng.randint(1, 2)
    el = el / den
    if unit:
        while not el.is_unit():
            el = el + ff.const(rng.randint(1, 4))
    return el


def test_leibniz_on_elements():
    ff = FunctionField(("x", "y"), dual_numbers("e"))
    rng = random.Random(3)
    for _ in range(50):
        f = _random_ff_element(ff, rng)
        g = _random_ff_element(ff, rng)
        assert (d(f * g) - (d(f).scale(g) + d(g).scale(f))).is_zero()


def _d_of_one_form(form):
    # two-form components of d(sum c_s ds): (s < t) -> d_s c_t - d_t c_s
    ff = form.ff
    syms = ff.symbols
    c = {s: form.coeffs.get(s, ff.zero()) for s in syms}
    return {(s, t): c[t].derivative_wrt(s) - c[s].derivative_wrt(t)
            for i, s in enumerate(syms) for t in syms[i + 1:]}


def test_d_squared_zero():
    # applying d twice to 50 random elements yields the zero two-form
    ff = FunctionField(("x", "y"))
    rng = random.Random(5)
    for _ in range(50):
        f = _random_ff_element(ff, rng)
        two_form = _d_of_one_form(d(f))
        assert all(c.is_zero() for c in two_form.values())


def test_e_de_vanishes():
    ff = FunctionField(("x",), dual_numbers("e"))
    e = ff.var("e")
    assert d(e).scale(e).is_zero()


def test_t2_dt_vanishes_for_t3():
    ff = FunctionField(("x",), artin_algebra(("t", 3)))
    t = ff.var("t")
    dt = d(t)
    assert dt.scale(t * t).is_zero()
    assert not dt.scale(t).is_zero()


def test_dlog_multiplicative():
    ff = FunctionField(("x",), dual_numbers("e"))
    rng = random.Random(9)
    for _ in range(25):
        f = _random_ff_element(ff, rng, unit=True)
        g = _random_ff_element(ff, rng, unit=True)
        assert (dlog(f * g) - (dlog(f) + dlog(g))).is_zero()


def test_strip_dual():
    ff = FunctionField(("x",), dual_numbers("e"))
    x, e = ff.var("x"), ff.var("e")
    form = OneForm(ff, {"x": x * e})
    stripped = form.strip_dual()
    base = FunctionField(("x",))
    assert stripped == OneForm(base, {"x": base.var("x")})


def test_strip_dual_errors():
    ff = FunctionField(("x",), dual_numbers("e"))
    x = ff.var("x")
    with pytest.raises(ValueError, match="surviving d\\(e\\)"):
        OneForm(ff, {"e": ff.one(), "x": x * ff.var("e")}).strip_dual()
    with pytest.raises(ValueError, match="not a multiple"):
        OneForm(ff, {"x": x}).strip_dual()
    for other in (FunctionField(("x",)), FunctionField(("x",), artin_algebra(("t", 3)))):
        with pytest.raises(ValueError, match="dual-number extension"):
            OneForm(other, {"x": other.var("x")}).strip_dual()


def test_artin_coefficient():
    ff = FunctionField(("x", "y"), dual_numbers("e"))
    base = FunctionField(("x", "y"))
    x, y, e = ff.var("x"), ff.var("y"), ff.var("e")
    bx, by = base.var("x"), base.var("y")
    f = (x * x - y) / (2 * x + 4)
    assert (f * e).artin_coefficient((1,), base) == (bx * bx - by) / (2 * bx + 4)
    assert f.artin_coefficient((0,), base) == (bx * bx - by) / (2 * bx + 4)
    assert ff.zero().artin_coefficient((1,), base).is_zero()
    with pytest.raises(ValueError, match="not a multiple"):
        f.artin_coefficient((1,), base)
    with pytest.raises(ValueError, match="not a multiple"):
        (f + e).artin_coefficient((0,), base)


def test_zero_form():
    ff = FunctionField(("x",))
    assert zero_form(ff).is_zero()


# Q(x)[e, f]/(e^2, f^2, ef): d(ef) = 0 gives the rule f de -> -e df
FF_EF = FunctionField(("x",), artin_algebra(("e", 2), ("f", 2),
                                            monomial_relations=((1, 1),)))


def test_reduction_through_rule_with_target():
    x, e, f = FF_EF.var("x"), FF_EF.var("e"), FF_EF.var("f")
    assert OneForm(FF_EF, {"e": f, "f": e}).is_zero()
    assert OneForm(FF_EF, {"e": f * x}) == OneForm(FF_EF, {"f": -(e * x)})
    assert not OneForm(FF_EF, {"e": f * x}).is_zero()


@pytest.mark.parametrize("ff", [
    FunctionField(("x",), dual_numbers("e")),
    FunctionField(("x", "y"), dual_numbers("e")),
    FunctionField(("x",), artin_algebra(("t", 3))),
    FunctionField((), artin_algebra(("e", 2), ("f", 2))),
    FF_EF,
], ids=["Q(x)[e]/e2", "Q(x,y)[e]/e2", "Q(x)[t]/t3", "Q[e,f]/(e2,f2)",
        "Q(x)[e,f]/(e2,f2,ef)"])
def test_artin_reduction_rules_match_fraction_oracle(ff):
    # the RREF is unique for a fixed column order, so the rref of the
    # relation rows, whose rules the per-slice oracle reads, and the former
    # private elimination over (monomial, generator) keys agree; the echelon
    # keeps each integer row with its pivot value, read as rationals
    assert _rational(echelon_artin_reduction_rules(ff)) == artin_reduction_rules(ff) != {}


def _rational(rules):
    """Integer rules pivot -> (pivot value, row) as rational rows."""
    return {k: {k2: Fraction(v, pv) for k2, v in row.items()} for k, (pv, row) in rules.items()}


# every Artin part of a function field in the suite
SUITE_ARTIN = [dual_numbers("e"), artin_algebra(("t", 3)), artin_algebra(("e", 2), ("f", 2)),
               artin_algebra(("e", 2), ("f", 3)),
               artin_algebra(("e", 2), ("f", 2), monomial_relations=((1, 1),)),
               artin_algebra(("e", 3), ("f", 2), monomial_relations=((2, 1),))]


def _random_artin(rng):
    """1-3 generators of nilpotency 2-5 and 0-3 relations, each a monomial
    in at least two generators below every nilpotency."""
    nils = [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
    rels = set()
    for _ in range(rng.randint(0, 3) if len(nils) > 1 else 0):
        pair = rng.sample(range(len(nils)), 2)
        rels.add(tuple(rng.randint(1, k - 1) if i in pair else rng.randint(0, k - 1)
                       for i, k in enumerate(nils)))
    return artin_algebra(*((f"t{i}", k) for i, k in enumerate(nils)),
                         monomial_relations=tuple(sorted(rels)))


def test_closed_form_rules_match_the_echelon_of_the_relation_rows():
    # the integer rref of the Omega^1 relation rows, which the per-slice
    # oracle reads, is the former private elimination over (monomial,
    # generator) keys, rule for rule, on every Artin part of the suite and
    # on 240 random monomial-relation ones
    rng = random.Random(29)
    parts = SUITE_ARTIN + [_random_artin(rng) for _ in range(240)]
    assert sum(len(p.algebra.monomial_relations) > 0 for p in parts) > 100
    for art in parts:
        ff = FunctionField(("x",), art)
        assert _rational(echelon_artin_reduction_rules(ff)) == artin_reduction_rules(ff), art


def _random_monomial_algebra(rng):
    """1-3 generators, each a coordinate of weight 1-2 (nilpotent or not) or
    an Artin generator, and 0-2 monomial relations of exponents up to 2."""
    gens = []
    for i in range(rng.randint(1, 3)):
        if rng.random() < 0.4:
            gens.append(Generator(f"t{i}", 0, nilpotency=rng.randint(2, 4)))
        else:
            gens.append(Generator(f"x{i}", rng.randint(1, 2),
                                  nilpotency=rng.choice([None, None, 2, 3])))
    rels = {tuple(rng.randint(0, 2) for _ in gens) for _ in range(rng.randint(0, 2))}
    return GradedAlgebra(tuple(gens), tuple(sorted(r for r in rels if any(r))))


# algebras with relations of every kind: declared, nilpotency powers, or none
SUITE_OMEGA = [polynomial_algebra("x"), polynomial_algebra("x", "y"),
               polynomial_algebra("x", "y", weights={"y": 2}),
               GradedAlgebra((Generator("x", 1),), ((2,),)),
               GradedAlgebra((Generator("x", 1), Generator("y", 1)), ((2, 1),)),
               dual_pair(polynomial_algebra("x")).total,
               dual_pair(polynomial_algebra("x", "y")).total,
               *(art.algebra for art in SUITE_ARTIN)]


# x of weight 1, e of weight 0 with e^3 = 0 and y of weight 1, modulo x y^2
# and x^2 e^2: at p = 3 and w = 4 two wedges give one row d(x^D) ^ W
XEY = GradedAlgebra((Generator("x", 1), Generator("e", 0, nilpotency=3), Generator("y", 1)),
                    ((1, 0, 2), (2, 2, 0)))


def _omega_algebras():
    """The suite algebras, one with a row two wedges give, and 240 random
    monomial algebras."""
    rng = random.Random(32)
    return SUITE_OMEGA + [XEY] + [_random_monomial_algebra(rng) for _ in range(240)]


def test_relation_rows_are_the_distinct_former_rows():
    # one row d(x^D) ^ W per distinct row over the wedges W and relation
    # products D gives the set of the former rows mu * d(rel) ^ W, each row
    # once, and the graded dimensions of Omega^p read off the former rows
    # are unchanged, on the suite algebras and on 240 random monomial
    # algebras
    algebras = _omega_algebras()
    assert sum(bool(a.monomial_relations) for a in algebras) > 100
    assert sum(any(g.weight == 0 for g in a.generators) for a in algebras) > 100
    for a in algebras:
        for p in range(a.ngens + 2):
            module = OmegaModule(a, p)
            for w in range(6):
                new = [frozenset(row.items()) for row in module.relation_rows(w)]
                former = [frozenset(row.items()) for row in relation_rows(module, w)]
                old = set(former)
                assert set(new) == old and len(new) == len(old), (a, p, w)
                index = {b: i for i, b in enumerate(module.free_basis(w))}
                old_rank = fraction_rank({(r, index[key]): v for r, row in enumerate(old)
                                          for key, v in row})
                assert omega_dims(a, p, w) == len(index) - old_rank, (a, p, w)


def test_relations_and_nilpotent_degrees_match_the_box_walks():
    # the relations are the former relation vectors in their order, the
    # largest nilpotent degree read off the graded pieces is that of the
    # walk over the box of nilpotency ranges, and a field's polynomials keep
    # exactly the Artin monomials of the box walk, on the suite algebras,
    # 240 random monomial algebras and the Artin parts of the suite and 240
    # random ones
    rng = random.Random(33)
    parts = SUITE_ARTIN + [_random_artin(rng) for _ in range(240)]
    algebras = _omega_algebras() + [art.algebra for art in parts]
    assert sum(box_max_nildeg(a) > 2 for a in algebras) > 100
    for a in algebras:
        assert list(a.relations) == _relation_vectors(a), a
        assert a.max_nildeg() == box_max_nildeg(a), a
    for art in parts + [None]:
        ff = FunctionField(("x",), art)
        live = box_live(ff)
        if live is None:
            box = {(i,): i - 2 for i in range(4)}
            assert ff.poly(box) == {m: c for m, c in box.items() if c}, art
            continue
        # every exponent up to each nilpotency, so the box and past its edge
        box = {(i,) + mu: 1 + i for i in range(2)
               for mu in itertools.product(*(range(g.nilpotency + 1)
                                             for g in art.algebra.generators))}
        assert ff.poly(box) == {m: c for m, c in box.items() if m[1:] in live}, art


# Q(x)[e, f]/(e^3, f^2, e^2 f): d(e^2 f) = 0 gives the rule
# ef de -> -1/2 e^2 df, the one suite rule with a non-integer coefficient
FF_E3F = FunctionField(("x",), artin_algebra(("e", 3), ("f", 2),
                                             monomial_relations=((2, 1),)))


def _random_coefficient(ff, rng):
    """A random element with terms on random Artin basis monomials."""
    nc, na = ff.ncoords, ff.nvars - ff.ncoords
    num = {}
    for mu in ff.artin.algebra.graded_basis(0):
        for _ in range(rng.randint(0, 2)):
            m = tuple(rng.randint(0, 2) for _ in range(nc)) + mu
            num[m] = num.get(m, 0) + rng.randint(-4, 4)
    x_k = (rng.randint(1, 2),) + tuple(rng.randint(0, 1) for _ in range(nc - 1))
    den = {(0,) * (nc + na): rng.randint(1, 3), x_k + (0,) * na: rng.randint(-2, 2) or 1}
    return FunctionFieldElement(ff, num, den)


def _random_fields():
    """The 240 seeded random Artin parts, each over Q(x) and over Q(x, y)."""
    rng = random.Random(33)
    parts = [_random_artin(rng) for _ in range(240)]
    return [FunctionField(coords, art) for art in parts for coords in (("x",), ("x", "y"))]


@pytest.mark.parametrize("fields, forms", [
    ([FunctionField(("x",), dual_numbers("e"))], 150),
    ([FunctionField(("x", "y"), dual_numbers("e"))], 150),
    ([FunctionField(("x",), artin_algebra(("t", 3)))], 150),
    ([FunctionField(("x",), artin_algebra(("e", 2), ("f", 2)))], 150),
    ([FF_EF], 150),
    ([FF_E3F], 150),
    (_random_fields(), 1),
], ids=["Q(x)[e]/e2", "Q(x,y)[e]/e2", "Q(x)[t]/t3", "Q(x)[e,f]/(e2,f2)",
        "Q(x)[e,f]/(e2,f2,ef)", "Q(x)[e,f]/(e3,f2,e2f)", "random-artin"])
def test_reduction_matches_per_slice_oracle(fields, forms):
    # the reduction of each term by its own row and the former per-slice
    # one print the same normal form for every coefficient; on the random
    # Artin parts, declared relations move terms between the d(t_j)
    if len(fields) > 1:   # most random parts have a rule that moves a term
        assert sum(any(row for _pv, row in echelon_artin_reduction_rules(ff).values())
                   for ff in fields) > 200
    rng = random.Random(17)
    for ff in fields:
        for _ in range(forms):
            coeffs = {s: _random_coefficient(ff, rng) if s in ff.coords or rng.random() < 0.9
                      else ff.zero() for s in ff.symbols}
            got, want = ({s: str(c) for s, c in red(ff, coeffs).items() if not c.is_zero()}
                         for red in (_reduce_artin_components, reduce_artin_components))
            assert got == want, (ff.artin, coeffs)
