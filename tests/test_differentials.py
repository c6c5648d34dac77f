import random
from math import comb

import pytest

from cychom.algebra import (FunctionField, artin_algebra, dual_numbers,
                            extend_dual_numbers, polynomial_algebra,
                            truncated_polynomial_algebra)
from cychom.differentials import (OmegaBundle, OneForm, _artin_reduction_rules,
                                  d, dlog, hc_bundle, hn_bundle, omega_dims,
                                  zero_form)
from fraction_oracle import artin_reduction_rules


def test_omega_qx_line():
    a = polynomial_algebra("x")
    assert omega_dims(a, 1, 3) == 1  # x^2 dx


def test_omega_truncated_total():
    a = truncated_polynomial_algebra("x", 2)
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
                    monos = a.dim_weight(w - p) if w >= p else 0
                    assert omega_dims(a, p, w) == comb(k, p) * monos


def test_omega_dual_numbers_relation():
    # e^2 = 0 forces e de = 0 in characteristic zero, so Omega^1 is Q de
    qe = extend_dual_numbers(polynomial_algebra())
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
    return {(s, t): form.coefficient(t).derivative_wrt(s)
                    - form.coefficient(s).derivative_wrt(t)
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


def test_zero_form():
    ff = FunctionField(("x",))
    assert zero_form(ff).is_zero()


@pytest.mark.parametrize("ff", [
    FunctionField(("x",), dual_numbers("e")),
    FunctionField(("x", "y"), dual_numbers("e")),
    FunctionField(("x",), artin_algebra(("t", 3))),
    FunctionField((), artin_algebra(("e", 2), ("f", 2))),
], ids=["Q(x)[e]/e2", "Q(x,y)[e]/e2", "Q(x)[t]/t3", "Q[e,f]/(e2,f2)"])
def test_artin_reduction_rules_match_fraction_oracle(ff):
    # the RREF is unique for a fixed column order, so qlinalg.rref and the
    # former private elimination over (monomial, generator) keys agree
    rules = _artin_reduction_rules(ff)
    assert rules
    assert rules == artin_reduction_rules(ff)
