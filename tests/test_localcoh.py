import pytest

from cychom.algebra import (Generator, GradedAlgebra, artin_algebra,
                            polynomial_algebra)
from cychom.differentials import OmegaModule
from cychom.localcoh import (CechStrand, NonFreeModule, _strand_cohomology,
                             depth_vanishing_holds, local_coh,
                             supported_tangent_dims)

QX = polynomial_algebra("x")
QXY = polynomial_algebra("x", "y")
WINDOW = (-6, 6)


def test_h1_of_line():
    t = local_coh(OmegaModule(QX, 0), WINDOW)
    for d in range(-6, 7):
        assert t.dim(0, d) == 0
        assert t.dim(1, d) == (1 if d <= -1 else 0)


def test_h2_of_plane():
    t = local_coh(OmegaModule(QXY, 0), WINDOW)
    for d in range(-6, 7):
        assert t.dim(0, d) == 0 and t.dim(1, d) == 0
        assert t.dim(2, d) == (-d - 1 if d <= -2 else 0)


def test_omega1_plane_depth():
    t = local_coh(OmegaModule(QXY, 1), WINDOW)
    for d in range(-6, 7):
        assert t.dim(0, d) == 0 and t.dim(1, d) == 0
    # rank-2 free module with both generators in degree 1
    for d in range(-6, 0):
        assert t.dim(2, d) == 2 * (-d)


def test_corrupt_cech_boundary_trips_the_square_zero_check(monkeypatch):
    # one sign flipped in C^0 -> C^1 of the all-positive strand of Q[x, y]
    # makes d o d nonzero; the strand cache is cleared on both sides so that
    # no strand computed elsewhere hides the check, nor a corrupted one leaks
    build = CechStrand.boundary

    def flipped(strand, s):
        m = build(strand, s)
        if s == 0 and m.columns:
            col = m.columns[0]
            col[min(col)] *= -1
        return m

    monkeypatch.setattr(CechStrand, "boundary", flipped)
    _strand_cohomology.cache_clear()
    try:
        with pytest.raises(AssertionError, match="^Cech differential does not square to zero$"):
            local_coh(OmegaModule(QXY, 0), WINDOW)
    finally:
        _strand_cohomology.cache_clear()


def test_depth_vanishing_strand_classes():
    assert depth_vanishing_holds(1)
    assert depth_vanishing_holds(2)
    assert depth_vanishing_holds(3)


def test_strand_d_squared_zero():
    # cohomology_dims asserts d^2 = 0 while computing
    for j in (1, 2, 3):
        for neg in ([], [0], list(range(j))):
            CechStrand(j, frozenset(neg)).cohomology_dims()


def test_strand_only_all_negative_survives():
    for j in (1, 2, 3):
        s = CechStrand(j, frozenset(range(j)))
        dims = s.cohomology_dims()
        assert dims[j] == 1 and all(d == 0 for d in dims[:j])
        s0 = CechStrand(j, frozenset())
        assert all(d == 0 for d in s0.cohomology_dims())


def test_graded_dual_symmetry():
    # H^j of the base in degree -d is dual to its weight-(d - sum of the
    # generator weights) piece, in the weight grading of every other table
    weighted = polynomial_algebra("x", "y", weights={"y": 2})
    for j, alg in ((1, QX), (2, QXY), (2, weighted)):
        t = local_coh(OmegaModule(alg, 0), (-6, 0))
        total = sum(g.weight for g in alg.generators)
        for d in range(1, 7):
            assert t.dim(j, -d) == len(alg.graded_basis(d - total)), (alg, d)


def test_rejects_non_free():
    with pytest.raises(NonFreeModule):
        local_coh(OmegaModule(GradedAlgebra((Generator("x", 1),), ((2,),)), 1),
                  WINDOW)
    with pytest.raises(NonFreeModule):
        local_coh(OmegaModule(artin_algebra(("t", 2)).algebra, 0), WINDOW)
    with pytest.raises(NonFreeModule):
        local_coh(OmegaModule(polynomial_algebra(), 0), WINDOW)
    # Q[x]/(x^3) from a nilpotent coordinate generator: no declared
    # relation, but its nilpotency power is one
    nil_x = GradedAlgebra((Generator("x", 1, nilpotency=3),))
    for p in (0, 1):
        with pytest.raises(NonFreeModule):
            local_coh(OmegaModule(nil_x, p), WINDOW)
    with pytest.raises(NonFreeModule):
        supported_tangent_dims(0, 1, nil_x, WINDOW)


def test_supported_tangent_m0_j1():
    t = supported_tangent_dims(0, 1, QX, WINDOW)
    for d in range(-6, 7):
        assert t.dim(1, d) == (1 if d <= -1 else 0)


def test_supported_tangent_m2_j2():
    t = supported_tangent_dims(2, 2, QXY, WINDOW)
    # bundle Omega^3 + Omega^1 = Omega^1, rank 2 with degree-1 generators
    for d in range(-6, 0):
        assert t.dim(2, d) == 2 * (-d)
    assert all(t.dim(i, d) == 0 for i in (0, 1) for d in range(-6, 7))


def test_supported_tangent_zero_total():
    # m + j = 0 gives the empty bundle and the zero table
    t = supported_tangent_dims(0, 0, polynomial_algebra(), (-3, 3))
    assert all(v == 0 for v in t.entries.values())


def test_supported_tangent_empty_bundle():
    t = supported_tangent_dims(0, 1, QX, (-3, 3), hodge_index=99)
    assert all(v == 0 for v in t.entries.values())
    # m + j = 0 never happens with j >= 1 and m >= 0 here, but m = -1 does
    t2 = supported_tangent_dims(-1, 1, QX, (-3, 3))
    assert all(v == 0 for v in t2.entries.values())


def test_supported_tangent_hodge_selection():
    # m + j = 4: index 3 picks Omega^1, index 4 picks Omega^3 = 0 over 2 vars
    h3 = supported_tangent_dims(2, 2, QXY, (-4, 0), hodge_index=3)
    h4 = supported_tangent_dims(2, 2, QXY, (-4, 0), hodge_index=4)
    h2 = supported_tangent_dims(2, 2, QXY, (-4, 0), hodge_index=2)
    full = supported_tangent_dims(2, 2, QXY, (-4, 0))
    assert all(v == 0 for v in h4.entries.values())
    assert all(v == 0 for v in h2.entries.values())
    assert h3.entries == full.entries  # the bundle has a single summand


def test_table_json_deterministic():
    t = local_coh(OmegaModule(QX, 0), (-2, 1))
    assert t.to_json() == local_coh(OmegaModule(QX, 0), (-2, 1)).to_json()
    obj = t.to_json_dict()
    assert obj["kind"] == "Hloc"
    assert {"i": 1, "d": -1, "dim": 1} in obj["entries"]
