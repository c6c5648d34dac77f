"""Graded local cohomology of free modules over Q[x_1..x_j] at the origin.

The stable Koszul (Cech) complex

    0 -> M -> (+)_i M_{x_i} -> (+)_{i<i'} M_{x_i x_i'} -> ... -> M_{x_1..x_j} -> 0

of a free graded module M splits into one strand per Laurent multidegree
and generator.  The strand of multidegree vector v (relative to the
generator's multidegree) only depends on the set N = {i : v_i < 0}: the
localization at S contains the monomial iff S >= N, so the strand complex
has C^s = Q^{#{S >= N, |S| = s}} with the alternating inclusion signs.
There are 2^j such strand classes; each is materialized as explicit
matrices and its cohomology computed exactly, which covers every
multidegree at once.  Only the all-negative class has nonzero cohomology
(one Q in top position); counting the monomials of one weight, a graded
piece of the base, then yields the exact graded dimensions of H^j in the
weight grading of every other table, and the vanishing of H^i for i < j
(the depth of a free module) is verified rather than assumed.  A
``LocalCohTable`` (a ``qlinalg.DimTable`` keyed by (i, d)) is restricted
to a degree window, but every entry is exact: no truncation.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

from .algebra import GradedAlgebra
from .differentials import OmegaModule, _wedges, hn_bundle, wedge_weight
from .qlinalg import DimTable, SparseMatrix, composes_to_zero, homology_dims, rank


class NonFreeModule(Exception):
    """Local cohomology input must be free over a polynomial base."""


class CechStrand:
    """One isomorphism class of multidegree strands of the Cech complex.

    ``nvars`` is j, ``negatives`` the set of variables with negative
    exponent.  Terms are indexed by the subsets S containing ``negatives``.
    """

    __slots__ = ("nvars", "negatives")

    def __init__(self, nvars: int, negatives: frozenset[int]):
        self.nvars, self.negatives = nvars, negatives

    def terms(self, s: int) -> list[tuple[int, ...]]:
        return [S for S in itertools.combinations(range(self.nvars), s)
                if self.negatives <= set(S)]

    def boundary(self, s: int) -> SparseMatrix:
        """C^s -> C^{s+1}, alternating sum of localization inclusions."""
        src = self.terms(s)
        dst = self.terms(s + 1)
        dst_idx = {S: k for k, S in enumerate(dst)}
        columns = []
        for S in src:
            col: dict[int, int] = {}
            for i in range(self.nvars):
                if i not in S:   # S + i contains the negatives too, so it is a term
                    sign = (-1) ** sum(1 for k in S if k < i)
                    col[dst_idx[tuple(sorted(S + (i,)))]] = sign
            columns.append(col)
        return SparseMatrix(len(dst), len(src), columns)

    def cohomology_dims(self) -> tuple[int, ...]:
        """Exact cohomology dimensions in positions 0..nvars (d^2 checked)."""
        mats = [self.boundary(s) for s in range(self.nvars)]
        if not all(map(composes_to_zero, mats, mats[1:])):
            raise AssertionError("Cech differential does not square to zero")
        dims = {s: len(self.terms(s)) for s in range(self.nvars + 1)}
        h = homology_dims(dims, {s + 1: rank(m) for s, m in enumerate(mats)})
        return tuple(h[s] for s in range(self.nvars + 1))


@lru_cache(maxsize=None)
def _strand_cohomology(nvars: int, negatives: frozenset[int]) -> tuple[int, ...]:
    return CechStrand(nvars, negatives).cohomology_dims()


class LocalCohTable(DimTable):
    """Dimensions indexed by (cohomological degree i, internal degree d)."""

    __slots__ = ("nvars", "window")
    axes = ("i", "d")

    def __init__(self, nvars: int, window: tuple[int, int], entries: dict | None = None):
        self.nvars, self.window = nvars, window
        d_lo, d_hi = window
        super().__init__(((i, dd) for i in range(nvars + 1) for dd in range(d_lo, d_hi + 1)),
                         entries)

    def add(self, other: "LocalCohTable") -> "LocalCohTable":
        if (self.nvars, self.window) != (other.nvars, other.window):
            raise ValueError("incompatible tables")
        out = LocalCohTable(self.nvars, self.window, dict(self.entries))
        for k, v in other.entries.items():
            out.entries[k] = out.entries.get(k, 0) + v
        return out

    def to_json_dict(self) -> dict:
        return {"kind": "Hloc", "entries": self.json_entries()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        d_lo, d_hi = self.window
        return self.grid(range(self.nvars + 1), range(d_lo, d_hi + 1))


def _free_generator_weights(module: OmegaModule) -> list[int]:
    """The weight of each free generator dx_W of the module, W a p-wedge;
    a base with a relation, declared or a nilpotency power, is refused."""
    base = module.base
    if base.relations:
        raise NonFreeModule("base must be a free polynomial algebra")
    return [wedge_weight(base, W) for W in _wedges(base, module.p)]


def _count_strand(base: GradedAlgebra, weight: int, negatives: frozenset[int], d: int) -> int:
    """#{x^a dx_W of weight d : a_i < 0 iff i in negatives}, dx_W a free
    generator of the given weight.

    With every exponent negative, x^a = x^(-1-b) over the monomials x^b of
    weight weight - (sum of the generator weights) - d; with none, x^a runs
    over the monomials of weight d - weight.  Either count is a graded piece
    of the base.  The mixed classes are infinite, which is why their
    cohomology must vanish.
    """
    if negatives == frozenset(range(base.ngens)):
        m = weight - sum(g.weight for g in base.generators) - d
    elif not negatives:
        m = d - weight
    else:
        raise ArithmeticError("mixed sign class has infinitely many strands")
    return len(base.bigraded_basis(m, 0))


def local_coh(module: OmegaModule, window: tuple[int, int]) -> LocalCohTable:
    """Graded local cohomology of a free module at the irrelevant ideal.

    Every strand class is materialized and its cohomology computed by
    explicit rank; a class with nonzero cohomology and infinitely many
    strands per degree would make the table infinite and raises.  For free
    modules only the all-negative class survives, in top position.
    """
    base = module.base
    j = base.ngens
    if j == 0:
        raise NonFreeModule("local cohomology needs at least one variable")
    d_lo, d_hi = window
    if d_lo > d_hi:
        raise ValueError("empty window")
    weights = _free_generator_weights(module)
    table = LocalCohTable(j, window)
    for negatives in map(frozenset, _all_subsets(j)):
        dims = _strand_cohomology(j, negatives)
        for i, h in enumerate(dims):
            if h == 0:
                continue
            for weight in weights:
                for dd in range(d_lo, d_hi + 1):
                    table.entries[(i, dd)] += h * _count_strand(base, weight, negatives, dd)
    return table


def _all_subsets(j: int):
    for r in range(j + 1):
        yield from itertools.combinations(range(j), r)


def depth_vanishing_holds(j: int) -> bool:
    """H^i = 0 for i < j on free modules: true iff every strand class is
    acyclic below top position."""
    for negatives in map(frozenset, _all_subsets(j)):
        dims = _strand_cohomology(j, negatives)
        if any(dims[i] != 0 for i in range(j)):
            return False
    return True


def supported_tangent_dims(m: int, j: int, base: GradedAlgebra,
                           window: tuple[int, int],
                           hodge_index: int | None = None) -> LocalCohTable:
    """Local cohomology of the degree-(m + j - 1) bundle at a
    codimension-j point: the supported tangent groups of the dual-number
    thickening.

    With ``hodge_index`` the bundle is replaced by its single eigenspace
    summand Omega^{2 i - (m + j) - 1}, nonzero only for
    (m + j)/2 < i <= m + j.
    """
    if base.ngens != j:
        raise ValueError("base must have exactly j variables")
    bundle = hn_bundle(m, j, base)
    degrees = bundle.degrees
    if hodge_index is not None:
        i = hodge_index
        total = m + j
        p = 2 * i - total - 1
        degrees = (p,) if (2 * i > total and i <= total and 0 <= p) else ()
    table = LocalCohTable(j, window)
    for p in degrees:
        if p > base.ngens:
            continue
        table = table.add(local_coh(OmegaModule(base, p), window))
    return table
