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
(one Q in top position); counting lattice points with a fixed coordinate
sum then yields the exact graded dimensions of H^j, and the vanishing of
H^i for i < j (the depth of a free module) is verified rather than
assumed.  Reported tables are restricted to a degree window, but every
entry is exact; the window performs no truncation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .algebra import GradedAlgebra
from .differentials import OmegaModule, hn_bundle
from .qlinalg import SparseMatrix, homology_dims, rank


class NonFreeModule(Exception):
    """Local cohomology input must be free over a polynomial base."""


@dataclass(frozen=True)
class CechStrand:
    """One isomorphism class of multidegree strands of the Cech complex.

    ``nvars`` is j, ``negatives`` the set of variables with negative
    exponent.  Terms are indexed by the subsets S containing ``negatives``.
    """

    nvars: int
    negatives: frozenset[int]

    def terms(self, s: int) -> list[tuple[int, ...]]:
        return [S for S in itertools.combinations(range(self.nvars), s)
                if self.negatives <= set(S)]

    def boundary(self, s: int) -> SparseMatrix:
        """C^s -> C^{s+1}, alternating sum of localization inclusions."""
        src = self.terms(s)
        dst = self.terms(s + 1)
        dst_idx = {S: k for k, S in enumerate(dst)}
        entries: dict[tuple[int, int], int] = {}
        for col, S in enumerate(src):
            for i in range(self.nvars):
                if i in S:
                    continue
                bigger = tuple(sorted(S + (i,)))
                if bigger not in dst_idx:
                    continue
                sign = (-1) ** sum(1 for k in S if k < i)
                entries[(dst_idx[bigger], col)] = sign
        return SparseMatrix(len(dst), len(src), entries)

    def cohomology_dims(self) -> tuple[int, ...]:
        """Exact cohomology dimensions in positions 0..nvars (d^2 checked)."""
        mats = [self.boundary(s) for s in range(self.nvars)]
        for a, b in zip(mats, mats[1:]):
            if not (b @ a).is_zero():
                raise AssertionError("Cech differential does not square to zero")
        dims = {s: len(self.terms(s)) for s in range(self.nvars + 1)}
        h = homology_dims(dims, {s + 1: rank(m) for s, m in enumerate(mats)})
        return tuple(h[s] for s in range(self.nvars + 1))


@lru_cache(maxsize=None)
def _strand_cohomology(nvars: int, negatives: frozenset[int]) -> tuple[int, ...]:
    return CechStrand(nvars, negatives).cohomology_dims()


@dataclass
class LocalCohTable:
    """Dimensions indexed by (cohomological degree i, internal degree d)."""

    nvars: int
    window: tuple[int, int]
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def dim(self, i: int, d: int) -> int:
        return self.entries.get((i, d), 0)

    def add(self, other: "LocalCohTable") -> "LocalCohTable":
        if (self.nvars, self.window) != (other.nvars, other.window):
            raise ValueError("incompatible tables")
        out = LocalCohTable(self.nvars, self.window, dict(self.entries))
        for k, v in other.entries.items():
            out.entries[k] = out.entries.get(k, 0) + v
        return out

    def to_json_dict(self) -> dict:
        return {
            "kind": "Hloc",
            "entries": [{"i": i, "d": dd, "dim": self.entries[(i, dd)]}
                        for (i, dd) in sorted(self.entries)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_text(self) -> str:
        d_lo, d_hi = self.window
        width = max(4, max((len(str(v)) for v in self.entries.values()), default=1) + 1)
        lines = ["i\\d " + "".join(f"{dd:>{width}}" for dd in range(d_lo, d_hi + 1))]
        for i in range(self.nvars + 1):
            lines.append(f"{i:>3} " + "".join(
                f"{self.dim(i, dd):>{width}}" for dd in range(d_lo, d_hi + 1)))
        return "\n".join(lines) + "\n"


def _free_generator_multidegrees(module: OmegaModule) -> list[tuple[int, ...]]:
    base = module.base
    if base.monomial_relations or base.artin_generators:
        raise NonFreeModule("base must be a free polynomial algebra")
    k = base.ngens
    if module.p > k:
        return []
    degs = []
    for wedge in itertools.combinations(range(k), module.p):
        v = [0] * k
        for i in wedge:
            v[i] += 1
        degs.append(tuple(v))
    return degs


def _count_strand(delta: tuple[int, ...], negatives: frozenset[int], d: int) -> int:
    """#{a in Z^j : sum a = d, a_i < delta_i iff i in negatives}.

    Finite only when negatives is empty or everything; the mixed classes
    are infinite, which is why their cohomology must vanish.
    """
    j = len(delta)
    if negatives == frozenset(range(j)):
        m = sum(delta) - j - d
        return comb(m + j - 1, j - 1) if m >= 0 else 0
    if not negatives:
        m = d - sum(delta)
        return comb(m + j - 1, j - 1) if m >= 0 else 0
    raise ArithmeticError("mixed sign class has infinitely many strands")


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
    gens = _free_generator_multidegrees(module)
    table = LocalCohTable(j, window)
    for i in range(j + 1):
        for dd in range(d_lo, d_hi + 1):
            table.entries[(i, dd)] = 0
    for negatives in map(frozenset, _all_subsets(j)):
        dims = _strand_cohomology(j, negatives)
        for i, h in enumerate(dims):
            if h == 0:
                continue
            for delta in gens:
                for dd in range(d_lo, d_hi + 1):
                    table.entries[(i, dd)] += h * _count_strand(delta, negatives, dd)
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
    d_lo, d_hi = window
    for ci in range(j + 1):
        for dd in range(d_lo, d_hi + 1):
            table.entries[(ci, dd)] = 0
    for p in degrees:
        if p > base.ngens:
            continue
        table = table.add(local_coh(OmegaModule(base, p), window))
    return table
