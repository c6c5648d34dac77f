"""Exact-arithmetic homological algebra over Q.

Computes Hochschild, cyclic, and relative negative cyclic homology of
weight-graded commutative Q-algebras and their nilpotent Artinian
extensions, Hodge (Adams) eigenspace decompositions, Kaehler
differentials, graded local cohomology of free modules, and the tangent
map on Steinberg symbols over function fields with nilpotents.

Everything is computed with exact rational arithmetic; there is no
floating point anywhere in the package.
"""

__version__ = "0.1.0"
