"""Exact combinatorial invariants of rational double point surface-curve
pairs, intersection arithmetic on iterated curve blowups of projective
3-space, and degree-pair enumeration for set-theoretic complete
intersections."""

from . import chow, degrees, errors, exact, graphs, rdp, theorems
