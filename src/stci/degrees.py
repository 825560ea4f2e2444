"""Enumeration of admissible surface degree pairs for a fixed curve.

For a curve of degree d and genus g cut out set-theoretically by surfaces
of degrees s <= t with disjoint singular loci, the multiplicity n = s*t/d
must make the quantity q(s, t) of ``stci.chow.q_value`` a positive
multiple of n - 1 (and likewise with s and t exchanged).  Degrees
s = 1, 2 cannot occur, and s < 2d^2, t < 2d^4, so the admissible pairs
form a finite, quickly enumerable list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chow import check_curve, multiplicity, q_value
from .errors import DomainError

__all__ = [
    "DivisibilityResult",
    "DegreePairRecord",
    "divisibility_check",
    "enumerate_pairs",
]


@dataclass(frozen=True)
class DivisibilityResult:
    value: int
    divides: bool
    positive: bool

    @property
    def holds(self) -> bool:
        return self.divides and self.positive


def _holds(q: int, n: int) -> bool:
    """The condition on one orientation: q > 0 and (n-1) | q."""
    return q > 0 and q % (n - 1) == 0


def divisibility_check(s: int, t: int, d: int, g: int) -> DivisibilityResult:
    """Evaluate q and test (n-1) | q and q > 0."""
    n = multiplicity(s, t, d, g)
    if n < 2:
        raise DomainError("multiplicity n = 1: complete intersection excluded")
    q = q_value(s, t, d, g)
    return DivisibilityResult(q, q % (n - 1) == 0, q > 0)


@dataclass(frozen=True)
class DegreePairRecord:
    s: int
    t: int
    n: int
    p_s: Fraction
    p_t: Fraction
    flags: tuple[str, ...]


def enumerate_pairs(
    d: int,
    g: int,
    symmetric: bool = True,
    s_max: Optional[int] = None,
    t_max: Optional[int] = None,
) -> list[DegreePairRecord]:
    """All admissible (s, t) with 3 <= s <= t within the degree bounds.

    A pair is emitted when d | st, n >= 2, and the divisibility-and-
    positivity condition holds for the s-orientation; with ``symmetric``
    (the default) the t-orientation is required as well.  Output is sorted
    by (s, t) and independent of any evaluation order.
    """
    check_curve(d, g)
    if s_max is None:
        s_max = 2 * d * d - 1
    if t_max is None:
        t_max = 2 * d ** 4 - 1

    records = []
    for s in range(3, s_max + 1):
        for t in range(s, t_max + 1):
            if (s * t) % d != 0:
                continue
            n = s * t // d
            if n < 2:
                continue
            q_s = q_value(s, t, d, g)
            if not _holds(q_s, n):
                continue
            q_t = q_value(t, s, d, g)
            t_holds = _holds(q_t, n)
            if symmetric and not t_holds:
                continue
            flags = ("s-orientation", "t-orientation") if t_holds else ("s-orientation",)
            records.append(
                DegreePairRecord(
                    s, t, n, Fraction(q_s, n - 1), Fraction(q_t, n - 1), flags
                )
            )
    records.sort(key=lambda rec: (rec.s, rec.t))
    return records
