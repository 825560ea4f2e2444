"""Exact scalars and iterated Euclidean remainder/quotient profiles.

All rational arithmetic in this package is exact: scalars are
``fractions.Fraction`` over arbitrary-precision integers, rendered as
``"p/q"`` (or ``"p"`` when the denominator is 1).  No floating point is
used anywhere in the math core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParseError


def format_rational(value: Fraction | int) -> str:
    """Render an exact scalar as "p/q", or "p" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact scalar."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


@dataclass(frozen=True)
class EuclidProfile:
    """Iterated remainders and quotients of N by k.

    ``remainders[0] == k`` by convention, each later entry is the remainder
    of the two before it, and the sequence ends at its first zero.
    ``quotients[i]`` is the integer quotient taken at step i+1, so the two
    tuples satisfy ``len(quotients) == len(remainders) - 1``.
    """

    N: int
    k: int
    remainders: tuple[int, ...]
    quotients: tuple[int, ...]

    @property
    def t_last_nonzero(self) -> int:
        """Index of the last nonzero remainder."""
        return len(self.remainders) - 2


def euclid_profile(N: int, k: int) -> EuclidProfile:
    """Full remainder/quotient profile of the Euclidean algorithm on (N, k).

    Requires 1 <= k <= N.
    """
    if k < 1 or k > N:
        raise DomainError(f"euclid_profile requires 1 <= k <= N, got N={N}, k={k}")
    remainders = [k]
    quotients = []
    prev, cur = N, k
    while cur:
        quotients.append(prev // cur)
        prev, cur = cur, prev % cur
        remainders.append(cur)
    return EuclidProfile(N, k, tuple(remainders), tuple(quotients))
