"""Exact scalars.

All rational arithmetic in this package is exact: scalars are
``fractions.Fraction`` over arbitrary-precision integers, rendered as
``"p/q"`` (or ``"p"`` when the denominator is 1).  No floating point is
used anywhere in the math core, and ``fraction_sum`` is its one way to
add rationals.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

from .errors import ParseError, echo

# The forms str(Fraction) prints, optionally signed: "p" and "p/q".
_RATIONAL_FORM = re.compile(r"\s*[-+]?\d+(/\d+)?\s*")


def fraction_sum(terms: Iterable[Fraction | int]) -> Fraction:
    """Exact sum of the terms: each numerator is scaled to the lcm of the
    denominators, the integers are added, and the result is reduced once."""
    terms = list(terms)
    scale = math.lcm(*[term.denominator for term in terms])
    return Fraction(sum([term.numerator * (scale // term.denominator) for term in terms]), scale)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact scalar; any other form is refused,
    as Fraction would build 10**e for an exponent such as "1e<e>"."""
    try:
        if not _RATIONAL_FORM.fullmatch(text):
            raise ValueError("not of the form p or p/q")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {echo(text)}") from exc
