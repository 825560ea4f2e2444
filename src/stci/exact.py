"""Exact scalars.

All rational arithmetic in this package is exact: scalars are
``fractions.Fraction`` over arbitrary-precision integers, rendered as
``"p/q"`` (or ``"p"`` when the denominator is 1).  No floating point is
used anywhere in the math core, and ``fraction_sum`` is its one way to
add rationals.  This is the one module that imports ``fractions``: the
other layers build a Fraction as ``stci.exact.Fraction``, so a command
that builds none loads neither this module nor ``fractions``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .errors import ParseError, echo


def fraction_sum(terms: Iterable[Fraction | int]) -> Fraction:
    """Exact sum of the terms: each numerator is scaled to the lcm of the
    denominators, the integers are added, and the result is reduced once."""
    terms = list(terms)
    scale = math.lcm(*[term.denominator for term in terms])
    return Fraction(sum([term.numerator * (scale // term.denominator) for term in terms]), scale)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact scalar, optionally signed; any
    other form is refused, as Fraction would build 10**e for an exponent
    such as "1e<e>"."""
    import re  # loaded by the parsers that match a pattern, not at a layer's import

    try:
        if not re.fullmatch(r"\s*[-+]?\d+(/\d+)?\s*", text):
            raise ValueError("not of the form p or p/q")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {echo(text)}") from exc
