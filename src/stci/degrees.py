"""Enumeration of admissible surface degree pairs for a fixed curve.

For a curve of degree d and genus g cut out set-theoretically by surfaces
of degrees s <= t with disjoint singular loci, the multiplicity n = s*t/d
must make the quantity q(s, t) of ``stci.chow.q_value`` a positive
multiple of n - 1.  Degrees s = 1, 2 cannot occur, and s < 2d^2,
t < 2d^4, so the admissible pairs form a finite list, found by walking
divisors rather than the (s, t) grid.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .chow import a_value, check_curve
from .errors import at_most, integer

# The largest curve degree enumerate_pairs accepts: the work grows as d^2 log d.
MAX_CURVE_DEGREE = 600

_BOTH = ("s-orientation", "t-orientation")


class DegreePairRecord(namedtuple("DegreePairRecord", "s t n p_s p_t flags")):
    __slots__ = ()


def enumerate_pairs(
    d: int,
    g: int,
    symmetric: bool = True,
    s_max: int | None = None,
    t_max: int | None = None,
) -> list[DegreePairRecord]:
    """All admissible (s, t) with 3 <= s <= s_max, s <= t <= t_max, sorted.

    (s, t) is admissible when d | st, n = st/d >= 2, q > 0 and (n-1) | q.
    With t = dn/s, q = n*a/s for a = s(d(s-4) + 2 - 2g) + d^2 (``a_value``),
    and this holds exactly when a > 0, e = a/(n-1) divides a and
    s | (a + e); t >= s bounds e by d*a/(s^2 - d).  The defaults
    s_max = 2d^2 - 1 and t_max = 2d^4 - 1 are the proven bounds, and a
    larger s_max is cut to 2d^2 - 1.  For t >= s, q_t - q = d(n-1)(t-s),
    so the t-orientation holds whenever the s-orientation does: every
    record has both flags, p_s = q/(n-1) = (a + e)/s and p_t = p_s +
    d(t-s), and ``symmetric`` is kept for existing callers but changes
    nothing.  A curve degree above MAX_CURVE_DEGREE is refused before the
    loop.
    """
    check_curve(d, g)
    at_most(d, MAX_CURVE_DEGREE, "curve degree", "the enumeration grows as d^2 log d")
    s_max = 2 * d * d - 1 if s_max is None else min(integer(s_max, "s_max"), 2 * d * d - 1)
    t_max = 2 * d ** 4 - 1 if t_max is None else integer(t_max, "t_max")

    # Above d^2 one divisor test per s is left.  For s = d^2 + u with
    # u >= 1, a = d^2 (mod s), so the least positive e = -a (mod s) is u,
    # and e <= d*a/(s^2 - d) < d^2 < s (d*a < d^2(s^2 - d) reduces to
    # d^2 + s < 2ds), so e = u is the only candidate; as s = d^2 (mod u),
    # u | a exactly when u | K = d^2(d(d^2 - 4) + 3 - 2g), so an s whose u
    # does not divide K is skipped before a is formed.  No admissible pair
    # has s >= 2d^2, hence the cut of s_max: there u >= d^2 exceeds that
    # bound on e.
    dd = d * d
    k = dd * (d * (dd - 4) + 3 - 2 * g)
    above = (dd + u for u in range(1, s_max - dd + 1) if not k % u)
    records = []
    for s in chain(range(3, min(s_max, dd) + 1), above):
        a = a_value(s, d, g)
        if a <= 0:
            continue
        e_max = a if s * s <= d else min(a, d * a // (s * s - d))
        for e in range(-a % s or s, e_max + 1, s):
            if a % e:
                continue
            n = 1 + a // e
            t, rem = divmod(d * n, s)
            if rem or not s <= t <= t_max:
                continue
            p_s = (a + e) // s
            records.append(DegreePairRecord(s, t, n, p_s, p_s + d * (t - s), _BOTH))
    records.sort(key=lambda rec: (rec.s, rec.t))
    return records
