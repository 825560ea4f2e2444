"""Exact intersection arithmetic on an iterated curve blowup of projective
3-space.

A context fixes the curve data (degree d, genus g) and the per-level
integers beta_1..beta_n; the derived alpha sequence starts at
alpha_0 = 2 - 2g - 4d and steps by alpha_k = alpha_{k-1} - beta_k.  Cycle
classes live in the graded basis

    degree 0: 1        degree 1: H, E_1..E_n
    degree 2: H^2, R_1..R_n        degree 3: pt

with integer coefficients.  Multiplication is the bilinear extension of

    H^3 = pt            H.R_k = 0           H^2.E_k = 0
    E_i.R_j = -delta_{ij} pt                H.E_k = d R_k
    E_i.E_j = -beta_i R_j (i < j)
    E_k^2   = -d H^2 - alpha_{k-1} R_k - sum_{i<k} beta_i R_i

and products of total degree above 3 vanish.  The strict transforms of the
exceptional surfaces and rulings are deliberately NOT basis elements here;
they are combinations of the classes above (see stci.graphs for rulings).

These rules are the derivation, not code: the library needs one product
of the ring, (sH - sum E)(tH - sum E), and ``st_expansion`` evaluates it
in closed form.  The general product, summed term by term over every pair
of levels, lives in tests/oracles.py as the check on that closed form.

The surface data (s, t, d, g) shared by stci.theorems and stci.degrees is
validated here once (``check_surface``, ``multiplicity``), and the
quantities a and q = n*a/s that the degree bounds and the ruling
coefficients of the surface product rest on are defined here once
(``a_value``, ``q_value``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import repeat

from .errors import DomainError, echo, integer


def check_curve(d: int, g: int) -> None:
    """Raise DomainError unless the curve has int degree d >= 1 and int
    genus g >= 0."""
    if integer(d, "curve degree") < 1:
        raise DomainError(f"curve degree must be >= 1, got {echo(d)}")
    if integer(g, "genus") < 0:
        raise DomainError(f"genus must be >= 0, got {echo(g)}")


def check_surface(s: int) -> None:
    """Raise DomainError unless the surface degree s is an int >= 1."""
    if integer(s, "surface degree") < 1:
        raise DomainError(f"surface degree must be >= 1, got {echo(s)}")


def check_degrees(s: int, t: int, d: int, g: int) -> None:
    """Raise DomainError unless s, t >= 1 and check_curve(d, g) passes."""
    check_surface(s)
    check_surface(t)
    check_curve(d, g)


def multiplicity(s: int, t: int, d: int, g: int) -> int:
    """Validate (s, t, d, g) and return the multiplicity n = s*t/d."""
    check_degrees(s, t, d, g)
    if (s * t) % d != 0:
        raise DomainError(f"curve degree {echo(d)} must divide s*t = {echo(s * t)}")
    return s * t // d


def a_value(s: int, d: int, g: int) -> int:
    """a = s(d(s-4) + 2 - 2g) + d^2; a/s = d^2/s + d(s-4) + 2 - 2g."""
    return s * (d * (s - 4) + 2 - 2 * g) + d * d


def q_value(s: int, t: int, d: int, g: int) -> int:
    """q = d[n(s-4) + t] + (2-2g)n = n*a/s with n = s*t/d, a = a_value(s, d, g).

    Exchanging s and t gives the t-orientation.  No validation: callers
    check (s, t, d, g) with ``multiplicity`` first.
    """
    return s * t // d * a_value(s, d, g) // s


class BlowupContext(namedtuple("BlowupContext", "d g beta")):
    """Immutable ring data: curve degree, genus and the beta sequence,
    kept as a tuple of checked ints."""

    __slots__ = ()

    def __new__(cls, d: int, g: int, beta: Iterable[int]) -> "BlowupContext":
        check_curve(d, g)
        return super().__new__(cls, d, g, tuple(map(integer, beta, repeat("beta entry"))))

    @property
    def n(self) -> int:
        return len(self.beta)


def make_context(d: int, g: int, beta: Iterable[int]) -> BlowupContext:
    return BlowupContext(d, g, beta)


def beta_from_p(s: int, d: int, g: int, p: Iterable[int]) -> tuple[int, ...]:
    """beta_k = d*s + (2 - 4d - 2g) - p_k, componentwise."""
    check_surface(s)
    check_curve(d, g)
    base = d * s + (2 - 4 * d - 2 * g)
    return tuple(base - integer(pk, "p entry") for pk in p)


class StExpansion(namedtuple("StExpansion", "h2_coeff a")):
    __slots__ = ()


def st_expansion(s: int, t: int, ctx: BlowupContext) -> StExpansion:
    """Expand (sH - sum E)(tH - sum E) and read off the H^2/R coefficients.

    The H^2 coefficient is s*t - n*d, which vanishes exactly when the
    context has n = s*t/d levels.  By the rules above, R_k (1-based)
    collects -d(s+t) from H.E_k, -2 sum_{i<k} beta_i = 2(alpha_{k-1} -
    alpha_0) from the pairs E_i.E_k, -alpha_{k-1} from E_k^2, and -beta_k
    from each of the n - k squares E_j^2 with j > k.
    """
    alpha = 2 - 2 * ctx.g - 4 * ctx.d  # alpha_0, then alpha_{k-1} at level k
    base = -ctx.d * (integer(s, "surface degree") + integer(t, "surface degree")) - 2 * alpha
    a = []
    for nk, bk in zip(range(ctx.n - 1, -1, -1), ctx.beta):  # nk = n - k for k = 1..n
        a.append(base + alpha - nk * bk)
        alpha -= bk
    return StExpansion(s * t - ctx.n * ctx.d, tuple(a))


def _head_of_p(p: Sequence[int], n: int, stop: int) -> Sequence[int]:
    """p[:stop], read once for its callers; a p with no length or no slices
    (a mapping's slice miss is a KeyError from Python 3.12 on) or of more
    than n entries is a DomainError."""
    try:
        length, head = len(p), p[:stop]
    except (TypeError, KeyError):
        raise DomainError(f"p must support len() and slicing, got {type(p).__name__}") from None
    if length > n:
        raise DomainError(f"p must have at most {n} entries, got {length}")
    return head


def pad_p(p: Sequence[int], n: int) -> tuple[int, ...]:
    """p zero-padded to n >= 0 entries; p needs len(), slices and at most n entries."""
    if integer(n, "pad length") < 0:
        raise DomainError(f"pad length must be >= 0, got {echo(n)}")
    return tuple(_head_of_p(p, n, n)) + (0,) * (n - len(p))


def a_closed_form(
    s: int, t: int, d: int, g: int, p: Sequence[int], m: int
) -> int:
    """Closed form for the m-th ruling coefficient of the expansion above.

    a_m = p_1 + ... + p_{m-1} + (n-m) p_m - q, with n = s*t/d, q from
    ``q_value``, and p read as zero past its end; p needs len(), slices
    and at most n entries, as in ``pad_p``.  p_m must be an int, and so
    must the sum of p_1..p_{m-1}, which refuses a float, Fraction, Decimal
    or str among them but not a bool or an IntEnum member; the entries
    past p_m are not read.
    """
    n = multiplicity(s, t, d, g)
    if not 1 <= integer(m, "index m") <= n:
        raise DomainError(f"index m={echo(m)} outside 1..{n}")
    head = _head_of_p(p, n, m - 1)
    p_m = integer(p[m - 1], "p entry") if m <= len(p) else 0
    try:
        total = integer(sum(head), "p entry")
    except (DomainError, TypeError):  # only a non-int entry fails the sum: refuse the first
        tuple(map(integer, head, repeat("p entry")))
        raise
    return total + (n - m) * p_m - q_value(s, t, d, g)
