"""Theorem evaluators: the resolution bound, theorems 1-3 and theorem A's
d <= g + 3 verdict.

Everything here is exact integer/rational arithmetic.  The invariants
come from rdp, the ruling-cone margins from graphs and every Fraction
from exact, each reached through ``stci.<module>`` at its call site, so a
command that calls none of them loads none of them, nor ``fractions``.
The three inequality families share the data (s, t, d, g): surface
degrees, curve degree, genus, with multiplicity n = s*t/d, validated and
combined into q by stci.chow.  The quartic case analysis is in
stci.search; ``bungobungo_solve`` and ``config_search`` here forward to it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

import stci

from .chow import (BlowupContext, a_value, beta_from_p, check_curve, check_degrees, check_surface,
                   multiplicity, pad_p, q_value, st_expansion)
from .errors import DomainError, echo, integer


class StciParams(namedtuple("StciParams", "s t d g")):
    """Degrees (s, t) of the two surfaces, curve degree d, genus g; checked
    by ``multiplicity`` when built."""

    __slots__ = ()

    def __new__(cls, s: int, t: int, d: int, g: int) -> "StciParams":
        multiplicity(s, t, d, g)
        return super().__new__(cls, s, t, d, g)

    @property
    def n(self) -> int:
        """The multiplicity s*t/d."""
        return self.s * self.t // self.d

    @property
    def q(self) -> int:
        """q from ``q_value``; computed on each read."""
        return q_value(*self)


class Thm1Result(namedtuple("Thm1Result", "value integral")):
    __slots__ = ()


def thm1_value(params: StciParams) -> Thm1Result:
    """Common value q / (n-1) of p_1..p_{n-1}.

    Only meaningful for n >= 2; n = 1 is the complete-intersection case.
    """
    n = params.n
    if n < 2:
        raise DomainError("multiplicity n = 1: nothing to evaluate")
    value = stci.exact.Fraction(params.q, n - 1)
    return Thm1Result(value, value.denominator == 1)


def thm2_rhs(params: StciParams, k: int) -> int:
    """Right-hand side 2^(k-1) q of the k-th inequality, k = 1..n-1."""
    n = params.n
    if not 1 <= integer(k, "index k") <= n - 1:
        raise DomainError(f"index k={echo(k)} outside 1..{n - 1}")
    return (1 << (k - 1)) * params.q


def thm2_margins(params: StciParams, p: Sequence[int]) -> tuple[int, ...]:
    """Slack of the k-th inequality for k = 1..n-1, in order.

    The slacks are the ruling-cone margins (``snort_check``) of the ruling
    coefficients a_1..a_{n-1} of (sH - sum E)(tH - sum E), which
    ``st_expansion`` reads off the context of p zero-padded to n entries
    (more than n-1 is a DomainError).  With a_k = p_1 + ... + p_{k-1} +
    (n-k) p_k - q, the k-th is sum_{i<k} 2^(k-i-1) (n-i+1) p_i + (n-k) p_k
    less ``thm2_rhs``'s 2^(k-1) q.
    """
    s, t, d, g = params
    n = params.n
    if n < 2:
        raise DomainError("multiplicity n = 1: no inequalities")
    ctx = BlowupContext(d, g, beta_from_p(s, d, g, pad_p(p, n - 1) + (0,)))
    return stci.graphs.snort_check(st_expansion(s, t, ctx).a[:-1]).margins


class Thm3Result(namedtuple("Thm3Result", "lhs rhs holds")):
    __slots__ = ()


def thm3_check(
    s: int,
    d: int,
    g: int,
    type_seq: Iterable[int],
    truncate_at: int | None = None,
) -> Thm3Result:
    """Compare the weighted type sum against a/s = d^2/s + d(s-4) + 2 - 2g.

    ``truncate_at`` restricts the sum to the first so many entries; the
    full finite type is used by default.
    """
    check_surface(s)
    check_curve(d, g)
    t = stci.rdp.normalize_type(type_seq)
    if truncate_at is not None:
        if integer(truncate_at, "truncation index") < 0:
            raise DomainError("truncation index must be >= 0")
        t = t[:truncate_at]
    lhs = stci.rdp.weighted_type_sum(t)
    rhs = stci.exact.Fraction(a_value(s, d, g), s)
    return Thm3Result(lhs, rhs, lhs >= rhs)


def resolution_bound(s: int) -> int:
    """Cap (s/3)(2s^2 - 6s + 7) - 1 on exceptional curves in a minimal
    resolution of a degree-s surface with rational singularities."""
    check_surface(s)
    return s * (2 * s * s - 6 * s + 7) // 3 - 1


def miyaoka_budget(s: int) -> stci.exact.Fraction:
    """(2/3) s (s-1)^2, the cap on summed singularity contributions."""
    check_surface(s)
    return stci.exact.Fraction(2 * s * (s - 1) * (s - 1), 3)


# ---------------------------------------------------------------------------
# the quartic searches, forwarded to stci.search


def bungobungo_solve() -> list[tuple[int, stci.rdp.TypeSeq]]:
    """Forwards to ``stci.search.bungobungo_solve``, for the benchmark, which reads it here."""
    return stci.search.bungobungo_solve()


def config_search(
    target: Iterable[int],
    max_deficiency: int | None = None,
    require_delta: stci.exact.Fraction | None = None,
    max_sigma: int | None = None,
    miyaoka_budget_cap: stci.exact.Fraction | None = None,
) -> list[stci.rdp.Config]:
    """Forwards to ``stci.search.config_search``, for the benchmark, which reads it here."""
    return stci.search.config_search(target, max_deficiency, require_delta, max_sigma, miyaoka_budget_cap)


# ---------------------------------------------------------------------------
# the d <= g + 3 criterion


class ThmAVerdict(namedtuple("ThmAVerdict", "applies conclusion witness")):
    __slots__ = ()


def thmA_verdict(s: int, t: int, d: int, g: int) -> ThmAVerdict:
    """Check the degree-bound hypotheses and report whether d <= g+3 follows.

    ``conclusion`` is always the literal truth of d <= g+3, which the
    bound forces when the hypotheses apply.
    """
    check_degrees(s, t, d, g)
    conclusion = d <= g + 3

    if not t >= s >= 4:
        return ThmAVerdict(False, conclusion, "out of lemma scope: need t >= s >= 4")
    if (s * t) % d != 0:
        return ThmAVerdict(False, conclusion, f"d = {d} does not divide s*t = {s * t}")
    n = s * t // d
    if n < 2:
        return ThmAVerdict(False, conclusion, "out of lemma scope: complete intersection (n = 1)")
    r = q_value(s, t, d, g)
    bound = resolution_bound(s)
    if r > bound:
        return ThmAVerdict(False, conclusion, f"r = {r} exceeds the resolution bound {bound}")
    return ThmAVerdict(True, conclusion, f"r = {r} <= {bound}; d <= g + 3 is forced")
