"""Theorem evaluators and the quartic configuration case analysis.

Everything here is exact integer/rational arithmetic.  The invariants
come from rdp, the ruling-cone margins from graphs and every Fraction
from exact, each reached through ``stci.<module>`` at its call site, so a
command that calls none of them loads none of them, nor ``fractions``.
The three inequality families share the data (s, t, d, g): surface
degrees, curve degree, genus, with multiplicity n = s*t/d, validated and
combined into q by stci.chow.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cache
from itertools import count
from operator import attrgetter, lshift, sub

import stci

from .chow import (BlowupContext, a_value, beta_from_p, check_curve, check_degrees, check_surface,
                   multiplicity, pad_p, q_value, st_expansion)
from .errors import DomainError, at_most, echo, integer, rational


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
# the quartic type bound


# lcm(1..20): a multiple of 4 and of e(e+1) for every e <= 20, so n/4, each
# weight 1/(k(k+1)) and bungobungo_solve's tail bound are integers once
# scaled by it; a position k and the end e of its greedy tail have
# e <= k + budget <= 20.
_BUNGO_SCALE = 232792560


def bungobungo_solve() -> list[tuple[int, stci.rdp.TypeSeq]]:
    """All (n, p) with n >= 0 and p nonincreasing satisfying

    (i) p_1 <= 9 - (2/5) n, (ii) monotone, (iii) sum p <= 19 - n,
    (iv) n/4 + sum p_k/(k(k+1)) >= 6.

    The search space is finite: (iii) forces n <= 19 and caps the sum.
    The sum in (iv) is carried scaled to an integer down the recursion.
    Weights fall with k, so a nonincreasing tail from p_k = p with sum at
    most budget adds at most p(1/k - 1/e) + r/(e(e+1)), with p at k..e-1
    and r at e, where e = k + budget // p and r = budget % p.  The bound
    grows with p, so the descending loop over p stops at the first that
    cannot reach 6.
    """
    goal = 6 * _BUNGO_SCALE
    out = []

    def reaches(acc: int, k: int, p: int, budget: int) -> bool:
        q, r = divmod(budget, p)
        e = k + q
        tail = p * (_BUNGO_SCALE // k - _BUNGO_SCALE // e) + r * (_BUNGO_SCALE // (e * (e + 1)))
        return acc + tail >= goal

    def descend(n: int, seq: stci.rdp.TypeSeq, k: int, cap: int, budget: int, acc: int) -> None:
        if acc >= goal:
            out.append((n, seq))
        weight = _BUNGO_SCALE // (k * (k + 1))
        for p in range(min(cap, budget), 0, -1):
            if not reaches(acc, k, p, budget):
                break
            descend(n, seq + (p,), k + 1, p, budget - p, acc + p * weight)

    # n/4 < 6, so a root is a solution only through its children; most
    # roots have none, as their first p already falls short
    for n in range(0, 20):
        cap, budget, acc = (45 - 2 * n) // 5, 19 - n, n * _BUNGO_SCALE // 4
        if budget and reaches(acc, 1, min(cap, budget), budget):
            descend(n, (), 1, cap, budget, acc)
    descend = None  # the closure refers to itself: free it at return, not at a gc pass
    return sorted(out)


# ---------------------------------------------------------------------------
# configuration search


# The largest max_sigma config_search accepts: the quartic analysis needs 25.
MAX_SIGMA_CAP = 30

# A search packs the target's remaining steps into one int, _WIDTH bits a
# field: _WIDTH - 1 value bits under a guard bit, so a value is at most
# _CLAMP, which is also the value mask of a field.  A type's steps fit under
# the remaining ones exactly when subtracting its packed steps leaves every
# guard set (no field borrows from the next), so a fit test is a
# subtraction and a mask.  A target with a step past _CLAMP is refused
# unpacked: it has an entry past 63, and no configuration within
# MAX_SIGMA_CAP has a type sum past 43, since a type's sum is at most 42/29
# of its sigma.
_WIDTH = 7
_CLAMP = (1 << (_WIDTH - 1)) - 1


def _steps(seq: stci.rdp.TypeSeq) -> stci.rdp.TypeSeq:
    """(v_1 - v_2, ..., v_{m-1} - v_m, v_m): v is nonincreasing and
    nonnegative exactly when every step is >= 0."""
    return tuple(map(sub, seq, seq[1:])) + seq[-1:]


def _pack(values: Iterable[int]) -> int:
    """values as one int, value i in the _WIDTH-bit field at bit _WIDTH * i."""
    return sum(map(lshift, values, count(0, _WIDTH)))


@cache
def _typed_pairs(
    max_steps: int | None = None, budget: int = MAX_SIGMA_CAP, a_only: bool = False
) -> tuple[int, tuple[tuple, ...]]:
    """(scale, rows): every pair with sigma <= MAX_SIGMA_CAP grouped by type,
    types descending, as rows (the type's ``_steps``, which determine it,
    its sum, its entries, the least Miyaoka term of those, its steps
    ``_pack``ed, and the packed mask of the lowest bit of each field its
    steps lower: 1 where a step is nonzero).  Entries are (sigma, delta,
    Miyaoka term, pair, position in the row) in sigma order, the terms as
    integers over scale = lcm(2..31) < 2^47 (a D/E pair has no Miyaoka
    term: 0), so the search's filters sum integers.  ``a_only`` keeps only
    the A-series pairs, the ones a search under a Miyaoka cap may pick.  A
    table depends on no input, so it is built once, at its first search.

    With ``max_steps``, config_search's index: the rows of at most that
    many steps whose cheapest entry has sigma <= ``budget``, in table
    order.  config_search keys it by a length, a budget in 1..MAX_SIGMA_CAP
    and whether a Miyaoka cap is set, so the cache holds at most
    30 * 30 * 2 indexes beside the two tables; ``cache_clear`` resets all."""
    if max_steps is not None:
        # each table under one cache key, the one every other caller uses
        scale, rows = _typed_pairs(a_only=True) if a_only else _typed_pairs()
        return scale, tuple(row for row in rows if len(row[0]) <= max_steps and row[2][0][0] <= budget)
    rdp = stci.rdp
    by_type: dict[rdp.TypeSeq, list] = {}
    pairs = [pair for pair in rdp.classified_pairs(MAX_SIGMA_CAP) if pair.species == "A" or not a_only]
    for pair in sorted(pairs, key=attrgetter("n")):
        type_seq, _, delta, sigma, _ = rdp.scalar_invariants(pair)
        term = rdp.miyaoka_contribution(pair) if pair.species == "A" else 0
        by_type.setdefault(type_seq, []).append((sigma, delta, term, pair))
    scale = math.lcm(*(w.denominator for group in by_type.values() for e in group for w in e[1:3]))

    def scaled(w: stci.exact.Fraction | int) -> int:
        return w.numerator * (scale // w.denominator)

    rows = []
    for piece in sorted(by_type, reverse=True):
        entries = tuple((sigma, scaled(d), scaled(m), pair, pos)
                        for pos, (sigma, d, m, pair) in enumerate(by_type[piece]))
        steps = _steps(piece)
        least_term = min(entry[2] for entry in entries)
        rows.append((steps, sum(piece), entries, least_term, _pack(steps), _pack(map(bool, steps))))
    return scale, tuple(rows)


def config_search(
    target: Iterable[int],
    max_deficiency: int | None = None,
    require_delta: stci.exact.Fraction | None = None,
    max_sigma: int | None = None,
    miyaoka_budget_cap: stci.exact.Fraction | None = None,
) -> list[stci.rdp.Config]:
    """All configurations of classified pairs whose type equals target,
    canonically sorted and deterministic.

    ``max_sigma`` caps a configuration's total sigma (default: the quartic
    resolution bound, 19), which makes the search finite.  Every
    configuration found has type sum sum(target), so its deficiency is
    sigma - sum(target) and ``max_deficiency`` caps sigma too.  With
    ``require_delta`` only configurations of exactly that delta pass; with
    ``miyaoka_budget_cap`` only those whose members are all A-series, with
    contributions summing to at most the cap.  A target that is not
    nonincreasing has no configuration.

    Refused with a DomainError before any search: an empty target or one
    that ``normalize_type`` refuses, a max_sigma or max_deficiency that is
    not an int, a max_sigma above MAX_SIGMA_CAP, and a require_delta or
    miyaoka_budget_cap that is not an int or a Fraction.

    The cost about doubles per 5 added to max_sigma, hence MAX_SIGMA_CAP.
    """
    target = stci.rdp.normalize_type(target)
    if not target:
        raise DomainError("target type must be nonempty")
    max_sigma = resolution_bound(4) if max_sigma is None else integer(max_sigma, "max_sigma")
    at_most(max_sigma, MAX_SIGMA_CAP, "max_sigma", "the search grows exponentially in it")
    budget = max_sigma
    if max_deficiency is not None:
        budget = min(budget, sum(target) + integer(max_deficiency, "max_deficiency"))
    for value, name in ((require_delta, "require_delta"), (miyaoka_budget_cap, "miyaoka_budget_cap")):
        if value is not None:
            rational(value, name)
    # each pick leaves the rest of the target nonincreasing, as every pair's
    # type is, so a target with a negative step has nothing to pick; every
    # pair has sigma >= 1, so a budget below 1 has nothing to spend; a step
    # past _CLAMP does not fit a field and has no configuration (see _WIDTH)
    steps = _steps(target)
    if min(steps) < 0 or max(steps) > _CLAMP or budget < 1:
        return []

    # no type has more entries than sigma, so no row has more steps than this
    capped = miyaoka_budget_cap is not None
    scale, table = _typed_pairs(min(len(steps), MAX_SIGMA_CAP), budget, capped)
    delta_goal = contribution_cap = math.inf  # an absent filter's bound
    if require_delta is not None:
        delta_goal, off_grid = divmod(require_delta.numerator * scale, require_delta.denominator)
        if off_grid:  # no sum of the table's deltas
            return []
    if capped:
        contribution_cap = miyaoka_budget_cap.numerator * scale // miyaoka_budget_cap.denominator
    # with neither filter, ``filtered`` skips the int-with-infinity compares
    filtered = require_delta is not None or capped

    # the remaining steps packed at _WIDTH, a field per step with its guard
    # set; unit, a 1 in each field, is a geometric sum
    unit = ((1 << _WIDTH * len(steps)) - 1) // ((1 << _WIDTH) - 1)
    guard = unit << (_WIDTH - 1)
    root = _pack(steps) | guard
    # (closed mask, pack, size, group, row index) of each type that fits; the
    # index keeps only types with an entry within budget, from the A-series
    # table under a Miyaoka cap, and the descent's sigma cut stops each group
    # at the budget.  A row's closed mask holds the value bits of the fields
    # no type from that row on lowers, where a remaining step can no longer
    # reach 0, so the rows are built last to first (row[4] is a type's pack)
    kept = [row for row in table if (root - row[4]) & guard == guard]
    rows = []
    num, den = 1, 0  # the least sigma/sum(type) of a kept type, as num/den; 1/0 tops all
    mnum, mden = 1, 0  # the least Miyaoka term/sum(type), likewise
    lowered = 0
    for _, size, group, least_term, pack, lower in reversed(kept):
        lowered |= lower
        rows.append(((unit ^ lowered) * _CLAMP, pack, size, group, len(kept) - 1 - len(rows)))
        if group[0][0] * den < num * size:
            num, den = group[0][0], size
        if capped and least_term * mden < mnum * size:
            mnum, mden = least_term, size
    rows.reverse()
    # the contribution cut: every term is positive and every pick's term is
    # at least mnum/mden times its type sum, so the picks left for a type sum
    # rest add at least ceil(rest * mnum / mden); with no type kept, 1/0
    # prices any sum past every cap
    if capped and sum(target) * mnum > contribution_cap * mden:
        return []

    results: list[stci.rdp.Config] = []
    chosen: list[stci.rdp.RdpPair] = []
    make_config = stci.rdp.make_config  # bound once: the leaves below call it

    # picks (type, entry) positions in nondecreasing order, so each multiset
    # is found once; types run in table order, and end at the first row
    # whose closed mask meets a remaining step
    def descend(start: int, first: int, rem: int, left: int, slack: int, delta: int, total: int) -> None:
        for closed, pack, size, group, t in rows[start:]:
            if rem & closed:
                break
            child = rem - pack
            if child & guard != guard:
                continue
            # the sigma cut: entries run in sigma order until the pick, plus
            # the type sum left priced at num/den, would overspend the slack
            rest = left - size
            room = slack + num * rest // -den  # slack - ceil(rest * num / den)
            # the contribution cut: the floored cap less the type sum left
            # priced at mnum/mden, cap - ceil(rest * mnum / mden)
            spend = contribution_cap + mnum * rest // -mden if capped else contribution_cap
            for sigma, d, m, pair, pos in group if t != start else group[first:]:
                if sigma > room:
                    break
                # delta and contribution are positive: a pick past the required
                # delta or the contribution left to spend is skipped
                if filtered and (delta + d > delta_goal or total + m > spend):
                    continue
                chosen.append(pair)
                if child != guard:
                    descend(t, pos, child, rest, slack - sigma, delta + d, total + m)
                elif require_delta is None or delta + d == delta_goal:
                    results.append(make_config(chosen))
                chosen.pop()

    descend(0, 0, root, sum(target), budget, 0, 0)
    descend = None  # the closure refers to itself: free it at return, not at a gc pass
    return sorted(results)


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
