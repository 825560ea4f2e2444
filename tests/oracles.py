"""Second routes to quantities the library computes one way, and the
helpers only tests read.

Each route recomputes a library result by an independent method, so a
test can compare the two: the blowup recursion of phi taken one entry
per step (the library runs Euclid's algorithm), the pair one
blowup along the curve leaves (type_of's type is p_1 followed by that
pair's type), the general ring product on CycleClass records, summed
term by term over every pair of levels (the one encoding of the ring
rules in the stci.chow docstring, of which chow.st_expansion evaluates
one product in closed form), the step-by-step graph builder behind
replay, the closed form of the strict-transform class, the quadratic
dyadic and triangular cone sums, the double sum behind thm2_margins, the
binomial form of the degree-pair divisibility condition, the (s, t) grid
scan and the per-s divisor walk behind enumerate_pairs, the Fraction
scan of all nonincreasing sequences behind bungobungo_solve, the
unpruned configuration search, and the term-by-term folds (pairwise
add_types, one Fraction added at a time) behind config_invariants,
weighted_type_sum and config_miyaoka.
The helpers are the Euclidean profile, graph neighbours, order and
spitup decomposition and the K-formula bound.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from stci.chow import BlowupContext, multiplicity, q_value
from stci.errors import DomainError
from stci.graphs import PLUS, LabeledGraph, truncate
from stci.rdp import (
    Invariants,
    classified_pairs,
    config_invariants,
    config_miyaoka,
    make_config,
    miyaoka_contribution,
    normalize_type,
    pair_a,
    scalar_invariants,
    type_of,
    weighted_type_sum,
)


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
    remainders: tuple
    quotients: tuple

    @property
    def t_last_nonzero(self):
        """Index of the last nonzero remainder."""
        return len(self.remainders) - 2


def euclid_profile(N, k):
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


def phi_step_by_step(n, k):
    """The blowup recursion one step at a time: fold k to n-k+1 when
    2k > n+1, record k, and stop at 2k = n+1 or continue with (n-k, k)."""
    out = []
    while True:
        if 2 * k > n + 1:
            k = n - k + 1
        if 2 * k == n + 1:
            out.append(k)
            return tuple(out)
        out.append(k)
        n -= k


def blowup_of(p):
    """Pair arising after one blowup along the curve; None when smooth."""
    if p.species == "A":
        n, k = p.n, p.k
        return None if 2 * k == n + 1 else pair_a(n - k, k)
    if p.species == "Dn" and p.n % 2 == 1:
        return pair_a(p.n - 1, 1)
    if p.species == "E6":
        return pair_a(3, 2)
    return None


def context_alpha(ctx: BlowupContext) -> tuple[int, ...]:
    """alpha_0..alpha_n of a context: alpha_0 = 2 - 2g - 4d and
    alpha_k = alpha_{k-1} - beta_k."""
    return tuple(itertools.accumulate(ctx.beta, operator.sub, initial=2 - 2 * ctx.g - 4 * ctx.d))


class CycleClass(NamedTuple):
    """A class of the graded basis {1; H, E_1..E_n; H^2, R_1..R_n; pt}
    of one blowup context, with integer coefficients."""

    ctx: BlowupContext
    c0: int
    h: int
    e: tuple[int, ...]
    h2: int
    r: tuple[int, ...]
    pt: int


def mul_term_by_term(x: CycleClass, y: CycleClass) -> CycleClass:
    """Graded product; degree > 3 components vanish.

    Sums E_i.E_j over every pair of levels and each E_k^2 over the levels
    below k, so a product of n-level classes costs O(n^2).
    """
    assert x.ctx == y.ctx, "classes of two different blowup contexts"
    ctx = x.ctx
    n, d = ctx.n, ctx.d
    beta, alpha = ctx.beta, context_alpha(ctx)

    c0 = x.c0 * y.c0
    h = x.c0 * y.h + y.c0 * x.h
    e = [x.c0 * y.e[i] + y.c0 * x.e[i] for i in range(n)]
    h2 = x.c0 * y.h2 + y.c0 * x.h2
    r = [x.c0 * y.r[i] + y.c0 * x.r[i] for i in range(n)]
    pt = x.c0 * y.pt + y.c0 * x.pt

    # degree 1 x degree 1
    h2 += x.h * y.h
    for i in range(n):
        cross = x.h * y.e[i] + x.e[i] * y.h
        if cross:
            r[i] += d * cross
    for i in range(n):
        if not x.e[i]:
            continue
        for j in range(n):
            c = x.e[i] * y.e[j]
            if not c:
                continue
            if i < j:
                r[j] -= beta[i] * c
            elif j < i:
                r[i] -= beta[j] * c
            else:
                h2 -= d * c
                r[i] -= alpha[i] * c
                for m in range(i):
                    r[m] -= beta[m] * c

    # degree 1 x degree 2 (H.H^2 = pt, E_k.R_k = -pt; the rest vanish)
    pt += x.h * y.h2 + y.h * x.h2
    for i in range(n):
        pt -= x.e[i] * y.r[i] + y.e[i] * x.r[i]

    return CycleClass(ctx, c0, h, tuple(e), h2, tuple(r), pt)


def strict_transform_closed_form(graph):
    """R_k alone when k = n, else R_k - R_{k+1} - ... - R_r over R_1..R_n,
    where r is the root's only neighbor."""
    k, n = graph.base, graph.top
    r = max([k] + [b for a, b in graph.edges if a == k])
    return (0,) * (k - 1) + (1,) + (-1,) * (r - k) + (0,) * (n - r)


def replay_step_by_step(base, ops):
    """The single vertex grown one operation at a time, each step copying
    the edge set, mu and history into a new graph: quadratic in len(ops)."""
    if type(base) is not int:
        raise DomainError(f"base must be an int, got {base!r}")
    graph = LabeledGraph(base, base, frozenset(), (1,), ())
    for op in ops:
        m = graph.top
        new = m + 1
        edges = set(graph.edges)
        if op == PLUS:
            edges.add((m, new))
            mu = graph.mu + (graph.mu[-1],)
        else:
            if type(op) is not int:  # a bool is not a vertex label
                raise DomainError(f"an operation other than '+' must be an int, got {op!r}")
            l = op
            key = (min(l, m), max(l, m))
            if l == m or key not in graph.edges:
                raise DomainError(f"subdivision at {l} requires edge ({l}, {m})")
            edges.remove(key)
            edges.add((l, new))
            edges.add((m, new))
            mu = graph.mu + (graph.mu[-1] + graph.mu[l - base],)
        graph = LabeledGraph(base, new, frozenset(edges), mu, graph.history + (op,))
    return graph


def neighbors(graph, v):
    """The vertices joined to v by an edge."""
    return {b if a == v else a for a, b in graph.edges if v in (a, b)}


def graph_order(graph):
    """r - base, where r is the unique neighbor of the smallest vertex."""
    if graph.top == graph.base:
        raise DomainError("order is undefined for a single-vertex graph")
    nbrs = neighbors(graph, graph.base)
    if len(nbrs) != 1:
        raise DomainError("not a standard labeled graph: root degree != 1")
    return nbrs.pop() - graph.base


def spitup_decomposition(graph):
    """The truncations entering the multiplicity identity.

    For a graph of order p, returns [G - {k}, G - {k,k+1}, ...,
    G - {k..k+p-1}]; mu of the original graph equals the indicator of the
    root plus the zero-extended mu of each of these.
    """
    out = []
    cur = graph
    for _ in range(graph_order(graph)):
        cur = truncate(cur)
        out.append(cur)
    return out


def kformula_bound(s, d, g, l):
    """Upper bound d(s-1) - kappa on p_1, with kappa = 3d + 2g - 2 - l."""
    kappa = 3 * d + 2 * g - 2 - l
    return d * (s - 1) - kappa


def dyadic_margins(a):
    """sum_{i<k} 2^(k-i-1) a_i + a_k for each k, summed term by term."""
    return tuple(
        a[k - 1] + sum((1 << (k - i - 1)) * a[i - 1] for i in range(1, k))
        for k in range(1, len(a) + 1)
    )


def cone_solve(a):
    """Cone coordinates from c_k = a_k + c_1 + ... + c_{k-1}, or None."""
    coords = []
    for x in a:
        coords.append(x + sum(coords))
    return None if any(c < 0 for c in coords) else tuple(coords)


def thm2_margins_double_sum(params, p):
    """margin(k) = sum_{i<k} 2^(k-i-1) (n-i+1) p_i + (n-k) p_k - 2^(k-1) q."""
    s, t, d, g, n = params.s, params.t, params.d, params.g, params.n
    q = d * (n * (s - 4) + t) + (2 - 2 * g) * n
    p = tuple(p)[: n - 1] + (0,) * max(0, n - 1 - len(p))
    margins = []
    for k in range(1, n):
        lhs = (n - k) * p[k - 1]
        for i in range(1, k):
            lhs += (1 << (k - i - 1)) * (n - i + 1) * p[i - 1]
        margins.append(lhs - (1 << (k - 1)) * q)
    return tuple(margins)


def binomial_divisibility(s, t, d, g):
    """C(n,2) | st(4-s-t)/2 - n(1-g), for valid (s, t, d, g) with n >= 2.

    st(4-s-t) is always even: s and t of equal parity make 4-s-t even.
    """
    n = s * t // d
    lhs = s * t * (4 - s - t) // 2 - n * (1 - g)
    return lhs % (n * (n - 1) // 2) == 0


def divisibility_check(s, t, d, g):
    """(q, (n-1) | q, q > 0) for the s-orientation of valid (s, t, d, g)."""
    n = multiplicity(s, t, d, g)
    if n < 2:
        raise DomainError("multiplicity n = 1: complete intersection excluded")
    q = q_value(s, t, d, g)
    return q, q % (n - 1) == 0, q > 0


def degree_pairs_grid(d, g, symmetric=True, s_max=None, t_max=None):
    """(s, t, n, p_s, p_t, flags) of every admissible pair, by scanning
    every 3 <= s <= s_max, s <= t <= t_max and testing each orientation."""
    s_max = 2 * d * d - 1 if s_max is None else s_max
    t_max = 2 * d ** 4 - 1 if t_max is None else t_max
    rows = []
    for s in range(3, s_max + 1):
        for t in range(s, t_max + 1):
            if (s * t) % d or s * t // d < 2:
                continue
            n = s * t // d
            q_s, q_t = q_value(s, t, d, g), q_value(t, s, d, g)
            if not (q_s > 0 and q_s % (n - 1) == 0):
                continue
            t_holds = q_t > 0 and q_t % (n - 1) == 0
            if symmetric and not t_holds:
                continue
            flags = ("s-orientation", "t-orientation") if t_holds else ("s-orientation",)
            rows.append((s, t, n, Fraction(q_s, n - 1), Fraction(q_t, n - 1), flags))
    return rows


def degree_pairs_per_s(d, g, s_max=None, t_max=None):
    """(s, t, n, p_s, p_t) of every admissible pair, by walking for each
    3 <= s <= s_max every e = -a (mod s) up to the t >= s bound and
    keeping the divisors e of a = s(d(s-4) + 2 - 2g) + d^2."""
    s_max = 2 * d * d - 1 if s_max is None else min(s_max, 2 * d * d - 1)
    t_max = 2 * d ** 4 - 1 if t_max is None else t_max
    rows = []
    for s in range(3, s_max + 1):
        a = s * (d * (s - 4) + 2 - 2 * g) + d * d
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
            rows.append((s, t, n, p_s, p_s + d * (t - s)))
    return sorted(rows)


def _nonincreasing_seqs(cap, budget):
    yield ()
    for first in range(min(cap, budget), 0, -1):
        for rest in _nonincreasing_seqs(first, budget - first):
            yield (first,) + rest


def bungobungo_scan():
    """The quartic type solutions by testing every nonincreasing sequence
    with entries <= (45 - 2n)/5 and sum <= 19 - n with Fractions."""
    out = []
    for n in range(0, 23):
        cap, budget = (45 - 2 * n) // 5, 19 - n
        if cap < 0 or budget < 0:
            continue
        for seq in _nonincreasing_seqs(cap, budget):
            if Fraction(n, 4) + weighted_type_sum(seq) >= 6:
                out.append((n, seq))
    return sorted(out)


def _fits(piece, remaining):
    return len(piece) <= len(remaining) and all(
        p <= r for p, r in zip(piece, remaining)
    )


def config_passes(config, max_deficiency=None, require_delta=None, miyaoka_budget_cap=None):
    """Whether one finished configuration passes config_search's filters."""
    inv = config_invariants(config)
    if max_deficiency is not None and inv.deficiency > max_deficiency:
        return False
    if require_delta is not None and inv.delta != require_delta:
        return False
    return miyaoka_budget_cap is None or (
        all(p.species == "A" for p in config) and config_miyaoka(config) <= miyaoka_budget_cap
    )


def config_search_unpruned(
    target,
    max_deficiency=None,
    require_delta=None,
    max_sigma=19,
    miyaoka_budget_cap=None,
):
    """Every multiset of classified pairs with type target and total sigma
    <= max_sigma, found by a descent that prunes only on fit and on the
    sigma already used, then filtered like config_search."""
    target = normalize_type(target)
    candidates = [
        (pair, type_of(pair), scalar_invariants(pair).sigma)
        for pair in classified_pairs(max_sigma)
        if _fits(type_of(pair), target)
    ]
    results = []
    chosen = []

    def descend(start, remaining, sigma_used):
        if not any(remaining):
            config = make_config(chosen)
            if config_passes(config, max_deficiency, require_delta, miyaoka_budget_cap):
                results.append(config)
            return
        for idx in range(start, len(candidates)):
            pair, piece, sigma = candidates[idx]
            if sigma_used + sigma > max_sigma or not _fits(piece, remaining):
                continue
            rest = [r - p for r, p in zip(remaining, piece)] + remaining[len(piece):]
            chosen.append(pair)
            descend(idx, rest, sigma_used + sigma)
            chosen.pop()

    descend(0, list(target), 0)
    return sorted(set(results))


def add_types(a, b):
    """Componentwise sum of two types with zero extension."""
    return normalize_type(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


def config_invariants_fold(config):
    """config_invariants one pair at a time: add_types on the running
    type and one Fraction added per delta."""
    type_seq, order, delta, sigma = (), 1, Fraction(0), 0
    for pair in config:
        inv = scalar_invariants(pair)
        type_seq = add_types(type_seq, inv.type_seq)
        order = math.lcm(order, inv.order)
        delta += inv.delta
        sigma += inv.sigma
    return Invariants(type_seq, order, delta, sigma, sigma - sum(type_seq))


def weighted_type_sum_fold(t):
    """Sum of p_k / (k (k+1)), one Fraction added per entry."""
    total = Fraction(0)
    for k, p in enumerate(t, start=1):
        total += Fraction(p, k * (k + 1))
    return total


def config_miyaoka_fold(config):
    """Sum of the members' Miyaoka contributions, one Fraction at a time."""
    total = Fraction(0)
    for pair in config:
        total += miyaoka_contribution(pair)
    return total
