"""Reference answers that the benchmark checks the library against.

Each function recomputes a quantity by a route of its own, written from
the definitions in the paper and the README rather than from the
library's code: the type recursion for phi, the divisor walk for the
degree pairs, prefix sums for the ruling coefficients, the closed form
R_k - R_{k+1} - ... - R_r for the strict transform, and running sums for
the ruling cone and the dyadic inequalities.  Nothing here imports stci.
"""

from __future__ import annotations

import math
from fractions import Fraction


def phi(n: int, k: int) -> tuple[int, ...]:
    """A(n, k) contributes k rulings, then blows up to A(n-k, k), folded."""
    out = []
    while True:
        k = min(k, n + 1 - k)
        out.append(k)
        if 2 * k == n + 1:
            return tuple(out)
        n -= k


def pair_type(species: str, n: int, k: int) -> tuple[int, ...]:
    if species == "A":
        return phi(n, k)
    if species == "D1":
        return (2,)
    if species == "Dn":
        return (n // 2,) if n % 2 == 0 else ((n - 1) // 2,) + (1,) * (n - 1)
    return (2, 2) if species == "E6" else (3,)


def pair_invariants(species: str, n: int, k: int):
    """(type, order, delta, sigma, deficiency) of one classified pair."""
    if species == "A":
        order, delta = (n + 1) // math.gcd(k, n + 1), Fraction(k * (n + 1 - k), n + 1)
    elif species == "D1":
        order, delta = 2, Fraction(1)
    elif species == "Dn":
        order, delta = (2 if n % 2 == 0 else 4), Fraction(n, 4)
    elif species == "E6":
        order, delta = 3, Fraction(4, 3)
    else:
        order, delta = 2, Fraction(3, 2)
    seq = pair_type(species, n, k)
    return seq, order, delta, n, n - sum(seq)


def config_invariants(pairs):
    """Componentwise type sum, lcm of orders, and summed delta/sigma/deficiency."""
    width = 0
    total = []
    order, delta, sigma, deficiency = 1, Fraction(0), 0, 0
    for species, n, k in pairs:
        seq, o, dl, sg, df = pair_invariants(species, n, k)
        width = max(width, len(seq))
        total += [0] * (width - len(total))
        for i, v in enumerate(seq):
            total[i] += v
        order = order * o // math.gcd(order, o)
        delta += dl
        sigma += sg
        deficiency += df
    return tuple(total), order, delta, sigma, deficiency


def miyaoka_sum(pairs) -> Fraction:
    return sum((Fraction(n + 1) - Fraction(1, n + 1) for _, n, _ in pairs), Fraction(0))


def _divisors(a: int):
    small, large = [], []
    i = 1
    while i * i <= a:
        if a % i == 0:
            small.append(i)
            if i * i != a:
                large.append(a // i)
        i += 1
    return small + large[::-1]


def _q(s: int, t: int, d: int, g: int, n: int) -> int:
    return d * (n * (s - 4) + t) + (2 - 2 * g) * n


def degree_pairs(d: int, g: int, symmetric: bool):
    """Admissible (s, t, n, p_s, p_t, flags) for 3 <= s <= t < 2d^4, s < 2d^2.

    With n = st/d the s-orientation quantity is q = n*a/s where
    a = s(d(s-4) + 2 - 2g) + d^2, and (n-1) | q with q > 0 holds exactly
    when a > 0, e = a/(n-1) divides a and s | (a + e).  So walk the
    divisors e of a instead of scanning the (s, t) grid.
    """
    rows = []
    for s in range(3, 2 * d * d):
        a = s * (d * (s - 4) + 2 - 2 * g) + d * d
        if a <= 0:
            continue
        for e in _divisors(a):
            n = 1 + a // e
            if (a + e) % s or (d * n) % s:
                continue
            t = d * n // s
            if not s <= t < 2 * d ** 4:
                continue
            q_t = _q(t, s, d, g, n)
            t_holds = q_t > 0 and q_t % (n - 1) == 0
            if symmetric and not t_holds:
                continue
            flags = ("s-orientation", "t-orientation") if t_holds else ("s-orientation",)
            p_s, p_t = Fraction(_q(s, t, d, g, n), n - 1), Fraction(q_t, n - 1)
            rows.append((s, t, n, p_s, p_t, flags))
    return sorted(rows)


def ruling_coefficients(s: int, t: int, d: int, g: int, p) -> tuple[int, ...]:
    """a_1..a_n of (sH - sum E)(tH - sum E), n = st/d, by prefix sums.

    -a_m = d(s+t) + beta_1 + ... + beta_{m-1} + (n-m) beta_m + 2 - 4d - 2g
    with beta_k = ds + 2 - 4d - 2g - p_k.
    """
    n = s * t // d
    base = d * s + 2 - 4 * d - 2 * g
    beta = [base - v for v in p] + [base] * (n - len(p))
    out, prefix = [], 0
    for m in range(1, n + 1):
        out.append(-(d * (s + t) + prefix + (n - m) * beta[m - 1] + 2 - 4 * d - 2 * g))
        prefix += beta[m - 1]
    return tuple(out)


def strict_transform(base: int, top: int, edges) -> tuple[int, ...]:
    """R_k - R_{k+1} - ... - R_r over R_1..R_top, r the root's only neighbour."""
    (r,) = [b if a == base else a for a, b in edges if base in (a, b)]
    vec = [0] * top
    vec[base - 1] = 1
    for j in range(base + 1, r + 1):
        vec[j - 1] = -1
    return tuple(vec)


def cone_coordinates(a) -> tuple[int, ...]:
    """c_k = a_k + c_1 + ... + c_{k-1}, which equals the k-th dyadic margin."""
    out, total = [], 0
    for v in a:
        c = v + total
        out.append(c)
        total += c
    return tuple(out)


def thm2_margins(s: int, t: int, d: int, g: int, p) -> tuple[int, ...]:
    """Margins of the dyadic family via S_{k+1} = 2 S_k + (n-k+1) p_k."""
    n = s * t // d
    p = list(p[: n - 1]) + [0] * max(0, n - 1 - len(p))
    rhs = d * t + n * (d * (s - 4) + 2 - 2 * g)
    out, acc = [], 0
    for k in range(1, n):
        out.append(acc + (n - k) * p[k - 1] - (rhs << (k - 1)))
        acc = 2 * acc + (n - k + 1) * p[k - 1]
    return tuple(out)
