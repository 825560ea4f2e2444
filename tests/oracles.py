"""Second routes to quantities the library computes one way.

Each function recomputes a library result by an independent method, so a
test can compare the two: the Euclidean closed form of phi, the
closed form of the strict-transform class, the quadratic dyadic and
triangular cone sums, the double sum behind thm2_margins, and
the binomial form of the degree-pair divisibility condition.
"""

from stci.exact import euclid_profile


def phi_closed_form(n, k):
    """Each Euclidean remainder of (n-k+1, k) repeated by its quotient."""
    if 2 * k > n + 1:
        k = n - k + 1
    profile = euclid_profile(n - k + 1, k)
    out = []
    for i in range(profile.t_last_nonzero + 1):
        out.extend([profile.remainders[i]] * profile.quotients[i])
    return tuple(out)


def strict_transform_closed_form(graph):
    """R_k alone when k = n, else R_k - R_{k+1} - ... - R_r over R_1..R_n,
    where r is the root's only neighbor."""
    k, n = graph.base, graph.top
    r = max([k] + [b for a, b in graph.edges if a == k])
    return (0,) * (k - 1) + (1,) + (-1,) * (r - k) + (0,) * (n - r)


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
