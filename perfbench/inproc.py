"""Job lists of the in-process workloads, ``search`` and ``calculus``.

A job is ``(kind, function, args, check)``: one call of a public stci
function on inputs drawn from the seed, and a predicate on its result.
The expected values come from ``oracles`` or from ``pinned.json`` and are
computed here, before any timing starts.  The number of jobs of each
kind and their sizes are fixed; the seed picks the remaining parameters
and the order, so every seed costs about the same.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from functools import partial
from operator import eq

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))

BUNGO_SOLUTIONS = [(0, (9, 8, 2)), (0, (9, 9)), (0, (9, 9, 1))]
QUARTIC_PAIRS_D4 = [
    (3, 4), (3, 8), (4, 4), (4, 7), (6, 26), (9, 48), (10, 28), (12, 18),
    (13, 16), (17, 220), (18, 118), (19, 84), (20, 67), (22, 50), (28, 33),
]


def _pair_key(pair):
    return (pair.species, pair.n, pair.k)


def _check_enumerate(expected, out) -> bool:
    got = [(r.s, r.t, r.n, r.p_s, r.p_t, r.flags) for r in out]
    return got == expected


def _check_configs(expected, out) -> bool:
    return [tuple(map(_pair_key, config)) for config in out] == expected


def _configs_from_text(text: str):
    """"8*A:2:1 + A:3:1" -> sorted tuple of (species, n, k)."""
    out = []
    for term in text.split("+"):
        mult, _, desc = term.strip().rpartition("*")
        fields = desc.split(":")
        key = (fields[0], int(fields[1]), int(fields[2]))
        out += [key] * int(mult or 1)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# search: degree-pair enumeration, the quartic type solver, config search

# (d, jobs per list): the grid scan grows about as d^6, so few large d.
ENUMERATE_MIX = ((4, 2), (5, 2), (6, 2), (7, 1), (8, 1))
BUNGO_JOBS = 7
# (max_sigma, target) -> jobs per list, each with its own seeded filters.
# Five (9,9,1) searches at max_sigma 25 put the median job among them.
CONFIG_MIX = {
    (19, (9, 8, 2)): 2, (19, (9, 9)): 2, (19, (9, 9, 1)): 2,
    (25, (9, 8, 2)): 3, (25, (9, 9)): 3, (25, (9, 9, 1)): 5,
}


def _config_filters(rng, rows):
    """Seeded filter arguments for config_search and the rows they keep."""
    max_def = rng.choice([None, 0, 1, 2, 3])
    delta = None
    if rows and rng.random() < 0.3:
        delta = Fraction(rng.choice(rows)["delta"])
    cap = rng.choice([None, None, Fraction(24), Fraction(rng.randint(18, 40))])
    kept = []
    for row in rows:
        if max_def is not None and row["deficiency"] > max_def:
            continue
        if delta is not None and Fraction(row["delta"]) != delta:
            continue
        if cap is not None and (row["miyaoka"] is None or Fraction(row["miyaoka"]) > cap):
            continue
        kept.append(tuple(map(tuple, row["pairs"])))
    return {"max_deficiency": max_def, "require_delta": delta, "miyaoka_budget_cap": cap}, kept


def search_jobs(stci, rng: random.Random) -> list:
    degrees, theorems = stci.degrees, stci.theorems
    with open(os.path.join(HERE, "pinned.json")) as fh:
        pinned = json.load(fh)["config_search"]
    jobs = []

    expected_d4 = oracles.degree_pairs(4, 0, True)
    if [row[:2] for row in expected_d4] != QUARTIC_PAIRS_D4:
        raise AssertionError("degree-pair oracle disagrees with the 15 quartic pairs")
    jobs.append(("enumerate.d4", degrees.enumerate_pairs, (4, 0), partial(_check_enumerate, expected_d4)))
    for d, count in ENUMERATE_MIX:
        for _ in range(count - (d == 4)):
            g, symmetric = rng.randint(0, 2), rng.random() < 0.5
            expected = oracles.degree_pairs(d, g, symmetric)
            jobs.append((f"enumerate.d{d}", degrees.enumerate_pairs, (d, g, symmetric),
                         partial(_check_enumerate, expected)))

    for _ in range(BUNGO_JOBS):
        jobs.append(("bungo", theorems.bungobungo_solve, (), partial(eq, BUNGO_SOLUTIONS)))

    # The two quartic case-analysis results, always present.
    acceptance = (
        ((9, 9, 1), 0, ["8*A:2:1 + A:3:1"]),
        ((9, 9), 1, ["9*A:2:1", "7*A:2:1 + A:5:2"]),
    )
    for target, max_def, texts in acceptance:
        expected = [_configs_from_text(t) for t in texts]
        check = partial(_check_configs, expected)
        jobs.append((f"config_search.{_label(target)}.s19", partial(theorems.config_search, max_deficiency=max_def),
                     (target,), check))
    for (sigma, target), count in CONFIG_MIX.items():
        rows = pinned[f"{','.join(map(str, target))}/{sigma}"]
        for _ in range(count):
            kwargs, kept = _config_filters(rng, rows)
            fn = partial(theorems.config_search, max_sigma=sigma, **kwargs)
            jobs.append((f"config_search.{_label(target)}.s{sigma}", fn, (target,),
                         partial(_check_configs, kept)))
    return jobs


def _label(target) -> str:
    return "".join(map(str, target))


# ---------------------------------------------------------------------------
# calculus: rdp/exact invariants, chow expansions, graph solves

PHI_MAX = 300
PAIR_JOBS = 10000
CONFIG_JOBS = 1500
# (n, contexts): each context is one st_expansion and n a_closed_form jobs.
CHOW_MIX = ((16, 40), (64, 20), (256, 32))
CHOW_SHAPES = {
    16: ((4, 4, 1), (2, 8, 1), (8, 4, 2), (4, 8, 2), (8, 8, 4)),
    64: ((8, 8, 1), (4, 16, 1), (16, 8, 2), (8, 16, 2), (16, 16, 4)),
    256: ((16, 16, 1), (8, 32, 1), (32, 16, 2), (16, 32, 2), (32, 32, 4)),
}
# (n, graphs): each graph is one strict_transform_class, one decompose
# and one from_parts job on a random standard graph on [1, n].
GRAPH_MIX = ((16, 40), (64, 14), (128, 2))
CONE_JOBS = 200
THM2_MIX = ((128, 4), (256, 4))
THM2_SHAPES = {128: ((8, 16, 1), (4, 32, 1), (16, 16, 2)), 256: CHOW_SHAPES[256]}


def _random_pair(rng, stci):
    rdp = stci.rdp
    roll = rng.random()
    if roll < 0.8:
        n = rng.randint(1, PHI_MAX)
        return rdp.pair_a(n, rng.randint(1, n))
    if roll < 0.9:
        return rdp.pair_d_first(rng.randint(4, PHI_MAX))
    if roll < 0.98:
        return rdp.pair_d_last(rng.randint(5, PHI_MAX))
    return rng.choice([rdp.E6, rdp.E7])


def _random_history(rng, n: int):
    """Operation list growing a random standard graph from vertex 1 to n."""
    edges = set()
    ops = []
    for m in range(1, n):
        below = sorted(a for a, b in edges if b == m)
        op = rng.choice(["+"] + below)
        if op == "+":
            edges.add((m, m + 1))
        else:
            edges.remove((op, m))
            edges |= {(op, m + 1), (m, m + 1)}
        ops.append(op)
    return ops, edges


def _check_scalar(expected, out) -> bool:
    return (out.order, out.delta, out.sigma, out.deficiency) == expected


def _check_config(expected, out) -> bool:
    return (out.type_seq, out.order, out.delta, out.sigma, out.deficiency) == expected


def _check_expansion(expected, out) -> bool:
    return out.h2_coeff == 0 and out.a == expected


def _check_cone(expected, out) -> bool:
    return out.margins == expected and out.feasible == all(c >= 0 for c in expected)


def calculus_jobs(stci, rng: random.Random) -> list:
    rdp, chow, graphs, theorems = stci.rdp, stci.chow, stci.graphs, stci.theorems
    jobs = []

    for n in range(1, PHI_MAX + 1):
        for k in range(1, n + 1):
            jobs.append(("phi", rdp.phi, (n, k), partial(eq, oracles.phi(n, k))))
    for i in range(PAIR_JOBS):
        pair = _random_pair(rng, stci)
        seq, *scalars = oracles.pair_invariants(pair.species, pair.n, pair.k)
        if i % 2:
            jobs.append(("type_of", rdp.type_of, (pair,), partial(eq, seq)))
        else:
            jobs.append(("scalar_invariants", rdp.scalar_invariants, (pair,),
                         partial(_check_scalar, tuple(scalars))))
    for _ in range(CONFIG_JOBS):
        pairs = []
        for _ in range(rng.randint(2, 10)):
            n = rng.randint(1, 40)
            pairs.append(rng.choice([rdp.pair_a(n, rng.randint(1, n)), rdp.pair_d_first(max(4, n)),
                                     rdp.pair_d_last(max(5, n))]))
        config = rdp.make_config(pairs)
        expected = oracles.config_invariants([_pair_key(p) for p in config])
        jobs.append(("config_invariants", rdp.config_invariants, (config,), partial(_check_config, expected)))
    contribution = rdp.parse_config("A:1:1 + 6*A:2:1 + 2*A:3:1")
    if oracles.miyaoka_sum([_pair_key(p) for p in contribution]) != 25:
        raise AssertionError("Miyaoka oracle disagrees with the pinned sum 25")
    jobs.append(("config_miyaoka", rdp.config_miyaoka, (contribution,), partial(eq, Fraction(25))))

    for n, count in CHOW_MIX:
        for _ in range(count):
            s, t, d = rng.choice(CHOW_SHAPES[n])
            g = rng.randint(0, 3)
            p = tuple(rng.randint(0, 30) for _ in range(rng.randint(n // 2, n)))
            padded = p + (0,) * (n - len(p))
            ctx = chow.make_context(d, g, chow.beta_from_p(s, d, g, padded))
            expected = oracles.ruling_coefficients(s, t, d, g, p)
            jobs.append((f"st_expansion.n{n}", chow.st_expansion, (s, t, ctx), partial(_check_expansion, expected)))
            for m in range(1, n + 1):
                jobs.append((f"a_closed_form.n{n}", chow.a_closed_form, (s, t, d, g, p, m),
                             partial(eq, expected[m - 1])))

    for n, count in GRAPH_MIX:
        for _ in range(count):
            ops, edges = _random_history(rng, n)
            graph = graphs.replay(1, ops)
            jobs.append((f"strict_transform.n{n}", graphs.strict_transform_class, (graph,),
                         partial(eq, oracles.strict_transform(1, n, edges))))
            jobs.append((f"decompose.n{n}", graphs.decompose, (graph,), partial(eq, tuple(ops))))
            jobs.append((f"from_parts.n{n}", graphs.from_parts, (1, n, sorted(edges)), partial(eq, graph)))
    for _ in range(CONE_JOBS):
        a = [rng.randint(0, 20)] + [rng.randint(-6, 20) for _ in range(rng.randint(7, 63))]
        coords = oracles.cone_coordinates(a)
        jobs.append(("snort_check", graphs.snort_check, (a,), partial(_check_cone, coords)))
        feasible = all(c >= 0 for c in coords)
        jobs.append(("cone_decompose", graphs.cone_decompose, (a,), partial(eq, coords if feasible else None)))

    for n, count in THM2_MIX:
        for _ in range(count):
            s, t, d = rng.choice(THM2_SHAPES[n])
            g = rng.randint(0, 3)
            p = [rng.randint(0, 40) for _ in range(rng.randint(n // 2, n - 1))]
            jobs.append((f"thm2_margins.n{n}", theorems.thm2_margins, (theorems.StciParams(s, t, d, g), p),
                         partial(eq, oracles.thm2_margins(s, t, d, g, p))))
    quartic = theorems.StciParams(4, 4, 4, 0)
    jobs.append(("thm2_margins.quartic", theorems.thm2_margins, (quartic, (9, 8, 2)), partial(eq, (3, 4, 2))))
    for k, rhs in ((1, 24), (2, 48), (3, 96)):
        jobs.append(("thm2_rhs", theorems.thm2_rhs, (quartic, k), partial(eq, rhs)))
    jobs.append(("thm1_value", theorems.thm1_value, (quartic,), partial(eq, theorems.Thm1Result(Fraction(8), True))))
    jobs.append(("thm3_check", theorems.thm3_check, (4, 4, 0, (9, 9)),
                 partial(eq, theorems.Thm3Result(Fraction(6), Fraction(6), True))))
    for s, bound in ((4, 19), (5, 44)):
        jobs.append(("resolution_bound", theorems.resolution_bound, (s,), partial(eq, bound)))
    jobs.append(("miyaoka_budget", theorems.miyaoka_budget, (4,), partial(eq, Fraction(24))))
    return jobs
