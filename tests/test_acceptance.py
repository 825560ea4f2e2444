"""Acceptance suite.

One test per criterion; each prints a PASS line on success (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and enforces its
stated wall-clock budget.
"""

import random
import time
from fractions import Fraction

from oracles import (
    binomial_divisibility,
    blowup_of,
    cone_solve,
    divisibility_check,
    dyadic_margins,
    neighbors,
    phi_step_by_step,
    spitup_decomposition,
)
from stci import chow, degrees, graphs, rdp, theorems
from stci.cli import run

EXPECTED_PAIRS = [
    (3, 4), (3, 8), (4, 4), (4, 7), (6, 26), (9, 48), (10, 28), (12, 18),
    (13, 16), (17, 220), (18, 118), (19, 84), (20, 67), (22, 50), (28, 33),
]

EXPECTED_ENUM_CSV = (
    "s,t,n,p_s,p_t\n"
    "3,4,3,5,9\n"
    "3,8,6,4,24\n"
    "4,4,4,8,8\n"
    "4,7,7,7,19\n"
    "6,26,39,13,93\n"
    "9,48,108,24,180\n"
    "10,28,70,28,100\n"
    "12,18,54,36,60\n"
    "13,16,52,40,52\n"
    "17,220,935,55,867\n"
    "18,118,531,59,459\n"
    "19,84,399,63,323\n"
    "20,67,335,67,255\n"
    "22,50,275,75,187\n"
    "28,33,231,99,119\n"
)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            self.elapsed = time.monotonic() - self.start
            assert self.elapsed < self.seconds, (
                f"budget {self.seconds}s exceeded: {self.elapsed:.1f}s"
            )


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_enumeration_table(capsys):
    with Budget(1.0):
        records = degrees.enumerate_pairs(4, 0)
        assert [(r.s, r.t) for r in records] == EXPECTED_PAIRS
        code = run(["enumerate", "--d", "4", "--g", "0", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == EXPECTED_ENUM_CSV
    report(1, "enumerate --d 4 --g 0 emits the 15 admissible pairs byte-exactly")


def test_criterion_2_thm1_quartic():
    result = theorems.thm1_value(theorems.StciParams(4, 4, 4, 0))
    assert result.value == 8
    assert result.integral
    report(2, "thm1_value(4,4,4,0) = 8, integral")


def test_criterion_3_thm2_quartic():
    params = theorems.StciParams(4, 4, 4, 0)
    assert [theorems.thm2_rhs(params, k) for k in (1, 2, 3)] == [24, 48, 96]
    assert theorems.thm2_margins(params, (8, 8, 8)) == (0, 0, 0)
    report(3, "thm2 at (4,4,4,0): RHS (24,48,96), tight at p=(8,8,8)")


def test_criterion_4_thm3_quartic():
    result = theorems.thm3_check(4, 4, 0, (9, 9))
    assert result.rhs == 6
    config = rdp.parse_config("9*A:2:1")
    inv = rdp.config_invariants(config)
    assert inv.type_seq == (9, 9)
    achieved = theorems.thm3_check(4, 4, 0, inv.type_seq)
    assert achieved.lhs == achieved.rhs == 6 and achieved.holds
    report(4, "thm3 RHS at (4,4,0) = 6; 9*A:2:1 achieves equality")


def test_criterion_5_resolution_bounds():
    assert theorems.resolution_bound(4) == 19
    assert theorems.resolution_bound(5) == 44
    report(5, "resolution_bound(4) = 19, resolution_bound(5) = 44")


def test_criterion_6_bungobungo():
    with Budget(1.0):
        solutions = theorems.bungobungo_solve()
    assert solutions == [(0, (9, 8, 2)), (0, (9, 9)), (0, (9, 9, 1))]
    report(6, "bungobungo_solve = {(0,(9,8,2)), (0,(9,9)), (0,(9,9,1))}")


def test_criterion_7_config_case_analysis():
    with Budget(5.0):
        found = theorems.config_search((9, 9, 1), max_deficiency=0)
        assert [rdp.format_config(c) for c in found] == ["8*A:2:1 + A:3:1"]
        assert rdp.config_invariants(found[0]).delta == Fraction(73, 12)

        found = theorems.config_search((9, 9), max_deficiency=1)
        assert [rdp.format_config(c) for c in found] == [
            "9*A:2:1",
            "7*A:2:1 + A:5:2",
        ]
        assert all(rdp.config_invariants(c).order == 3 for c in found)

        config = rdp.parse_config("A:1:1 + 6*A:2:1 + 2*A:3:1")
        total = rdp.config_miyaoka(config)
        assert total == 25
        assert total > theorems.miyaoka_budget(4) == 24
    report(7, "quartic case analysis: (9,9,1), (9,9), and the contribution sum 25 > 24")


def _random_graph(rng, base, max_ops):
    g = graphs.replay(base, ())
    for _ in range(rng.randint(0, max_ops)):
        m = g.top
        choices = ["+"] + sorted(l for l in neighbors(g, m) if l < m)
        g = graphs.replay(g.base, g.history + (rng.choice(choices),))
    return g


def test_criterion_8_property_suite():
    with Budget(30.0):
        # expansion oracle vs closed form, 200 random tuples with n <= 8
        rng = random.Random(1201)
        for _ in range(200):
            d = rng.randint(1, 6)
            n = rng.randint(2, 8)
            st = n * d
            s = rng.choice([v for v in range(1, st + 1) if st % v == 0])
            t = st // s
            g = rng.randint(0, 4)
            p = tuple(rng.randint(0, 30) for _ in range(n))
            ctx = chow.make_context(d, g, chow.beta_from_p(s, d, g, p))
            expansion = chow.st_expansion(s, t, ctx)
            closed = tuple(
                chow.a_closed_form(s, t, d, g, p, m) for m in range(1, n + 1)
            )
            assert expansion.a == closed and expansion.h2_coeff == 0

        # the type sequence by Euclid's algorithm equals the blowup
        # recursion taken one entry at a time
        for n in range(1, 301):
            for k in range(1, (n + 1) // 2 + 1):
                assert rdp.phi(n, k) == phi_step_by_step(n, k)

        # cone feasibility: running sums vs direct dyadic margins and the
        # triangular solve
        rng = random.Random(1202)
        for _ in range(1000):
            a = tuple(rng.randint(-20, 20) for _ in range(rng.randint(0, 10)))
            check = graphs.snort_check(a)
            coords = graphs.cone_decompose(a)
            assert check.margins == dyadic_margins(a)
            assert coords == cone_solve(a)
            assert (coords is not None) == check.feasible
            if coords is not None:
                assert coords == check.margins

        # graph decomposition round trips and the multiplicity identity
        rng = random.Random(1203)
        for _ in range(500):
            g = _random_graph(rng, rng.randint(1, 5), 11)
            ops = graphs.decompose(g)
            assert ops == g.history
            assert graphs.replay(g.base, ops) == g
            if g.top > g.base:
                total = [0] * (g.top - g.base + 1)
                total[0] = 1
                for part in spitup_decomposition(g):
                    for v in range(part.base, part.top + 1):
                        total[v - g.base] += part.mu[v - part.base]
                assert tuple(total) == g.mu
    report(8, "oracle equivalences: expansion, type recursion, cone, graph replay")


def test_criterion_9_invariant_suite():
    with Budget(30.0):
        type_to_a_pair = {}
        for pair in rdp.classified_pairs(300):
            t = rdp.type_of(pair)
            inv = rdp.scalar_invariants(pair)

            # weighted type sum dominates delta
            assert rdp.weighted_type_sum(t) >= inv.delta, pair

            # entries never increase
            assert all(t[i] >= t[i + 1] for i in range(len(t) - 1)), pair

            # run structure: last run longer than 1 and its value divides
            # the previous run's value
            runs = []
            for v in t:
                if runs and runs[-1][0] == v:
                    runs[-1][1] += 1
                else:
                    runs.append([v, 1])
            if len(runs) > 1:
                assert runs[-1][1] > 1, pair
                assert runs[-2][0] % runs[-1][0] == 0, pair

            # injectivity on the A-series
            if pair.species == "A":
                assert t not in type_to_a_pair, (pair, type_to_a_pair[t])
                type_to_a_pair[t] = pair

            # vanishing beyond the order, except the odd tail-D family
            odd_tail_d = pair.species == "Dn" and pair.n % 2 == 1
            if odd_tail_d:
                assert len(t) > inv.order, pair
                assert t[inv.order] != 0, pair
            else:
                assert len(t) < inv.order, pair

            # deficiency sign rule
            if odd_tail_d:
                assert inv.deficiency < 0, pair
            else:
                assert inv.deficiency >= 0, pair

            # blowup consistency
            successor = blowup_of(pair)
            rest = () if successor is None else rdp.type_of(successor)
            assert t == (t[0],) + rest, pair
    report(9, "full classified universe (n <= 300) invariants hold")


def test_criterion_10_divisibility_equivalence():
    with Budget(30.0):
        checked = 0
        for s in range(1, 41):
            for t in range(1, 41):
                st = s * t
                for d in range(1, 9):
                    if st % d != 0 or st // d < 2:
                        continue
                    for g in range(0, 5):
                        _, direct, _ = divisibility_check(s, t, d, g)
                        binom = binomial_divisibility(s, t, d, g)
                        assert direct == binom, (s, t, d, g)
                        checked += 1
        assert checked > 10000
    report(10, "divisibility forms agree on the full admissible box")


def test_criterion_11_murky_brute_force():
    with Budget(60.0):
        for s in range(4, 61):
            bound = theorems.resolution_bound(s)
            for t in range(s, 61):
                st = s * t
                for d in range(4, 61):  # d >= g + 4 with g >= 0 needs d >= 4
                    if st % d != 0:
                        continue
                    n = st // d
                    if n < 2:
                        continue
                    for g in range(0, min(60, d - 4) + 1):
                        r = d * (n * (s - 4) + t) + (2 - 2 * g) * n
                        applies = r <= bound
                        assert not applies, (s, t, d, g)
                        assert not theorems.thmA_verdict(s, t, d, g).applies
    report(11, "no hypothesis-satisfying tuple with d >= g+4 in the 60-box")
