import functools
import gc
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    CycleClass,
    bungobungo_scan,
    config_passes,
    config_search_unpruned,
    dyadic_margins,
    kformula_bound,
    mul_term_by_term,
    thm2_margins_double_sum,
)
from stci import chow, graphs, rdp, search, theorems
from stci.errors import DomainError

ROOT = Path(__file__).resolve().parent.parent


def test_params_validation():
    params = theorems.StciParams(4, 4, 4, 0)
    assert params.n == 4
    # n and q are read off the four fields, so equality, hash and repr see only those
    assert params.q == chow.q_value(4, 4, 4, 0) == 24
    assert params == theorems.StciParams(4, 4, 4, 0)
    assert hash(params) == hash((4, 4, 4, 0))
    assert repr(params) == "StciParams(s=4, t=4, d=4, g=0)"
    with pytest.raises(DomainError):
        theorems.StciParams(3, 3, 4, 0)
    with pytest.raises(DomainError):
        theorems.StciParams(4, 4, 4, -1)
    with pytest.raises(DomainError):
        theorems.StciParams(0, 4, 4, 0)


def test_thm1_examples():
    result = theorems.thm1_value(theorems.StciParams(4, 4, 4, 0))
    assert result.value == 8 and result.integral
    result = theorems.thm1_value(theorems.StciParams(3, 4, 4, 0))
    assert result.value == 5 and result.integral
    result = theorems.thm1_value(theorems.StciParams(2, 2, 1, 0))
    assert result.value == Fraction(2, 3) and not result.integral
    with pytest.raises(DomainError):
        theorems.thm1_value(theorems.StciParams(1, 1, 1, 0))


def test_thm2_examples():
    params = theorems.StciParams(2, 3, 3, 0)
    assert theorems.thm2_margins(params, (1,)) == (0,)

    # (2,2,1,0): n = 4, first inequality is 3*p_1 >= 2, forcing p_1 >= 1
    params = theorems.StciParams(2, 2, 1, 0)
    assert theorems.thm2_margins(params, (1,)) == (1, 0, 0)
    assert theorems.thm2_margins(params, (0,)) == (-2, -4, -8)

    params = theorems.StciParams(4, 4, 4, 0)
    assert [theorems.thm2_rhs(params, k) for k in (1, 2, 3)] == [24, 48, 96]
    assert theorems.thm2_margins(params, (8, 8, 8)) == (0, 0, 0)
    assert theorems.thm2_margins(params, (9, 8, 2)) == (3, 4, 2)
    with pytest.raises(DomainError, match="at most 3 entries, got 8"):
        theorems.thm2_margins(params, (9, 8, 2, 7, 7, 7, 7, 7))
    with pytest.raises(DomainError):
        theorems.thm2_margins(theorems.StciParams(1, 1, 1, 0), ())


def test_thm2_margins_with_no_p_are_the_negated_rhs():
    # with p all zero every ruling coefficient is -q, and the k-th cone
    # margin of that vector is -2^(k-1) q, thm2_rhs negated
    for s, t, d, g in ((4, 4, 4, 0), (2, 2, 1, 0), (2, 3, 3, 0), (5, 6, 3, 1), (16, 16, 1, 0)):
        params = theorems.StciParams(s, t, d, g)
        expected = tuple(-theorems.thm2_rhs(params, k) for k in range(1, params.n))
        assert theorems.thm2_margins(params, ()) == expected, params


def test_thm2_rhs_refuses_indices_outside_one_to_n_minus_one():
    params = theorems.StciParams(4, 4, 4, 0)
    for k in (0, -3, params.n, 1 << 20):
        with pytest.raises(DomainError, match=f"^index k={k} outside 1..3$"):
            theorems.thm2_rhs(params, k)
    with pytest.raises(DomainError, match="outside 1..0"):
        theorems.thm2_rhs(theorems.StciParams(1, 1, 1, 0), 1)
    for s, t, d, g in ((4, 4, 4, 0), (2, 2, 1, 0), (2, 3, 3, 0), (5, 6, 3, 1), (16, 16, 1, 0)):
        params = theorems.StciParams(s, t, d, g)
        q = chow.q_value(s, t, d, g)
        assert [theorems.thm2_rhs(params, k) for k in range(1, params.n)] == [
            q * 2 ** (k - 1) for k in range(1, params.n)
        ], params


def test_thm2_margins_are_closed_form_cone_margins():
    # Theorem 2 is the ruling-cone test applied to the closed-form ruling
    # coefficients a_1..a_{n-1} of the surface product
    cases = [(4, 4, 4, 0, (9, 8, 2))]
    rng = random.Random(2)
    while len(cases) < 1000:
        d = rng.randint(1, 6)
        n = rng.randint(2, 40)
        s = rng.choice([k for k in range(1, n * d + 1) if n * d % k == 0])
        p = tuple(rng.randint(-10, 60) for _ in range(rng.randint(0, n - 1)))
        cases.append((s, n * d // s, d, rng.randint(0, 5), p))
    for s, t, d, g, p in cases:
        params = theorems.StciParams(s, t, d, g)
        a = [chow.a_closed_form(s, t, d, g, p, k) for k in range(1, params.n)]
        assert theorems.thm2_margins(params, p) == graphs.snort_check(a).margins
    assert graphs.snort_check(
        [chow.a_closed_form(4, 4, 4, 0, (9, 8, 2), k) for k in (1, 2, 3)]
    ).margins == (3, 4, 2)


def test_thm2_margins_equal_cone_margins():
    # the k-th inequality slack equals the k-th cone margin of the
    # ruling-coefficient vector of the surface product, here the product
    # (sH - sum E)(tH - sum E) summed term by term and its margins summed
    # dyadically, neither through the library's closed forms
    rng = random.Random(23)
    for _ in range(100):
        d = rng.randint(1, 5)
        n = rng.randint(2, 8)
        st = n * d
        divisors = [s for s in range(1, st + 1) if st % s == 0]
        s = rng.choice(divisors)
        t = st // s
        g = rng.randint(0, 3)
        p = tuple(rng.randint(0, 30) for _ in range(n - 1))
        params = theorems.StciParams(s, t, d, g)
        ctx = chow.make_context(d, g, chow.beta_from_p(s, d, g, p + (0,)))
        surface_s, surface_t = (CycleClass(ctx, 0, k, (-1,) * n, 0, (0,) * n, 0) for k in (s, t))
        cone = dyadic_margins(mul_term_by_term(surface_s, surface_t).r)
        margins = theorems.thm2_margins(params, p)
        assert margins == cone[: n - 1], (s, t, d, g, p)


def test_thm2_margins_match_double_sum():
    rng = random.Random(37)
    for n in (2, 3, 5, 8, 16, 33, 64, 100, 128, 200, 256):
        for _ in range(3):
            d = rng.randint(1, 6)
            st = n * d
            s = rng.choice([v for v in range(1, st + 1) if st % v == 0])
            params = theorems.StciParams(s, st // s, d, rng.randint(0, 4))
            p = tuple(rng.randint(0, 40) for _ in range(rng.randint(0, n + 1)))
            if len(p) > n - 1:
                with pytest.raises(DomainError, match=f"at most {n - 1} entries"):
                    theorems.thm2_margins(params, p)
                continue
            expected = thm2_margins_double_sum(params, p)
            assert theorems.thm2_margins(params, p) == expected, (params, p)


def test_thm1_constant_sequence_saturates_thm2():
    rng = random.Random(29)
    found = 0
    while found < 40:
        d = rng.randint(1, 5)
        n = rng.randint(2, 8)
        st = n * d
        divisors = [s for s in range(1, st + 1) if st % s == 0]
        s = rng.choice(divisors)
        t = st // s
        g = rng.randint(0, 3)
        params = theorems.StciParams(s, t, d, g)
        result = theorems.thm1_value(params)
        if not result.integral:
            continue
        v = int(result.value)
        margins = theorems.thm2_margins(params, (v,) * (n - 1))
        assert margins == (0,) * (n - 1), (s, t, d, g)
        p = (v,) * (n - 1) + (0,)
        ctx = chow.make_context(d, g, chow.beta_from_p(s, d, g, p))
        assert chow.st_expansion(s, t, ctx).a == (0,) * n, (s, t, d, g)
        found += 1


def test_thm2_coefficient_identity():
    # sum_{i<k} 2^(k-i-1) (n-i+1) == (n-1) 2^(k-1) + k - n
    assert sum(2 ** (3 - i - 1) * (4 - i + 1) for i in range(1, 3)) == 11
    for n in range(1, 65):
        for k in range(1, n + 1):
            lhs = sum((1 << (k - i - 1)) * (n - i + 1) for i in range(1, k))
            assert lhs == (n - 1) * (1 << (k - 1)) + k - n, (n, k)


def test_thm3_examples():
    result = theorems.thm3_check(4, 4, 0, (9, 9))
    assert result.rhs == 6
    assert result.lhs == 6 and result.holds

    nine_a21 = rdp.config_invariants(rdp.parse_config("9*A:2:1"))
    assert nine_a21.type_seq == (9, 9)

    result = theorems.thm3_check(4, 4, 0, (8, 8))
    assert result.lhs == Fraction(16, 3) and not result.holds

    with pytest.raises(DomainError):
        theorems.thm3_check(0, 4, 0, (9, 9))
    with pytest.raises(DomainError, match="curve degree"):
        theorems.thm3_check(4, -4, -3, (9, 9))


def test_thm3_consistent_with_configuration_deltas():
    # the weighted type sum dominates the summed local deltas, so the
    # inequality holds whenever the formula value stays below the total delta
    rng = random.Random(31)
    universe = list(rdp.classified_pairs(12))
    for _ in range(150):
        config = tuple(rng.choice(universe) for _ in range(rng.randint(0, 5)))
        inv = rdp.config_invariants(config)
        assert rdp.weighted_type_sum(inv.type_seq) >= inv.delta
        for s, d, g in ((4, 4, 0), (3, 2, 1), (5, 3, 0)):
            result = theorems.thm3_check(s, d, g, inv.type_seq)
            assert result.holds == (result.lhs >= result.rhs)
            if inv.delta >= result.rhs:
                assert result.holds


def test_thm3_truncation_flag():
    full = theorems.thm3_check(4, 4, 0, (3, 1, 1, 1, 1, 1, 1))
    assert full.lhs == Fraction(15, 8)
    cut = theorems.thm3_check(4, 4, 0, (3, 1, 1, 1, 1, 1, 1), truncate_at=3)
    assert cut.lhs == Fraction(3, 2) + Fraction(1, 6) + Fraction(1, 12)


def test_resolution_bound():
    assert theorems.resolution_bound(4) == 19
    assert theorems.resolution_bound(5) == 44
    assert theorems.resolution_bound(3) == 6
    with pytest.raises(DomainError):
        theorems.resolution_bound(0)
    # the bound is an integer: 3 divides s(2s^2 - 6s + 7) for every s
    for s in range(1, 1001):
        assert s * (2 * s * s - 6 * s + 7) % 3 == 0, s


def test_kformula_bound():
    assert kformula_bound(4, 4, 0, 7) == 9
    assert kformula_bound(1, 1, 0, 3) == 2
    for d in range(1, 6):
        for g in range(0, 4):
            assert kformula_bound(5, d, g, 3 * d + 2 * g - 2) == d * 4


def test_miyaoka_budget():
    assert theorems.miyaoka_budget(4) == 24
    assert theorems.miyaoka_budget(3) == 8
    assert theorems.miyaoka_budget(1) == 0
    # the surface is checked as resolution_bound checks it
    for s in (0, -2):
        for bound in (theorems.miyaoka_budget, theorems.resolution_bound):
            with pytest.raises(DomainError, match=f"^surface degree must be >= 1, got {s}$"):
                bound(s)


def test_bungobungo_solve():
    assert search.bungobungo_solve() == [
        (0, (9, 8, 2)),
        (0, (9, 9)),
        (0, (9, 9, 1)),
    ]


def test_bungobungo_matches_fraction_scan():
    assert search.bungobungo_solve() == bungobungo_scan()


def test_bungobungo_scale_makes_weights_integral():
    # k(k+1) up to k = 20: the greedy tail bound reads 1/(e(e+1)) at e <= 20
    scale = search._BUNGO_SCALE
    assert scale == math.lcm(*range(1, 21))
    assert scale % 4 == 0
    assert all(scale % (k * (k + 1)) == 0 for k in range(1, 21))


def _calls_in_search(fn, *args, **kwargs):
    """fn's result and how often each function of stci/search.py was entered."""
    calls = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == search.__file__:
            calls[frame.f_code.co_name] = calls.get(frame.f_code.co_name, 0) + 1

    search._typed_pairs()  # build the table outside the count
    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, calls


def test_search_node_counts():
    # a weaker bound visits more nodes; bungo visited 261 under the
    # infinite-run bound acc + p * (S // k), and 25 while every root n
    # was entered before its first p was tested
    solutions, calls = _calls_in_search(search.bungobungo_solve)
    assert (len(solutions), calls["descend"]) == (3, 6)
    # the search took 300 type nodes and 322 fill calls as two stages; in
    # the last two cases max_deficiency sets the budget, with a Miyaoka cap
    # in the last
    for target, kwargs, counts in (
        ((9, 8, 2), {"max_sigma": 25}, (56, 178)),
        ((9, 8, 2), {"max_sigma": 30, "max_deficiency": 2}, (12, 70)),
        ((9, 9, 1), {"max_sigma": 30, "max_deficiency": 3, "miyaoka_budget_cap": Fraction(30)}, (7, 39)),
    ):
        found, calls = _calls_in_search(search.config_search, target, **kwargs)
        assert (len(found), calls["descend"]) == counts, (target, kwargs)


def test_search_node_counts_under_a_miyaoka_cap():
    # the contribution cut prices the type sum left at the least Miyaoka
    # term per unit of a kept type.  Before it, the refused (9,9,1)/25
    # searches at max_deficiency 0-3 and cap 24 made 9, 16, 27 and 39
    # descent calls, (9,8,2)/25 at 2 made 55, and (9,9)/30, which keeps its
    # one configuration under 24, made 67.  The cap 18 is below the price of
    # the whole (9,9,1) and (9,8,2), so those return before the descent;
    # they made 22 and 38 calls
    cap24, cap18 = Fraction(24), Fraction(18)
    for target, kwargs, counts in (
        ((9, 9, 1), {"max_sigma": 25, "max_deficiency": 0, "miyaoka_budget_cap": cap24}, (0, 3)),
        ((9, 9, 1), {"max_sigma": 25, "max_deficiency": 1, "miyaoka_budget_cap": cap24}, (0, 3)),
        ((9, 9, 1), {"max_sigma": 25, "max_deficiency": 2, "miyaoka_budget_cap": cap24}, (0, 3)),
        ((9, 9, 1), {"max_sigma": 25, "max_deficiency": 3, "miyaoka_budget_cap": cap24}, (0, 3)),
        ((9, 8, 2), {"max_sigma": 25, "max_deficiency": 2, "miyaoka_budget_cap": cap24}, (0, 17)),
        ((9, 9), {"max_sigma": 30, "miyaoka_budget_cap": cap24}, (1, 9)),
        ((9, 9, 1), {"max_sigma": 25, "max_deficiency": 3, "miyaoka_budget_cap": cap18}, (0, 0)),
        ((9, 8, 2), {"max_sigma": 25, "max_deficiency": 3, "miyaoka_budget_cap": cap18}, (0, 0)),
    ):
        found, calls = _calls_in_search(search.config_search, target, **kwargs)
        assert (len(found), calls.get("descend", 0)) == counts, (target, kwargs)


def test_search_node_count_of_a_priced_out_target():
    # the least ratio prices each target's whole sum past its budget, so the
    # one descent call tries every first pick and breaks there; the least
    # ratio of (4,1,1,1,1) is 5/6, and a floored price takes it to 3 calls
    for target, kwargs in (
        ((9, 8, 2), {"max_sigma": 18}),
        ((4, 1, 1, 1, 1), {"max_sigma": 6}),
    ):
        found, calls = _calls_in_search(search.config_search, target, **kwargs)
        assert (found, calls.get("descend")) == ([], 1), target
    # a step past _CLAMP is refused before the packing, so no descent runs
    found, calls = _calls_in_search(search.config_search, (10**12, 7, 1))
    assert (found, calls.get("_pack", 0), calls.get("descend", 0)) == ([], 0, 0)


def test_bungobungo_rejected_candidates():
    # the two borderline sequences from the elimination argument
    assert rdp.weighted_type_sum((9, 7, 3)) == Fraction(71, 12) < 6
    assert Fraction(2, 4) + rdp.weighted_type_sum((8, 8, 1)) == Fraction(71, 12)


def test_config_search_nine_nine():
    found = search.config_search((9, 9), max_deficiency=1)
    assert [rdp.format_config(c) for c in found] == ["9*A:2:1", "7*A:2:1 + A:5:2"]
    for config in found:
        assert rdp.config_invariants(config).order == 3


def test_theorems_loads_rdp_and_graphs_only_when_called():
    # theorems reaches rdp, graphs and exact through stci.<module>, so a call
    # that needs none of them loads none of them: only a Fraction loads
    # exact.  The suite's own process has loaded every layer, so only a
    # fresh one can show a load that is missing or eager
    probe = (
        "import sys, stci\n"
        "from stci import theorems\n"
        "def loaded(result):\n"
        "    layers = sorted(m[5:] for m in sys.modules if m.startswith('stci.'))\n"
        "    print(' '.join(layers), result, sep='|')\n"
        "quartic = theorems.StciParams(4, 4, 4, 0)\n"
        "loaded(theorems.resolution_bound(4))\n"
        "loaded(theorems.thmA_verdict(4, 4, 4, 0).applies)\n"
        "loaded(theorems.thm2_margins(quartic, (9, 8, 2)))\n"
        "loaded(theorems.thm1_value(quartic).value)\n"
        "found = stci.search.config_search((9, 9), max_deficiency=1)\n"
        "loaded([stci.rdp.format_config(c) for c in found])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == [
        "chow errors theorems|19",
        "chow errors theorems|False",
        "chow errors graphs theorems|(3, 4, 2)",
        "chow errors exact graphs theorems|8",
        "chow errors exact graphs rdp search theorems|['9*A:2:1', '7*A:2:1 + A:5:2']",
    ]


def test_search_loads_theorems_only_for_the_default_sigma_cap():
    # search imports only stci and stci.errors: bungo loads no other layer,
    # a search loads rdp and exact to type its pairs, and only the default
    # max_sigma reads theorems (with chow) for the resolution bound
    probe = (
        "import sys, stci\n"
        "def loaded(result):\n"
        "    layers = sorted(m[5:] for m in sys.modules if m.startswith('stci.'))\n"
        "    print(' '.join(layers), result, sep='|')\n"
        "loaded(len(stci.search.bungobungo_solve()))\n"
        "loaded(len(stci.search.config_search((9, 9), max_sigma=19)))\n"
        "loaded(len(stci.search.config_search((9, 9))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == [
        "errors search|3",
        "errors exact rdp search|2",
        "chow errors exact rdp search theorems|2",
    ]


def test_theorems_forwards_return_what_search_returns():
    # the forwards kept for the benchmark answer the acceptance targets as
    # stci.search does, filters included
    assert theorems.bungobungo_solve() == search.bungobungo_solve()
    for target, kwargs in (
        ((9, 9, 1), {"max_deficiency": 0}),
        ((9, 9), {"max_deficiency": 1}),
        ((9, 8, 2), {"max_deficiency": 0}),
        ((9, 9), {"max_deficiency": 1, "require_delta": Fraction(6), "max_sigma": 25}),
        ((9, 9, 1), {"max_sigma": 30, "max_deficiency": 3, "miyaoka_budget_cap": Fraction(30)}),
    ):
        assert theorems.config_search(target, **kwargs) == search.config_search(target, **kwargs), target


def test_config_search_nine_nine_one():
    found = search.config_search((9, 9, 1), max_deficiency=0)
    assert [rdp.format_config(c) for c in found] == ["8*A:2:1 + A:3:1"]
    assert rdp.config_invariants(found[0]).delta == Fraction(73, 12)


def test_config_search_nine_eight_two():
    found = search.config_search((9, 8, 2), max_deficiency=0)
    assert [rdp.format_config(c) for c in found] == [
        "A:1:1 + 6*A:2:1 + 2*A:3:1",
        "6*A:2:1 + A:3:1 + A:4:2",
    ]
    with_a42 = [c for c in found if rdp.classify("A:4:2") in c]
    assert len(with_a42) == 1
    inv = rdp.config_invariants(with_a42[0])
    assert inv.delta == 6 * Fraction(2, 3) + Fraction(3, 4) + Fraction(6, 5)
    assert inv.delta != 6


def test_config_search_filters():
    # both surviving (9,9) configurations have delta exactly 6
    exact = search.config_search((9, 9), max_deficiency=1, require_delta=Fraction(6))
    assert [rdp.format_config(c) for c in exact] == ["9*A:2:1", "7*A:2:1 + A:5:2"]
    # no zero-deficiency (9,9,1) configuration reaches delta 6
    assert search.config_search(
        (9, 9, 1), max_deficiency=0, require_delta=Fraction(6)
    ) == []
    # contribution sums: 25 for the 2*A:3:1 configuration, 491/20 for the
    # A:4:2 one; the quartic cap of 24 excludes both
    sums = {
        rdp.format_config(c): rdp.config_miyaoka(c)
        for c in search.config_search((9, 8, 2), max_deficiency=0)
    }
    assert sums["A:1:1 + 6*A:2:1 + 2*A:3:1"] == 25
    assert sums["6*A:2:1 + A:3:1 + A:4:2"] == Fraction(491, 20)
    capped = search.config_search(
        (9, 8, 2), max_deficiency=0, miyaoka_budget_cap=theorems.miyaoka_budget(4)
    )
    assert capped == []
    roomy = search.config_search(
        (9, 8, 2), max_deficiency=0, miyaoka_budget_cap=Fraction(25)
    )
    assert [rdp.format_config(c) for c in roomy] == [
        "A:1:1 + 6*A:2:1 + 2*A:3:1",
        "6*A:2:1 + A:3:1 + A:4:2",
    ]
    with pytest.raises(DomainError):
        search.config_search(())


def test_config_search_max_sigma():
    # type (2) is realized by 2*A:1:1, A:3:2, and D1:n for every n >= 4;
    # the sigma cap keeps the D1 family finite
    found = search.config_search((2,), max_sigma=6)
    names = [rdp.format_config(c) for c in found]
    assert names == ["2*A:1:1", "A:3:2", "D1:4", "D1:5", "D1:6"]


# each equivalence test below is a table of (target, max_sigma, filters)
# cases for _check_against_oracle; the oracle filters only its leaves, so one
# unfiltered descent per case gives every filter's expected result
QUARTIC = ((9, 8, 2), (9, 9), (9, 9, 1))
QUARTIC_FILTERS = (
    {},
    {"max_deficiency": 0},
    {"max_deficiency": 1},
    {"require_delta": Fraction(6)},
    {"miyaoka_budget_cap": Fraction(24)},
    {"miyaoka_budget_cap": Fraction(25)},
)
# every target with sum <= 7 and length <= 6, non-monotone ones included
SMALL = [
    target
    for length in range(1, 7)
    for target in itertools.product(range(1, 8), repeat=length)
    if sum(target) <= 7
]
SMALL_FILTERS = tuple({"max_deficiency": m} for m in (-1, 0, 2))
SMALL_FILTERS += tuple({"miyaoka_budget_cap": Fraction(cap)} for cap in (5, 24))


def _check_against_oracle(cases, end_deltas):
    """Check each case's filters against the oracle; return the searches made.

    With end_deltas, each case also requires the delta of its first and of
    its last unfiltered configuration.
    """
    checked = 0
    for target, max_sigma, filters in cases:
        found = config_search_unpruned(target, max_sigma=max_sigma)
        deltas = {rdp.config_invariants(c).delta for c in found[:1] + found[-1:]} if end_deltas else ()
        for kwargs in filters + tuple({"require_delta": delta} for delta in sorted(deltas)):
            got = search.config_search(target, max_sigma=max_sigma, **kwargs)
            assert got == [c for c in found if config_passes(c, **kwargs)], (target, max_sigma, kwargs)
            checked += 1
    return checked


def test_config_search_matches_unpruned_quartic():
    cases = [(target, max_sigma, QUARTIC_FILTERS) for target in QUARTIC for max_sigma in (19, 25)]
    assert _check_against_oracle(cases, end_deltas=True) == 36 + 8


def test_config_search_integer_filters_match_unpruned_quartic():
    # Miyaoka caps whose denominators are not those of the contributions,
    # one a hair below the sum 25 that a (9,8,2) configuration reaches, and
    # a required delta no configuration can reach
    caps = (Fraction(49, 2), Fraction(70, 3), Fraction(100, 7), 25 - Fraction(1, 10**6))
    filters = tuple({"miyaoka_budget_cap": cap} for cap in caps) + ({"require_delta": Fraction(1, 997)},)
    cases = [(target, 25, filters) for target in QUARTIC]
    assert _check_against_oracle(cases, end_deltas=False) == 15


def test_config_search_matches_unpruned_quartic_at_cap():
    filters = tuple({"max_deficiency": m} for m in (None, 0, 1, 2, 3))
    cases = [(target, search.MAX_SIGMA_CAP, filters) for target in QUARTIC]
    assert _check_against_oracle(cases, end_deltas=True) == 15 + 4


def test_config_search_matches_unpruned_small():
    cases = [(target, max_sigma, ({},)) for target in SMALL for max_sigma in (5, 8, 12)]
    assert (len(cases), _check_against_oracle(cases, end_deltas=False)) == (378, 378)


def test_config_search_filters_match_unpruned_small():
    # the deficiency cap prunes the search and the leaf sums per-pair
    # deltas, so every filter is checked against the unpruned oracle
    cases = [(target, max_sigma, SMALL_FILTERS) for target in SMALL for max_sigma in (5, 8, 12)]
    assert _check_against_oracle(cases, end_deltas=True) == 2472 - 44 - 15 - 19 - 378


def test_config_search_counts_at_cap():
    # each search first builds its own pair table, as a cold process does:
    # the table is the library's only state that persists between calls
    cap, quartic = search.MAX_SIGMA_CAP, ((9, 8, 2), (9, 9), (9, 9, 1))
    # at the cap: the slowest target of the two-stage search, the one with
    # the most results, the two-stage search's slowest above sum 30, and a
    # 30-entry target; under the Miyaoka cap 24 only A-series rows are kept,
    # and (9,8,2)'s contribution sum 25 passes 24
    pinned = [
        ((14, 6, 3, 2, 1), {"max_sigma": cap}, 1940),
        ((14,), {"max_sigma": cap}, 5841),
        ((14, 8, 5, 3, 1), {"max_sigma": cap}, 29),
        ((1,) * 30, {"max_sigma": cap}, 1),
        ((9, 8, 2), {"miyaoka_budget_cap": 24}, 0),
    ]
    # the quartic targets at max_sigma 25 (as in perfbench/pinned.json), at a
    # budget set by the deficiency cap, at delta 6, and then under the
    # Miyaoka cap 25 too
    for kwargs, counts in (
        ({"max_sigma": 25}, (56, 51, 36)),
        ({"max_sigma": cap, "max_deficiency": 2}, (12, 5, 5)),
        ({"max_sigma": 25, "require_delta": 6}, (37, 51, 0)),
        ({"max_sigma": 25, "require_delta": 6, "miyaoka_budget_cap": 25}, (1, 4, 0)),
    ):
        pinned += [(target, kwargs, count) for target, count in zip(quartic, counts)]
    for target, kwargs, count in pinned:
        search._typed_pairs.cache_clear()
        assert len(search.config_search(target, **kwargs)) == count, (target, kwargs)


def _nonincreasing_targets(total, max_length):
    """Every nonincreasing positive sequence with this sum and length."""
    def extend(prefix, left, cap):
        if not left:
            yield prefix
        elif len(prefix) < max_length:
            for v in range(min(left, cap), 0, -1):
                yield from extend(prefix + (v,), left - v, v)

    return list(extend((), total, total))


def test_config_search_matches_unpruned_monotone_targets():
    # every nonincreasing target with sum 8..10 and length <= 4
    targets = [t for total in (8, 9, 10) for t in _nonincreasing_targets(total, 4)]
    assert len(targets) == 56
    for target in targets:
        for max_sigma in (12, 19):
            got = search.config_search(target, max_sigma=max_sigma)
            assert got == config_search_unpruned(target, max_sigma=max_sigma), (target, max_sigma)


def test_config_search_matches_unpruned_packed_fields():
    # the search packs the target's steps into fields one bit wider than
    # the largest step: 15 fills the value bits of a 5-bit field, 16 and 20
    # set the top value bit of a 6-bit one, and 8 or more entries make as
    # many fields
    for target, max_sigma in (((15,), 21), ((16,), 22), ((17, 1), 24), ((20,), 26)):
        got = search.config_search(target, max_sigma=max_sigma)
        assert len(got) == 89
        assert got == config_search_unpruned(target, max_sigma=max_sigma), target
    targets = [t for total in range(8, 15) for t in _nonincreasing_targets(total, total) if len(t) >= 8]
    assert len(targets) == 75
    for target in targets:
        for max_sigma in (12, 16):
            got = search.config_search(target, max_sigma=max_sigma)
            assert got == config_search_unpruned(target, max_sigma=max_sigma), (target, max_sigma)


def test_config_search_results_are_sorted_and_distinct():
    # a multiset is one nondecreasing sequence of (type, entry) positions,
    # so the results need one sort and no deduplication
    cases = [
        (target, {"max_sigma": search.MAX_SIGMA_CAP, "max_deficiency": max_deficiency})
        for target in ((9, 8, 2), (9, 9), (9, 9, 1))
        for max_deficiency in (None, 2)
    ]
    for total in range(1, 11):
        for target in _nonincreasing_targets(total, 6):
            cases += [(target, {"max_sigma": max_sigma}) for max_sigma in (12, 19)]
    results = 0
    for target, kwargs in cases:
        found = search.config_search(target, **kwargs)
        assert found == sorted(set(found)), (target, kwargs)
        results += len(found)
    assert (len(cases), results) == (254, 6771)


# the targets of the max_sigma sweeps below
SWEEP = ((9, 8, 2), (9, 9), (9, 9, 1), (1,), (2,), (2, 1, 1, 1, 1), (3, 2, 1), (5, 3))


@functools.cache
def _unpruned(target, max_sigma):
    """The oracle's unfiltered configurations, shared by the sweeps: it
    filters only its leaves, so one descent gives every filter's result."""
    return config_search_unpruned(target, max_sigma=max_sigma)


def _table(a_only):
    """The full pair table, or the A-series one, under its one cache key."""
    return search._typed_pairs(a_only=True) if a_only else search._typed_pairs()


def test_config_search_budget_sweep_matches_unpruned():
    # every call searches one shared table under its own budget: sweep
    # max_sigma down from the cap and then up from 1, each time from a
    # cleared table, so either end may build it, and check every result and
    # the table
    targets = SWEEP
    filters = (
        {},
        {"max_deficiency": 0},
        {"max_deficiency": 2},
        {"miyaoka_budget_cap": Fraction(24)},
        {"max_deficiency": 1, "miyaoka_budget_cap": Fraction(25)},
        {"require_delta": Fraction(6)},
        {"max_deficiency": 1, "require_delta": Fraction(6)},
    )
    sigmas = range(1, search.MAX_SIGMA_CAP + 1)
    want = {}
    for target in targets:
        for max_sigma in sigmas:
            found = _unpruned(target, max_sigma)
            for i, kwargs in enumerate(filters):
                want[target, max_sigma, i] = [c for c in found if config_passes(c, **kwargs)]
    built = search._typed_pairs.__wrapped__()
    a_built = search._typed_pairs.__wrapped__(a_only=True)
    scale, rows = built
    assert (len(rows), sum(len(row[2]) for row in rows)) == (253, 295)
    # the A-series table holds the full table's A-series entries, in order,
    # over the same scale, and drops the types that have none
    a_series = ((row[0], [e[:4] for e in row[2] if e[3].species == "A"]) for row in rows)
    assert a_built[0] == scale
    assert [(row[0], [e[:4] for e in row[2]]) for row in a_built[1]] == [x for x in a_series if x[1]]
    width = search._WIDTH
    for steps, _, entries, least_term, pack, lowers in rows + a_built[1]:
        # each entry carries its position in its own row
        assert [e[4] for e in entries] == list(range(len(entries)))
        assert least_term == min(e[2] for e in entries)
        assert pack == sum(step << (width * i) for i, step in enumerate(steps))
        assert lowers == sum(1 << (width * i) for i, step in enumerate(steps) if step)
        for sigma, delta, contribution, pair, _ in entries:
            assert sigma == pair.n
            assert Fraction(delta, scale) == rdp.scalar_invariants(pair).delta
            if pair.species == "A":
                assert Fraction(contribution, scale) == rdp.miyaoka_contribution(pair)
    # the contribution cut needs every A-series term positive
    assert all(e[2] > 0 for row in a_built[1] for e in row[2])
    for sweep in (reversed(sigmas), sigmas):
        search._typed_pairs.cache_clear()
        for max_sigma in sweep:
            for target in targets:
                for i, kwargs in enumerate(filters):
                    got = search.config_search(target, max_sigma=max_sigma, **kwargs)
                    assert got == want[target, max_sigma, i], (target, max_sigma, kwargs)
        assert (_table(False), _table(True)) == (built, a_built)
    assert sum(map(len, want.values())) == 4982


def test_config_search_miyaoka_caps_match_unpruned():
    # the contribution cut prices the type sum left at the least Miyaoka
    # term per unit, at the root and at each pick; sweep max_sigma over
    # caps below, at and above the contribution sums the targets reach,
    # 73/3 among them, alone and with the deficiency and delta filters.
    # The last cap lies less than one scaled unit below 25, the contribution
    # sum of a (9,8,2) configuration, which it keeps out only if floored
    caps = [Fraction(cap) for cap in (5, 18, 24, 25, 30, 40)] + [Fraction(73, 3), 25 - Fraction(1, 10**15)]
    others = ({}, {"max_deficiency": 0}, {"max_deficiency": 2}, {"require_delta": Fraction(6)},
              {"max_deficiency": 1, "require_delta": Fraction(73, 12)})
    checked = found = 0
    for target in SWEEP:
        for max_sigma in range(1, search.MAX_SIGMA_CAP + 1):
            unfiltered = _unpruned(target, max_sigma)
            for cap in caps:
                for other in others:
                    kwargs = dict(other, miyaoka_budget_cap=cap)
                    want = [c for c in unfiltered if config_passes(c, **kwargs)]
                    got = search.config_search(target, max_sigma=max_sigma, **kwargs)
                    assert got == want, (target, max_sigma, kwargs)
                    checked, found = checked + 1, found + len(want)
    assert (checked, found) == (8 * 30 * 8 * 5, 8609)


def test_typed_pairs_index_by_length():
    # config_search walks the index of its (length, budget, capped) key:
    # the rows of at most that many steps of its table, the A-series one
    # under a Miyaoka cap, whose cheapest entry fits the budget, in table
    # order
    cap = search.MAX_SIGMA_CAP
    for a_only in (False, True):
        scale, rows = _table(a_only)
        assert max(len(row[0]) for row in rows) == cap
        # every pair has sigma >= 1, so a budget below 1 keeps no row
        assert min(row[2][0][0] for row in rows) == 1
        for length in range(1, cap + 2):
            by_length = [row for row in rows if len(row[0]) <= length]
            for budget in range(0, cap + 1):
                want = tuple(row for row in by_length if row[2][0][0] <= budget)
                assert search._typed_pairs(length, budget, a_only) == (scale, want)
            assert want == tuple(by_length), length
        # no type has more entries than sigma, so a length past the cap
        # keeps every row
        assert search._typed_pairs(cap + 1, cap, a_only)[1] == rows
    assert search._typed_pairs(cap + 1) == _table(False)
    # the budget bound keeps the cache at 30 * 30 * 2 keys beside the two
    # tables, over any max_sigma and max_deficiency
    search._typed_pairs.cache_clear()
    for length in range(1, 46):
        for max_deficiency in [None, -10**6, 10**6] + list(range(-45, 31)):
            for max_sigma in (1, cap):
                for miyaoka_budget_cap in (None, Fraction(24)):
                    search.config_search((1,) * length, max_deficiency, None, max_sigma, miyaoka_budget_cap)
    info = search._typed_pairs.cache_info()
    assert info.currsize <= cap * cap * 2 + 2
    # a budget below 1 returns before the index is looked up or the
    # descent starts
    misses = info.misses
    for target, kwargs in (
        ((9, 8, 2), {"max_deficiency": -19}),
        ((1,), {"max_sigma": 0}),
        ((1,), {"max_sigma": -10**6, "miyaoka_budget_cap": Fraction(24)}),
        ((1,), {"max_deficiency": -10**6}),
    ):
        found, calls = _calls_in_search(search.config_search, target, **kwargs)
        assert (found, "_typed_pairs" in calls, "descend" in calls) == ([], False, False), kwargs
    assert search._typed_pairs.cache_info().misses == misses


def test_typed_pairs_index_is_rebuilt_after_cache_clear():
    for a_only in (False, True):
        old_scale, old_rows = _table(a_only)
        old_index = search._typed_pairs(3, search.MAX_SIGMA_CAP, a_only)
        search._typed_pairs.cache_clear()
        index = search._typed_pairs(3, search.MAX_SIGMA_CAP, a_only)
        # no hits: one miss for the index and one for the table it is cut from
        assert search._typed_pairs.cache_info()[:2] == (0, 2)
        assert index == old_index and index[0] == old_scale
        _, rows = _table(a_only)
        new_ids, old_ids = set(map(id, rows)), set(map(id, old_rows))
        assert index[1] and all(id(row) in new_ids and id(row) not in old_ids for row in index[1])


def _least_ratio(target, budget):
    """The least sigma/sum(type) over the types that fit target with an
    entry of sigma <= budget, by a Fraction scan of the whole table."""
    _, rows = search._typed_pairs()
    steps = search._steps(tuple(target))
    ratios = [
        Fraction(entries[0][0], size)
        for piece_steps, size, entries, *_ in rows
        if len(piece_steps) <= len(steps) and all(x <= y for x, y in zip(piece_steps, steps))
        and entries[0][0] <= budget
    ]
    return min(ratios)


def test_config_search_ratio_cut_at_the_budget_exactly():
    # the descent prices the type sum left at the least ratio: a budget
    # equal to the whole target's price is searched, and one unit less finds
    # nothing; the (2,1,1,1,1) ratio is 5/6, from Dn(5), so the
    # cross-multiplication is not over 1.  Each budget also comes from
    # max_deficiency.
    for target, budget, count in (((9, 8, 2), 19, 2), ((9, 9), 18, 1), ((2, 1, 1, 1, 1), 5, 1)):
        assert _least_ratio(target, budget) * sum(target) == budget, target
        for sigma in (budget, budget - 1):
            ways = ({"max_sigma": sigma}, {"max_sigma": 30, "max_deficiency": sigma - sum(target)})
            want = config_search_unpruned(target, max_sigma=sigma)
            assert len(want) == (count if sigma == budget else 0), (target, sigma)
            for kwargs in ways:
                assert search.config_search(target, **kwargs) == want, (target, kwargs)


def test_config_search_thirty_entries_at_cap_match_unpruned():
    # the longest targets the index keys on: only A(30,1) has type (1^[30])
    cap = search.MAX_SIGMA_CAP
    for target in ((1,) * 30, (2,) + (1,) * 29, (2, 2) + (1,) * 28, (3,) + (1,) * 29):
        want = config_search_unpruned(target, max_sigma=cap)
        assert search.config_search(target, max_sigma=cap) == want, target
        assert len(want) == (target == (1,) * 30), target


def test_type_sums_within_the_sigma_cap_stay_under_the_clamp():
    # config_search refuses a target step past _CLAMP unpacked, which is
    # sound only if no configuration within MAX_SIGMA_CAP has a type sum
    # past _CLAMP: a type's sum is at most sigma/least of its sigma; the
    # assert also leaves room for one more table step
    _, rows = search._typed_pairs()
    least = min(Fraction(entries[0][0], size) for _, size, entries, *_ in rows)
    largest_step = max(max(row[0]) for row in rows)
    assert (least, largest_step) == (Fraction(29, 42), 15)
    assert search._CLAMP == (1 << (search._WIDTH - 1)) - 1
    assert search.MAX_SIGMA_CAP / least + largest_step < search._CLAMP


def test_config_search_steps_past_the_clamp_match_unpruned():
    # a step of 43, the most that picks can lower a field, a step at the
    # clamp, packed, and steps just past and far past it, refused unpacked:
    # no type sum under the cap reaches 43 in one field, so the oracle finds
    # nothing, and a packed field must not read as one that picks can empty
    cap = search.MAX_SIGMA_CAP
    for big in (43, 63, 64, 127, 10**12):
        for target, kwargs in (
            ((big,), {"max_sigma": cap}),
            ((big + 1, 1), {"max_sigma": cap}),
            ((big,), {"max_sigma": 25, "require_delta": Fraction(6)}),
        ):
            want = config_search_unpruned(target, **kwargs)
            assert search.config_search(target, **kwargs) == want == [], (target, kwargs)


def test_searches_leave_no_cyclic_garbage():
    # each descent is a closure that refers to itself; both searches drop it
    # at return, so refcounting frees their working sets
    search._typed_pairs()
    gc.collect()
    gc.disable()
    try:
        assert len(search.config_search((9, 8, 2), max_sigma=25)) == 56
        assert len(search.bungobungo_solve()) == 3
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_config_search_non_monotone_target_types_no_pair(monkeypatch):
    def no_typing(*args):
        raise AssertionError("a pair was typed for a target with no tiling")

    # with the table cleared, a build or a typing before the step check fails
    search._typed_pairs.cache_clear()
    monkeypatch.setattr(search, "_typed_pairs", no_typing)
    monkeypatch.setattr(rdp, "classified_pairs", no_typing)
    monkeypatch.setattr(rdp, "scalar_invariants", no_typing)
    for target in ((1, 2), (3, 1, 2), (9, 8, 9)):
        assert search.config_search(target) == []
        assert search.config_search(target, require_delta=Fraction(6), max_sigma=25) == []


def test_config_search_negative_deficiency():
    # Dn(5) has type (2,1,1,1,1) and sigma 5 < 6: sigma does not bound
    # the type sum from above
    assert search.config_search((2, 1, 1, 1, 1), max_sigma=5) == [(rdp.pair_d_last(5),)]


def test_config_search_huge_entry_is_cut_at_the_root():
    # parse_type bounds a type's length, not its entries; a target whose
    # sum no budget can reach returns [] with no work sized by that sum.
    # The smaller target comes first: work sized by it shows in the peak
    # and fails the assert before the larger one is tried.
    search.config_search((9, 9))  # builds the pair table outside the trace
    for text in ("(1000000)", "(1000000000000)", "(1000000000000,7,1)"):
        tracemalloc.start()
        try:
            found = search.config_search(rdp.parse_type(text), max_sigma=search.MAX_SIGMA_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (found, peak < 100_000) == ([], True), (text, peak)


def test_types_are_nonincreasing():
    # the config_search descent prunes on this
    for pair in rdp.classified_pairs(search.MAX_SIGMA_CAP):
        t = rdp.type_of(pair)
        assert all(x >= y for x, y in zip(t, t[1:])), pair


def test_config_search_sigma_cap(monkeypatch):
    assert search.MAX_SIGMA_CAP >= 25
    assert search.config_search((9, 9), max_sigma=search.MAX_SIGMA_CAP)

    def no_walk(*args):
        raise AssertionError("pair table built before the cap check")

    # the search above built the table; clear it, so that a build before
    # the cap check would have to run, and fail
    search._typed_pairs.cache_clear()
    monkeypatch.setattr(search, "_typed_pairs", no_walk)
    monkeypatch.setattr(rdp, "classified_pairs", no_walk)
    for max_sigma in (search.MAX_SIGMA_CAP + 1, 10 ** 9):
        with pytest.raises(DomainError, match="max_sigma"):
            search.config_search((9, 9), max_sigma=max_sigma)


def test_murky_applies():
    assert not theorems.thmA_verdict(4, 4, 4, 0).applies  # r = 24 > 19
    assert theorems.thmA_verdict(4, 4, 1, 1).applies  # r = 4 <= 19
    assert not theorems.thmA_verdict(3, 4, 1, 0).applies  # s < 4
    assert not theorems.thmA_verdict(4, 4, 16, 0).applies  # n = 1
    assert not theorems.thmA_verdict(4, 5, 3, 0).applies  # d does not divide st


def test_thmA_verdict():
    verdict = theorems.thmA_verdict(4, 4, 4, 0)
    assert not verdict.applies
    assert "24" in verdict.witness and "19" in verdict.witness
    assert verdict.conclusion is False  # d = 4 > g + 3 = 3, nothing forced

    verdict = theorems.thmA_verdict(4, 4, 1, 1)
    assert verdict.applies and verdict.conclusion

    verdict = theorems.thmA_verdict(3, 4, 2, 0)
    assert not verdict.applies and "scope" in verdict.witness
    verdict = theorems.thmA_verdict(4, 4, 16, 0)
    assert not verdict.applies and "complete intersection" in verdict.witness
    verdict = theorems.thmA_verdict(4, 5, 3, 0)
    assert not verdict.applies and "divide" in verdict.witness

    with pytest.raises(DomainError):
        theorems.thmA_verdict(4, 4, 0, 0)


def test_negative_truncation_index_is_refused():
    assert theorems.thm3_check(4, 4, 0, (9, 8, 2), truncate_at=0).lhs == 0
    with pytest.raises(DomainError, match="^truncation index must be >= 0$"):
        theorems.thm3_check(4, 4, 0, (9, 8, 2), truncate_at=-1)


def test_max_sigma_refusal_line():
    assert search.config_search((1,), max_sigma=search.MAX_SIGMA_CAP) == [(rdp.RdpPair("A", 1, 1),)]
    message = "max_sigma must be <= 30, got 31: the search grows exponentially in it"
    with pytest.raises(DomainError) as info:
        search.config_search((9, 9), max_sigma=31)
    assert str(info.value) == message
