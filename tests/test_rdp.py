import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import (
    add_types,
    blowup_of,
    config_invariants_fold,
    config_miyaoka_fold,
    phi_step_by_step,
    weighted_type_sum_fold,
)
from stci import rdp, search
from stci.errors import DomainError, ParseError


# -- type sequences ----------------------------------------------------------


def test_normalize_type():
    assert rdp.normalize_type([2, 1, 1, 0, 0]) == (2, 1, 1)
    assert rdp.normalize_type([]) == ()
    with pytest.raises(DomainError):
        rdp.normalize_type([2, 0, 1])
    with pytest.raises(DomainError):
        rdp.normalize_type([-1])


def test_add_types():
    assert add_types((9, 9), (1, 1, 1)) == (10, 10, 1)
    assert add_types((), (2,)) == (2,)
    assert add_types((), ()) == ()


def test_format_type():
    assert rdp.format_type((2, 1, 1, 1, 1)) == "(2,1^[4])"
    assert rdp.format_type((4, 3, 1, 1, 1)) == "(4,3,1^[3])"
    assert rdp.format_type((9, 9, 1)) == "(9,9,1)"
    assert rdp.format_type(()) == "()"
    assert rdp.format_type((3, 1, 1, 1, 1, 1, 1)) == "(3,1^[6])"


@pytest.mark.parametrize("t, bad", [((0, -3), 0), ((2, 0, 1), 0), ((-5,), -5), ((9, -1, 0), -1)])
def test_type_readers_refuse_what_normalize_type_refuses(t, bad):
    # format_type and weighted_type_sum read their entries through
    # normalize_type: '(0,-3)' is no type parse_type reads back
    message = f"type entries must be positive integers, got {bad}"
    for reader in (rdp.normalize_type, rdp.format_type, rdp.weighted_type_sum):
        with pytest.raises(DomainError) as info:
            reader(t)
        assert str(info.value) == message, reader


def test_parse_type():
    assert rdp.parse_type("(2,1^[4])") == (2, 1, 1, 1, 1)
    assert rdp.parse_type("(9,9,1)") == (9, 9, 1)
    assert rdp.parse_type("()") == ()
    assert rdp.parse_type("") == ()
    assert rdp.parse_type("9,9") == (9, 9)
    with pytest.raises(ParseError):
        rdp.parse_type("(2,x)")
    with pytest.raises(DomainError):
        rdp.parse_type("(2,0,1)")


def test_parse_type_names_an_entry_past_the_digit_limit():
    # outside the CLI Python's 4,300-digit int/str limit holds; an entry or
    # run count past it is a bad entry, as classify reports it, and no bare
    # ValueError escapes
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert rdp.parse_type("(" + "9" * 4300 + ")") == (10**4300 - 1,)
        for text, entry in (("(" + "9" * 4301 + ")", 4301), ("(1^[" + "9" * 4301 + "])", 4305)):
            with pytest.raises(ParseError) as info:
                rdp.parse_type(text)
            assert str(info.value) == f"bad type entry <{entry} characters> in <{entry + 2} characters>"
    finally:
        sys.set_int_max_str_digits(limit)


@given(st.lists(st.integers(min_value=1, max_value=40), max_size=12))
def test_type_roundtrip(entries):
    t = tuple(entries)
    assert rdp.parse_type(rdp.format_type(t)) == t


# -- phi ---------------------------------------------------------------------


def test_phi_examples():
    assert rdp.phi(10, 4) == (4, 3, 1, 1, 1)
    assert rdp.phi(6, 1) == (1,) * 6
    assert rdp.phi(7, 4) == (4,)


def test_phi_families():
    for k in range(1, 8):
        for r in range(1, 8):
            assert rdp.phi(r * k, k) == (k,) * (r - 1) + (1,) * k
            if r >= 2:
                assert rdp.phi(r * k - 1, k) == (k,) * (r - 1)


def test_phi_symmetry():
    for n in range(1, 40):
        for k in range(1, n + 1):
            assert rdp.phi(n, k) == rdp.phi(n, n - k + 1)


def test_phi_equals_the_step_by_step_recursion():
    # every pair 1 <= k <= n <= 300, on both sides of the fold (k above
    # (n+1)/2 is folded first); phi emits each run of one k whole, the
    # oracle one entry per step
    for n in range(1, 301):
        for k in range(1, n + 1):
            assert rdp.phi(n, k) == phi_step_by_step(n, k), (n, k)


def test_phi_runs_by_value():
    assert rdp.phi(300, 1) == (1,) * 300  # one Euclid step: (300, 1), quotient 300
    # (151, 150): quotient 1, then (150, 1): quotient 150
    assert rdp.phi(300, 150) == (150,) + (1,) * 150
    # (7, 5), with k = 7 folded to 5: quotients 1, 2 and 2 over 5, 2 and 1
    assert rdp.phi(11, 5) == rdp.phi(11, 7) == (5, 2, 2, 1, 1)


def test_phi_consecutive_fibonacci():
    # (n-k+1, k) = (F(m+1), F(m)) takes the longest Euclid chain for its
    # size, every quotient 1 but the last, and gives F(m), ..., F(1)
    fib = [0, 1, 1]
    while len(fib) < 303:
        fib.append(fib[-1] + fib[-2])
    for m in range(1, 301):
        n, k = fib[m + 2] - 1, fib[m]
        expected = tuple(reversed(fib[1 : m + 1]))
        assert rdp.phi(n, k) == rdp.phi(n, n - k + 1) == expected, m
        assert phi_step_by_step(n, k) == expected, m


def test_phi_matches_the_recursion_past_the_sweep():
    # n up to 5,000; each k is drawn with its fold partner n-k+1
    rng = random.Random(5000)
    for _ in range(2000):
        n = rng.randint(301, 5000)
        k = rng.randint(1, n)
        expected = phi_step_by_step(n, k)
        assert rdp.phi(n, k) == rdp.phi(n, n - k + 1) == expected, (n, k)


def test_phi_domain():
    with pytest.raises(DomainError):
        rdp.phi(5, 0)
    with pytest.raises(DomainError):
        rdp.phi(5, 6)


# -- classification ----------------------------------------------------------


def test_classify():
    assert rdp.classify("A:10:7") == rdp.RdpPair("A", 10, 4)
    assert rdp.classify("A:10:4") == rdp.RdpPair("A", 10, 4)
    assert rdp.classify("D1:6") == rdp.pair_d_first(6)
    assert rdp.classify("Dn:7") == rdp.pair_d_last(7)
    assert rdp.classify("E6") is rdp.E6
    assert rdp.classify("E7") is rdp.E7


def test_classify_rejects_bad_parameters():
    with pytest.raises(DomainError):
        rdp.classify("Dn:4")
    with pytest.raises(DomainError):
        rdp.classify("D1:3")
    with pytest.raises(DomainError):
        rdp.classify("A:3:0")
    with pytest.raises(DomainError):
        rdp.classify("A:3:4")
    with pytest.raises(ParseError):
        rdp.classify("Q:3")
    with pytest.raises(ParseError):
        rdp.classify("A:3")
    with pytest.raises(ParseError):
        rdp.classify("A:x:1")
    with pytest.raises(ParseError):
        rdp.classify("E6:1")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (rdp.classify, "A:1_0:3", "bad pair parameter '1_0' in 'A:1_0:3'"),
        (rdp.classify, "A:+5:2", "bad pair parameter '+5' in 'A:+5:2'"),
        (rdp.classify, "A: 5 :2", "bad pair parameter ' 5 ' in 'A: 5 :2'"),
        (rdp.classify, "A:-5:2", "bad pair parameter '-5' in 'A:-5:2'"),
        (rdp.parse_config, "1_0*A:2:1", "bad multiplicity '1_0' in '1_0*A:2:1'"),
        (rdp.parse_config, "-2*A:2:1", "bad multiplicity '-2' in '-2*A:2:1'"),
        (rdp.parse_type, "(1_0)", "bad type entry '1_0' in '(1_0)'"),
        (rdp.parse_type, "(+5,2)", "bad type entry '+5' in '(+5,2)'"),
    ],
)
def test_descriptors_read_numbers_as_decimal_digits_only(parse, text, message):
    # int() also reads signs, inner spaces and underscores; every parser
    # reads a number as parse_type does and quotes the token it refuses
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_format_pair_roundtrip():
    for text in ("A:10:4", "D1:6", "Dn:7", "E6", "E7"):
        assert rdp.format_pair(rdp.classify(text)) == text
    # format_pair writes the descriptor fields the species table names
    for pair in rdp.classified_pairs(60):
        assert rdp.classify(rdp.format_pair(pair)) == pair, pair


def test_direct_construction_must_be_canonical():
    with pytest.raises(DomainError):
        rdp.RdpPair("A", 10, 7)
    with pytest.raises(DomainError):
        rdp.RdpPair("E6", 6, 1)
    with pytest.raises(DomainError):
        rdp.RdpPair("B", 3)


# -- type table --------------------------------------------------------------


def test_type_of():
    assert rdp.type_of(rdp.classify("A:3:1")) == (1, 1, 1)
    assert rdp.type_of(rdp.pair_d_first(9)) == (2,)
    assert rdp.type_of(rdp.pair_d_last(5)) == (2, 1, 1, 1, 1)
    assert rdp.type_of(rdp.pair_d_last(6)) == (3,)
    assert rdp.type_of(rdp.E6) == (2, 2)
    assert rdp.type_of(rdp.E7) == (3,)


def test_scalar_invariants():
    inv = rdp.scalar_invariants(rdp.classify("A:2:1"))
    assert (inv.order, inv.delta, inv.sigma, inv.deficiency) == (3, Fraction(2, 3), 2, 0)
    inv = rdp.scalar_invariants(rdp.pair_d_last(7))
    assert (inv.order, inv.delta, inv.sigma, inv.deficiency) == (4, Fraction(7, 4), 7, -2)
    inv = rdp.scalar_invariants(rdp.pair_d_last(5))
    assert (inv.order, inv.delta, inv.sigma, inv.deficiency) == (4, Fraction(5, 4), 5, -1)
    inv = rdp.scalar_invariants(rdp.pair_d_last(6))
    assert (inv.order, inv.delta, inv.sigma, inv.deficiency) == (2, Fraction(3, 2), 6, 3)
    inv = rdp.scalar_invariants(rdp.pair_d_first(6))
    assert (inv.order, inv.delta, inv.sigma, inv.deficiency) == (2, Fraction(1), 6, 4)
    inv = rdp.scalar_invariants(rdp.E6)
    assert (inv.order, inv.delta, inv.sigma, inv.deficiency) == (3, Fraction(4, 3), 6, 2)
    inv = rdp.scalar_invariants(rdp.E7)
    assert (inv.order, inv.delta, inv.sigma, inv.deficiency) == (2, Fraction(3, 2), 7, 4)


def test_blowup_of():
    assert blowup_of(rdp.E6) == rdp.RdpPair("A", 3, 2)
    assert blowup_of(rdp.classify("A:10:4")) == rdp.RdpPair("A", 6, 3)
    assert blowup_of(rdp.pair_d_last(7)) == rdp.RdpPair("A", 6, 1)
    assert blowup_of(rdp.pair_d_last(6)) is None
    assert blowup_of(rdp.pair_d_first(11)) is None
    assert blowup_of(rdp.E7) is None
    assert blowup_of(rdp.classify("A:7:4")) is None
    assert blowup_of(rdp.classify("A:2:1")) == rdp.RdpPair("A", 1, 1)


def test_blowup_type_consistency_small():
    for pair in rdp.classified_pairs(60):
        t = rdp.type_of(pair)
        successor = blowup_of(pair)
        rest = () if successor is None else rdp.type_of(successor)
        assert t == (t[0],) + rest, pair


def test_pair_records_agree_over_the_universe():
    # every classified pair with index <= 300: its record is that of the
    # one-pair configuration, and its type is p_1 followed by the type of
    # the pair one blowup leaves (the paper's definition of the sequence)
    pairs = list(rdp.classified_pairs(rdp.MAX_INDEX))
    assert len(pairs) == 23_245
    for pair in pairs:
        assert rdp.config_invariants((pair,)) == rdp.scalar_invariants(pair), pair
        t = rdp.type_of(pair)
        successor = blowup_of(pair)
        rest = () if successor is None else rdp.type_of(successor)
        assert t == (t[0],) + rest, pair


def test_config_invariants_types_each_pair_once(monkeypatch):
    calls = []
    type_of = rdp.type_of
    monkeypatch.setattr(rdp, "type_of", lambda pair: calls.append(pair) or type_of(pair))
    config = rdp.parse_config("8*A:2:1 + A:3:1 + Dn:7 + E6")
    inv = rdp.config_invariants(config)
    assert len(calls) == len(config) == 11
    assert inv.type_seq == (14, 12, 2, 1, 1, 1, 1)
    assert inv.deficiency == inv.sigma - sum(inv.type_seq) == 0


def test_config_invariants_match_pairwise_fold():
    # every species, 0..30 pairs, with repeats
    rng = random.Random(13)
    by_species = {}
    for pair in rdp.classified_pairs(40):
        by_species.setdefault(pair.species, []).append(pair)
    species = sorted(by_species)
    assert species == ["A", "D1", "Dn", "E6", "E7"]
    seen = set()
    for _ in range(2000):
        config = [rng.choice(by_species[rng.choice(species)]) for _ in range(rng.randint(0, 30))]
        seen.update(pair.species for pair in config)
        assert rdp.config_invariants(config) == config_invariants_fold(config), config
    assert seen == set(species)


def test_config_invariants_at_the_pair_cap():
    distinct = random.Random(5).sample(list(rdp.classified_pairs(rdp.MAX_INDEX)), rdp.MAX_PAIRS)
    repeated = rdp.parse_config(f"{rdp.MAX_PAIRS}*A:2:1")
    for config in ((), rdp.make_config(distinct), repeated):
        assert rdp.config_invariants(config) == config_invariants_fold(config)
    inv = rdp.config_invariants(repeated)
    assert inv.type_seq == (1000, 1000) and inv.delta == Fraction(2000, 3)


def test_weighted_type_sum():
    assert rdp.weighted_type_sum((2, 2)) == Fraction(4, 3)
    assert rdp.weighted_type_sum(()) == 0
    assert rdp.weighted_type_sum((3, 1, 1, 1, 1, 1, 1)) == Fraction(15, 8)


def test_weighted_type_sum_matches_fold():
    types = [seq for _, seq in search.bungobungo_solve()]
    rng = random.Random(17)
    for _ in range(300):
        length = rng.randint(0, rdp.MAX_INDEX)
        types.append(tuple(sorted((rng.randint(1, 50) for _ in range(length)), reverse=True)))
    types.append((1,) * rdp.MAX_INDEX)
    for t in types:
        assert rdp.weighted_type_sum(t) == weighted_type_sum_fold(t), t


def test_miyaoka_contribution():
    assert rdp.miyaoka_contribution(rdp.classify("A:1:1")) == Fraction(3, 2)
    assert rdp.miyaoka_contribution(rdp.classify("A:2:1")) == Fraction(8, 3)
    with pytest.raises(DomainError):
        rdp.miyaoka_contribution(rdp.E6)
    with pytest.raises(DomainError):
        rdp.miyaoka_contribution(rdp.pair_d_first(4))
    config = rdp.parse_config("A:1:1 + 6*A:2:1 + 2*A:3:1")
    assert rdp.config_miyaoka(config) == 25


def test_config_miyaoka_matches_fold():
    rng = random.Random(19)
    a_pairs = [pair for pair in rdp.classified_pairs(60) if pair.species == "A"]
    configs = [(), rdp.parse_config(f"{rdp.MAX_PAIRS}*A:2:1")]
    configs += [[rng.choice(a_pairs) for _ in range(rng.randint(1, 30))] for _ in range(500)]
    for config in configs:
        total = rdp.config_miyaoka(config)
        assert isinstance(total, Fraction)
        assert total == config_miyaoka_fold(config), config
    for other in (rdp.pair_d_first(4), rdp.pair_d_last(5), rdp.E6, rdp.E7):
        with pytest.raises(DomainError, match=other.species):
            rdp.config_miyaoka(rdp.parse_config("A:2:1 + A:3:1") + (other,))


# -- configurations ----------------------------------------------------------


def test_parse_format_config():
    config = rdp.parse_config("8*A:2:1 + A:3:1")
    assert len(config) == 9
    assert rdp.format_config(config) == "8*A:2:1 + A:3:1"
    assert rdp.parse_config("") == ()
    assert rdp.format_config(()) == ""
    with pytest.raises(ParseError):
        rdp.parse_config("2*")
    with pytest.raises(ParseError):
        rdp.parse_config("0*A:2:1")
    with pytest.raises(ParseError):
        rdp.parse_config("A:2:1 + + A:3:1")


def test_format_config_reads_back_unsorted():
    # runs of equal pairs become N*pair terms, whatever order they come in
    rng = random.Random(41)
    pool = list(rdp.classified_pairs(9))
    assert {pair.species for pair in pool} == {"A", "D1", "Dn", "E6", "E7"}
    for _ in range(500):
        members = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        members += [rdp.E6, rdp.pair_d_last(7)] * rng.randint(0, 2) + members[:2]
        rng.shuffle(members)
        text = rdp.format_config(tuple(members))
        assert rdp.parse_config(text) == rdp.make_config(members), text


def test_config_order_independent():
    a = rdp.parse_config("A:3:1 + 2*A:2:1")
    b = rdp.parse_config("A:2:1 + A:3:1 + A:2:1")
    assert a == b


def test_config_invariants():
    inv = rdp.config_invariants(rdp.parse_config("8*A:2:1 + A:3:1"))
    assert inv.type_seq == (9, 9, 1)
    assert inv.sigma == 19
    assert inv.deficiency == 0
    assert inv.delta == Fraction(73, 12)

    inv = rdp.config_invariants(rdp.parse_config("7*A:2:1 + A:5:2"))
    assert inv.type_seq == (9, 9)
    assert inv.order == 3

    inv = rdp.config_invariants(())
    assert inv.type_seq == ()
    assert inv.order == 1
    assert inv.delta == 0
    assert inv.sigma == 0
    assert inv.deficiency == 0


def test_exceptional_species_carry_no_parameters():
    assert rdp.RdpPair("E7", 7) == rdp.E7
    for species, n, k in (("E7", 7, 1), ("E7", 8, 0), ("E6", 7, 0)):
        with pytest.raises(DomainError, match=f"^{species} carries no parameters$"):
            rdp.RdpPair(species, n, k)
