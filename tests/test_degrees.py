import pytest

from oracles import binomial_divisibility
from stci import degrees
from stci.errors import DomainError

QUARTIC_TABLE = [
    (3, 4), (3, 8), (4, 4), (4, 7), (6, 26), (9, 48), (10, 28), (12, 18),
    (13, 16), (17, 220), (18, 118), (19, 84), (20, 67), (22, 50), (28, 33),
]


def test_divisibility_check_examples():
    result = degrees.divisibility_check(4, 4, 4, 0)
    assert result.value == 24 and result.divides and result.positive and result.holds
    result = degrees.divisibility_check(3, 4, 4, 0)
    assert result.value == 10 and result.holds
    with pytest.raises(DomainError):
        degrees.divisibility_check(3, 3, 4, 0)
    with pytest.raises(DomainError):
        degrees.divisibility_check(1, 1, 1, 0)  # n = 1
    with pytest.raises(DomainError):
        degrees.divisibility_check(4, 4, 4, -1)


def test_divisibility_negative_quantity():
    # divisible but not positive: holds must be False while divides is True
    result = degrees.divisibility_check(1, 2, 1, 4)
    assert result.value == -16
    assert result.divides and not result.positive and not result.holds


def test_binomial_check_examples():
    assert binomial_divisibility(4, 4, 4, 0)
    assert binomial_divisibility(3, 4, 4, 0)
    assert not binomial_divisibility(4, 4, 1, 0)


def test_checks_equivalent_small_box():
    for s in range(1, 25):
        for t in range(1, 25):
            for d in range(1, 7):
                if (s * t) % d != 0 or s * t // d < 2:
                    continue
                for g in range(0, 3):
                    direct = degrees.divisibility_check(s, t, d, g).divides
                    binom = binomial_divisibility(s, t, d, g)
                    assert direct == binom, (s, t, d, g)


def test_enumerate_quartic_rational():
    records = degrees.enumerate_pairs(4, 0)
    assert [(r.s, r.t) for r in records] == QUARTIC_TABLE
    assert all(r.flags == ("s-orientation", "t-orientation") for r in records)


def test_enumerate_record_values():
    records = {(r.s, r.t): r for r in degrees.enumerate_pairs(4, 0)}
    assert records[(4, 4)].n == 4
    assert records[(4, 4)].p_s == 8 and records[(4, 4)].p_t == 8
    assert records[(3, 4)].p_s == 5 and records[(3, 4)].p_t == 9
    assert records[(17, 220)].n == 935
    assert records[(17, 220)].p_s == 55 and records[(17, 220)].p_t == 867


def test_enumerate_bounds_and_integrality():
    for d, g in ((4, 0), (3, 1), (2, 0), (5, 2)):
        for rec in degrees.enumerate_pairs(d, g):
            assert 3 <= rec.s <= rec.t
            assert rec.s < 2 * d * d
            assert rec.t < 2 * d ** 4
            assert (rec.s * rec.t) % d == 0 and rec.n >= 2
            for value in (rec.p_s, rec.p_t):
                assert value.denominator == 1 and value > 0
            assert rec.p_t - rec.p_s == d * (rec.t - rec.s)


def test_enumerate_windows():
    prefix = degrees.enumerate_pairs(4, 0, s_max=4)
    assert [(r.s, r.t) for r in prefix] == [(3, 4), (3, 8), (4, 4), (4, 7)]
    assert degrees.enumerate_pairs(4, 0, s_max=2) == []


def test_enumerate_one_sided_matches_symmetric_for_quartic():
    sym = degrees.enumerate_pairs(4, 0)
    one = degrees.enumerate_pairs(4, 0, symmetric=False)
    assert [(r.s, r.t) for r in one] == [(r.s, r.t) for r in sym]


def test_enumerate_validation():
    with pytest.raises(DomainError):
        degrees.enumerate_pairs(0, 0)
    with pytest.raises(DomainError):
        degrees.enumerate_pairs(4, -1)
