import pytest

from oracles import binomial_divisibility, degree_pairs_grid, degree_pairs_per_s, divisibility_check
from stci import degrees
from stci.errors import DomainError

QUARTIC_TABLE = [
    (3, 4), (3, 8), (4, 4), (4, 7), (6, 26), (9, 48), (10, 28), (12, 18),
    (13, 16), (17, 220), (18, 118), (19, 84), (20, 67), (22, 50), (28, 33),
]


def test_divisibility_check_examples():
    assert divisibility_check(4, 4, 4, 0) == (24, True, True)
    assert divisibility_check(3, 4, 4, 0) == (10, True, True)
    with pytest.raises(DomainError):
        divisibility_check(3, 3, 4, 0)
    with pytest.raises(DomainError):
        divisibility_check(1, 1, 1, 0)  # n = 1
    with pytest.raises(DomainError):
        divisibility_check(4, 4, 4, -1)


def test_divisibility_negative_quantity():
    # divisible but not positive
    assert divisibility_check(1, 2, 1, 4) == (-16, True, False)


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
                    _, direct, _ = divisibility_check(s, t, d, g)
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
    assert degrees.enumerate_pairs(4, 0, symmetric=False) == degrees.enumerate_pairs(4, 0)


def _rows(records):
    return [(r.s, r.t, r.n, r.p_s, r.p_t, r.flags) for r in records]


def test_enumerate_matches_grid_scan():
    for d in range(1, 8):
        for g in range(0, 4):
            for symmetric in (True, False):
                got = _rows(degrees.enumerate_pairs(d, g, symmetric))
                assert got == degree_pairs_grid(d, g, symmetric), (d, g, symmetric)
                for s_max, t_max in ((2, None), (4, None), (None, 3 * d), (4, 2 * d)):
                    got = _rows(degrees.enumerate_pairs(d, g, symmetric, s_max, t_max))
                    want = degree_pairs_grid(d, g, symmetric, s_max, t_max)
                    assert got == want, (d, g, symmetric, s_max, t_max)


def test_enumerate_matches_per_s_divisor_walk():
    # above d^2 only e = s - d^2 is tried, and only when it divides K; the
    # grid scan stops at d = 7, so the per-s walk covers the larger d, the
    # windows either side of d^2, every genus up to the plane-curve bound
    # (d-1)(d-2)/2 at a few d, and t_max below its default
    def rows(*args):
        return [tuple(r[:5]) for r in degrees.enumerate_pairs(d, g, True, *args)]

    for d in range(1, 61):
        for g in (0, 1):
            for s_max in (None, d * d - 1, d * d, d * d + 1):
                assert rows(s_max) == degree_pairs_per_s(d, g, s_max), (d, g, s_max)
    for d in (4, 9, 13):
        for g in range((d - 1) * (d - 2) // 2 + 1):
            for s_max, t_max in ((None, None), (d * d, None), (None, d ** 3)):
                want = degree_pairs_per_s(d, g, s_max, t_max)
                assert rows(s_max, t_max) == want, (d, g, s_max, t_max)


def test_enumerate_t_max_cuts_admissible_pairs():
    full = [(r.s, r.t) for r in degrees.enumerate_pairs(4, 0)]
    cut = [(r.s, r.t) for r in degrees.enumerate_pairs(4, 0, t_max=47)]
    assert cut == [(s, t) for s, t in full if t <= 47] != full


def test_enumerate_t_cap_never_binds():
    # t < 2d^4 is a theorem: lifting the window changes nothing; past
    # d^2 = 1,600 and at the curve degree cap most s lie above d^2
    for d, count in {4: 15, 10: 64, 20: 126, 40: 169, degrees.MAX_CURVE_DEGREE: 863}.items():
        records = degrees.enumerate_pairs(d, 0)
        assert len(records) == count, d
        assert all(r.t < 2 * d ** 4 for r in records)
        assert degrees.enumerate_pairs(d, 0, t_max=10 ** 30) == records


def test_enumerate_validation():
    with pytest.raises(DomainError):
        degrees.enumerate_pairs(0, 0)
    with pytest.raises(DomainError):
        degrees.enumerate_pairs(4, -1)
    with pytest.raises(DomainError, match="curve degree must be <= 600"):
        degrees.enumerate_pairs(degrees.MAX_CURVE_DEGREE + 1, 0, s_max=10)


def test_enumerate_s_max_beyond_two_d_squared_changes_nothing():
    for d in range(1, 7):
        for g in (0, 1, 2, 3, 5, 10, 50):
            s_max = 12 * d * d + 40
            full = degrees.enumerate_pairs(d, g)
            assert degrees.enumerate_pairs(d, g, s_max=s_max) == full, (d, g)
            # the docstring's argument: for s >= 2d^2 the least e = -a (mod s)
            # already exceeds the t >= s bound d*a/(s^2 - d)
            for s in range(2 * d * d, s_max + 1):
                a = s * (d * (s - 4) + 2 - 2 * g) + d * d
                assert a <= 0 or (-a % s or s) > d * a // (s * s - d), (d, g, s)
