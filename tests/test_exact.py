import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import euclid_profile
from stci.errors import DomainError, ParseError
from stci.exact import fraction_sum, parse_rational


def test_profile_7_4():
    prof = euclid_profile(7, 4)
    assert prof.remainders == (4, 3, 1, 0)
    assert prof.quotients == (1, 1, 3)
    assert prof.t_last_nonzero == 2


def test_profile_divisible():
    prof = euclid_profile(6, 3)
    assert prof.remainders == (3, 0)
    assert prof.quotients == (2,)
    assert prof.t_last_nonzero == 0


def test_profile_k_equals_n():
    prof = euclid_profile(5, 5)
    assert prof.remainders == (5, 0)
    assert prof.quotients == (1,)


def test_profile_domain_errors():
    with pytest.raises(DomainError):
        euclid_profile(7, 0)
    with pytest.raises(DomainError):
        euclid_profile(4, 5)


def test_remainders_strictly_decreasing():
    for N in range(1, 120):
        for k in range(1, N + 1):
            rems = euclid_profile(N, k).remainders
            assert all(rems[i] > rems[i + 1] for i in range(len(rems) - 1))
            assert rems[-1] == 0


def test_quotient_floor_bound_when_k_does_not_divide():
    # floor(N/k) <= (N-k)/gcd(k,N) whenever k < N and k does not divide N
    for N in range(2, 501):
        for k in range(1, N):
            if N % k == 0:
                continue
            assert N // k <= (N - k) // math.gcd(k, N), (N, k)


def test_quotient_sum_bound():
    # d_1 + ... + d_t <= N / gcd(k, N), t taken at the first zero remainder
    for N in range(1, 501):
        for k in range(1, N + 1):
            prof = euclid_profile(N, k)
            assert sum(prof.quotients) <= N // math.gcd(k, N), (N, k)


def test_weighted_remainder_drop_bound():
    # sum_i (r_{i-1} - r_i) / (d_1 + ... + d_i) <= k^2 / N for k <= N/2
    for N in range(2, 501):
        for k in range(1, N // 2 + 1):
            prof = euclid_profile(N, k)
            total = Fraction(0)
            running = 0
            for i in range(1, len(prof.quotients) + 1):
                running += prof.quotients[i - 1]
                total += Fraction(
                    prof.remainders[i - 1] - prof.remainders[i], running
                )
            assert total <= Fraction(k * k, N), (N, k)


def test_format_parse():
    # the CLI prints a rational as str(Fraction): "p/q", or "p" when q = 1
    assert str(Fraction(73, 12)) == "73/12"
    assert str(Fraction(6)) == "6"
    assert str(Fraction(-3, 2)) == "-3/2"
    assert parse_rational("73/12") == Fraction(73, 12)
    assert parse_rational("6") == 6
    with pytest.raises(ParseError):
        parse_rational("abc")
    with pytest.raises(ParseError):
        parse_rational("1/0")


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.fractions())
def test_rational_normalized(q):
    assert q.denominator > 0
    assert math.gcd(abs(q.numerator), q.denominator) == 1
    assert parse_rational(str(q)) == q


def test_fraction_sum_examples():
    assert fraction_sum([]) == 0 and isinstance(fraction_sum([]), Fraction)
    assert fraction_sum([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]) == 1
    assert fraction_sum([3, Fraction(-7, 4), 0]) == Fraction(5, 4)
    assert fraction_sum(iter([Fraction(1, 4)] * 8)) == 2
    assert fraction_sum([Fraction(1, 10**40), Fraction(-1, 10**40)]) == 0


@given(st.lists(st.one_of(st.fractions(), st.integers()), max_size=30))
def test_fraction_sum_equals_running_sum(terms):
    total = Fraction(0)
    for term in terms:
        total += term
    result = fraction_sum(terms)
    assert result == total
    assert math.gcd(abs(result.numerator), result.denominator) == 1
