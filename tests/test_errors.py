import pytest

from stci import chow, degrees, graphs, rdp, theorems
from stci.errors import ECHO_CAP, DomainError, at_most


def test_at_most_accepts_the_cap_and_refuses_one_past_it():
    assert at_most(300, 300, "pair index") == 300
    assert at_most(-5, 300, "pair index") == -5
    with pytest.raises(DomainError) as info:
        at_most(301, 300, "pair index")
    assert str(info.value) == "pair index must be <= 300, got 301"
    with pytest.raises(DomainError) as info:
        at_most(601, 600, "curve degree", "the enumeration grows as d^2 log d")
    assert str(info.value) == "curve degree must be <= 600, got 601: the enumeration grows as d^2 log d"


def test_at_most_names_a_long_value_by_its_digit_count():
    assert ECHO_CAP < 5000
    with pytest.raises(DomainError) as info:
        at_most(10**4999, 256, "n = st/d", "the work grows with it")
    assert str(info.value) == "n = st/d must be <= 256, got <5000 digits>: the work grows with it"


def test_refusals_quote_a_huge_input_by_its_length():
    # each input would otherwise be quoted in full, or converted to text
    # past Python's 4,300-digit limit and escape as a bare ValueError
    huge = 10**5000
    calls = [
        lambda: chow.a_closed_form(4, 4, 4, 0, (), huge),
        lambda: graphs.replay(1, ["+", huge]),
        lambda: graphs.replay(1, ["+"]).mu_of(huge),
        lambda: rdp.RdpPair("A", 3, huge),
        lambda: graphs.replay(1, ["x" * 5000]),
        lambda: rdp.RdpPair("x" * 5000, 3, 1),
    ]
    for call in calls:
        with pytest.raises(DomainError) as info:
            call()
        assert len(str(info.value)) <= 200, str(info.value)[:300]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: theorems.resolution_bound(4.5), "surface degree must be an int, got 4.5"),
        (lambda: theorems.resolution_bound(True), "surface degree must be an int, got True"),
        (lambda: theorems.thmA_verdict(4.0, 4, 1, 1), "surface degree must be an int, got 4.0"),
        (lambda: theorems.miyaoka_budget(4.0), "surface degree must be an int, got 4.0"),
        (lambda: degrees.enumerate_pairs(4.0, 0), "curve degree must be an int, got 4.0"),
        (lambda: chow.check_curve(4, False), "genus must be an int, got False"),
        (lambda: rdp.phi(10.0, 4), "phi n must be an int, got 10.0"),
        (lambda: rdp.phi(10, True), "phi k must be an int, got True"),
        (lambda: rdp.pair_d_last(7.0), "pair index must be an int, got 7.0"),
        (lambda: rdp.pair_a(7.0, 5), "pair index must be an int, got 7.0"),
        (lambda: rdp.RdpPair("E6", 6, False), "pair parameter k must be an int, got False"),
    ],
    ids=["bound-float", "bound-bool", "thmA", "miyaoka", "enumerate", "genus", "phi-n", "phi-k",
         "pair_d_last", "pair_a", "RdpPair"],
)
def test_floats_and_bools_are_not_int_parameters(call, message):
    # past the check a float or a bool reaches exact arithmetic:
    # resolution_bound(4.5) would be 29.0, resolution_bound(True) 0, and
    # pair_d_last(7.0) a pair that type_of cannot type
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


# Scalar parameters that once ended in a bare TypeError (thm2_rhs(P, 1.0),
# a_closed_form(..., 1.0)) or ran on (t_max=40.5 gave 9 records, and True
# counted as 1): name -> a call with that parameter set to the value.
_P4 = theorems.StciParams(4, 4, 4, 0)
SCALAR_PARAMETERS = {
    "index k": lambda v: theorems.thm2_rhs(_P4, v),
    "truncation index": lambda v: theorems.thm3_check(4, 4, 0, (9, 8, 2), v),
    "s_max": lambda v: degrees.enumerate_pairs(4, 0, s_max=v),
    "t_max": lambda v: degrees.enumerate_pairs(4, 0, t_max=v),
    "index m": lambda v: chow.a_closed_form(4, 4, 4, 0, (9, 8, 2), v),
}


@pytest.mark.parametrize("value", [4.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", list(SCALAR_PARAMETERS))
def test_scalar_parameters_refuse_floats_and_bools(name, value):
    with pytest.raises(DomainError) as info:
        SCALAR_PARAMETERS[name](value)
    assert str(info.value) == f"{name} must be an int, got {value}"
