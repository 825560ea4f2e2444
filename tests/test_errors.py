import importlib
import inspect
import pkgutil
import typing
from enum import IntEnum
from fractions import Fraction

import pytest

import stci
from stci import chow, degrees, graphs, rdp, theorems
from stci.errors import ECHO_CAP, DomainError, at_most, echo, integer


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
        lambda: rdp.RdpPair("A", 3, huge),
        lambda: graphs.replay(1, ["x" * 5000]),
        lambda: rdp.RdpPair("x" * 5000, 3, 1),
    ]
    for call in calls:
        with pytest.raises(DomainError) as info:
            call()
        assert len(str(info.value)) <= 200, str(info.value)[:300]


# ---------------------------------------------------------------------------
# the int rule, as a contract over every public callable


class Small(IntEnum):
    one = 1
    four = 4
    seven = 7


def test_an_int_subclass_is_not_an_int():
    # an IntEnum member passes isinstance(_, int); accepted, it would end up
    # inside exact records: phi(E.seven, E.one) had seven E.one entries
    for value in (Small.four, True):
        with pytest.raises(DomainError) as info:
            integer(value, "count")
        assert str(info.value) == f"count must be an int, got {value!r}"
    # quoted by repr, which reads the same on every Python version (str of
    # an IntEnum member changed in 3.11)
    assert echo(Small.four) == "<Small.four: 4>"
    assert (echo(4), echo(True), echo(4.5)) == ("4", "True", "4.5")
    refusals = [
        (lambda: rdp.phi(Small.seven, Small.one), "phi k must be an int, got <Small.one: 1>"),
        (lambda: rdp.RdpPair("A", Small.seven, Small.one), "pair index must be an int, got <Small.seven: 7>"),
        (lambda: graphs.replay(Small.one, ["+"]), "base must be an int, got <Small.one: 1>"),
        (lambda: graphs.replay(1, ["+", Small.one]),
         "an operation other than '+' must be an int, got <Small.one: 1>"),
    ]
    for call, message in refusals:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


_P4 = theorems.StciParams(4, 4, 4, 0)
_CTX = chow.BlowupContext(4, 0, (1, 2))
_GRAPH = graphs.replay(1, ("+", 1))
_A31 = rdp.pair_a(3, 1)
_CURVE = {"d": "curve degree", "g": "genus"}
_DEGREES = {"s": "surface degree", "t": "surface degree", **_CURVE}
# config_search and its forward in theorems take the same call
_CONFIG_SEARCH_ARGS = ((9, 9), 6, Fraction(6), 25, Fraction(24))
_CONFIG_SEARCH_NAMES = {"max_deficiency": "max_deficiency", "require_delta": "require_delta",
                        "max_sigma": "max_sigma", "miyaoka_budget_cap": "miyaoka_budget_cap"}

# One valid call of every public callable of the library layers: its
# arguments, and the name its refusals give each parameter annotated int or
# Fraction (optional or not).  A method's first argument is its instance.
CALLS = {
    "exact.fraction_sum": (([Fraction(1, 2), 1],), {}),
    "exact.parse_rational": (("73/12",), {}),
    "rdp.normalize_type": (((9, 9, 1, 0),), {}),
    "rdp.format_type": (((2, 1, 1, 1),), {}),
    "rdp.parse_type": (("(2,1^[3])",), {}),
    "rdp.weighted_type_sum": (((9, 8, 2),), {}),
    "rdp.phi": ((10, 4), {"n": "phi n", "k": "phi k"}),
    "rdp.RdpPair": (("A", 10, 4), {"n": "pair index", "k": "pair parameter k"}),
    "rdp.pair_a": ((10, 7), {"n": "pair index", "k": "pair parameter k"}),
    "rdp.pair_d_first": ((4,), {"n": "pair index"}),
    "rdp.pair_d_last": ((7,), {"n": "pair index"}),
    "rdp.classify": (("A:10:4",), {}),
    "rdp.format_pair": ((rdp.E6,), {}),
    "rdp.type_of": ((_A31,), {}),
    "rdp.scalar_invariants": ((rdp.E7,), {}),
    "rdp.miyaoka_contribution": ((_A31,), {}),
    "rdp.classified_pairs": ((7,), {"max_param": "max_param"}),
    "rdp.make_config": (([rdp.E7, rdp.E6],), {}),
    "rdp.parse_config": (("8*A:2:1 + A:3:1",), {}),
    "rdp.format_config": (((rdp.E6, rdp.E6),), {}),
    "rdp.config_invariants": (((rdp.E6, rdp.E7),), {}),
    "rdp.config_miyaoka": (((_A31, _A31),), {}),
    "chow.check_curve": ((4, 0), _CURVE),
    "chow.check_surface": ((4,), {"s": "surface degree"}),
    "chow.check_degrees": ((4, 4, 4, 0), _DEGREES),
    "chow.multiplicity": ((4, 4, 4, 0), _DEGREES),
    "chow.BlowupContext": ((4, 0, (1, 2)), _CURVE),
    "chow.make_context": ((4, 0, [1, 2]), _CURVE),
    "chow.beta_from_p": ((4, 4, 0, (9, 8, 2)), {"s": "surface degree", **_CURVE}),
    "chow.st_expansion": ((4, 4, _CTX), {"s": "surface degree", "t": "surface degree"}),
    "chow.pad_p": (((9, 8), 4), {"n": "pad length"}),
    "chow.a_closed_form": ((4, 4, 4, 0, (9, 8, 2), 2), {**_DEGREES, "m": "index m"}),
    "graphs.replay": ((1, ["+", 1]), {"base": "base"}),
    "graphs.decompose": ((_GRAPH,), {}),
    "graphs.from_parts": ((1, 3, [(1, 3), (2, 3)]), {"base": "base", "top": "top"}),
    "graphs.truncate": ((_GRAPH,), {}),
    "graphs.strict_transform_class": ((_GRAPH,), {}),
    "graphs.snort_check": (((1, 2),), {}),
    "graphs.cone_decompose": (((1, 2),), {}),
    "theorems.StciParams": ((4, 4, 4, 0), _DEGREES),
    "theorems.thm1_value": ((_P4,), {}),
    "theorems.thm2_rhs": ((_P4, 2), {"k": "index k"}),
    "theorems.thm2_margins": ((_P4, (9, 8, 2)), {}),
    "theorems.thm3_check": ((4, 4, 0, (9, 9), 1), {"s": "surface degree", **_CURVE,
                                                   "truncate_at": "truncation index"}),
    "theorems.resolution_bound": ((4,), {"s": "surface degree"}),
    "theorems.miyaoka_budget": ((4,), {"s": "surface degree"}),
    "theorems.bungobungo_solve": ((), {}),
    "theorems.config_search": (_CONFIG_SEARCH_ARGS, _CONFIG_SEARCH_NAMES),
    "theorems.thmA_verdict": ((4, 4, 4, 0), _DEGREES),
    "search.bungobungo_solve": ((), {}),
    "search.config_search": (_CONFIG_SEARCH_ARGS, _CONFIG_SEARCH_NAMES),
    "degrees.enumerate_pairs": ((4, 0, True, 40, 100), {**_CURVE, "s_max": "s_max", "t_max": "t_max"}),
}

# Public callables outside the contract, each with its reason.  A NamedTuple
# record without its own __new__ takes any field values, and is left out
# by ``_public_callables``, not listed here.
EXEMPT = {
    "errors": "the validator itself",
    "cli": "it passes only ints that int() has read from argv",
    "chow.a_value": "an unchecked formula by its docstring, run on every s by enumerate_pairs",
    "chow.q_value": "an unchecked formula by its docstring; callers check with multiplicity first",
}

# What each kind of parameter refuses, and how its refusal reads after the
# parameter's name.
BAD = {
    int: {"float": 4.5, "bool": True, "str": "4", "intenum": Small.four},
    Fraction: {"float": 0.1, "bool": True, "str": "1e10000000"},
}
REFUSAL = {int: "must be an int", Fraction: "must be an int or a Fraction"}


def _public_callables():
    """key -> callable: the public functions, the classes with a
    constructor of their own and the public methods of every library module."""
    found = {}
    for info in pkgutil.iter_modules(stci.__path__):
        module = importlib.import_module(f"stci.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            key = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                found[key] = obj
            elif inspect.isclass(obj):
                if obj.__new__.__module__ == module.__name__:
                    found[key] = obj
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[f"{key}.{attr}"] = member
    return found


CALLABLES = _public_callables()


def _checked(fn):
    """{parameter: int or Fraction} for fn's parameters annotated either,
    optional or not; a class is read through its own __new__."""
    hints = typing.get_type_hints(fn.__new__ if inspect.isclass(fn) else fn)
    return {
        name: kind
        for name, hint in hints.items()
        for kind in BAD
        if name != "return" and hint in (kind, typing.Optional[kind])
    }


def test_every_public_callable_has_a_row_or_an_exemption():
    modules = {key for key in EXEMPT if "." not in key}
    listed = set(CALLS) | (set(EXEMPT) - modules)
    found = {key for key in CALLABLES if key.partition(".")[0] not in modules}
    assert sorted(found - listed) == [], "public callables with no row and no exemption"
    assert sorted(listed - found) == [], "rows or exemptions of no public callable"
    for key, (args, names) in CALLS.items():
        fn = CALLABLES[key]
        assert set(names) == set(_checked(fn)), key
        fn(*args)  # the row's call is valid


def _cases():
    kinds = {}
    for key, (_, names) in CALLS.items():
        for parameter, kind in _checked(CALLABLES[key]).items():
            kinds[names[parameter]] = kind
    return [
        pytest.param(name, value_id, id=f"{name}-{value_id}")
        for name, kind in sorted(kinds.items())
        for value_id in BAD[kind]
    ]


@pytest.mark.parametrize("name, value_id", _cases())
def test_scalar_parameters_refuse_floats_and_bools(name, value_id):
    # every parameter its refusals call ``name`` refuses the value with a
    # DomainError before any work: past the check a float or a bool once
    # reached exact arithmetic (resolution_bound(4.5) was 29.0), an int
    # subclass exact records, and a text a bare TypeError or, as a
    # require_delta, a power of ten built without a cap
    calls = 0
    for key, (args, names) in CALLS.items():
        fn = CALLABLES[key]
        signature = inspect.signature(fn)
        for parameter, kind in _checked(fn).items():
            if names[parameter] != name:
                continue
            value = BAD[kind][value_id]
            bound = signature.bind(*args)
            bound.arguments[parameter] = value
            with pytest.raises(DomainError) as info:
                fn(*bound.args, **bound.kwargs)
            assert str(info.value) == f"{name} {REFUSAL[kind]}, got {echo(value)}", key
            calls += 1
    assert calls


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: theorems.resolution_bound(4.5), "surface degree must be an int, got 4.5"),
        (lambda: theorems.thmA_verdict(4.0, 4, 1, 1), "surface degree must be an int, got 4.0"),
        (lambda: theorems.miyaoka_budget(4.0), "surface degree must be an int, got 4.0"),
        (lambda: rdp.pair_d_last(7.0), "pair index must be an int, got 7.0"),
        (lambda: rdp.pair_a(7.0, 5), "pair index must be an int, got 7.0"),
    ],
    ids=["bound-float", "thmA", "miyaoka", "pair_d_last", "pair_a"],
)
def test_floats_and_bools_are_not_int_parameters(call, message):
    # the contract's cases are named by parameter, and one case covers
    # every callable that shares the name; these are such callables, each
    # by its own call: past the check resolution_bound(4.5) was 29.0 and
    # pair_d_last(7.0) a pair that type_of cannot type
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


# Sequence entries checked one by one (each check is cheap next to the work
# on the entry), keyed by the name a refusal gives them, then by the
# callable after a slash where several share a name.  Exempt:
# a_closed_form's p, which it reads without a pass over it (checking each
# entry took calculus jobs per second down 19%): it checks p_m and that
# the entries before it sum to an int, so a bool or an IntEnum member
# among those still passes, and the entries past p_m are not read.
ELEMENTS = {
    "type entry": lambda v: rdp.normalize_type((9, v)),
    "type entry/format_type": lambda v: rdp.format_type((9, v)),
    "type entry/weighted_type_sum": lambda v: rdp.weighted_type_sum((9, v)),
    "beta entry": lambda v: chow.BlowupContext(4, 0, (1, v)),
    "p entry": lambda v: theorems.thm2_margins(_P4, (9, v, 2)),
    "edge end": lambda v: graphs.from_parts(1, 3, [(v, v), (1, 2)]),
    "ruling coefficient/snort_check": lambda v: graphs.snort_check((1, v)),
    "ruling coefficient/cone_decompose": lambda v: graphs.cone_decompose((1, v)),
}


@pytest.mark.parametrize("value", list(BAD[int].values()), ids=list(BAD[int]))
@pytest.mark.parametrize("key", list(ELEMENTS))
def test_entries_refuse_what_int_parameters_refuse(key, value):
    with pytest.raises(DomainError) as info:
        ELEMENTS[key](value)
    assert str(info.value) == f"{key.partition('/')[0]} must be an int, got {echo(value)}"
