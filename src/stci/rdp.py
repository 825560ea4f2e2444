"""Classified rational double point surface-curve pairs and their invariants.

Every pair is one of five species: A(n,k) with 1 <= k <= (n+1)/2 after
canonicalization, D1(n) for n >= 4 and Dn(n) for n >= 5 (the curve meeting
the first or the last exceptional curve of the resolution), E6, and E7.
The module computes, for single pairs and for multiset configurations:

* the type sequence (p_1, p_2, ...) counting exceptional rulings produced
  by successive blowups along the curve;
* the order (least multiple of the curve that is Cartier);
* delta, the rational self-intersection defect on a minimal resolution;
* sigma, the number of exceptional curves in the minimal resolution, and
  the deficiency sigma - sum(type).

Every rational sum here goes through ``stci.exact.fraction_sum``, and
every Fraction is built as ``stci.exact.Fraction``, so ``phi``, ``type_of``
and the parsers load neither ``stci.exact`` nor ``fractions``.

Type sequences are plain tuples of positive integers with trailing zeros
dropped; the empty tuple is the smooth type.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cache

import stci

from .errors import DomainError, ParseError, at_most, echo, integer

TypeSeq = tuple[int, ...]

# Caps on what the parsers accept from text, checked before any type is
# built.  MAX_INDEX bounds the Dynkin index of a descriptor and the length
# of a parsed type (a pair's type is at most as long as its index, and the
# invariant scans go up to 300); MAX_PAIRS bounds the pairs of one
# configuration, each of which costs a type addition.
MAX_INDEX = 300
MAX_PAIRS = 1000


# ---------------------------------------------------------------------------
# type sequences


def normalize_type(entries: Iterable[int]) -> TypeSeq:
    """Drop trailing zeros and validate that what remains is positive."""
    seq = [integer(p, "type entry") for p in entries]
    while seq and seq[-1] == 0:
        seq.pop()
    for p in seq:
        if p <= 0:
            raise DomainError(f"type entries must be positive integers, got {echo(p)}")
    return tuple(seq)


def format_type(t: Iterable[int]) -> str:
    """Bracket notation of ``normalize_type(t)``: runs of >= 3 become ``v^[count]``."""
    parts: list[str] = []
    for value, group in itertools.groupby(normalize_type(t)):
        run = len(list(group))
        if run >= 3:
            parts.append(f"{value}^[{run}]")
        else:
            parts.extend([str(value)] * run)
    return "(" + ",".join(parts) + ")"


def _decimal(digits: str, what: str, token: str, text: str) -> int:
    """digits as an int when they are nothing but decimal digits, the one
    way every descriptor reads a number: no sign, space or underscore.
    Else a ParseError naming what the token holding them is and quoting it
    in text, also for more digits than ``int`` converts."""
    try:
        if digits.isdecimal():
            return int(digits)
    except ValueError:  # past the int/str digit limit
        pass
    raise ParseError(f"bad {what} {echo(token)} in {echo(text)}")


def parse_type(text: str) -> TypeSeq:
    """Parse bracket notation; accepts both "(9,9,1)" and "(2,1^[4])"."""
    import re  # loaded by the parsers that match a pattern, not at a layer's import

    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if not s:
        return ()
    runs: list[tuple[int, int]] = []
    for token in s.split(","):
        token = token.strip()
        m = re.fullmatch(r"(\d+)\^\[(\d+)\]", token)
        value, count = m.groups() if m else (token, "1")
        runs.append(tuple(_decimal(digits, "type entry", token, text) for digits in (value, count)))
    at_most(sum(count for _, count in runs), MAX_INDEX, "type length")
    return normalize_type(p for p, count in runs for _ in range(count))


def weighted_type_sum(t: Iterable[int]) -> stci.exact.Fraction:
    """Sum of p_k / (k (k+1)) over ``normalize_type(t)``, exactly."""
    exact = stci.exact
    return exact.fraction_sum(exact.Fraction(p, k * (k + 1)) for k, p in enumerate(normalize_type(t), 1))


# ---------------------------------------------------------------------------
# the A-series type recursion


def phi(n: int, k: int) -> TypeSeq:
    """Type sequence of the A-series pair with parameters (n, k).

    Euclid's algorithm on (n-k+1, k), with k first folded to n-k+1 when
    2k > n+1: each nonzero remainder b is repeated by its quotient a // b.
    The blowup recursion (fold, record k, stop at 2k = n+1 or continue with
    (n-k, k)) gives the same sequence one entry per step; it is the test
    oracle, tests/oracles.phi_step_by_step.
    """
    if not 1 <= integer(k, "phi k") <= integer(n, "phi n"):
        raise DomainError(f"phi requires 1 <= k <= n, got n={echo(n)}, k={echo(k)}")
    a, b = (n - k + 1, k) if 2 * k <= n + 1 else (k, n - k + 1)
    out: TypeSeq = ()
    while b:
        q = a // b
        out += (b,) * q
        a, b = b, a - q * b
    return out


# ---------------------------------------------------------------------------
# classified pairs

# Each species' least Dynkin index and the integer fields of its descriptor
# (A:n:k, D1:n, Dn:n, E6, E7); a species with no fields has only its least
# index.  Descriptors, validation and enumeration read this table.
_SPECIES = {"A": (1, 2), "D1": (4, 1), "Dn": (5, 1), "E6": (6, 0), "E7": (7, 0)}

# Type sequence, order and delta, as (numerator, denominator), of the
# species whose invariants do not depend on the index.
_FIXED = {
    "D1": ((2,), 2, (1, 1)),
    "E6": ((2, 2), 3, (4, 3)),
    "E7": ((3,), 2, (3, 2)),
}


@cache
def _fixed(species: str) -> tuple[TypeSeq, int, stci.exact.Fraction]:
    """The _FIXED row of species with its delta as a Fraction, built at the
    first read, so that importing this module builds none."""
    type_seq, order, delta = _FIXED[species]
    return type_seq, order, stci.exact.Fraction(*delta)


class RdpPair(namedtuple("RdpPair", "species n k", defaults=(0,))):
    """A classified pair; construct via pair_a / pair_d_first / pair_d_last.

    n is the Dynkin index (6 and 7 for the exceptional species); k is the
    curve position and is meaningful for species "A" only.  Pairs order as
    the tuples (species, n, k).
    """

    __slots__ = ()

    def __new__(cls, species: str, n: int, k: int = 0) -> "RdpPair":
        try:
            least, fields = _SPECIES[species]
        except KeyError:
            raise DomainError(f"unknown species {echo(species)}") from None
        n, k = integer(n, "pair index"), integer(k, "pair parameter k")
        if fields == 2:
            if n < least or not 1 <= k <= (n + 1) // 2:
                raise DomainError(f"A({echo(n)},{echo(k)}) is not canonical: "
                                  "need 1 <= k <= (n+1)/2")
        elif fields == 1:
            if n < least or k != 0:
                raise DomainError(f"{species} requires n >= {least}, got n={echo(n)}")
        elif (n, k) != (least, 0):
            raise DomainError(f"{species} carries no parameters")
        return super().__new__(cls, species, n, k)


def pair_a(n: int, k: int) -> RdpPair:
    """A-series pair; k > (n+1)/2 is folded to n-k+1 by the type symmetry."""
    if integer(n, "pair index") < 1 or not 1 <= integer(k, "pair parameter k") <= n:
        raise DomainError(f"A-pair requires 1 <= k <= n, got n={echo(n)}, k={echo(k)}")
    if 2 * k > n + 1:
        k = n - k + 1
    return RdpPair("A", n, k)


def pair_d_first(n: int) -> RdpPair:
    return RdpPair("D1", n)


def pair_d_last(n: int) -> RdpPair:
    return RdpPair("Dn", n)


E6 = RdpPair("E6", 6)
E7 = RdpPair("E7", 7)


def classify(text: str) -> RdpPair:
    """Parse a pair descriptor: "A:n:k", "D1:n", "Dn:n", "E6", "E7".

    n and k are decimal digits only (``_decimal``); an index n above
    MAX_INDEX is refused.
    """
    species, *tokens = text.strip().split(":")
    if species not in _SPECIES or len(tokens) != _SPECIES[species][1]:
        raise ParseError(f"bad pair descriptor {echo(text)}")
    ints = [_decimal(token, "pair parameter", token, text) for token in tokens]
    if species == "A":
        pair = pair_a(*ints)
    elif ints:
        pair = RdpPair(species, *ints)
    else:
        pair = E6 if species == "E6" else E7
    at_most(pair.n, MAX_INDEX, "pair index")
    return pair


def format_pair(p: RdpPair) -> str:
    return ":".join(map(str, p[: 1 + _SPECIES[p.species][1]]))


def type_of(p: RdpPair) -> TypeSeq:
    """Type sequence of a classified pair."""
    if p.species == "A":
        return phi(p.n, p.k)
    if p.species == "Dn":
        if p.n % 2 == 0:
            return (p.n // 2,)
        return ((p.n - 1) // 2,) + (1,) * (p.n - 1)
    return _FIXED[p.species][0]


class Invariants(namedtuple("Invariants", "type_seq order delta sigma deficiency")):
    """Type sequence, order, delta, sigma and deficiency of a pair or config."""

    __slots__ = ()


def scalar_invariants(p: RdpPair) -> Invariants:
    """Type sequence, order, delta, sigma, and deficiency of a single pair."""
    type_seq = type_of(p)
    if p.species == "A":
        order = (p.n + 1) // math.gcd(p.k, p.n + 1)
        delta = stci.exact.Fraction(p.k * (p.n - p.k + 1), p.n + 1)
    elif p.species == "Dn":
        order = 2 if p.n % 2 == 0 else 4
        delta = stci.exact.Fraction(p.n, 4)
    else:
        _, order, delta = _fixed(p.species)
    return Invariants(type_seq, order, delta, p.n, p.n - sum(type_seq))


def miyaoka_contribution(p: RdpPair) -> stci.exact.Fraction:
    """Quotient-singularity contribution (n+1) - 1/(n+1) = n(n+2)/(n+1),
    A-series only."""
    if p.species != "A":
        raise DomainError(
            f"miyaoka contribution is unsupported for species {p.species}: "
            "no group order is on record for D/E pairs"
        )
    return stci.exact.Fraction(p.n * (p.n + 2), p.n + 1)


def classified_pairs(max_param: int) -> Iterator[RdpPair]:
    """All canonical pairs with Dynkin index at most max_param, checked at the call."""
    top = integer(max_param, "max_param")
    return (RdpPair(species, n, k)
            for species, (least, fields) in _SPECIES.items()
            for n in range(least, (top if fields else min(least, top)) + 1)
            for k in (range(1, (n + 1) // 2 + 1) if fields == 2 else (0,)))


# ---------------------------------------------------------------------------
# configurations (finite multisets of pairs)

Config = tuple[RdpPair, ...]


def make_config(pairs: Iterable[RdpPair]) -> Config:
    return tuple(sorted(pairs))


def parse_config(text: str) -> Config:
    """Parse a configuration descriptor like "8*A:2:1 + A:3:1".

    More than MAX_PAIRS pairs in all is refused before the term that
    crosses the cap is classified.
    """
    s = text.strip()
    if not s:
        return ()
    out: list[RdpPair] = []
    for term in s.split("+"):
        term = term.strip()
        if not term:
            raise ParseError(f"empty term in configuration {echo(text)}")
        mult, pair_text = 1, term
        if "*" in term:
            mult_text, _, pair_text = term.partition("*")
            mult_text = mult_text.strip()
            mult = _decimal(mult_text, "multiplicity", mult_text, term)
            if mult < 1:
                raise ParseError(f"multiplicity must be >= 1 in {echo(term)}")
        if len(out) + mult > MAX_PAIRS:
            raise DomainError(
                f"a configuration holds at most {MAX_PAIRS} pairs, "
                f"got at least {echo(len(out) + mult)}"
            )
        out.extend([classify(pair_text.strip())] * mult)
    return make_config(out)


def format_config(config: Config) -> str:
    terms = []
    for pair, group in itertools.groupby(sorted(config)):
        m = len(list(group))
        terms.append(f"{m}*{format_pair(pair)}" if m > 1 else format_pair(pair))
    return " + ".join(terms)


def config_invariants(config: Iterable[RdpPair]) -> Invariants:
    """Invariants of a configuration in one pass: types add position by
    position (a sum of types is a type), order by lcm, the rest by sum."""
    members = [scalar_invariants(p) for p in config]
    type_seq = tuple(map(sum, itertools.zip_longest(*[m.type_seq for m in members], fillvalue=0)))
    order = math.lcm(*[m.order for m in members])
    delta = stci.exact.fraction_sum([m.delta for m in members])
    sigma = sum([m.sigma for m in members])
    return Invariants(type_seq, order, delta, sigma, sigma - sum(type_seq))


def config_miyaoka(config: Iterable[RdpPair]) -> stci.exact.Fraction:
    """Sum of the members' contributions; raises on D/E species."""
    return stci.exact.fraction_sum(map(miyaoka_contribution, config))
