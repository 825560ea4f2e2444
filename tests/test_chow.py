import random
from collections import deque
from decimal import Decimal
from fractions import Fraction

import pytest

from oracles import CycleClass, context_alpha
from oracles import mul_term_by_term as mul
from stci import chow
from stci.errors import DomainError, echo


def quartic_ctx(p=(8, 8, 8, 0)):
    return chow.make_context(4, 0, chow.beta_from_p(4, 4, 0, p))


def cls(ctx, c0=0, h=0, e=(), h2=0, r=(), pt=0):
    """The class with these coefficients; e and r are zero-padded to n levels."""
    pad = (0,) * ctx.n
    return CycleClass(ctx, c0, h, tuple(e) + pad[len(e):], h2, tuple(r) + pad[len(r):], pt)


def level(k, coeff=1):
    """coeff at level k (from 1) and 0 below it, as the e or r of ``cls``."""
    return (0,) * (k - 1) + (coeff,)


def add(x, y):
    """Componentwise sum of two classes of one context."""
    return CycleClass(
        x.ctx,
        x.c0 + y.c0,
        x.h + y.h,
        tuple(a + b for a, b in zip(x.e, y.e)),
        x.h2 + y.h2,
        tuple(a + b for a, b in zip(x.r, y.r)),
        x.pt + y.pt,
    )


def test_make_context_examples():
    ctx = chow.make_context(4, 0, (-6, -6, -6))
    assert context_alpha(ctx) == (-14, -8, -2, 4)
    assert ctx.n == 3
    assert context_alpha(chow.make_context(1, 0, ())) == (-2,)
    assert context_alpha(chow.make_context(3, 0, (0,))) == (-10, -10)


def test_context_keeps_its_inputs_and_derives_alpha():
    ctx = chow.BlowupContext(4, 0, [1, 2])
    assert ctx.beta == (1, 2) and type(ctx.beta) is tuple
    assert chow.make_context(4, 0, iter([1, 2])) == ctx
    # _replace skips the checks, and st_expansion reads alpha off beta
    replaced = ctx._replace(beta=(5, 5))
    fresh = chow.BlowupContext(4, 0, (5, 5))
    assert context_alpha(replaced) == context_alpha(fresh) == (-14, -19, -24)
    assert chow.st_expansion(4, 4, replaced) == chow.st_expansion(4, 4, fresh)
    assert chow.st_expansion(4, 4, replaced).a == (-23, -23)


def test_st_expansion_of_a_context_with_no_levels():
    # the loop over the levels runs no step: no ruling coefficients, and
    # the H^2 coefficient is s*t
    assert chow.st_expansion(2, 3, chow.BlowupContext(1, 0, ())) == chow.StExpansion(6, ())


def test_context_validation():
    with pytest.raises(DomainError):
        chow.make_context(0, 0, ())
    with pytest.raises(DomainError):
        chow.make_context(1, -1, ())


def test_beta_from_p_examples():
    assert chow.beta_from_p(4, 4, 0, (8, 8, 8)) == (-6, -6, -6)
    assert chow.beta_from_p(1, 1, 0, (0,)) == (-1,)
    assert chow.beta_from_p(4, 4, 0, (0, 0, 0)) == (2, 2, 2)
    with pytest.raises(DomainError):
        chow.beta_from_p(0, 4, 0, ())


def test_basis_products():
    ctx = quartic_ctx()
    zero, h = cls(ctx), cls(ctx, h=1)
    e1, e2, e3 = (cls(ctx, e=level(k)) for k in (1, 2, 3))
    assert mul(mul(h, h), h) == cls(ctx, pt=1)
    assert mul(h, cls(ctx, r=level(2))) == zero
    assert mul(cls(ctx, h2=1), e1) == zero
    assert mul(e1, cls(ctx, r=level(1))) == cls(ctx, pt=-1)
    assert mul(e1, cls(ctx, r=level(2))) == zero
    assert mul(h, e3) == cls(ctx, r=level(3, 4))
    # E_i E_j = -beta_i R_j for i < j; here beta = (-6, -6, -6, 2)
    assert mul(e1, e2) == cls(ctx, r=level(2, 6))
    assert mul(e2, e1) == cls(ctx, r=level(2, 6))


def test_square_rule():
    ctx = chow.make_context(4, 0, chow.beta_from_p(4, 4, 0, (8, 8, 8)))
    e1 = cls(ctx, e=level(1))
    assert mul(e1, e1) == cls(ctx, h2=-4, r=(14,))
    # E_3^2 = -d H^2 - alpha_2 R_3 - beta_1 R_1 - beta_2 R_2, beta = (-6, -6, -6)
    e3 = cls(ctx, e=level(3))
    assert mul(e3, e3) == cls(ctx, h2=-4, r=(6, 6, 2))


def test_degree_grading():
    ctx = quartic_ctx()
    zero, h, h2, pt = cls(ctx), cls(ctx, h=1), cls(ctx, h2=1), cls(ctx, pt=1)
    assert mul(h2, h2) == zero
    assert mul(cls(ctx, r=level(1)), cls(ctx, r=level(2))) == zero
    assert mul(pt, h) == zero
    assert mul(pt, pt) == zero
    assert mul(mul(h, h), h2) == zero
    assert mul(cls(ctx, c0=1), pt) == pt
    assert mul(cls(ctx, c0=3), h) == cls(ctx, h=3)


def _random_class(rng, ctx):
    n = ctx.n
    return CycleClass(
        ctx,
        rng.randint(-4, 4),
        rng.randint(-4, 4),
        tuple(rng.randint(-4, 4) for _ in range(n)),
        rng.randint(-4, 4),
        tuple(rng.randint(-4, 4) for _ in range(n)),
        rng.randint(-4, 4),
    )


def surface(deg, k, ctx):
    """deg*H minus the first k exceptional classes."""
    return cls(ctx, h=deg, e=(-1,) * k)


def test_st_expansion_matches_oracle_product():
    # any context: n = 0, n != st/d (nearly every draw), s or t <= 0, beta < 0
    rng = random.Random(8)
    for n in [0, 0, 1] + [rng.randint(0, 30) for _ in range(1200)]:
        d, g = rng.randint(1, 8), rng.randint(0, 5)
        s, t = rng.randint(-10, 40), rng.randint(-10, 40)
        ctx = chow.make_context(d, g, tuple(rng.randint(-50, 50) for _ in range(n)))
        product = mul(surface(s, n, ctx), surface(t, n, ctx))
        assert chow.st_expansion(s, t, ctx) == (product.h2, product.r), (s, t, ctx)


def test_surface_product_at_n256_matches_oracle_and_closed_form():
    rng = random.Random(256)
    s, t, d, g = 32, 24, 3, 2
    n = chow.multiplicity(s, t, d, g)
    assert n == 256
    p = tuple(rng.randint(0, 200) for _ in range(n))
    ctx = chow.make_context(d, g, chow.beta_from_p(s, d, g, p))
    expansion = chow.st_expansion(s, t, ctx)
    product = mul(surface(s, n, ctx), surface(t, n, ctx))
    assert expansion == (product.h2, product.r)
    assert expansion.h2_coeff == 0
    closed = tuple(chow.a_closed_form(s, t, d, g, p, m) for m in range(1, n + 1))
    assert expansion.a == closed


def test_mul_commutative_associative():
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(1, 6)
        g = rng.randint(0, 4)
        n = rng.randint(1, 6)
        ctx = chow.make_context(d, g, tuple(rng.randint(-9, 9) for _ in range(n)))
        x, y, z = (_random_class(rng, ctx) for _ in range(3))
        assert mul(x, y) == mul(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


def test_surface_class():
    ctx = quartic_ctx()
    assert surface(4, 0, ctx) == cls(ctx, h=4)
    assert surface(4, 2, ctx) == cls(ctx, h=4, e=(-1, -1))


def test_st_expansion_theorem_one_case():
    ctx = quartic_ctx((8, 8, 8, 0))
    expansion = chow.st_expansion(4, 4, ctx)
    assert expansion.h2_coeff == 0
    assert expansion.a == (0, 0, 0, 0)


def test_st_expansion_general_case():
    ctx = quartic_ctx((9, 8, 2, 0))
    expansion = chow.st_expansion(4, 4, ctx)
    assert expansion.h2_coeff == 0
    assert expansion.a == (3, 1, -5, -5)
    closed = tuple(chow.a_closed_form(4, 4, 4, 0, (9, 8, 2), m) for m in range(1, 5))
    assert closed == expansion.a


def test_st_expansion_small_case():
    p = (1, 0)
    ctx = chow.make_context(3, 0, chow.beta_from_p(2, 3, 0, p))
    expansion = chow.st_expansion(2, 3, ctx)
    assert expansion.h2_coeff == 0
    assert expansion.a == (0, 0)
    assert chow.a_closed_form(2, 3, 3, 0, (1,), 1) == 0
    assert chow.a_closed_form(2, 3, 3, 0, (1,), 2) == 0


def test_h2_bookkeeping_off_multiplicity():
    # with fewer blowup levels than s*t/d the H^2 coefficient survives
    ctx = chow.make_context(4, 0, chow.beta_from_p(4, 4, 0, (8, 8, 8)))
    assert chow.st_expansion(4, 4, ctx).h2_coeff == 16 - 3 * 4


def test_a_closed_form_errors():
    with pytest.raises(DomainError):
        chow.a_closed_form(3, 3, 4, 0, (), 1)
    with pytest.raises(DomainError):
        chow.a_closed_form(4, 4, 4, 0, (), 5)
    # the index is checked before the length of p, and a p longer than n
    # gets pad_p's message, byte for byte
    long_p = (1, 2, 3, 4, 5)
    with pytest.raises(DomainError) as info:
        chow.a_closed_form(4, 4, 4, 0, long_p, 5)
    assert str(info.value) == "index m=5 outside 1..4"
    with pytest.raises(DomainError) as info:
        chow.a_closed_form(4, 4, 4, 0, long_p, 1)
    assert str(info.value) == "p must have at most 4 entries, got 5"
    with pytest.raises(DomainError) as padded:
        chow.pad_p(long_p, 4)
    assert str(padded.value) == str(info.value)


def test_pad_p_refuses_a_negative_length():
    # the length is checked first, so the message names it, not p
    for p in ((), (1,)):
        with pytest.raises(DomainError, match=r"^pad length must be >= 0, got -3$"):
            chow.pad_p(p, -3)
    assert chow.pad_p((), 0) == ()


@pytest.mark.parametrize(
    "entry", [9.5, Fraction(9), Decimal(9), "9"], ids=["float", "Fraction", "Decimal", "str"]
)
def test_a_closed_form_refuses_entries_that_are_not_ints(entry):
    # p_m is checked, and an entry before it through the sum it leaves
    # (a non-int sum, or none for a str), which the refusal names; the same
    # entry passes unread past p_m
    for p, m in [((entry, 8, 2), 1), ((entry, 8, 2), 3), ((9, entry, 2), 4)]:
        with pytest.raises(DomainError) as info:
            chow.a_closed_form(4, 4, 4, 0, p, m)
        assert str(info.value) == f"p entry must be an int, got {echo(entry)}"
    assert chow.a_closed_form(4, 4, 4, 0, (9, 8, entry), 2) == 1


class SliceMissingDict(dict):
    """A dict whose slice reads miss with a KeyError, as every dict's do
    from Python 3.12 on, where slices are hashable."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            raise KeyError(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("p, kind", [(iter([9, 8, 2]), "list_iterator"), ({1, 2}, "set"),
                                     ({0: 9, 1: 8}, "dict"), (SliceMissingDict({0: 9}), "SliceMissingDict"),
                                     (deque([9, 8]), "deque"), (None, "NoneType")])
def test_p_that_is_not_a_sequence_is_refused(p, kind):
    # both read p's length and a slice before anything else: a p with no
    # length or no slices gets a DomainError naming p, not a TypeError or
    # a KeyError
    message = f"p must support len() and slicing, got {kind}"
    calls = [
        lambda: chow.pad_p(p, 3),
        lambda: chow.a_closed_form(4, 4, 4, 0, p, 1),
        lambda: chow.a_closed_form(4, 4, 4, 0, p, 4),
    ]
    for call in calls:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


def test_expansion_matches_closed_form_random():
    # p has 0..n entries: a_closed_form reads p unpadded, a tuple or a list,
    # and st_expansion the context of p zero-padded to n entries, so every
    # m past the end of p is compared too; n = 256 in 6 of the draws
    rng = random.Random(11)
    for trial in range(60):
        d = rng.randint(1, 6)
        n = 256 if trial % 10 == 0 else rng.randint(2, 8)
        st = n * d
        divisors = [s for s in range(1, st + 1) if st % s == 0]
        s = rng.choice(divisors)
        t = st // s
        g = rng.randint(0, 4)
        p = [rng.randint(0, 25) for _ in range(rng.randint(0, n))]
        padded = tuple(p) + (0,) * (n - len(p))
        ctx = chow.make_context(d, g, chow.beta_from_p(s, d, g, padded))
        expansion = chow.st_expansion(s, t, ctx)
        p = p if trial % 2 else tuple(p)
        closed = tuple(
            chow.a_closed_form(s, t, d, g, p, m) for m in range(1, n + 1)
        )
        assert expansion.a == closed, (s, t, d, g, p)
        assert expansion.h2_coeff == 0
