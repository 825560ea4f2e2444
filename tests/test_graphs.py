import itertools
import random
import re

import pytest

from oracles import (
    cone_solve,
    dyadic_margins,
    graph_order,
    neighbors,
    replay_step_by_step,
    spitup_decomposition,
    strict_transform_closed_form,
)
from stci import graphs
from stci.errors import ECHO_CAP, DomainError


def staircase(k, p):
    """History +, k^[p-1]: multiplicities 1, 1, 2, 3, ..., p."""
    return graphs.replay(k, ("+",) + (k,) * (p - 1))


def grow(g, op):
    """The graph g grown by one operation: its history replayed plus op."""
    return graphs.replay(g.base, g.history + (op,))


def random_graph(rng, base, max_ops):
    g = graphs.replay(base, ())
    for _ in range(rng.randint(0, max_ops)):
        m = g.top
        choices = ["+"] + sorted(l for l in neighbors(g, m) if l < m)
        g = grow(g, rng.choice(choices))
    return g


def test_plus_on_single_vertex():
    g = grow(graphs.replay(3, ()), "+")
    assert (g.base, g.top) == (3, 4)
    assert g.edges == frozenset({(3, 4)})
    assert g.mu == (1, 1)


def test_subdivision():
    g = graphs.replay(1, ("+", 1))
    assert g.edges == frozenset({(1, 3), (2, 3)})
    assert g.mu == (1, 1, 2)


def test_staircase_multiplicities():
    for p in range(1, 8):
        g = staircase(1, p)
        assert g.mu == (1,) + tuple(range(1, p + 1))


def test_subdivision_requires_edge():
    g = graphs.replay(1, ("+", "+"))  # vertex 1 is not adjacent to the top
    with pytest.raises(DomainError):
        grow(g, 1)
    with pytest.raises(DomainError):
        grow(graphs.replay(1, ()), 1)
    with pytest.raises(DomainError):
        grow(g, "L")
    # a bool is not a vertex label, though True == 1
    with pytest.raises(DomainError, match="^an operation other than '\\+' must be an int, got True$"):
        graphs.replay(1, ("+", True))


@pytest.mark.parametrize("base", [True, 1.5, "1"], ids=["bool", "float", "str"])
def test_replay_refuses_a_base_that_is_not_an_int(base):
    # True would become the vertex of an edge (True, 2) that decompose refuses,
    # 1.5 a graph on float vertices, "1" a bare TypeError at "1" + 1
    message = f"^base must be an int, got {re.escape(repr(base))}$"
    with pytest.raises(DomainError, match=message):
        graphs.replay(base, ["+"])
    with pytest.raises(DomainError, match=message):
        replay_step_by_step(base, ["+"])


def _random_op(rng, base, ops, noise):
    """With probability ``noise`` any label near the vertex range or a token
    that is not an operation, else '+' or a label valid on the grown graph."""
    m = base + len(ops)
    if rng.random() < noise:
        return rng.choice([rng.randint(base - 3, m + 3), "x", 2.0, True])
    roll = rng.random()
    if roll < 0.4:
        return "+"
    if roll < 0.7 and ops and isinstance(ops[-1], int):
        return ops[-1]  # subdividing at l left the edge (l, m)
    return m - 1 if m > base else "+"  # the top is always adjacent to m - 1


def _outcome(build, base, ops):
    try:
        return build(base, ops)
    except DomainError as exc:
        return str(exc)


def test_replay_matches_step_by_step_builder():
    rng = random.Random(11)
    built = 0
    for _ in range(4000):
        base = rng.randint(-3, 5)
        noise = rng.choice((0, 0.03, 0.1, 0.5))
        ops = []
        for _ in range(rng.randint(0, 30)):
            ops.append(_random_op(rng, base, ops, noise))
        want = _outcome(replay_step_by_step, base, ops)
        assert _outcome(graphs.replay, base, ops) == want, (base, ops)
        if not isinstance(want, str):
            built += 1
            op = _random_op(rng, base, ops, 0.5)
            grown = _outcome(grow, want, op)
            assert grown == _outcome(replay_step_by_step, base, ops + [op]), (base, ops, op)
    assert 1000 < built < 3000  # both outcomes are common


def test_decompose_examples():
    assert graphs.decompose(graphs.replay(5, ())) == ()
    g = staircase(2, 5)
    assert graphs.decompose(g) == ("+", 2, 2, 2, 2)


def test_decompose_rejects_non_standard():
    # a 3-cycle is not standard: the undo would re-create an existing edge
    with pytest.raises(DomainError):
        graphs.from_parts(1, 3, [(1, 2), (2, 3), (1, 3)])
    # disconnected pair
    with pytest.raises(DomainError):
        graphs.from_parts(1, 2, [])
    # top vertex attached too low
    with pytest.raises(DomainError):
        graphs.from_parts(1, 3, [(1, 2), (1, 3)])


def test_from_parts_roundtrip():
    g = graphs.replay(1, ("+", 1, "+", 3))
    rebuilt = graphs.from_parts(1, g.top, [list(e) for e in g.edges])
    assert rebuilt == g


def test_from_parts_counts_edges_before_building():
    # a standard graph on [base, top] has top - base edges; a graph of
    # this size built before that check would allocate or overflow
    for top in (10**7, 10**18, 10**30):
        with pytest.raises(DomainError, match="needs"):
            graphs.from_parts(1, top, [])
    # the right count is not enough: an undo that re-creates an edge, and
    # a top vertex with no neighbours
    with pytest.raises(DomainError, match="undo collides"):
        graphs.from_parts(1, 4, [(3, 4), (1, 4), (1, 3)])
    with pytest.raises(DomainError, match="bad top neighborhood"):
        graphs.from_parts(1, 4, [(1, 2), (2, 3), (1, 3)])


def test_from_parts_refuses_malformed_edges():
    # an edge is two integers, and a bool is not a vertex
    for edges in ([(1, 2, 3), (2, 3)], [(1,), (2, 3)], [5, (2, 3)], [(1, "x"), (2, 3)]):
        with pytest.raises(DomainError, match="^bad edge: needs two integer vertices$"):
            graphs.from_parts(1, 3, edges)
    # both ends are checked, also when the lower one is an int out of range
    ends = [(("a", "b"), "'a'"), ((True, 2), "True"), ((0, 2.5), "2.5"),
            (("y" * 99, "x" * 100), "<100 characters>")]
    for edge, end in ends:
        with pytest.raises(DomainError, match=f"^edge end must be an int, got {re.escape(end)}$"):
            graphs.from_parts(1, 3, [edge, (2, 3)])
    with pytest.raises(DomainError, match=r"^bad edge \(2, <5001 digits>\)$"):
        graphs.from_parts(1, 3, [(10**5000, 2), (2, 3)])


def test_from_parts_replays_once(monkeypatch):
    g = graphs.replay(1, ("+", 1, "+", 3))
    calls = []
    replay = graphs.replay
    monkeypatch.setattr(graphs, "replay", lambda base, ops: calls.append(base) or replay(base, ops))
    assert graphs.from_parts(1, g.top, g.edges) == g
    assert len(calls) == 1
    assert graphs.decompose(g) == g.history
    assert len(calls) == 2


def test_graph_order():
    assert graph_order(graphs.replay(1, ("+",))) == 1
    assert graph_order(graphs.replay(1, ("+", "+"))) == 1
    assert graph_order(graphs.replay(1, ("+", 1, 1))) == 3
    with pytest.raises(DomainError):
        graph_order(graphs.replay(1, ()))


def test_truncate_matches_vertex_deletion():
    rng = random.Random(3)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 4), 10)
        if g.top == g.base:
            continue
        t = graphs.truncate(g)
        assert t.base == g.base + 1 and t.top == g.top
        assert t.edges == frozenset(e for e in g.edges if g.base not in e)


def test_spitup_identity():
    for p in range(1, 7):
        g = staircase(1, p)
        parts = spitup_decomposition(g)
        assert len(parts) == graph_order(g) == p
        total = [0] * (g.top - g.base + 1)
        total[0] = 1
        for part in parts:
            for v in range(part.base, part.top + 1):
                total[v - g.base] += part.mu[v - part.base]
        assert tuple(total) == g.mu


def test_strict_transform_class_examples():
    assert graphs.strict_transform_class(graphs.replay(3, ())) == (0, 0, 1)
    assert graphs.strict_transform_class(graphs.replay(2, ("+",))) == (0, 1, -1)
    assert graphs.strict_transform_class(graphs.replay(1, ("+", 1))) == (1, -1, -1)


def test_strict_transform_class_validation():
    with pytest.raises(DomainError):
        graphs.strict_transform_class(graphs.replay(0, ()))


def test_strict_transform_block_ends_at_order():
    # R_k first, then a contiguous block of -1 entries from R_{k+1} to R_r
    # with r = k + graph_order; the closed form reads r off the root's edges
    rng = random.Random(5)
    for _ in range(3000):
        g = random_graph(rng, rng.randint(1, 5), 14)
        vec = graphs.strict_transform_class(g)
        assert vec == strict_transform_closed_form(g), g.history
        k, n = g.base, g.top
        r = k if n == k else k + graph_order(g)
        expected = tuple(
            1 if i == k - 1 else (-1 if k <= i < r else 0) for i in range(n)
        )
        assert vec == expected, g.history


def test_snort_examples():
    check = graphs.snort_check((0, 0, 0))
    assert check.feasible and check.margins == (0, 0, 0)
    check = graphs.snort_check((1, -1, -7))
    assert not check.feasible
    assert check.margins == (1, 0, -6)
    check = graphs.snort_check((1, -1, 0))
    assert check.feasible and check.margins == (1, 0, 1)
    assert graphs.snort_check(()).feasible


def test_cone_decompose_examples():
    assert graphs.cone_decompose((0, 0, 0)) == (0, 0, 0)
    assert graphs.cone_decompose((1, -1, -7)) is None
    assert graphs.cone_decompose((1, -1, 0)) == (1, 0, 1)


def test_cone_reconstruction():
    # a_j = c_j - sum_{k<j} c_k reconstructs the input from the coordinates
    rng = random.Random(9)
    for _ in range(300):
        a = tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 8)))
        coords = graphs.cone_decompose(a)
        check = graphs.snort_check(a)
        assert check.margins == dyadic_margins(a)
        assert coords == cone_solve(a)
        assert (coords is not None) == check.feasible
        if coords is not None:
            assert coords == check.margins
            rebuilt = tuple(
                coords[j] - sum(coords[:j]) for j in range(len(coords))
            )
            assert rebuilt == a


def test_from_parts_accepts_exactly_standard_graphs():
    # every edge set with top - base edges on 1..7 vertices; other counts
    # are refused by the count check alone
    base = 1
    grown = {graphs.replay(base, ())}
    for size, count in enumerate((1, 1, 2, 5, 13, 34, 89), start=1):
        top = base + size - 1
        standard = {g.edges for g in grown}
        assert len(standard) == count
        accepted = set()
        pairs = itertools.combinations(range(base, top + 1), 2)
        for edges in itertools.combinations(list(pairs), size - 1):
            try:
                graph = graphs.from_parts(base, top, edges)
            except DomainError:
                continue
            assert graph.edges == frozenset(edges)
            assert graph == graphs.replay(base, graph.history)
            accepted.add(graph.edges)
        assert accepted == standard
        grown = {
            grow(g, op)
            for g in grown
            for op in ["+"] + sorted(neighbors(g, g.top))
        }


def test_refusals_name_the_bad_vertex_edge_or_history():
    graph = graphs.replay(0, [graphs.PLUS, 0])
    assert graph.mu == (1, 1, 2)
    with pytest.raises(DomainError, match="^empty vertex interval$"):
        graphs.from_parts(3, 2, [])
    for edge in ((0, 0), (0, 2), (-1, 0)):
        with pytest.raises(DomainError, match=rf"^bad edge \({min(edge)}, {max(edge)}\)$"):
            graphs.from_parts(0, 1, [edge])
    with pytest.raises(DomainError, match=rf"^bad edge \(0, <{ECHO_CAP + 41} digits>\)$"):
        graphs.from_parts(0, 1, [(0, 10 ** (ECHO_CAP + 40))])
    with pytest.raises(DomainError, match="^cannot truncate a single-vertex graph$"):
        graphs.truncate(graphs.replay(5, []))
    # replay never starts a history with a subdivision; a record built
    # directly can
    malformed = graphs.LabeledGraph(0, 1, frozenset({(0, 1)}), (1, 1), (0,))
    with pytest.raises(DomainError, match="^malformed history: first operation must be '\\+'$"):
        graphs.truncate(malformed)
