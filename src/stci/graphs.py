"""Standard labeled graphs tracking strict transforms of rulings.

A graph starts as a single vertex k and grows by two operations, each
adding the vertex m+1 above the current maximum m:

* append ("+"): new edge (m, m+1);
* subdivide at l (an integer token, requires edge (l, m)): new edges
  (l, m+1) and (m, m+1), edge (l, m) removed.

Every standard graph is produced by a unique operation sequence, which
``decompose`` recovers from the edge set alone.  The multiplicity map mu
starts at 1 on the root and extends by mu(m+1) = mu(m) for "+" and
mu(m+1) = mu(m) + mu(l) for subdivision.  ``replay`` builds every graph
from its sequence; a graph grows by one operation as the replay of its
history plus that operation.

``strict_transform_class`` solves the triangular system relating total
and strict ruling transforms and returns the class of the strict
transform over the ruling basis R_1..R_n.  ``snort_check`` decides, in
one running-sum pass, whether an integer vector lies in the cone spanned
by R_n, R_{n-1}-R_n, ..., R_1 - R_2 - ... - R_n; ``cone_decompose``
returns the coordinates over those generators, which are the same
running sums.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .errors import DomainError, echo, integer

Op = str | int  # "+" or the subdivision vertex label

PLUS: Op = "+"


class LabeledGraph(namedtuple("LabeledGraph", "base top edges mu history")):
    """Standard labeled graph on the vertex interval [base, top].

    ``edges`` is a frozenset of (low, high) vertex pairs and ``mu[v - base]``
    the multiplicity of vertex v.  ``history``, a tuple of ops, replays
    from the single vertex ``base`` to exactly this graph.  Build
    instances with replay / from_parts.
    """

    __slots__ = ()


def replay(base: int, ops: Iterable[Op]) -> LabeledGraph:
    """Grow the single vertex ``base`` by ``ops``, freezing the result once."""
    m = integer(base, "base")
    edges: set[tuple[int, int]] = set()
    mu = [1]
    history = tuple(ops)
    for op in history:
        new = m + 1
        if op == PLUS:
            mu.append(mu[-1])
        elif (integer(op, "an operation other than '+'"), m) not in edges:
            at = echo(op)  # edges are stored low-high: no op >= m is ever found
            raise DomainError(f"subdivision at {at} requires edge ({at}, {echo(m)})")
        else:
            edges.remove((op, m))
            edges.add((op, new))
            mu.append(mu[-1] + mu[op - base])
        edges.add((m, new))
        m = new
    return LabeledGraph(base, m, frozenset(edges), tuple(mu), history)


def decompose(graph: LabeledGraph) -> tuple[Op, ...]:
    """Recover the unique operation sequence from the edge set alone.

    Raises DomainError if the edges do not form a standard labeled graph
    on [base, top].
    """
    return from_parts(graph.base, graph.top, graph.edges).history


def from_parts(base: int, top: int, edges: Iterable[Iterable[int]]) -> LabeledGraph:
    """Validate an externally supplied graph and rebuild its history/mu.

    Each edge is two distinct int vertices in [base, top].
    """
    if integer(top, "top") < integer(base, "base"):
        raise DomainError("empty vertex interval")
    try:
        edge_set = frozenset((min(a, b), max(a, b)) for a, b in edges)
    except (TypeError, ValueError):
        raise DomainError("bad edge: needs two integer vertices") from None
    # each operation adds one vertex and, net, one edge: top - base edges in all
    if len(edge_set) != top - base:
        raise DomainError(f"not a standard labeled graph: needs {echo(top - base)} edges")
    for a, b in edge_set:
        a, b = integer(a, "edge end"), integer(b, "edge end")
        if not base <= a < b <= top:
            raise DomainError(f"bad edge ({echo(a)}, {echo(b)})")
    # peel the top vertex off until base is left: each peel undoes one
    # operation, and every remaining edge at the top vertex points down
    adjacent: dict[int, set[int]] = {v: set() for v in range(base, top + 1)}
    for a, b in edge_set:
        adjacent[a].add(b)
        adjacent[b].add(a)
    ops: list[Op] = []
    for v in range(top, base, -1):
        nbrs = adjacent.pop(v)
        below = adjacent[v - 1]
        if nbrs == {v - 1}:
            ops.append(PLUS)
        elif len(nbrs) == 2 and (v - 1) in nbrs:
            (l,) = nbrs - {v - 1}
            if l in below:
                raise DomainError("not a standard labeled graph: undo collides")
            adjacent[l].remove(v)
            adjacent[l].add(v - 1)
            below.add(l)
            ops.append(l)
        else:
            raise DomainError("not a standard labeled graph: bad top neighborhood")
        below.remove(v)
    ops.reverse()
    # No edge comparison needed: each peel removed every edge at its vertex and
    # restored the one edge its operation consumes, and the count check leaves
    # no edge unpeeled, so replaying the operations rebuilds edge_set exactly.
    return replay(base, ops)


def truncate(graph: LabeledGraph) -> LabeledGraph:
    """Remove the smallest vertex, re-based as a standard graph.

    The history [+, base^[p], o_1..o_r] (o_1 != base) rewrites to
    [+^[p], o_1..o_r] when p >= 1, to [+, o_2..o_r] when p = 0 and r >= 1,
    and to the empty sequence otherwise.
    """
    hist = graph.history
    if not hist:
        raise DomainError("cannot truncate a single-vertex graph")
    if hist[0] != PLUS:
        raise DomainError("malformed history: first operation must be '+'")
    p = 0
    while 1 + p < len(hist) and hist[1 + p] == graph.base:
        p += 1
    rest = hist[1 + p:]
    if p >= 1:
        new_hist: tuple[Op, ...] = (PLUS,) * p + rest
    elif rest:
        new_hist = (PLUS,) + rest[1:]
    else:
        new_hist = ()
    return replay(graph.base + 1, new_hist)


def strict_transform_class(graph: LabeledGraph) -> tuple[int, ...]:
    """Class of the strict transform of the root ruling, over R_1..R_n.

    The graph must live on [k, n] with k >= 1.  Solves the triangular
    system R_l = sum_j mu_{G_l}(j) * [strict transform of R_j], where G_l
    runs over the iterated truncations.  The solution is R_k alone when
    k = n, otherwise R_k - R_{k+1} - ... - R_r, where r is the root's only
    neighbour.
    """
    n, k = graph.top, graph.base
    if k < 1:
        raise DomainError("ruling levels start at 1")

    truncations = [graph]
    for _ in range(k, n):
        truncations.append(truncate(truncations[-1]))

    # coefficient vectors over R_1..R_n, solved from level n downwards
    solved: dict[int, list[int]] = {}
    for l in range(n, k - 1, -1):
        g_l = truncations[l - k]
        vec = [0] * n
        vec[l - 1] = 1
        for j in range(l + 1, n + 1):
            m = g_l.mu[j - l]
            if m:
                for idx in range(n):
                    vec[idx] -= m * solved[j][idx]
        solved[l] = vec
    return tuple(solved[k])


# ---------------------------------------------------------------------------
# the ruling cone


class ConeCheck(namedtuple("ConeCheck", "feasible margins")):
    __slots__ = ()


def snort_check(a: Iterable[int]) -> ConeCheck:
    """Evaluate the dyadic inequalities sum_{i<k} 2^(k-i-1) a_i + a_k >= 0.

    The k-th margin is a_k + T_{k-1}, with the running sum T_0 = 0 and
    T_k = 2 T_{k-1} + a_k.
    """
    margins = []
    running = 0
    for x in a:
        x = integer(x, "ruling coefficient")
        margins.append(x + running)
        running = 2 * running + x
    return ConeCheck(all(m >= 0 for m in margins), tuple(margins))


def cone_decompose(a: Iterable[int]) -> tuple[int, ...] | None:
    """Coordinates of a over the cone generators, or None when infeasible.

    Generator g_k = R_k - R_{k+1} - ... - R_n, so the coordinates satisfy
    the recurrence c_k = a_k + c_1 + ... + c_{k-1}, whose partial sums
    double like snort_check's: c_k is the k-th dyadic margin.  Feasible
    means all c_k >= 0.
    """
    check = snort_check(a)
    return check.margins if check.feasible else None
