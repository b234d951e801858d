"""Shared builders for small weighted dual graphs used across the tests."""

import pytest
from hypothesis import strategies as st

from singlat import DualGraph, numeric_invariants


def chain(*weights, genera=None):
    """Path graph with the given self-intersections (genus 0 unless told)."""
    n = len(weights)
    if genera is None:
        genera = [0] * n
    vertices = list(zip(genera, weights))
    edges = [(i, i + 1) for i in range(n - 1)]
    return DualGraph(vertices, edges)


def star(center, arms):
    """Star graph: center = (genus, self_int), arms = lists of self-ints,
    each arm attached to the center at its first entry."""
    vertices = [center]
    edges = []
    for arm in arms:
        prev = 0
        for w in arm:
            idx = len(vertices)
            vertices.append((0, w))
            edges.append((prev, idx))
            prev = idx
    return DualGraph(vertices, edges)


def reference_quotient(g):
    """The quotient ``(col, rep, into)`` of g by its classes (see
    ``DualGraph``), collapsed from a per-curve adjacency built from
    ``g.edges``: the reference for the quotient every graph keeps."""
    adj = [{} for _ in range(g.n)]
    for i, j in g.edges:
        adj[i][j] = adj[i].get(j, 0) + 1
        adj[j][i] = adj[j].get(i, 0) + 1
    col = g.classes or range(g.n)
    last = dict(zip(col, range(g.n)))
    rep = [last[a] for a in range(len(last))]
    into = [{} for _ in rep]
    for b, v in enumerate(rep):
        for u, w in adj[v].items():
            a = col[u]
            into[a][b] = into[a].get(b, 0) + w
    return col, rep, into


def ordered_quotient(quo):
    """A quotient ``(col, rep, into)`` with each ``into`` row as its list of
    items, so that comparing two of them compares the key order too."""
    col, rep, into = quo
    return tuple(col), list(rep), [list(row.items()) for row in into]


def _vertex_bound(a):
    """Upper bound on the star graph's size: an alpha_w chain has < alpha_w curves."""
    inv = numeric_invariants(a)
    return 1 + sum(g * (al - 1) for g, al in zip(inv.ghat_i, inv.alpha_i))


# exponent tuples beyond the m <= 5, a_m <= 12 acceptance box, on graphs of
# at most 300 curves
wide_tuples = (
    st.lists(st.integers(min_value=2, max_value=40), min_size=3, max_size=5)
    .map(lambda xs: tuple(sorted(xs)))
    .filter(lambda a: a[-1] > 12 and _vertex_bound(a) <= 300)
)


@pytest.fixture
def e8():
    """The E8 graph, laid out as the (2,3,5) star: arms of length 1, 2, 4."""
    return star((0, -2), [[-2], [-2, -2], [-2, -2, -2, -2]])


@pytest.fixture
def a2():
    return chain(-2, -2)
