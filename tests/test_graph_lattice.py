"""Intersection theory on weighted dual graphs: construction, pairing,
anti-nef cycles, Laufer's algorithm, adjunction, definiteness."""

import heapq
import json
import math
import re
import signal
import time
from fractions import Fraction
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singlat import (
    DimensionError,
    DomainError,
    DualGraph,
    InternalError,
    ResourceError,
    arithmetic_genus,
    canonical_qcycle,
    cycle_products,
    dual_graph,
    fundamental_cycle,
    intersection_number,
    is_anti_nef,
    is_negative_definite,
    to_dot,
)
from singlat import graph_lattice, ideal_oracle
from singlat.brieskorn import ChainFamily, StarGraph
from singlat.graph_lattice import Quotient
from conftest import (
    DeadlineExceeded, chain, deadline, ordered_quotient, per_curve, reference_quotient, star,
    star_layout_mismatches, wide_tuples,
)

# Laufer's sequence has no step bound, so a wrong definiteness verdict would
# loop forever; every test here fails after two minutes instead
pytestmark = pytest.mark.deadline(120)

E8_ROOT = (6, 3, 4, 2, 5, 4, 3, 2)  # highest root in the (2,3,5) star layout
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# ---------------------------------------------------------------- construction

def test_vertex_validation():
    with pytest.raises(DomainError):
        DualGraph([], [])
    with pytest.raises(DomainError):
        DualGraph([(-1, -2)], [])  # negative genus
    with pytest.raises(DomainError):
        DualGraph([(0, -2.0)], [])  # non-integer weight
    DualGraph([(0, -2)], [])  # fine


def test_edge_validation():
    with pytest.raises(DomainError):
        DualGraph([(0, -2), (0, -2)], [(0, 0)])  # self-loop
    with pytest.raises(DomainError):
        DualGraph([(0, -2), (0, -2)], [(0, 2)])  # out of range
    with pytest.raises(DomainError):
        DualGraph([(0, -2), (0, -2)], [])  # disconnected
    with pytest.raises(DomainError):
        DualGraph([(0, -2), (0, -2)], [(0.0, 1)])  # float endpoint
    with pytest.raises(DomainError):
        DualGraph([(0, -2), (0, -2)], [("0", 1)])  # string endpoint
    doc = {"vertices": [{"genus": 0, "self_int": -2}] * 2, "edges": [[0.2, 1.9]]}
    with pytest.raises(DomainError):
        DualGraph.from_json_dict(doc)  # not truncated to the edge (0, 1)


def test_multi_edges_allowed():
    g = DualGraph([(0, -2), (0, -2)], [(0, 1), (0, 1)])
    assert intersection_number(g, (1, 0), (0, 1)) == 2
    # that cycle squares to zero, so the form is not definite
    assert intersection_number(g, (1, 1), (1, 1)) == 0
    assert not is_negative_definite(g)


def test_equality_and_serialization(e8):
    doc = e8.to_json_dict()
    back = DualGraph.from_json_dict(doc)
    assert back == e8
    assert hash(back) == hash(e8)
    assert back.to_json_dict() == doc
    assert doc["vertices"][0] == {"genus": 0, "self_int": -2}
    # the classes are not part of the graph's identity
    d4 = star((0, -2), [[-2]] * 3)
    h = DualGraph.from_star((0, -2), [(3, [-2])])
    assert h.quotient.sizes == (1, 3) and d4.quotient.spans is None
    assert h == d4 and hash(h) == hash(d4)
    assert h.to_json_dict() == d4.to_json_dict()
    assert DualGraph.from_json_dict(h.to_json_dict()).quotient.spans is None


def test_edge_order_does_not_matter():
    g1 = DualGraph([(0, -2), (0, -3), (1, -2)], [(0, 1), (1, 2)])
    g2 = DualGraph([(0, -2), (0, -3), (1, -2)], [(2, 1), (1, 0)])
    assert g1 == g2


# --------------------------------------------------------------------- pairing

def test_intersection_fixtures(e8, a2):
    assert intersection_number(e8, E8_ROOT, E8_ROOT) == -2
    assert intersection_number(a2, (1, 1), (1, 1)) == -2
    assert intersection_number(a2, (1, 0), (0, 1)) == 1
    q = tuple(Fraction(v, 2) for v in E8_ROOT)
    assert intersection_number(e8, q, q) == Fraction(-1, 2)


def test_cycle_products_match_basis_pairings(e8):
    prods = cycle_products(e8, E8_ROOT)
    for i in range(e8.n):
        basis = tuple(1 if j == i else 0 for j in range(e8.n))
        assert prods[i] == intersection_number(e8, E8_ROOT, basis)


def test_cycle_length_mismatch(a2):
    with pytest.raises(DimensionError):
        intersection_number(a2, (1,), (1, 1))
    with pytest.raises(DimensionError):
        cycle_products(a2, (1, 1, 1))


def test_anti_nef(e8, a2):
    assert is_anti_nef(e8, E8_ROOT)
    assert is_anti_nef(a2, (1, 1))
    assert is_anti_nef(a2, (2, 1))  # products (-3, 0)
    assert not is_anti_nef(a2, (1, 0))  # pairs +1 against the other vertex
    assert is_anti_nef(a2, (0, 0))


# ------------------------------------------------------------ fundamental cycle

def test_fundamental_cycle_e8(e8):
    zf = fundamental_cycle(e8)
    assert zf == E8_ROOT
    assert is_anti_nef(e8, zf)
    assert arithmetic_genus(e8, zf) == 0


def test_fundamental_cycle_chains():
    for n in range(1, 7):
        g = chain(*([-2] * n))
        assert fundamental_cycle(g) == (1,) * n


def test_fundamental_cycle_d4():
    g = star((0, -2), [[-2], [-2], [-2]])
    assert fundamental_cycle(g) == (2, 1, 1, 1)


def test_fundamental_cycle_minimality(e8):
    """Dropping any vertex with coefficient > 1 must break anti-nefness."""
    zf = fundamental_cycle(e8)
    for i in range(e8.n):
        if zf[i] > 1:
            smaller = tuple(v - (1 if j == i else 0) for j, v in enumerate(zf))
            assert not is_anti_nef(e8, smaller)


def test_fundamental_cycle_needs_definiteness():
    g = DualGraph([(0, 0)], [])
    with pytest.raises(DomainError):
        fundamental_cycle(g)
    assert not is_negative_definite(g)


# ---------------------------------------------------------------- definiteness

def test_definiteness_fixtures(e8, a2):
    assert is_negative_definite(e8)
    assert is_negative_definite(a2)
    assert is_negative_definite(DualGraph([(3, -1)], []))
    assert not is_negative_definite(DualGraph([(0, 1)], []))
    assert not is_negative_definite(DualGraph([(0, 0)], []))
    # two -1 curves meeting once: determinant 1 - 1 = 0, semidefinite
    assert not is_negative_definite(chain(-1, -1))


# ------------------------------------------------------------------- adjunction

def test_canonical_qcycle_e8(e8):
    assert canonical_qcycle(e8) == (Fraction(0),) * 8


def test_canonical_qcycle_star_346():
    g = star((1, -2), [[-2], [-2], [-2]])
    assert canonical_qcycle(g) == (Fraction(4), Fraction(2), Fraction(2), Fraction(2))


def test_canonical_qcycle_fractional():
    g = DualGraph([(0, -3)], [])
    assert canonical_qcycle(g) == (Fraction(1, 3),)


def test_canonical_qcycle_singular_graph():
    with pytest.raises(DomainError):
        canonical_qcycle(DualGraph([(0, 0)], []))


def test_results_are_cached_on_the_graph(e8):
    zk, zf = canonical_qcycle(e8), fundamental_cycle(e8)
    assert canonical_qcycle(e8) is zk
    assert fundamental_cycle(e8) is zf
    assert isinstance(zk, tuple) and isinstance(zf, tuple)


def test_singular_graph_raises_on_every_call():
    for g in (
        chain(-1, -1),
        DualGraph([(0, -2), (0, -2)], [(0, 1), (0, 1)]),
        # indefinite with determinant -1: a unique Z_K exists, but the form
        # is not that of a resolution graph
        DualGraph([(0, 0), (0, -2)], [(0, 1)]),
        # positive definite, and indefinite with a positive pivot first
        DualGraph([(0, 1)]),
        DualGraph([(0, 2), (0, -3)], [(0, 1)]),
    ):
        for _ in range(3):
            with pytest.raises(
                DomainError, match="^canonical cycle needs a negative-definite graph$"
            ):
                canonical_qcycle(g)
            assert not is_negative_definite(g)


def test_one_elimination_per_graph(monkeypatch):
    calls = []
    real = Quotient._solve

    def counting(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(Quotient, "_solve", counting)
    good = star((0, -2), [[-2], [-2, -2], [-2, -2, -2, -2]])
    bad = chain(-1, -1)
    for _ in range(2):
        is_negative_definite(good)
        canonical_qcycle(good)
        fundamental_cycle(good)
        is_negative_definite(bad)
        with pytest.raises(DomainError):
            canonical_qcycle(bad)
        with pytest.raises(DomainError):
            fundamental_cycle(bad)
    assert len(calls) == 2
    assert calls[0] is good.quotient and calls[1] is bad.quotient


@pytest.mark.parametrize("first", [fundamental_cycle, canonical_qcycle, is_negative_definite])
def test_one_quotient_per_graph(first):
    """A plain graph and a star from ``from_star`` both hold their quotient
    from construction, and every entry point leaves that one object in
    place, with its content and key order unchanged, whichever of the
    elimination and Laufer's sequence is asked first."""
    plain = star((0, -2), [[-2], [-2, -2], [-2, -2, -2, -2]])
    kept = DualGraph.from_star((0, -4), [(3, [-3]), (2, [-2, -2])])
    for g in (plain, kept):
        quo = g.quotient
        assert quo is not None
        content = ordered_quotient(quo)
        entries = [first, is_negative_definite, canonical_qcycle, fundamental_cycle,
                   lambda g: cycle_products(g, (1,) * g.n),
                   lambda g: is_anti_nef(g, (1,) * g.n),
                   lambda g: intersection_number(g, (1,) * g.n, (1,) * g.n),
                   lambda g: arithmetic_genus(g, (1,) * g.n)]
        for entry in entries * 2:
            entry(g)
            assert g.quotient is quo
            assert ordered_quotient(quo) == content


def test_a_star_serves_every_entry_point():
    """A star from ``from_star`` answers the whole public surface of a
    graph: the cached solves, the pairings, equality, hashing, the JSON
    round trip and the Graphviz rendering."""
    def build():
        return DualGraph.from_star((1, -3), [(4, [-2, -3]), (2, [-5])])

    g = build()
    zf = fundamental_cycle(g)
    assert is_negative_definite(g)
    zk = canonical_qcycle(g)
    assert isinstance(arithmetic_genus(g, zf), int)
    assert intersection_number(g, zf, zk) == intersection_number(g, zk, zf)
    assert g == build() and hash(g) == hash(build())
    assert DualGraph.from_json_dict(g.to_json_dict()) == g
    assert to_dot(g).count("--") == len(g.edges)
    assert is_anti_nef(g, zf)
    assert cycle_products(build(), zf) == cycle_products(g, zf)


def test_canonical_qcycle_solves_adjunction(e8):
    g = star((2, -3), [[-2, -3], [-4], [-2, -2, -5]])
    zk = canonical_qcycle(g)
    for i in range(g.n):
        basis = tuple(1 if j == i else 0 for j in range(g.n))
        want = g.self_ints[i] + 2 - 2 * g.genera[i]
        assert intersection_number(g, zk, basis) == want


# -------------------------------------------------------------- arithmetic genus

@pytest.mark.parametrize("c", [Fraction(1, 2), 1.5, Fraction(2)])
def test_arithmetic_genus_refuses_a_cycle_that_is_not_integral(c):
    with pytest.raises(DomainError, match="integral cycle"):
        arithmetic_genus(dual_graph((2, 3, 5)).graph, (c,) * 8)


def test_arithmetic_genus_fixtures(e8, a2):
    assert arithmetic_genus(a2, (1, 1)) == 0
    assert arithmetic_genus(e8, E8_ROOT) == 0
    elliptic = DualGraph([(1, -1)], [])
    assert arithmetic_genus(elliptic, (1,)) == 1
    with pytest.raises(DomainError):
        arithmetic_genus(a2, (0, 0))


def test_class_wise_genus_keeps_the_parity_check():
    """Rows that disagree, one edge from class 1 into class 0 and none
    back, make z.(z+K) odd: the class-wise p_a refuses it as the per-curve
    one does."""
    q = Quotient((0, 0), (-2, -2), (1, 1), [{1: 1}, {}])
    with pytest.raises(InternalError, match="came out odd"):
        q.arithmetic_genus((1, 1))


def test_to_dot(e8):
    text = to_dot(e8)
    assert "g=0, e=-2" in text
    assert text.count("--") == 7


# ----------------------------------------------------------- random properties

@st.composite
def tree_graphs(draw, max_n=9):
    """Random trees whose form is strictly diagonally dominant, hence
    negative definite: -e_i >= deg(i) everywhere, > somewhere."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [(draw(st.integers(min_value=0, max_value=i - 1)), i)
             for i in range(1, n)]
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    slack = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    slack[draw(st.integers(min_value=0, max_value=n - 1))] = max(1, slack[0])
    vertices = [
        (draw(st.integers(min_value=0, max_value=2)),
         -max(deg[i] + slack[i], 2))
        for i in range(n)
    ]
    return DualGraph(vertices, edges)


@st.composite
def graph_and_cycles(draw):
    g = draw(tree_graphs())
    mk = st.tuples(*[st.integers(min_value=-6, max_value=6)] * g.n)
    return g, draw(mk), draw(mk), draw(mk)


@given(graph_and_cycles())
@settings(max_examples=120, deadline=None)
def test_pairing_is_symmetric_and_bilinear(data):
    g, z1, z2, z3 = data
    assert intersection_number(g, z1, z2) == intersection_number(g, z2, z1)
    z12 = tuple(a + b for a, b in zip(z1, z2))
    assert intersection_number(g, z12, z3) == (
        intersection_number(g, z1, z3) + intersection_number(g, z2, z3)
    )


@given(tree_graphs())
@settings(max_examples=80, deadline=None)
def test_trees_with_small_weights_are_definite(g):
    assert is_negative_definite(g)
    zf = fundamental_cycle(g)
    assert all(v >= 1 for v in zf)
    assert is_anti_nef(g, zf)


@given(graph_and_cycles())
@settings(max_examples=120, deadline=None)
def test_genus_parity_always_even(data):
    """z(z+K) is even for every integral cycle, so p_a never raises."""
    g, z1, _, _ = data
    if all(v == 0 for v in z1):
        return
    assert isinstance(arithmetic_genus(g, z1), int)


@given(tree_graphs(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_relabeling_invariance(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    vertices = [None] * g.n
    for old, new in enumerate(perm):
        vertices[new] = (g.genera[old], g.self_ints[old])
    edges = [(perm[i], perm[j]) for i, j in g.edges]
    h = DualGraph(vertices, edges)
    zf_g = fundamental_cycle(g)
    zf_h = fundamental_cycle(h)
    assert all(zf_h[perm[i]] == zf_g[i] for i in range(g.n))
    assert is_negative_definite(h) == is_negative_definite(g)
    # relabelling changes the elimination order, which leaf comes first and
    # which vertex comes last, not the solution
    zk_g, zk_h = canonical_qcycle(g), canonical_qcycle(h)
    assert all(zk_h[perm[i]] == zk_g[i] for i in range(g.n))


# ------------------------------------------------ elimination beyond trees

@st.composite
def cyclic_graphs(draw, max_n=7):
    """Connected graphs with cycles and multi-edges: a random spanning tree
    plus extra edges, which may repeat.  Weights sit near diagonal
    dominance on both sides, so definite, indefinite and singular forms
    all occur."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = [(draw(st.integers(min_value=0, max_value=i - 1)), i)
             for i in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    edges += draw(st.lists(pair, min_size=1, max_size=5))
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    vertices = [
        (draw(st.integers(min_value=0, max_value=2)),
         -max(1, deg[i] + draw(st.integers(min_value=-2, max_value=2))))
        for i in range(n)
    ]
    return DualGraph(vertices, edges)


@st.composite
def pendant_graphs(draw):
    """A graph from ``cyclic_graphs`` with a pendant path of 1-4 curves hung
    on it by a single or a double edge, so that the elimination orders the
    path, with edge multiplicity 1 or 2, before the 2-core."""
    g = draw(cyclic_graphs())
    n, k = g.n, draw(st.integers(min_value=1, max_value=4))
    edges = list(g.edges)
    edges += [(draw(st.integers(min_value=0, max_value=n - 1)), n)] * draw(
        st.sampled_from([1, 2]))
    edges += [(v, v + 1) for v in range(n, n + k - 1)]
    deg = [0] * (n + k)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    vertices = list(zip(g.genera, g.self_ints)) + [
        (draw(st.integers(min_value=0, max_value=2)),
         -max(1, deg[v] + draw(st.integers(min_value=-2, max_value=2))))
        for v in range(n, n + k)
    ]
    return DualGraph(vertices, edges)


def _dense_matrix(g):
    m = [[Fraction(0)] * g.n for _ in range(g.n)]
    for i, e in enumerate(g.self_ints):
        m[i][i] = Fraction(e)
    for i, j in g.edges:
        m[i][j] += 1
        m[j][i] += 1
    return m


def _dense_solve(m, b):
    """Gauss-Jordan with row pivoting on the full matrix; None if singular."""
    n = len(m)
    a = [row[:] + [Fraction(v)] for row, v in zip(m, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def _det(m):
    a = [row[:] for row in m]
    n, det = len(a), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


@st.composite
def weighted_star_data(draw):
    """``(center, families)`` for ``DualGraph.from_star``: 1-3 families of
    1-4 copies of a chain of 0-3 curves with self-intersections 0..-5, on a
    center of self-intersection 0..-8, so that definite, indefinite and
    singular forms all occur."""
    families = draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=4),
                  st.lists(st.integers(min_value=-5, max_value=0), max_size=3)),
        min_size=1, max_size=3))
    center = (draw(st.integers(min_value=0, max_value=2)),
              draw(st.integers(min_value=-8, max_value=0)))
    return center, families


def weighted_stars():
    """A star from ``DualGraph.from_star`` on :func:`weighted_star_data`,
    with its chain-position classes."""
    return weighted_star_data().map(lambda data: DualGraph.from_star(*data))


@given(cyclic_graphs() | pendant_graphs() | weighted_stars())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_dense_reference(g):
    """The elimination, the edge walk of the pairings and the kept quotient
    against the dense matrix and the reference collapse; cyclic graphs come
    with shuffled, reversed and repeated edges."""
    m = _dense_matrix(g)
    z = tuple(range(1, g.n + 1))
    mz = tuple(sum(map(mul, row, z)) for row in m)
    assert cycle_products(g, z) == mz
    assert intersection_number(g, z, z) == sum(map(mul, z, mz))
    assert ordered_quotient(g.quotient) == ordered_quotient(reference_quotient(g))
    minors = [_det([row[:k] for row in m[:k]]) for k in range(1, g.n + 1)]
    definite = all((-1) ** k * d > 0 for k, d in enumerate(minors, start=1))
    assert is_negative_definite(g) == definite
    b = [e + 2 - 2 * gen for e, gen in zip(g.self_ints, g.genera)]
    if definite:
        assert canonical_qcycle(g) == _dense_solve(m, b)
    else:
        with pytest.raises(DomainError):
            canonical_qcycle(g)


@st.composite
def cyclic_covers(draw):
    """An r-fold cyclic cover of a small base multigraph, branched at some
    base curves, with the base curve's weight on every curve above it.

    A free base curve i lifts to r curves (i, t), a branch curve to one;
    base curve 0 is a branch curve, so the cover is connected.  A base edge
    between free curves, with voltage s, lifts to the r edges
    (i, t)-(j, t + s mod r); one at a branch curve lifts to one edge per
    curve above the other end; a loop at a free curve, with voltage s != 0,
    lifts to edges inside its fibre (double edges when 2s = r).  So the
    graph is symmetric, with edges inside a fibre from the loops and fibres
    of sizes 1 and r side by side.  The weights start at the degree plus
    one and are lowered, base curve by base curve in a drawn order, as far
    as the form stays negative definite, so that large fundamental cycles
    are common."""
    r = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=2, max_value=5))
    branch = [True] + [draw(st.booleans()) for _ in range(k - 1)]
    base = [(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, k)]
    base += draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=2))
    loops = [i for i in range(k) if not branch[i] and draw(st.booleans())]
    first = [0]
    for b in branch:
        first.append(first[-1] + (1 if b else r))

    def curve(i, t):
        return first[i] + (0 if branch[i] else t % r)

    edges = []
    for i in loops:
        s = draw(st.integers(min_value=1, max_value=r - 1))
        edges += [(curve(i, t), curve(i, t + s)) for t in range(r)]
    for i, j in base:
        s = draw(st.integers(min_value=0, max_value=r - 1))
        edges += list(dict.fromkeys((curve(i, t), curve(j, t + s)) for t in range(r)))
    deg = [0] * first[-1]
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1

    def cover(c):
        return DualGraph([(0, -c[i]) for i in range(k) for _ in range(first[i], first[i + 1])],
                         edges)

    # start diagonally dominant, so negative definite, then lower each
    # weight in turn as far as the form stays negative definite
    c = [deg[first[i]] + 1 for i in range(k)]
    g = cover(c)
    for i in draw(st.permutations(range(k))):
        while c[i] > 1:
            c[i] -= 1
            h = cover(c)
            if not is_negative_definite(h):
                c[i] += 1
                break
            g = h
    return g


# ------------------------------------- Laufer's sequence against a heap order

def _fundamental_cycle_heap(g):
    """Laufer's computation sequence curve by curve, on a lowest-index heap:
    the reference for ``fundamental_cycle``, which runs the sequence on a
    star's chain positions.  The body is the per-curve
    implementation the library once had, less the cache on the graph, which
    it neither reads nor fills."""
    if not is_negative_definite(g):
        raise DomainError(
            "fundamental cycle needs a negative-definite graph; "
            "the computation sequence may not terminate otherwise"
        )
    # the per-curve adjacency: the quotient of g's plain twin
    adj = DualGraph(zip(g.genera, g.self_ints), g.edges).quotient.into
    self_ints = g.self_ints
    z = [1] * g.n
    d = [e + sum(row.values()) for e, row in zip(self_ints, adj)]
    heap = [i for i, v in enumerate(d) if v > 0]
    heapq.heapify(heap)
    while heap:
        i = heapq.heappop(heap)
        if d[i] <= 0:
            continue
        c = -self_ints[i]  # positive: diagonal of a negative-definite form
        k = -(-d[i] // c)
        z[i] += k
        d[i] -= k * c
        for j, w in adj[i].items():
            d[j] += k * w
            if d[j] > 0:
                heapq.heappush(heap, j)
    return tuple(z)


@given(cyclic_graphs() | tree_graphs() | cyclic_covers())
@settings(max_examples=500, deadline=None)
def test_worklist_matches_the_heap_order(g):
    assume(is_negative_definite(g))
    assert fundamental_cycle(g) == _fundamental_cycle_heap(g)


@given(wide_tuples)
@settings(max_examples=30, deadline=None)
def test_worklist_matches_the_heap_order_on_flattened_stars(a):
    g = dual_graph(a).graph
    assert fundamental_cycle(g) == _fundamental_cycle_heap(g)


@given(cyclic_graphs(max_n=4) | tree_graphs(max_n=4))
@settings(max_examples=150, deadline=None)
def test_fundamental_cycle_is_the_least_anti_nef_cycle(g):
    """Brute force on at most four curves: Z_f is anti-nef and >= E, and
    every anti-nef cycle >= E in a box around it dominates it."""
    assume(is_negative_definite(g))
    zf = fundamental_cycle(g)
    assert min(zf) >= 1 and is_anti_nef(g, zf)
    top = min(max(zf) + 1, 8)
    for z in product(range(1, top + 1), repeat=g.n):
        if is_anti_nef(g, z):
            assert all(a >= b for a, b in zip(z, zf)), (z, zf)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="deadlines need SIGALRM")
def test_an_inner_deadline_gives_the_outer_one_back():
    """The module's two-minute deadline survives a shorter one inside it,
    whether that one passes or fires."""
    outer, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 60 < outer <= 120
    with deadline(60):
        assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= 60
    assert 60 < signal.getitimer(signal.ITIMER_REAL)[0] <= outer
    with pytest.raises(DeadlineExceeded):
        with deadline(0.05):
            time.sleep(5)
    assert 60 < signal.getitimer(signal.ITIMER_REAL)[0] <= outer


def test_long_chains_solve_in_near_linear_time():
    """Laufer's sequence and the elimination on graphs of 20,000 curves with
    one class per curve: a -3 curve at one end of a -2 chain, a symmetric
    chain of -2 curves and a comb of 10,000 -3 curves with a -1 tooth each."""
    n = 20_000
    path = [(i, i + 1) for i in range(n - 1)]
    half = n // 2
    cases = [
        DualGraph([(0, -3)] + [(0, -2)] * (n - 1), path),
        DualGraph([(0, -2)] * n, path),
        DualGraph([(0, -3)] * half + [(0, -1)] * half,
                  path[: half - 1] + [(i, half + i) for i in range(half)]),
    ]
    # a superlinear elimination (a lost pendant-first order fills in the
    # comb) fails at the inner deadline instead of hanging
    for g in cases:
        start = time.perf_counter()
        with deadline(60):
            assert fundamental_cycle(g) == (1,) * n
        assert time.perf_counter() - start < 5.0


def test_a_hub_solves_in_near_linear_time():
    """The elimination on one -(d/2 + 1) hub with d pendant -2 curves, one
    class per curve: each pendant fold into the hub changes only its pivot,
    its right-hand side and one multiplier, so four times the curves cost
    about four times the time, not sixteen."""
    def best_solve(d):
        best = math.inf
        for _ in range(3):
            g = DualGraph([(0, -(d // 2 + 1))] + [(0, -2)] * d,
                          [(0, v) for v in range(1, d + 1)])
            start = time.perf_counter()
            with deadline(60):
                assert is_negative_definite(g)
            best = min(best, time.perf_counter() - start)
        return best

    small, large = best_solve(5_000), best_solve(20_000)
    assert large < 2.0
    assert large < 8 * small

@st.composite
def seifert_stars(draw):
    """Seifert data ``(genus, c0, [(count, chain)])`` of a star: 1-4
    families of 1-4 copies of a chain of 0-4 curves, entries 2-5.  ``c0``
    reaches the number of chain copies, past which the form is definite."""
    families = draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=4),
                  st.lists(st.integers(min_value=2, max_value=5), max_size=4)),
        min_size=1, max_size=4))
    copies = sum(count for count, chain in families if chain)
    genus = draw(st.integers(min_value=0, max_value=2))
    return genus, draw(st.integers(min_value=1, max_value=copies + 1)), families


def _assert_built_as_its_plain_twin(g):
    """Check that a star from ``from_star`` has the edges that the plain
    constructor gives its data, and that both keep the quotient that
    :func:`conftest.reference_quotient` collapses from the adjacency of
    those edges, down to the key order of each row.  Returns the plain
    twin."""
    twin = DualGraph(zip(g.genera, g.self_ints), g.edges)
    assert g.edges == twin.edges
    assert g == twin and hash(g) == hash(twin)
    assert g.to_json_dict() == twin.to_json_dict()
    assert twin.quotient.spans is None
    assert ordered_quotient(g.quotient) == ordered_quotient(reference_quotient(g))
    assert ordered_quotient(twin.quotient) == ordered_quotient(reference_quotient(twin))
    return twin


@given(seifert_stars())
@settings(max_examples=300, deadline=None)
def test_a_star_with_its_classes_matches_its_plain_twin(data):
    """The classes of ``from_star`` change neither the graph, its
    definiteness, Z_K nor Z_f: the class-wise elimination and sequence
    reach the per-curve results of the same graph built without them, with
    one class per chain position."""
    genus, c0, families = data
    g = DualGraph.from_star((genus, -c0), [(count, [-c for c in chain])
                                           for count, chain in families])
    twin = _assert_built_as_its_plain_twin(g)
    assert is_negative_definite(g) == is_negative_definite(twin)
    assume(is_negative_definite(g))
    # the documented vertex order: the center, then each family's copies
    # center-outward
    assert g == star((genus, -c0), [[-c for c in chain]
                                    for count, chain in families for _ in range(count)])
    assert len(g.quotient.sizes) == 1 + sum(len(chain) for _, chain in families)
    assert canonical_qcycle(g) == canonical_qcycle(twin)
    zf = _fundamental_cycle_heap(twin)
    assert fundamental_cycle(g) == zf
    # p_a(Z_f) class by class, as p_f is verified, against the plain twin
    q = g.quotient
    assert q.arithmetic_genus(q.fundamental_cycle()) == arithmetic_genus(twin, zf)


@given(weighted_stars())
@settings(max_examples=200, deadline=None)
def test_a_weighted_star_is_built_as_its_plain_twin(g):
    """The same on stars with empty chains and indefinite forms, where the
    verdict still comes from the kept quotient."""
    twin = _assert_built_as_its_plain_twin(g)
    assert is_negative_definite(g) == is_negative_definite(twin)


def _seifert_data(data):
    """Seifert data as the ``(center, families)`` of ``DualGraph.from_star``."""
    genus, c0, families = data
    return (genus, -c0), [(count, [-c for c in chain]) for count, chain in families]


def _seifert_graph(data):
    return DualGraph.from_star(*_seifert_data(data))


# ------------------------------------- Z_f from the Seifert data, by the search

def _scanned_center(q):
    """The least x >= 1 with ``N(x) = c0 x - sum_w count_w ceil(x beta_w /
    alpha_w) >= 0``, by testing x = 1, 2, ... in turn, ``alpha_w / beta_w``
    evaluated from the tip as the negative continued fraction
    ``c_1 - 1/(c_2 - ...)`` of family w's chain.  The reference for the
    stepped search's center."""
    fracs = []
    for first, end in q.spans:
        if first < end:
            r = Fraction(-q.self_ints[end - 1])
            for e in q.self_ints[end - 2:first - 1:-1]:
                r = -e - 1 / r
            fracs.append((q.sizes[first], 1 / r))  # beta_w / alpha_w in lowest terms
    x = 1
    while -q.self_ints[0] * x < sum(count * math.ceil(x * f) for count, f in fracs):
        x += 1
    return x


def _assert_search_matches_the_references(g):
    """The search on a star's quotient against the unit scan of N and the
    heap-order Laufer sequence on the plain twin: its class vector,
    flattened, and its class-wise p_a; on an indefinite star, ``DomainError``."""
    q = g.quotient
    twin = DualGraph(zip(g.genera, g.self_ints), g.edges)
    if not is_negative_definite(twin):
        with pytest.raises(DomainError, match="negative-definite star"):
            q.fundamental_cycle_search()
        return
    z = q.fundamental_cycle_search()
    zf = _fundamental_cycle_heap(twin)
    assert z[0] == _scanned_center(q)
    assert q.flatten(z) == zf
    assert q.arithmetic_genus(z) == arithmetic_genus(twin, zf)
    # the search fills no cache of the independent route
    assert q._zf is None


@given(seifert_stars().map(_seifert_graph) | weighted_stars())
@example(_seifert_graph((0, 2, [(3, [4, 4, 2]), (1, [2, 2, 2, 2])])))
@settings(max_examples=500, deadline=None)
def test_the_search_matches_the_unit_scan_and_laufer(g):
    """Definite and indefinite stars, chains with entries 0 and 1 among
    them.  The example has Z_f (3, 3, 2, 1) on its -2 chain: the direct
    form ``ceil(x K(c_{v+1}..c_s) / alpha_w)`` puts (3, 2, 2, 1) there,
    which pairs to +1 with the chain's second curve."""
    _assert_search_matches_the_references(g)


def test_the_search_refuses_a_graph_that_is_not_a_star(e8):
    with pytest.raises(DomainError, match="star's quotient"):
        e8.quotient.fundamental_cycle_search()


@given(st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_the_recursive_ceilings_are_the_least_anti_nef_chain(chain, x):
    """On a Hirzebruch-Jung chain next to a curve of coefficient x, the
    ceilings pair to at most 0 with every chain curve, and lowering any one
    of them by 1 makes some chain curve pair positive."""
    ks = graph_lattice._continuants(chain[::-1])[::-1]

    def pairings(z):
        full = [x, *z, 0]
        return [full[v - 1] - c * full[v] + full[v + 1] for v, c in enumerate(chain, start=1)]

    z = graph_lattice._chain_ceilings(x, ks)
    assert len(z) == len(chain) and min(z) >= 1
    assert max(pairings(z)) <= 0
    for v in range(len(z)):
        lower = z[:v] + [z[v] - 1] + z[v + 1:]
        assert max(pairings(lower)) > 0, (v, z)


def test_the_search_is_budgeted(monkeypatch):
    """The (2, 3, 7) star on a -1 center has e = 1/42: every family is
    forced at x = 1, the threshold 6 of the -7 curve comes before the
    multiple 42, and N(6) = 0 ends the search at its second step."""
    q = Quotient.star((0, -1), [(1, [-2]), (1, [-3]), (1, [-7])])
    monkeypatch.setattr(ideal_oracle, "LATTICE_BUDGET", 2)
    assert q.fundamental_cycle_search() == (6, 3, 2, 1)
    monkeypatch.setattr(ideal_oracle, "LATTICE_BUDGET", 1)
    with pytest.raises(ResourceError, match="fundamental-cycle search needs 2 steps"):
        q.fundamental_cycle_search()


@given(weighted_stars() | seifert_stars().map(_seifert_graph), st.data())
@settings(max_examples=300, deadline=None)
def test_class_wise_pairing_and_genus_match_the_flattened_star(g, data):
    """The class-wise pairing of a class vector, expanded through the class
    map, is the edge walk's pairing of the expanded cycle, and its
    class-wise p_a is ``arithmetic_genus`` on the flattened star, families
    of several copies included."""
    q = g.quotient
    k = len(q.sizes)
    z = data.draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=k, max_size=k))
    flat = per_curve(g, z)
    assert per_curve(g, q.products(z)) == cycle_products(g, flat)
    if any(z):
        assert q.arithmetic_genus(z) == arithmetic_genus(g, flat)


@given(weighted_star_data() | seifert_stars().map(_seifert_data))
@settings(max_examples=300, deadline=None)
def test_the_quotient_lays_out_the_star_as_the_references_do(data):
    """``Quotient.flatten`` and ``Quotient.curves``, and every reader of
    them (the emitted graph, ``StarGraph.assemble``, ``tip_indices`` and
    ``vertex_count``), against the layout the families once gave, empty
    families included."""
    (genus, e0), families = data
    star_graph = StarGraph(
        center_genus=genus, c0=-e0, flags=(), cycles=(),
        branch_families=tuple(ChainFamily(count, tuple(-e for e in chain), 0)
                              for count, chain in families),
    )
    assert star_layout_mismatches(star_graph) == []
    assert star_graph.graph == DualGraph.from_star((genus, e0), families)


def test_a_plain_quotient_has_one_curve_per_class(e8):
    q = e8.quotient
    assert q.spans is None
    assert q.flatten(E8_ROOT) == E8_ROOT
    assert [q.curves(a) for a in range(e8.n)] == [range(a, a + 1) for a in range(e8.n)]


@pytest.mark.parametrize("count", [0, -1, 1.0])
def test_from_star_refuses_a_count_that_is_not_positive(count):
    with pytest.raises(DomainError, match="positive integer count"):
        DualGraph.from_star((0, -3), [(2, [-2]), (count, [-2, -3])])


@pytest.mark.parametrize("center, chain, vertex", [
    ((0, -3.0), [-2], (0, -3.0)),
    ((0.0, -3), [-2], (0.0, -3)),
    ((-1, -3), [-2], (-1, -3)),
    ((0, -3), [-2, "-3"], (0, "-3")),
    ((0, -3), [-2, -3.0], (0, -3.0)),
], ids=["center-self-int", "center-genus", "negative-genus", "chain-str", "chain-float"])
def test_from_star_refuses_bad_vertex_data_as_the_constructor_does(center, chain, vertex):
    with pytest.raises(DomainError) as plain:
        DualGraph([(0, -2), vertex], [(0, 1)])
    with pytest.raises(DomainError, match=f"^{re.escape(str(plain.value))}$"):
        DualGraph.from_star(center, [(2, [-2]), (3, chain)])


def _chain_positions(a):
    return 1 + sum(len(fam.chain) for fam in dual_graph(a).branch_families)


@given(wide_tuples)
@settings(max_examples=30, deadline=None)
def test_flattened_stars_have_one_class_per_chain_position(a):
    """The ghat_w copies of a chain share their classes, so Laufer's
    sequence never works curve by curve on a flattened star."""
    assert len(dual_graph(a).graph.quotient.sizes) == _chain_positions(a)


def test_the_largest_sweep_star_has_few_classes():
    a = (50, 60, 70, 80, 90)
    g = dual_graph(a).graph
    assert g.n == 25_001
    assert len(g.quotient.sizes) == _chain_positions(a)


# ------------------------------------- the elimination against its Fraction form

def _solve_in_fractions(q):
    """``Quotient._solve`` as it ran wholly in ``Fraction``s, kept verbatim
    as the reference for the integer folds: the verdict of the quotient q
    and, when it is negative definite, Z_K (else None)."""
    into, self_ints = q.into, q.self_ints
    # deg[a]: the neighbouring classes of a not yet ordered, 0 once a is; a
    # one-class graph starts with its class on the stack
    deg = [len(row) for row in into]
    stack = [a for a in range(len(into) - 1, -1, -1) if deg[a] < 2]
    order: list[int] = []
    while stack:
        a = stack.pop()
        order.append(a)
        if deg[a]:  # else its last neighbour went first: a is what is left of a tree
            deg[a] = 0
            b = next(b for b in into[a] if deg[b])
            deg[b] -= 1
            if deg[b] == 1:
                stack.append(b)
    # every class not yet ordered has two or more such neighbours
    order += [a for a in range(len(into)) if deg[a]]

    # rows[a][b] = N_ab; once a is eliminated, rows[a] is its reduced row
    # over the classes after it, pivot included
    rows = [{b: into[b][a] for b in row} for a, row in enumerate(into)]
    for a, e in enumerate(self_ints):
        rows[a][a] = Fraction(e)
    y = [Fraction(e + 2 - 2 * gen) for e, gen in zip(self_ints, q.genera)]
    for i in order:
        row = rows[i]
        piv = row.pop(i)
        if piv >= 0:
            return False, None
        for j in row:
            f = rows[j].pop(i) / piv
            for k, u in row.items():
                rows[j][k] = rows[j].get(k, 0) - f * u
            y[j] -= f * y[i]
        row[i] = piv

    # y_i becomes x_i = (y_i - sum_k rows_ik x_k) / pivot_i
    for i in reversed(order):
        piv = rows[i].pop(i)
        for k, u in rows[i].items():
            y[i] -= u * y[k]
        y[i] /= piv
    return True, tuple(y)


def _solve_counting_fractions(q):
    """Solve a fresh copy of the quotient q; return it with the arguments of
    every ``Fraction`` made meanwhile, by construction or by arithmetic."""
    made, new = [], Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new.__func__(cls, *args, **kwargs)

    q = Quotient(q.genera, q.self_ints, q.sizes, q.into, q.spans)
    Fraction.__new__ = staticmethod(counting)
    try:
        q.is_negative_definite()
    finally:
        Fraction.__new__ = new
    return q, made


def _assert_solved_as_in_fractions(q):
    """The verdict, Z_K and the type of each entry against the reference.
    The solve makes one ``Fraction`` per class, for Z_K, from a pair in
    lowest terms with a positive denominator, and none when it stops."""
    solved, made = _solve_counting_fractions(q)
    definite, zk = _solve_in_fractions(q)
    assert solved.is_negative_definite() == definite
    assert solved._zk == zk
    if definite:
        assert all(type(x) is Fraction for x in solved._zk)
    assert made == [(x.numerator, x.denominator) for x in solved._zk or ()]


def _grid(k, center=-5):
    """A k x k grid of -5 curves, its row-major neighbours joined, with the
    first edge doubled, a genus-1 curve at index 1 and self-intersection
    ``center`` at the middle curve: a 2-core of k^2 classes with fill-in."""
    edges = [(v, v + 1) for v in range(k * k) if (v + 1) % k]
    edges += [(v, v + k) for v in range(k * k - k)]
    vertices = [(0, -5)] * (k * k)
    vertices[1] = (1, -5)
    vertices[k * k // 2 + k // 2] = (0, center)
    return DualGraph(vertices, edges + edges[:1])


@given(cyclic_graphs() | pendant_graphs() | weighted_stars() | seifert_stars().map(_seifert_graph))
@example(_grid(12))
@example(_grid(12, center=0))
@settings(max_examples=400, deadline=None)
def test_the_integer_folds_solve_as_the_fraction_elimination(g):
    """Trees, stars with families of several copies (``N_AB != N_BA``), the
    2-core after the pendant classes, and singular and indefinite forms,
    where both stop at the same pivot.  The grids have a definite 2-core of
    144 classes, and one whose middle curve of self-intersection 0 gives
    the first pivot >= 0, midway through the core."""
    _assert_solved_as_in_fractions(g.quotient)


def test_every_sweep_quotient_solves_as_the_fraction_elimination():
    """The 4290 stars of the benchmark's acceptance sweep (m <= 5, a_m <= 12)."""
    pins = json.loads((PERFBENCH / "pins" / "sweep.json").read_text())
    keys = [key for group in pins["groups"].values() for key in group]
    assert len(keys) == 4290
    for key in keys:
        _assert_solved_as_in_fractions(dual_graph(tuple(map(int, key.split(",")))).quotient)


def test_the_forward_loop_makes_no_fraction():
    """A star whose last pivot, the center's, is the first one >= 0: the
    solve stops there, at the end of the forward loop, with no ``Fraction``
    made."""
    q = Quotient.star((0, -1), [(2, [-2]), (1, [-3])])
    solved, made = _solve_counting_fractions(q)
    assert not solved.is_negative_definite()
    assert made == []
    assert _solve_in_fractions(q) == (False, None)
