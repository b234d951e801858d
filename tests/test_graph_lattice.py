"""Intersection theory on weighted dual graphs: construction, pairing,
anti-nef cycles, Laufer's algorithm, adjunction, definiteness."""

import heapq
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singlat import (
    DimensionError,
    DomainError,
    DualGraph,
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
from singlat import graph_lattice
from conftest import chain, star, wide_tuples

E8_ROOT = (6, 3, 4, 2, 5, 4, 3, 2)  # highest root in the (2,3,5) star layout


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
        # indefinite: a zero pivot at a pendant vertex that has a live neighbor
        DualGraph([(0, 0), (0, -2)], [(0, 1)]),
    ):
        for _ in range(3):
            with pytest.raises(DomainError):
                canonical_qcycle(g)
            assert not is_negative_definite(g)


def test_one_elimination_per_graph(monkeypatch):
    calls = []
    real = graph_lattice._eliminate

    def counting(g, rhs):
        calls.append(g)
        return real(g, rhs)

    monkeypatch.setattr(graph_lattice, "_eliminate", counting)
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
    assert calls[0] is good and calls[1] is bad


def test_canonical_qcycle_solves_adjunction(e8):
    g = star((2, -3), [[-2, -3], [-4], [-2, -2, -5]])
    zk = canonical_qcycle(g)
    for i in range(g.n):
        basis = tuple(1 if j == i else 0 for j in range(g.n))
        want = g.self_ints[i] + 2 - 2 * g.genera[i]
        assert intersection_number(g, zk, basis) == want


# -------------------------------------------------------------- arithmetic genus

def test_arithmetic_genus_fixtures(e8, a2):
    assert arithmetic_genus(a2, (1, 1)) == 0
    assert arithmetic_genus(e8, E8_ROOT) == 0
    elliptic = DualGraph([(1, -1)], [])
    assert arithmetic_genus(elliptic, (1,)) == 1
    with pytest.raises(DomainError):
        arithmetic_genus(a2, (0, 0))


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
    # relabelling changes which leaves are peeled first and which vertex is
    # left for the core, not the solution
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
    on it by a single or a double edge, so that the elimination peels the
    path, with edge multiplicity 1 or 2, before it reaches the core."""
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


@given(cyclic_graphs() | pendant_graphs())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_dense_reference(g):
    m = _dense_matrix(g)
    minors = [_det([row[:k] for row in m[:k]]) for k in range(1, g.n + 1)]
    definite = all((-1) ** k * d > 0 for k, d in enumerate(minors, start=1))
    assert is_negative_definite(g) == definite
    b = [e + 2 - 2 * gen for e, gen in zip(g.self_ints, g.genera)]
    ref = _dense_solve(m, b)
    try:
        zk = canonical_qcycle(g)
    except DomainError:
        # symmetric elimination without row exchanges may stall on an
        # indefinite form, never on a definite one
        assert ref is None or not definite
    else:
        assert zk == ref


# ------------------------------------- Laufer's sequence against a heap order

def _fundamental_cycle_heap(g):
    """Laufer's computation sequence on a lowest-index heap, the order
    ``fundamental_cycle`` used before its FIFO worklist; kept as the reference
    for it.  The body is that implementation verbatim, less the cache on the
    graph, which it neither reads nor fills."""
    if not is_negative_definite(g):
        raise DomainError(
            "fundamental cycle needs a negative-definite graph; "
            "the computation sequence may not terminate otherwise"
        )
    adj, self_ints = g._adj, g.self_ints
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


@given(cyclic_graphs() | tree_graphs())
@settings(max_examples=200, deadline=None)
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
