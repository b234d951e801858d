"""Shared builders for small weighted dual graphs used across the tests,
the references a star's curve layout is compared with, and the
``deadline`` marker that bounds a test's running time."""

import signal
import time
from contextlib import contextmanager
from itertools import accumulate, compress

import pytest
from hypothesis import strategies as st

from singlat import DualGraph, numeric_invariants
from singlat.graph_lattice import Quotient


class DeadlineExceeded(BaseException):
    """Raised from inside the work when a deadline passes.  Not an
    ``Exception``, so that neither the code under test nor Hypothesis, which
    would shrink a failing example by running it again, catches it."""


@contextmanager
def deadline(seconds):
    """Fail the running test from inside the work once ``seconds`` have
    passed, so that work that never ends (Laufer's sequence after a wrong
    definiteness verdict) or a superlinear one fails instead of hanging.

    Deadlines nest: one that would end after the deadline around it is not
    set, and one that ends before it gives the outer deadline back what is
    left of it.  Needs ``SIGALRM`` (POSIX); elsewhere the work runs to its
    end."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    outer, _ = signal.getitimer(signal.ITIMER_REAL)
    if outer and outer <= seconds:
        yield
        return

    def expire(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    start = time.monotonic()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            # an outer deadline already past fires at once
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-3))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "deadline(seconds): fail the test once it has run that long"
    )


@pytest.fixture(autouse=True)
def _bounded_by_deadline_marker(request):
    mark = request.node.get_closest_marker("deadline")
    if mark is None:
        yield
        return
    with deadline(*mark.args):
        yield


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
    """The :class:`Quotient` of g by its classes (see ``DualGraph``),
    collapsed from a per-curve adjacency built from ``g.edges``, each class
    read off its last curve: the reference for the quotient every graph
    keeps."""
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
    sizes = [0] * len(rep)
    for a in col:
        sizes[a] += 1
    return Quotient([g.genera[v] for v in rep], [g.self_ints[v] for v in rep], sizes, into)


def ordered_quotient(quo):
    """A quotient's data, with each ``into`` row as its list of items, so
    that comparing two of them compares the key order too."""
    return (tuple(quo.genera), tuple(quo.self_ints), tuple(quo.sizes),
            [list(row.items()) for row in quo.into])


def per_curve(g, z):
    """The class vector z of g's quotient as one coefficient per curve."""
    return tuple(map(z.__getitem__, g.classes)) if g.classes else tuple(z)


def star_layout_reference(q):
    """A star's flattened layout ``(genera, self_ints, edges, classes)`` as
    ``DualGraph.from_star_quotient`` once computed it, with the families
    read off the center's row of the quotient: the reference for
    ``Quotient.flatten`` and ``Quotient.curves`` and the graph emitted from
    them."""
    starts = [*q.into[0], len(q.sizes)]
    self_ints, classes, heads, keep = [q.self_ints[0]], [0], [], []
    for first, end in zip(starts, starts[1:]):
        count, s, start = q.sizes[first], end - first, len(self_ints)
        heads += range(start, start + count * s, s)
        self_ints += q.self_ints[first:end] * count
        classes += list(range(first, end)) * count
        # every curve of a copy but its last has an edge to the next one
        keep += ([True] * (s - 1) + [False]) * count
    n = len(self_ints)
    edges = [(0, h) for h in heads]
    edges += [(v, v + 1) for v in compress(range(1, n), keep)]
    return (q.genera[0],) + (0,) * (n - 1), tuple(self_ints), tuple(edges), tuple(classes)


def assemble_reference(fams, z):
    """``StarGraph.assemble`` as it once read the families, less the budget
    check."""
    coeffs, a = [z[0]], 1
    for fam in fams:
        s = len(fam.chain)
        coeffs += z[a : a + s] * fam.count
        a += s
    return tuple(coeffs)


def tip_indices_reference(fams, w):
    """``StarGraph.tip_indices`` as it once read the families."""
    fam = fams[w - 1]
    s = len(fam.chain)
    if s == 0:
        return ()
    start = 1 + sum(f.count * len(f.chain) for f in fams[: w - 1])
    return tuple(range(start + s - 1, start + fam.count * s, s))


def star_layout_mismatches(star_graph):
    """What of a ``StarGraph``'s curve layout differs from the references
    above, by name: the spans of its quotient (family w's classes follow the
    center and the families before it, an empty family included), the
    emitted graph, ``vertex_count``, ``flatten`` and ``assemble`` of a tuple
    and of a list, ``curves`` of every class and ``tip_indices`` of every
    family.  Empty when all match."""
    q, fams = star_graph.quotient, star_graph.branch_families
    genera, self_ints, edges, classes = star_layout_reference(q)
    g = star_graph.graph
    ends = list(accumulate((len(fam.chain) for fam in fams), initial=1))
    z = tuple(range(7, 7 + len(q.sizes)))
    by_class = [[] for _ in q.sizes]
    for v, a in enumerate(classes):
        by_class[a].append(v)
    checks = {
        "spans": q.spans == tuple(zip(ends, ends[1:])),
        "graph": (g.genera, g.self_ints, g.edges, g.classes) == (genera, self_ints, edges, classes),
        "vertex_count": star_graph.vertex_count == len(self_ints),
        "flatten": q.flatten(z) == q.flatten(list(z)) == assemble_reference(fams, z),
        "assemble": star_graph.assemble(list(z)) == assemble_reference(fams, z),
        "curves": [list(q.curves(a)) for a in range(len(q.sizes))] == by_class,
        "tip_indices": all(star_graph.tip_indices(w) == tip_indices_reference(fams, w)
                           for w in range(1, len(fams) + 1)),
    }
    return [name for name, ok in checks.items() if not ok]


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
