"""Shared builders for small weighted dual graphs used across the tests,
and the ``deadline`` marker that bounds a test's running time."""

import signal
import time
from contextlib import contextmanager

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
