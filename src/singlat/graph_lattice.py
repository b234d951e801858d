"""Intersection theory on weighted dual graphs of resolved surface singularities.

A vertex stands for an irreducible exceptional curve and carries a genus and a
self-intersection number; edges record transverse intersection points
(multi-edges allowed, self-loops not).  A cycle is a dense integer coefficient
vector in the fixed vertex order; a Q-cycle uses exact rationals.  All
arithmetic is exact, with no floating point.

Each graph object is eliminated once: an exact Gaussian elimination on
Fractions yields both the definiteness verdict and, on a negative-definite
graph (every resolution graph is one), the canonical Q-cycle Z_K.  It stops
at the first pivot >= 0; Z_K and Laufer's Z_f are refused on any other
graph.  Both the elimination and Laufer's computation sequence run on the
quotient of the graph by its classes, which every graph holds from its
construction.  A star built by ``DualGraph.from_star`` has its chain
positions as its classes, so its identical chains cost one step; it is
emitted in bulk from its families, quotient included, in O(classes).  Any
other graph has one class per curve, and its quotient is the adjacency that
its constructor builds for the connectivity check.  The elimination runs
once, in one order: pendant classes as they become pendant, which creates
no fill-in, then the classes left over, the 2-core, in index order.  A
tree such as a star is ordered whole by the pendant rule.
Laufer's sequence keeps a FIFO worklist of the classes of positive pairing.
All three are cached on the graph, so repeated calls on one graph cost a
lookup.  Pairings with every curve walk the edge list.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionError, DomainError, InternalError

Cycle = tuple[int, ...]
QCycle = tuple[Fraction, ...]

__all__ = [
    "Cycle",
    "QCycle",
    "DualGraph",
    "intersection_number",
    "cycle_products",
    "is_anti_nef",
    "fundamental_cycle",
    "canonical_qcycle",
    "arithmetic_genus",
    "is_negative_definite",
    "to_dot",
]


class DualGraph:
    """Connected weighted dual graph with a fixed vertex order.

    ``vertices`` is an iterable of ``(genus, self_intersection)`` pairs,
    ``edges`` an iterable of vertex-index pairs.  Repeating a pair makes a
    multi-edge.  Negativity of self-intersections is deliberately not
    enforced here; it is the job of :func:`is_negative_definite`.

    ``classes`` is ``None``, every curve its own class, except on a graph
    built by :meth:`from_star`, where it gives each curve its chain
    position.  The elimination and Laufer's sequence run class by class on
    it.  Equality, hashing and ``to_json_dict`` ignore it.

    Each graph keeps its quotient by the classes, as ``(col, rep, into)``:
    ``col[v]`` is the class of curve v, ``rep[A]`` the last curve of class
    A, which stands for it as any curve of it would, and ``into[A][B]`` the
    number ``n_BA`` of edges from one curve of class B into class A, keyed
    in increasing B.  With one class per curve, ``into`` is the adjacency.
    """

    __slots__ = ("genera", "self_ints", "edges", "classes", "_quo", "_neg_def", "_zk", "_zf")

    def __init__(
        self,
        vertices: Iterable[tuple[int, int]],
        edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        genera: list[int] = []
        self_ints: list[int] = []
        for g, e in vertices:
            _check_vertex(g, e)
            genera.append(g)
            self_ints.append(e)
        n = len(genera)
        if n == 0:
            raise DomainError("a dual graph needs at least one vertex")

        norm: list[tuple[int, int]] = []
        for i, j in edges:
            if not isinstance(i, int) or not isinstance(j, int):
                raise DomainError(f"edge ({i!r},{j!r}) needs integer vertex indices")
            if not (0 <= i < n and 0 <= j < n):
                raise DomainError(f"edge ({i},{j}) leaves the vertex range 0..{n - 1}")
            if i == j:
                raise DomainError(f"self-loop at vertex {i} is not allowed")
            norm.append((i, j) if i < j else (j, i))
        norm.sort()
        # sorted edges key each row in increasing neighbour
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        for i, j in norm:
            adj[i][j] = adj[i].get(j, 0) + 1
            adj[j][i] = adj[j].get(i, 0) + 1

        # connectivity
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        if count != n:
            raise DomainError("dual graph must be connected")
        self._fill(tuple(genera), tuple(self_ints), tuple(norm), None, (range(n), range(n), adj))

    def _fill(
        self,
        genera: tuple[int, ...],
        self_ints: tuple[int, ...],
        edges: tuple[tuple[int, int], ...],
        classes: tuple[int, ...] | None,
        quo: tuple[Sequence[int], Sequence[int], list[dict[int, int]]],
    ) -> None:
        self.genera = genera
        self.self_ints = self_ints
        self.edges = edges
        self.classes = classes
        self._quo = quo
        # results, computed from the data above on first use; that data never changes
        self._neg_def: bool | None = None
        self._zk: QCycle | None = None
        self._zf: Cycle | None = None

    @property
    def n(self) -> int:
        return len(self.genera)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DualGraph):
            return NotImplemented
        return (
            self.genera == other.genera
            and self.self_ints == other.self_ints
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.genera, self.self_ints, self.edges))

    def __repr__(self) -> str:
        return f"DualGraph(n={self.n}, edges={len(self.edges)})"

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"genus": g, "self_int": e}
                for g, e in zip(self.genera, self.self_ints)
            ],
            "edges": [[i, j] for i, j in self.edges],
        }

    @classmethod
    def from_star(
        cls,
        center: tuple[int, int],
        families: Iterable[tuple[int, Sequence[int]]],
    ) -> "DualGraph":
        """Flattened star: ``center`` is ``(genus, self_int)``, and each
        ``(count, chain)`` of ``families`` hangs ``count`` copies of the
        genus-0 chain ``chain``, self-intersections listed center-outward,
        on the center.

        The vertex order is a contract: the center at index 0, then each
        family's copies one after the other, each center-outward.  Each curve
        gets its chain position as its class: 0 for the center, then one id
        per family and position, shared by the family's copies.  The copies
        of a position share one self-intersection and one edge to each
        neighbouring position, so the classes are equitable, as
        :func:`fundamental_cycle` and the elimination need.

        The star is emitted in bulk from the families: one chain copy
        repeated ``count`` times, the edges already normalized and sorted,
        and the quotient by the classes built from the families in
        O(classes).  The center and each family are checked once, with the
        plain constructor's ``DomainError`` messages; ``count`` must be a
        positive ``int``.  Each copy's first curve is joined to the center,
        so the graph is connected by construction and needs no search.
        """
        g0, c0 = center
        _check_vertex(g0, c0)
        self_ints, classes, heads, keep = [c0], [0], [], []
        rep: list[int] = [0]
        into: list[dict[int, int]] = [{}]
        for count, chain in families:
            if not isinstance(count, int) or count < 1:
                raise DomainError(f"a family needs a positive integer count, got {count!r}")
            chain = list(chain)
            for e in chain:
                _check_vertex(0, e)
            s = len(chain)
            if not s:
                continue
            first, start = len(rep), len(self_ints)
            last = start + (count - 1) * s  # first curve of the last copy
            heads += range(start, last + 1, s)
            self_ints += chain * count
            classes += list(range(first, first + s)) * count
            # every curve of a copy but its last has an edge to the next one
            keep += ([True] * (s - 1) + [False]) * count
            # the center sends count edges into the first position, and each
            # position one edge to each neighbouring position
            rep += range(last, last + s)
            into[0][first] = 1
            into.append({0: count})
            into += [{a - 1: 1} for a in range(first + 1, first + s)]
            for a in range(first, first + s - 1):
                into[a][a + 1] = 1
        n = len(self_ints)
        edges = [(0, h) for h in heads]
        edges += [(v, v + 1) for v in compress(range(1, n), keep)]
        cols = tuple(classes)
        g = cls.__new__(cls)
        g._fill((g0,) + (0,) * (n - 1), tuple(self_ints), tuple(edges), cols, (cols, rep, into))
        return g

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DualGraph":
        try:
            vertices = [(v["genus"], v["self_int"]) for v in doc["vertices"]]
            edges = [(i, j) for i, j in doc["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed dual-graph document: {exc}") from None
        return cls(vertices, edges)


def _check_vertex(genus: int, self_int: int) -> None:
    if not isinstance(genus, int) or not isinstance(self_int, int):
        raise DomainError("vertex data must be integer (genus, self_int) pairs")
    if genus < 0:
        raise DomainError(f"genus must be nonnegative, got {genus}")


def _check_cycle(g: DualGraph, z: Sequence, name: str = "cycle") -> None:
    if len(z) != g.n:
        raise DimensionError(
            f"{name} has {len(z)} coefficients for a graph with {g.n} vertices"
        )


def intersection_number(g: DualGraph, z1: Sequence, z2: Sequence):
    """The symmetric bilinear intersection form z1 . z2.

    Exact for int and Fraction coefficients; returns int when both inputs
    are integral.
    """
    _check_cycle(g, z1, "first cycle")
    _check_cycle(g, z2, "second cycle")
    return sum(map(mul, z1, cycle_products(g, z2)))


def cycle_products(g: DualGraph, z: Sequence) -> tuple:
    """All pairings (z . E_i) in vertex order, by one walk of the edges."""
    _check_cycle(g, z)
    out = [c * e for c, e in zip(z, g.self_ints)]
    for i, j in g.edges:
        out[i] += z[j]
        out[j] += z[i]
    return tuple(out)


def is_anti_nef(g: DualGraph, z: Sequence) -> bool:
    """True iff z . E_i <= 0 for every vertex.  Meant for effective z."""
    return all(v <= 0 for v in cycle_products(g, z))


def fundamental_cycle(g: DualGraph) -> Cycle:
    """Smallest non-zero anti-nef cycle, by the classical computation sequence
    run on the quotient of g by its classes (see :class:`DualGraph`): the chain
    positions of a star built by :meth:`DualGraph.from_star`, and one class
    per curve on any other graph.

    Starts at the reduced cycle.  A class is one curve or one chain position
    across disjoint chain copies, so no edge joins two curves of a class.
    With ``c_A = -E^2`` and ``n_AB`` the edges from one curve of class A into
    class B, every curve of A pairs to ``d_A = -c_A z_A + sum_B n_AB z_B``
    while the cycle is constant on classes.  A FIFO worklist holds the
    classes with ``d_A > 0``, each queued at most once; a class taken from
    it gets ``k = ceil(d_A / c_A)`` copies of every one of its curves, so
    ``d_A`` falls by ``k c_A`` and each other class B gains ``k n_BA``.  Made
    as k rounds that each add one copy of every curve of A in turn, every
    single addition is at a curve of positive pairing: round t starts with
    ``d_A - (t-1) c_A > 0`` on every curve of A, and a curve's pairing does
    not move while the others of its class are added.  So the lifted run is
    a Laufer sequence, and it ends at Z_f whatever the order (Laufer, "On
    rational singularities", 1972).  ``c_A`` is positive because the form is
    negative definite.  The result is cached on the graph.
    """
    if g._zf is not None:
        return g._zf
    if not is_negative_definite(g):
        raise DomainError(
            "fundamental cycle needs a negative-definite graph; "
            "the computation sequence may not terminate otherwise"
        )
    self_ints = g.self_ints
    col, rep, into = g._quo
    # step[A] = c_A
    step = [-self_ints[v] for v in rep]
    # d_A at z = 1: E_A^2 plus the degree sum_B n_AB of a curve of A
    d = [self_ints[v] for v in rep]
    for row in into:
        for b, w in row.items():
            d[b] += w
    z = [1] * len(rep)
    queued = [v > 0 for v in d]
    work = deque(a for a, v in enumerate(d) if v > 0)
    # a queued pairing only grows until its class is taken, so it is still
    # positive then
    while work:
        a = work.popleft()
        queued[a] = False
        c = step[a]
        k = -(-d[a] // c)
        z[a] += k
        d[a] -= k * c
        for b, w in into[a].items():
            db = d[b] + k * w
            d[b] = db
            if db > 0 and not queued[b]:
                queued[b] = True
                work.append(b)
    g._zf = tuple(map(z.__getitem__, col))
    return g._zf


def _solve(g: DualGraph) -> None:
    """Eliminate g once against the adjunction right-hand side and cache on g
    the definiteness verdict and, when the form is negative definite, Z_K.

    The elimination runs on the quotient of g by its classes (see
    :class:`DualGraph`), on Fractions:
    with ``N_AB = n_AB``, the edges from one curve of class A into class B,
    and ``N_AA = E_A^2``, a cycle constant on classes pairs with every curve
    of A to ``(N z)_A``, so the class system is ``N z = y`` with ``y_A =
    E_A^2 + 2 - 2 genus(E_A)``.  Graphs from the plain constructor have one class per
    curve, so there this is the ordinary elimination.  It is sound on a
    star's chain positions:

    - Let ``D = diag(|A|)``.  ``DN`` is the form restricted to class-constant
      cycles, and it is symmetric.  The pivots of N are those of DN divided
      by ``|A|``, so they have the same signs in any order.  Z_K is unique and
      constant on classes, so the class solve gives Z_K.
    - A cycle orthogonal to the class-constant ones is 0 at the center and
      splits over the chain copies, so on it the form is a sum of chain forms
      ``C_w``.  Class-constant cycles that live on family w only give
      ``count_w C_w``.  So if the class-constant form is definite, every
      ``C_w`` is definite, and so is the whole form: the verdict is that of
      the flattened graph, in any order.

    The form is negative definite exactly when every pivot is negative, so
    the elimination stops at the first pivot >= 0 and every division below is
    by a negative number.  Three steps:

    - Order: a class with exactly one neighbouring class not yet ordered is
      taken from a stack of such classes, which is refilled as neighbours
      drop to one.  Eliminated in that order, it creates no fill-in (Parter,
      "The use of linear graphs in Gauss elimination", 1961).  This orders
      every class of a star, or of any tree.  The classes left over, the
      2-core, follow in index order.
    - Eliminate: one pass over that order on sparse rows.
    - Back-substitute in reverse order.

    Linear-time in the classes on trees.
    """
    genera, self_ints = g.genera, g.self_ints
    col, rep, into = g._quo
    # deg[a]: the neighbouring classes of a not yet ordered, 0 once a is; a
    # one-class graph starts with its class on the stack
    deg = [len(row) for row in into]
    stack = [a for a in range(len(rep) - 1, -1, -1) if deg[a] < 2]
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
    order += [a for a in range(len(rep)) if deg[a]]

    # rows[a][b] = N_ab; once a is eliminated, rows[a] is its reduced row
    # over the classes after it, pivot included
    rows = [{b: into[b][a] for b in row} for a, row in enumerate(into)]
    for a, v in enumerate(rep):
        rows[a][a] = Fraction(self_ints[v])
    y = [Fraction(self_ints[v] + 2 - 2 * genera[v]) for v in rep]
    for i in order:
        row = rows[i]
        piv = row.pop(i)
        if piv >= 0:
            g._neg_def = False
            return
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
    g._neg_def = True
    g._zk = tuple(map(y.__getitem__, col))


def is_negative_definite(g: DualGraph) -> bool:
    """Exact definiteness test via symmetric elimination (all pivots < 0)."""
    if g._neg_def is None:
        _solve(g)
    return g._neg_def


def canonical_qcycle(g: DualGraph) -> QCycle:
    """Unique rational cycle with Z_K . E_i = E_i^2 + 2 - 2 genus(E_i) for all i.

    These are the adjunction equalities for the canonical cycle; the solution
    is rational in general and integral for Gorenstein singularities.  Raises
    DomainError, on every call, unless the graph is negative definite, as
    every resolution graph is.
    """
    if not is_negative_definite(g):
        raise DomainError("canonical cycle needs a negative-definite graph")
    return g._zk


def arithmetic_genus(g: DualGraph, z: Sequence[int]) -> int:
    """p_a(z) = z.(z + K)/2 + 1, with ``z.(z+K) = sum_i z_i ((z.E_i) + K.E_i)``
    over one walk of the edges and the adjunction values
    ``K.E_i = -E_i^2 + 2 genus(E_i) - 2``."""
    _check_cycle(g, z)
    if not any(z):
        raise DomainError("arithmetic genus of the zero cycle is undefined")
    val = sum(
        c * (p - e + 2 * gen - 2)
        for c, p, e, gen in zip(z, cycle_products(g, z), g.self_ints, g.genera)
    )
    if not isinstance(val, int):
        raise DomainError(f"arithmetic genus needs an integral cycle; z.(z+K) = {val!r}")
    if val % 2 != 0:
        raise InternalError(
            "z.(z+K) came out odd; the graph data is inconsistent"
        )
    return val // 2 + 1


def to_dot(g: DualGraph) -> str:
    """Graphviz rendering with one node per exceptional curve."""
    lines = ["graph dual {"]
    for i, (gen, e) in enumerate(zip(g.genera, g.self_ints)):
        lines.append(f'  n{i} [label="g={gen}, e={e}"];')
    for i, j in g.edges:
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
