"""Intersection theory on weighted dual graphs of resolved surface singularities.

A vertex stands for an irreducible exceptional curve and carries a genus and a
self-intersection number; edges record transverse intersection points
(multi-edges allowed, self-loops not).  A cycle is a dense integer coefficient
vector in the fixed vertex order; a Q-cycle uses exact rationals.  All
arithmetic is exact, with no floating point.

Every graph holds, from its construction, its :class:`Quotient` by its
classes: the chain positions of a star built by ``DualGraph.from_star``, so
that its identical chains cost one class, and one class per curve on any
other graph.  The definiteness verdict and Z_K, from one exact elimination,
and Laufer's Z_f run on the quotient once and are cached there per class;
the public functions expand them with :meth:`Quotient.flatten`.  The
elimination runs in integers, on sparse rows that one gcd reduces per
fold, pendant classes first, then the 2-core of a graph with cycles; the
only ``Fraction``s it makes are the entries of Z_K, one per class.  A star's
quotient is built from its families before any curve is emitted, so a star
and its flattened graph share one, and ``brieskorn`` reads ``p_f`` off it
with the class-wise pairing alone.  Pairings with every curve walk the edge
list.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import compress
from math import gcd
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


class Quotient:
    """A dual graph's quotient by its classes, and what is computed on it.

    ``genera[A]`` and ``self_ints[A]`` are those of every curve of class A,
    ``sizes[A]`` is its number of curves ``|A|``, and ``into[A][B]`` the
    number ``n_BA`` of edges from one curve of class B into class A, keyed
    in increasing B.  The classes are equitable: every curve of A has the
    same ``n_AB`` edges into each class B, and no edge joins two curves of
    A.  A vector over the classes stands for the cycle that is ``z_A`` on
    every curve of A.  The definiteness verdict, Z_K and Z_f are computed
    on first use and cached here, one entry per class.

    ``spans`` is ``None`` when every class is one curve, and on a star's
    quotient, from :meth:`star`, family w's classes ``range(first, end)``
    as ``spans[w] = (first, end)``, with ``first == end`` for an empty
    family.  It fixes the star's curve layout, which :meth:`flatten` and
    :meth:`curves` alone turn into curve indices.
    """

    __slots__ = ("genera", "self_ints", "sizes", "into", "spans", "_neg_def", "_zk", "_zf")

    def __init__(self, genera, self_ints, sizes, into: list[dict[int, int]], spans=None) -> None:
        self.genera, self.self_ints, self.sizes, self.into = genera, self_ints, sizes, into
        self.spans = spans
        # the verdict, Z_K and Z_f, computed from the data above on first use;
        # that data never changes
        self._neg_def = self._zk = self._zf = None

    @classmethod
    def star(cls, center: tuple[int, int], families: Iterable[tuple[int, Sequence[int]]]):
        """The quotient of the star that :meth:`DualGraph.from_star` flattens
        from the same arguments, built from the families in O(classes): class
        0 is the center, then each family's chain positions center-outward,
        each of ``count`` curves, recorded in ``spans``.  The center and each
        family are checked once, with the plain constructor's ``DomainError``
        messages; ``count`` must be a positive ``int``."""
        g0, c0 = center
        _check_vertex(g0, c0)
        self_ints, sizes, into, spans = [c0], [1], [{}], []
        for count, chain in families:
            if not isinstance(count, int) or count < 1:
                raise DomainError(f"a family needs a positive integer count, got {count!r}")
            chain = list(chain)
            for e in chain:
                _check_vertex(0, e)
            first, s = len(sizes), len(chain)
            spans.append((first, first + s))
            if not chain:
                continue
            self_ints += chain
            sizes += [count] * s
            # the center sends count edges into the first position, and each
            # position one edge to each neighbouring position
            into[0][first] = 1
            into.append({0: count})
            into += [{a - 1: 1} for a in range(first + 1, first + s)]
            for a in range(first, first + s - 1):
                into[a][a + 1] = 1
        return cls((g0,) + (0,) * (len(sizes) - 1), tuple(self_ints), tuple(sizes), into,
                   tuple(spans))

    def flatten(self, z: Sequence) -> tuple:
        """The class vector z as one coefficient per curve, in the vertex
        order of the flattened graph.

        That order is a contract: on a star, the center at index 0, then
        each family's ``count`` chain copies one after the other, each
        center-outward; with one class per curve, z itself."""
        if self.spans is None:
            return tuple(z)
        out = [z[0]]
        for first, end in self.spans:
            if first < end:
                out += z[first:end] * self.sizes[first]
        return tuple(out)

    def curves(self, a: int) -> range:
        """The curves of class a, in the order of :meth:`flatten`: the
        curves of the classes before a's family come first."""
        for first, end in self.spans or ():
            if first <= a < end:
                s, start = end - first, sum(self.sizes[:first]) + a - first
                return range(start, start + self.sizes[a] * s, s)
        return range(a, a + 1)

    def products(self, z: Sequence) -> list:
        """The class-wise pairing ``(N z)_A = E_A^2 z_A + sum_B n_AB z_B``:
        what the cycle of class vector z pairs to with every curve of A."""
        out = list(map(mul, self.self_ints, z))
        for b, row in enumerate(self.into):
            for a, w in row.items():
                out[a] += w * z[b]
        return out

    def arithmetic_genus(self, z: Sequence[int]) -> int:
        """:func:`arithmetic_genus` of the cycle of class vector z, class by
        class: ``z.(z+K) = sum_A |A| z_A ((N z)_A - E_A^2 + 2 g_A - 2)``."""
        return _genus(z, sum(
            s * c * (p - e + 2 * g - 2)
            for s, c, p, e, g in zip(self.sizes, z, self.products(z), self.self_ints, self.genera)
        ))

    def is_negative_definite(self) -> bool:
        """The verdict of :func:`is_negative_definite`, from one elimination."""
        if self._neg_def is None:
            self._solve()
        return self._neg_def

    def fundamental_cycle(self) -> Cycle:
        """Z_f as a class vector, by the classical computation sequence run
        class by class; see :func:`fundamental_cycle`."""
        if self._zf is not None:
            return self._zf
        if not self.is_negative_definite():
            raise DomainError("fundamental cycle needs a negative-definite graph; "
                              "the computation sequence may not terminate otherwise")
        # each class's (B, n_BA) pairs, as tuples built once per call
        nbrs = [tuple(row.items()) for row in self.into]
        step = [-e for e in self.self_ints]  # c_A
        d = self.products([1] * len(step))
        z = [1] * len(step)
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
            for b, w in nbrs[a]:
                db = d[b] + k * w
                d[b] = db
                if db > 0 and not queued[b]:
                    queued[b] = True
                    work.append(b)
        self._zf = tuple(z)
        return self._zf

    def _solve(self) -> None:
        """Eliminate the class system once against the adjunction right-hand
        side and cache the definiteness verdict and, when the form is
        negative definite, Z_K.

        With ``N_AB = n_AB`` and ``N_AA = E_A^2``, a cycle constant on
        classes pairs with every curve of A to ``(N z)_A``, so the class
        system is ``N z = y`` with ``y_A = E_A^2 + 2 - 2 g_A``.  With one
        class per curve this is the ordinary elimination.  It is sound on a
        star's chain positions:

        - Let ``D = diag(|A|)``.  ``DN`` is the form restricted to
          class-constant cycles, and it is symmetric.  The pivots of N are
          those of DN divided by ``|A|``, so they have the same signs in any
          order.  Z_K is unique and constant on classes, so the class solve
          gives Z_K.
        - A cycle orthogonal to the class-constant ones is 0 at the center and
          splits over the chain copies, so on it the form is a sum of chain
          forms ``C_w``.  Class-constant cycles that live on family w only
          give ``count_w C_w``.  So if the class-constant form is definite,
          every ``C_w`` is definite, and so is the whole form: the verdict is
          that of the flattened graph, in any order.

        The form is negative definite exactly when every pivot is negative, so
        the elimination stops at the first pivot >= 0.  Three steps:

        - Order: a class with exactly one neighbouring class not yet ordered
          is taken from a stack of such classes, which is refilled as
          neighbours drop to one.  Eliminated in that order, it creates no
          fill-in (Parter, "The use of linear graphs in Gauss elimination",
          1961).  This orders every class of a star, or of any tree.  The
          classes left over, the 2-core, follow in index order.
        - Fold, in integers, as Bareiss's fraction-free elimination does
          ("Sylvester's identity and multistep integer-preserving Gaussian
          elimination", 1968): class a keeps a sparse row ``R_a`` over the
          classes not yet eliminated, pivot included, and ``y_a``, both the
          true ones times one positive number, so no denominator is kept.
          With ``q = -R_ii``, class i folds into each later class j of its
          row as ``R_j <- q R_j + R_ji R_i`` and ``y_j <- q y_j + R_ji y_i``,
          and one gcd reduces the new row and ``y_j``.  A pendant class has
          one later class, so on a tree no row gains an entry.
        - Back-substitute in reverse order: ``x_i = (y_i - sum_k R_ik x_k) /
          R_ii`` as a pair ``X_i / D_i`` in lowest terms with ``D_i > 0``,
          each term reduced by ``gcd(R_ik, D_k)`` and added by Henrici's
          rule (Knuth, TAOCP vol. 2, 4.5.1).  Z_K's ``Fraction``s, one per
          class, are made from these pairs, and they are the only ones.

        Linear-time in the classes on trees of bounded degree.  Each fold
        scales the whole row it folds into, so a class with d neighbours
        costs O(d^2), as the center of a flattened star with many chains.
        """
        into, self_ints = self.into, self.self_ints
        n = len(into)
        # deg[a]: the neighbouring classes of a not yet ordered, 0 once a is; a
        # one-class graph starts with its class on the stack
        deg = [len(row) for row in into]
        stack = [a for a in range(n - 1, -1, -1) if deg[a] < 2]
        order: list[int] = []
        while stack:
            a = stack.pop()
            order.append(a)
            if deg[a]:  # else its last neighbour went first: a is what is left of a tree
                deg[a] = 0
                for b in into[a]:
                    if deg[b]:
                        break
                deg[b] -= 1
                if deg[b] == 1:
                    stack.append(b)
        # every class not yet ordered has two or more such neighbours
        order += [a for a in range(n) if deg[a]]

        # rows[a][b] = N_ab times a positive number, as is y[a]; once a is
        # eliminated, rows[a] is its reduced row over the classes after it,
        # pivot included
        rows = [{a: e} for a, e in enumerate(self_ints)]
        for b, row in enumerate(into):
            for a, w in row.items():
                rows[a][b] = w
        y = [e + 2 - 2 * gen for e, gen in zip(self_ints, self.genera)]
        for i in order:
            row = rows[i]
            q = -row.pop(i)
            if q <= 0:
                self._neg_def = False
                return
            for j in row:
                rj = rows[j]
                r = rj.pop(i)
                for k in rj:
                    rj[k] *= q
                for k, u in row.items():
                    rj[k] = rj.get(k, 0) + r * u
                y[j] = q * y[j] + r * y[i]
                g = gcd(y[j], *rj.values())
                if g > 1:
                    for k in rj:
                        rj[k] //= g
                    y[j] //= g
            row[i] = -q

        X, D = [0] * n, [1] * n
        for i in reversed(order):
            p = rows[i].pop(i)
            num, den = y[i], 1
            for k, u in rows[i].items():
                # num / den minus u X_k / D_k, both brought to lowest terms
                h = gcd(u, D[k])
                u, d = u // h * X[k], D[k] // h
                d1 = gcd(den, d)
                t = num * (d // d1) - u * (den // d1)
                d2 = gcd(t, d1)
                num, den = t // d2, den // d1 * (d // d2)
            # num is prime to den, so only a factor of the negative p is common
            g = -gcd(num, p)
            X[i], D[i] = num // g, p // g * den
        self._neg_def = True
        self._zk = tuple(map(Fraction, X, D))


class DualGraph:
    """Connected weighted dual graph with a fixed vertex order.

    ``vertices`` is an iterable of ``(genus, self_intersection)`` pairs,
    ``edges`` an iterable of vertex-index pairs.  Repeating a pair makes a
    multi-edge.  Negativity of self-intersections is deliberately not
    enforced here; it is the job of :func:`is_negative_definite`.

    ``quotient`` is the graph's :class:`Quotient` by its classes, which
    holds the cached results.  ``classes`` maps each curve to its class:
    ``None``, every curve its own class and the quotient the adjacency that
    the constructor builds for its connectivity check, except on a graph
    built by :meth:`from_star`, where it gives each curve its chain
    position.  Equality, hashing and ``to_json_dict`` ignore both.
    """

    __slots__ = ("genera", "self_ints", "edges", "classes", "quotient")

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
        genera, self_ints = tuple(genera), tuple(self_ints)
        # with one class per curve, the quotient is the adjacency
        quotient = Quotient(genera, self_ints, (1,) * n, adj)
        self._fill(genera, self_ints, tuple(norm), None, quotient)

    def _fill(self, genera, self_ints, edges, classes, quotient: Quotient) -> None:
        self.genera, self.self_ints, self.edges = genera, self_ints, edges
        self.classes, self.quotient = classes, quotient

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
    def from_star(cls, center: tuple[int, int], families: Iterable) -> "DualGraph":
        """Flattened star: ``center`` is ``(genus, self_int)``, and each
        ``(count, chain)`` of ``families`` hangs ``count`` copies of the
        genus-0 chain ``chain``, self-intersections listed center-outward,
        on the center.  Its quotient, from :meth:`Quotient.star`, is built
        and checked first; :meth:`from_star_quotient` emits the curves.
        """
        return cls.from_star_quotient(Quotient.star(center, families))

    @classmethod
    def from_star_quotient(cls, q: Quotient) -> "DualGraph":
        """The star whose quotient :meth:`Quotient.star` built, curve by
        curve, sharing that quotient.

        The curves come in the order of :meth:`Quotient.flatten`, which
        gives each its genus, self-intersection and class.  The center meets
        every curve of each class next to it, and a curve of another class A
        meets the next curve when A's chain goes on to class A + 1; so the
        edges come out normalized and sorted, and the graph is connected by
        construction and needs no search.
        """
        classes = q.flatten(list(range(len(q.sizes))))
        goes_on = q.flatten([a and a + 1 in row for a, row in enumerate(q.into)])
        edges = [(0, v) for b in q.into[0] for v in q.curves(b)]
        edges += [(v, v + 1) for v in compress(range(len(classes)), goes_on)]
        g = cls.__new__(cls)
        g._fill(q.flatten(q.genera), q.flatten(q.self_ints), tuple(edges), classes, q)
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

    Starts at the reduced cycle.  With ``c_A = -E^2`` and ``n_AB`` the edges
    from one curve of class A into class B, every curve of A pairs to
    ``d_A = -c_A z_A + sum_B n_AB z_B`` while the cycle is constant on
    classes.  A FIFO worklist holds the classes with ``d_A > 0``, each
    queued at most once; a class taken from it gets ``k = ceil(d_A / c_A)``
    copies of every one of its curves, so ``d_A`` falls by ``k c_A`` and
    each other class B gains ``k n_BA``.  Made as k rounds that each add one
    copy of every curve of A in turn, every single addition is at a curve of
    positive pairing: round t starts with ``d_A - (t-1) c_A > 0`` on every
    curve of A, and a curve's pairing does not move while the others of its
    class are added, since no edge joins them.  So the lifted run is a
    Laufer sequence, and it ends at Z_f whatever the order (Laufer, "On
    rational singularities", 1972).  ``c_A`` is positive because the form
    is negative definite.  The result is cached on the quotient.
    """
    return g.quotient.flatten(g.quotient.fundamental_cycle())


def is_negative_definite(g: DualGraph) -> bool:
    """Exact definiteness test via symmetric elimination (all pivots < 0)."""
    return g.quotient.is_negative_definite()


def canonical_qcycle(g: DualGraph) -> QCycle:
    """Unique rational cycle with Z_K . E_i = E_i^2 + 2 - 2 genus(E_i) for all i.

    These are the adjunction equalities for the canonical cycle; the solution
    is rational in general and integral for Gorenstein singularities.  Raises
    DomainError, on every call, unless the graph is negative definite, as
    every resolution graph is.
    """
    if not is_negative_definite(g):
        raise DomainError("canonical cycle needs a negative-definite graph")
    return g.quotient.flatten(g.quotient._zk)


def _genus(z: Sequence, val) -> int:
    """p_a(z) = z.(z+K)/2 + 1 from ``val = z.(z+K)``."""
    if not any(z):
        raise DomainError("arithmetic genus of the zero cycle is undefined")
    if not isinstance(val, int):
        raise DomainError(f"arithmetic genus needs an integral cycle; z.(z+K) = {val!r}")
    if val % 2 != 0:
        raise InternalError("z.(z+K) came out odd; the graph data is inconsistent")
    return val // 2 + 1


def arithmetic_genus(g: DualGraph, z: Sequence[int]) -> int:
    """p_a(z) = z.(z + K)/2 + 1, with ``z.(z+K) = sum_i z_i ((z.E_i) + K.E_i)``
    over one walk of the edges and the adjunction values
    ``K.E_i = -E_i^2 + 2 genus(E_i) - 2``."""
    _check_cycle(g, z)
    return _genus(z, sum(
        c * (p - e + 2 * gen - 2)
        for c, p, e, gen in zip(z, cycle_products(g, z), g.self_ints, g.genera)
    ))


def to_dot(g: DualGraph) -> str:
    """Graphviz rendering with one node per exceptional curve."""
    lines = ["graph dual {"]
    for i, (gen, e) in enumerate(zip(g.genera, g.self_ints)):
        lines.append(f'  n{i} [label="g={gen}, e={e}"];')
    for i, j in g.edges:
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
