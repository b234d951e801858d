"""Intersection theory on weighted dual graphs of resolved surface singularities.

A vertex stands for an irreducible exceptional curve and carries a genus and a
self-intersection number; edges record transverse intersection points
(multi-edges allowed, self-loops not).  A cycle is a dense integer coefficient
vector in the fixed vertex order; a Q-cycle uses exact rationals.  All
arithmetic is exact, with no floating point.

Each graph object is eliminated once: a symmetric Gaussian elimination,
carrying rationals as reduced integer pairs, yields both the definiteness
verdict and the canonical Q-cycle Z_K.  It peels pendant vertices first, on
flat integer lists and without fill-in, and runs greedy min-degree pivoting
only on what survives: the 2-core, or a single vertex of a tree.  Laufer's
fundamental cycle Z_f comes from the computation sequence run on a FIFO
worklist of the vertices with positive pairing.  All three are cached on the
graph, so repeated calls on one graph cost a lookup.
"""

from __future__ import annotations

import heapq
from collections import deque
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionError, DomainError, InternalError

Cycle = tuple[int, ...]
QCycle = tuple[Fraction, ...]
_Pair = tuple[int, int]  # a rational as (num, den), den > 0, in lowest terms
_ZERO_PIVOT = "zero pivot with live neighbors: singular or indefinite intersection matrix"

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
    """

    __slots__ = (
        "genera", "self_ints", "edges", "_adj", "_neg_def", "_zk", "_zk_error", "_zf"
    )

    def __init__(
        self,
        vertices: Iterable[tuple[int, int]],
        edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        genera: list[int] = []
        self_ints: list[int] = []
        for g, e in vertices:
            if not isinstance(g, int) or not isinstance(e, int):
                raise DomainError("vertex data must be integer (genus, self_int) pairs")
            if g < 0:
                raise DomainError(f"genus must be nonnegative, got {g}")
            genera.append(g)
            self_ints.append(e)
        n = len(genera)
        if n == 0:
            raise DomainError("a dual graph needs at least one vertex")

        norm: list[tuple[int, int]] = []
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise DomainError(f"edge ({i},{j}) leaves the vertex range 0..{n - 1}")
            if i == j:
                raise DomainError(f"self-loop at vertex {i} is not allowed")
            norm.append((i, j) if i < j else (j, i))
        norm.sort()

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

        self.genera: tuple[int, ...] = tuple(genera)
        self.self_ints: tuple[int, ...] = tuple(self_ints)
        self.edges: tuple[tuple[int, int], ...] = tuple(norm)
        self._adj: tuple[dict[int, int], ...] = tuple(adj)
        # result caches, filled on first use; the data above never changes
        self._neg_def: bool | None = None
        self._zk: QCycle | None = None
        self._zk_error: str | None = None
        self._zf: Cycle | None = None

    @property
    def n(self) -> int:
        return len(self.genera)

    def neighbor_items(self, i: int) -> Iterable[tuple[int, int]]:
        """Pairs (neighbor index, edge multiplicity) of vertex i."""
        return self._adj[i].items()

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
    def from_json_dict(cls, doc: dict) -> "DualGraph":
        try:
            vertices = [(v["genus"], v["self_int"]) for v in doc["vertices"]]
            edges = [(int(i), int(j)) for i, j in doc["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed dual-graph document: {exc}") from None
        return cls(vertices, edges)


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
    total = sum(a * e * b for a, e, b in zip(z1, g.self_ints, z2))
    for i, j in g.edges:
        total += z1[i] * z2[j] + z1[j] * z2[i]
    return total


def cycle_products(g: DualGraph, z: Sequence) -> tuple:
    """All pairings (z . E_i) in vertex order."""
    _check_cycle(g, z)
    out = []
    for i, (e, row) in enumerate(zip(g.self_ints, g._adj)):
        v = z[i] * e
        for j, w in row.items():
            v += w * z[j]
        out.append(v)
    return tuple(out)


def is_anti_nef(g: DualGraph, z: Sequence) -> bool:
    """True iff z . E_i <= 0 for every vertex.  Meant for effective z."""
    _check_cycle(g, z)
    for i in range(g.n):
        v = z[i] * g.self_ints[i]
        for j, w in g.neighbor_items(i):
            v += w * z[j]
        if v > 0:
            return False
    return True


def fundamental_cycle(g: DualGraph) -> Cycle:
    """Smallest non-zero anti-nef cycle, by the classical computation sequence.

    Starts at the reduced cycle and keeps a FIFO worklist of the vertices
    whose pairing is positive, each queued at most once; a vertex taken from
    it gets ceil(d_i / -E_i^2) copies of E_i at once, the whole run of
    consecutive additions there.  The endpoint does not depend on the
    processing order, only the trace does.  The result is cached on the graph.
    """
    if g._zf is not None:
        return g._zf
    if not is_negative_definite(g):
        raise DomainError(
            "fundamental cycle needs a negative-definite graph; "
            "the computation sequence may not terminate otherwise"
        )
    adj, self_ints = g._adj, g.self_ints
    z = [1] * g.n
    d = [e + sum(row.values()) for e, row in zip(self_ints, adj)]
    queued = [v > 0 for v in d]
    work = deque(i for i, v in enumerate(d) if v > 0)
    # a queued pairing only grows until its vertex is taken, so it is still
    # positive then
    while work:
        i = work.popleft()
        queued[i] = False
        c = -self_ints[i]  # positive: diagonal of a negative-definite form
        k = -(-d[i] // c)
        z[i] += k
        d[i] -= k * c
        for j, w in adj[i].items():
            dj = d[j] + k * w
            d[j] = dj
            if dj > 0 and not queued[j]:
                queued[j] = True
                work.append(j)
    g._zf = tuple(z)
    return g._zf


def _eliminate(g: DualGraph, rhs: Sequence[int]):
    """Exact symmetric Gaussian elimination, pendant vertices first.

    Every rational is a reduced integer pair (the floor divisions are skipped
    when the gcd is 1).  Two phases:

    - Peel: a vertex with exactly one live neighbor is taken from a stack of
      such vertices, which is refilled as neighbors drop to one.  Eliminating
      a leaf creates no fill-in (Parter, "The use of linear graphs in Gauss
      elimination", 1961), so it only updates its neighbor's diagonal and
      right-hand side, kept as parallel num/den lists.
    - Core: what survives (the 2-core, or the last vertex of a tree) is
      eliminated on dict rows with greedy min-degree pivoting.

    Returns (peeled, pivots, order, kept, yn, yd).  peeled lists
    (v, p, w, pivot num, pivot den) for each peeled vertex v, its live
    neighbor p and the edge multiplicity w; pivots and order list the core
    steps; kept[i] holds the reduced off-diagonal row of core vertex i at the
    moment it was eliminated, restricted to vertices eliminated later; yn/yd
    is the correspondingly reduced rhs.  Linear-time on trees.  Raises
    DomainError on a zero pivot that still has live neighbors.
    """
    n = g.n
    adj = g._adj
    dn, dd = list(g.self_ints), [1] * n
    yn, yd = list(rhs), [1] * n
    alive = [True] * n
    deg = [len(row) for row in adj]
    # leaves pop in index order, the tie-break of the heap below
    stack = [i for i in range(n - 1, -1, -1) if deg[i] == 1]
    peeled: list[tuple[int, int, int, int, int]] = []
    while stack:
        v = stack.pop()
        if deg[v] != 1:
            continue  # its last neighbor went first: v is what is left of a tree
        alive[v] = False
        for p, w in adj[v].items():
            if alive[p]:
                break
        pn, pd = dn[v], dd[v]
        if pn == 0:
            raise DomainError(_ZERO_PIVOT)
        peeled.append((v, p, w, pn, pd))
        # d_p -= w^2 / pivot
        an, ad = dn[p], dd[p]
        num, den = an * pn - w * w * pd * ad, ad * pn
        if den < 0:
            num, den = -num, -den
        c = gcd(num, den)
        if c == 1:
            dn[p], dd[p] = num, den
        else:
            dn[p], dd[p] = num // c, den // c
        # y_p -= w y_v / pivot
        cn = yn[v]
        if cn:
            cd, en, ed = yd[v], yn[p], yd[p]
            num, den = en * cd * pn - w * cn * pd * ed, ed * cd * pn
            if den < 0:
                num, den = -num, -den
            c = gcd(num, den)
            if c == 1:
                yn[p], yd[p] = num, den
            else:
                yn[p], yd[p] = num // c, den // c
        d = deg[p] - 1
        deg[p] = d
        if d == 1:
            stack.append(p)

    rows: dict[int, dict[int, _Pair]] = {}
    for i in range(n):
        if alive[i]:
            row = {i: (dn[i], dd[i])}
            for j, w in adj[i].items():
                if alive[j]:
                    row[j] = (w, 1)
            rows[i] = row
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    pivots: list[_Pair] = []
    order: list[int] = []
    kept: dict[int, dict[int, _Pair]] = {}

    while heap:
        size, i = heapq.heappop(heap)
        if not alive[i] or size != len(rows[i]):
            continue
        alive[i] = False
        row = rows[i]
        piv = row.pop(i)
        pivots.append(piv)
        order.append(i)
        kept[i] = row
        pn, pd = piv
        if pn == 0:
            if row:
                raise DomainError(_ZERO_PIVOT)
            continue
        cn, cd = yn[i], yd[i]
        for j in list(row):
            rj = rows[j]
            # f = rows[j][i] / piv; then rows[j] -= f row and y[j] -= f y[i]
            an, ad = rj.pop(i)
            fn, fd = an * pd, ad * pn
            if fd < 0:
                fn, fd = -fn, -fd
            c = gcd(fn, fd)
            if c != 1:
                fn, fd = fn // c, fd // c
            for k, (vn, vd) in row.items():
                tn, td = fn * vn, fd * vd
                e = rj.get(k)
                if e is None:
                    num, den = -tn, td
                else:
                    num, den = e[0] * td - tn * e[1], e[1] * td
                c = gcd(num, den)
                rj[k] = (num, den) if c == 1 else (num // c, den // c)
            en, ed = yn[j], yd[j]
            tn, td = fn * cn, fd * cd
            num, den = en * td - tn * ed, ed * td
            c = gcd(num, den)
            yn[j], yd[j] = (num, den) if c == 1 else (num // c, den // c)
            heapq.heappush(heap, (len(rj), j))
    return peeled, pivots, order, kept, yn, yd


def _solve(g: DualGraph) -> None:
    """Eliminate g once against the adjunction right-hand side and cache the
    definiteness verdict and Z_K, or the reason Z_K does not exist, on g."""
    b = [e + 2 - 2 * gen for e, gen in zip(g.self_ints, g.genera)]
    try:
        peeled, pivots, order, kept, yn, yd = _eliminate(g, b)
    except DomainError as exc:
        g._neg_def, g._zk_error = False, str(exc)
        return
    if any(pn == 0 for pn, _ in pivots):
        g._neg_def, g._zk_error = False, "singular intersection matrix"
        return
    x: list[_Pair] = [(0, 1)] * g.n
    for (pn, pd), i in zip(reversed(pivots), reversed(order)):
        # x_i = (y_i - sum_k kept_ik x_k) / pivot_i
        num, den = yn[i], yd[i]
        for k, (vn, vd) in kept[i].items():
            xn, xd = x[k]
            tn, td = vn * xn, vd * xd
            num, den = num * td - tn * den, den * td
            c = gcd(num, den)
            if c != 1:
                num, den = num // c, den // c
        num, den = num * pd, den * pn
        if den < 0:
            num, den = -num, -den
        c = gcd(num, den)
        x[i] = (num, den) if c == 1 else (num // c, den // c)
    for v, p, w, pn, pd in reversed(peeled):
        # x_v = (y_v - w x_p) / pivot_v
        xn, xd = x[p]
        cd = yd[v]
        num, den = (yn[v] * xd - w * xn * cd) * pd, cd * xd * pn
        if den < 0:
            num, den = -num, -den
        c = gcd(num, den)
        x[v] = (num, den) if c == 1 else (num // c, den // c)
    g._neg_def = all(pn < 0 for _, _, _, pn, _ in peeled) and all(pn < 0 for pn, _ in pivots)
    # one Fraction per distinct value; the pairs are already in lowest terms
    fracs = {pair: Fraction(*pair) for pair in set(x)}
    g._zk = tuple(map(fracs.__getitem__, x))


def is_negative_definite(g: DualGraph) -> bool:
    """Exact definiteness test via symmetric elimination (all pivots < 0)."""
    if g._neg_def is None:
        _solve(g)
    return g._neg_def


def canonical_qcycle(g: DualGraph) -> QCycle:
    """Unique rational cycle with Z_K . E_i = E_i^2 + 2 - 2 genus(E_i) for all i.

    These are the adjunction equalities for the canonical cycle; the solution
    is rational in general and integral for Gorenstein singularities.  Raises
    DomainError, on every call, when the intersection matrix is singular.
    """
    if g._neg_def is None:
        _solve(g)
    if g._zk is None:
        raise DomainError(g._zk_error)
    return g._zk


def arithmetic_genus(g: DualGraph, z: Sequence[int]) -> int:
    """p_a(z) = z.(z + K)/2 + 1 via the adjunction values of z . K."""
    _check_cycle(g, z)
    if not any(z):
        raise DomainError("arithmetic genus of the zero cycle is undefined")
    zz = intersection_number(g, z, z)
    zk = sum(
        c * (-e + 2 * gen - 2) for c, e, gen in zip(z, g.self_ints, g.genera)
    )
    val = zz + zk
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
