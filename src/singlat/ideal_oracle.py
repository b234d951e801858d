"""Combinatorial oracle for integral closures of maximal-ideal powers.

For an exponent tuple a = (a_1 <= ... <= a_m) the closures of the powers of
the maximal ideal are monomial; membership reduces to one weighted-degree
inequality, and the lattice counts behind the colength sequence reduce to
counting box points.  Everything here is independent of the resolution
graph, so it doubles as a cross-check for the intersection-theoretic route.

The box is prod_{i <= m-2} [0, a_i - 1].  One degree states every
condition on it: with lambda_i = ell / a_i and ell = lcm(a), a box point u
has degree D(u) = sum u_i lambda_i, and x^(u, x, y) lies in the closure of
the n-th power iff D(u) >= (n - x - y) lambda_{m-1}.  Every route over the
box (the quotient table, the closure generators, and the box-basis count of
p_g in ``brieskorn``) checks its size against ``LATTICE_BUDGET`` before
building any list, and raises ``ResourceError`` when it is too large.  The
quotient table and p_g read one sorted list of the box degrees, built once
per tuple: the table bisects it, p_g counts its pairs on it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence

from .errors import DimensionError, DomainError, InternalError, ResourceError

__all__ = [
    "LATTICE_BUDGET",
    "Monomial",
    "QuotientTable",
    "monomial_in_closure",
    "quotient_dimension",
    "quotient_table",
    "nr_by_oracle",
    "closure_monomials",
    "qp_consistency",
    "nr_pg_bound_check",
]

Monomial = tuple[int, ...]

# Most lattice points one route may enumerate: the box points prod_{i<=m-2} a_i,
# the closure generators box * (k + 1), the p_g pairs ((m-2) a_{m-1} + 1)
# ((m-2) a_m + 1), the N + 1 entries of q(0..N) or d + 1 of a cone report, the
# curves 1 + sum count * len(chain) of a flattened star graph.  A million ints
# is tens of MB; tests, demos and benchmark pools stay below 10^5.
LATTICE_BUDGET = 1_000_000


def _check_budget(count: int, what: str, unit: str = "lattice points") -> None:
    if count > LATTICE_BUDGET:
        raise ResourceError(
            f"{what} needs {count} {unit}, above the budget of {LATTICE_BUDGET}"
        )


def _validated(a: Sequence[int]) -> tuple[int, ...]:
    t = tuple(a)
    if len(t) < 3:
        raise DomainError(f"need at least three exponents, got {len(t)}")
    for v in t:
        if not isinstance(v, int):
            raise DomainError(f"exponents must be integers, got {v!r}")
    if t[0] < 2:
        raise DomainError(f"exponents must be >= 2, got {t[0]}")
    if any(x > y for x, y in zip(t, t[1:])):
        raise DomainError(f"exponents must be non-decreasing, got {t}")
    return t


def monomial_in_closure(a: Sequence[int], u: Sequence[int], n: int) -> bool:
    """Is x^u in the integral closure of the n-th power of the maximal ideal?

    x^u lies in that closure iff
    sum_{i <= m-2} u_i / a_i  >=  (n - u_{m-1} - u_m) / a_{m-1},
    that is, in the grading lambda_i = ell / a_i with ell = lcm(a), iff
    sum_{i <= m-2} u_i lambda_i  >=  (n - u_{m-1} - u_m) lambda_{m-1}.
    """
    a = _validated(a)
    m = len(a)
    u = tuple(u)
    if len(u) != m:
        raise DimensionError(f"monomial has {len(u)} entries, expected {m}")
    if any(not isinstance(v, int) or v < 0 for v in u):
        raise DomainError(f"monomial entries must be nonnegative integers, got {u}")
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"power must be a nonnegative integer, got {n!r}")
    *lams, step = _lambdas(a)
    return sum(ui * li for ui, li in zip(u, lams)) >= (n - u[m - 2] - u[m - 1]) * step


class QuotientTable(NamedTuple):
    """p[n] for n = 0..n_stop, where n_stop is the first index with p = 0;
    p(n) stays 0 from there on.  n_stop equals the normal reduction number
    of the maximal ideal."""

    p: tuple[int, ...]
    n_stop: int


def _box_size(sizes: Sequence[int]) -> tuple[int, str]:
    """The points of the box prod [0, size_i - 1], as ``(count, what)`` for
    ``_check_budget``."""
    return math.prod(sizes), f"the exponent box {tuple(sizes)}"


def _box_sums(sizes: Sequence[int], weights: Sequence[int]) -> list[int]:
    """sum u_i w_i over the box prod [0, size_i - 1], in lex order."""
    _check_budget(*_box_size(sizes))
    sums = [0]
    for n, w in zip(sizes, weights):
        sums = [x for s in sums for x in range(s, s + n * w, w)]
    return sums


def _lambdas(a: tuple[int, ...]) -> list[int]:
    """The degrees lambda_i = ell / a_i of x_1 .. x_{m-1}, ell = lcm(a)."""
    ell = math.lcm(*a)
    return [ell // ai for ai in a[: len(a) - 1]]


@lru_cache(maxsize=1)
def _box_degrees(a: tuple[int, ...]) -> tuple[int, ...]:
    """The degrees D(u) = sum u_i lambda_i of the box points, sorted.  p_g
    and the quotient table of a tuple are asked for back to back, so one
    entry serves both; a larger cache would keep more box-sized lists
    alive."""
    return tuple(sorted(_box_sums(a[: len(a) - 2], _lambdas(a))))


@lru_cache(maxsize=4096)
def _table_cached(a: tuple[int, ...]) -> QuotientTable:
    degs = _box_degrees(a)
    step = _lambdas(a)[-1]  # lambda_{m-1}
    p = []  # p[n] counts the degrees >= (n + 1) lambda_{m-1}, up to the first 0
    while not p or p[-1]:
        p.append(len(degs) - bisect_left(degs, (len(p) + 1) * step))
    return QuotientTable(p=tuple(p), n_stop=len(p) - 1)


def quotient_table(a: Sequence[int]) -> QuotientTable:
    """All quotient dimensions of the exponent tuple, read off the sorted
    box degrees."""
    return _table_cached(_validated(a))


def quotient_dimension(a: Sequence[int], n: int) -> int:
    """Number of box points u (over the first m-2 coordinates) with
    sum u_i lambda_i >= (n+1) lambda_{m-1}; the n-th quotient dimension,
    one bisection of the sorted box degrees."""
    a = _validated(a)
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"index must be a nonnegative integer, got {n!r}")
    table = _table_cached(a)
    return table.p[n] if n < table.n_stop else 0


def nr_by_oracle(a: Sequence[int]) -> int:
    """Normal reduction number read off from where the quotient dimensions vanish."""
    return quotient_table(a).n_stop


def closure_monomials(a: Sequence[int], k: int) -> list[Monomial]:
    """Divisibility-minimal monomials of the closure of the k-th power, sorted
    lexicographically.  (0, ..., 0, k) is always among them.

    For a box point u (first m-2 coordinates) let
    r(u) = max(0, k - floor(D(u) / lambda_{m-1})), D(u) = sum u_i lambda_i:
    x^(u, x, y) is in the closure iff x + y >= r(u), and r does not increase
    along the box.  So (u, x, y) is a minimal generator exactly when
    x + y = r(u) and r(u - e_i) > r(u) for every i with u_i > 0.  Along each
    line of the last box coordinate r drops at most k times, so only the
    points where it drops (and the line's start) are tested; walking the
    lines in lex order emits the generators already sorted.
    """
    a = _validated(a)
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"power must be a positive integer, got {k!r}")
    m = len(a)
    sizes = a[: m - 2]
    *weights, step = _lambdas(a)
    _check_budget(math.prod(sizes) * (k + 1), f"the closure generators of {a} at power {k}")
    n, w = sizes[-1], weights[-1]
    minimal: list[Monomial] = []
    for head in product(*map(range, sizes[:-1])):
        base = sum(ui * wi for ui, wi in zip(head, weights))
        j = 0
        while j < n:
            deg = base + j * w
            r = max(0, k - deg // step)
            if all(k - (deg - wi) // step > r for ui, wi in zip(head, weights) if ui):
                u = head + (j,)
                minimal.extend([u + (x, r - x) for x in range(r + 1)])
            if r == 0:
                break
            j = -((base - (deg // step + 1) * step) // w)  # where floor(deg / step) next grows
    top = (0,) * (m - 1) + (k,)
    if top not in minimal:
        raise InternalError(f"apex monomial {top} missing from the antichain")
    return sorted(minimal)


def qp_consistency(q: Sequence[int], p: Sequence[int]) -> bool:
    """Does the colength sequence match the quotient dimensions?

    Checks that q is non-increasing and that the second difference identity
    q(n+1) + q(n-1) - 2 q(n) = p(n) holds for n = 1 .. len(q)-2.
    """
    q = tuple(q)
    p = tuple(p)
    if len(q) < 3:
        raise DimensionError(f"need at least three q values, got {len(q)}")
    if len(p) < len(q) - 1:
        raise DimensionError(
            f"need at least {len(q) - 1} p values for {len(q)} q values, got {len(p)}"
        )
    if any(x > y for x, y in zip(q[1:], q)):
        return False
    return all(
        q[n + 1] + q[n - 1] - 2 * q[n] == p[n] for n in range(1, len(q) - 1)
    )


def nr_pg_bound_check(a: Sequence[int]) -> bool:
    """Bound r(r-1)/2 + q(r) <= p_g at r = the normal reduction number."""
    from . import brieskorn

    a = _validated(a)
    r = brieskorn.normal_reduction_number(a)
    q = brieskorn.q_sequence(a, r)
    return r * (r - 1) // 2 + q[r] <= brieskorn.geometric_genus(a)
