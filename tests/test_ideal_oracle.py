"""Brute-force lattice oracles for integral closures of powers of the
maximal ideal, and the cross-checks built on them."""

import math
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import product as iproduct
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlat import (
    LATTICE_BUDGET,
    DimensionError,
    DomainError,
    InternalError,
    QuotientTable,
    ResourceError,
    closure_monomials,
    geometric_genus,
    monomial_in_closure,
    normal_reduction_number,
    nr_by_oracle,
    nr_pg_bound_check,
    numeric_invariants,
    qp_consistency,
    quotient_dimension,
    quotient_table,
)
from singlat import brieskorn, ideal_oracle

small_tuples = st.lists(
    st.integers(min_value=2, max_value=6), min_size=3, max_size=4
).map(lambda xs: tuple(sorted(xs)))


def member_naive(a, u, n):
    """The defining rational inequality, evaluated with Fractions."""
    m = len(a)
    lhs = sum(Fraction(ui, ai) for ui, ai in zip(u[: m - 2], a[: m - 2]))
    return lhs >= Fraction(n - u[m - 2] - u[m - 1], a[m - 2])


# ------------------------------------------------------------------- membership

def test_membership_fixtures():
    assert monomial_in_closure((2, 3, 7), (1, 0, 0), 1)
    assert not monomial_in_closure((2, 3, 7), (1, 0, 0), 2)
    assert monomial_in_closure((3, 4, 6), (2, 0, 0), 2)
    assert not monomial_in_closure((3, 4, 6), (2, 0, 0), 3)


def test_membership_level_zero_is_trivial():
    for u in iproduct(range(3), repeat=3):
        assert monomial_in_closure((2, 3, 7), u, 0)


def test_membership_validation():
    with pytest.raises(DimensionError):
        monomial_in_closure((2, 3, 7), (1, 0), 1)
    with pytest.raises(DomainError):
        monomial_in_closure((2, 3, 7), (1, 0, -1), 1)
    with pytest.raises(DomainError):
        monomial_in_closure((2, 3, 7), (1, 0, 0), -1)
    with pytest.raises(DomainError):
        monomial_in_closure((1, 3, 7), (1, 0, 0), 1)


@given(small_tuples, st.data())
@settings(max_examples=80, deadline=None)
def test_membership_matches_rational_inequality(a, data):
    u = tuple(
        data.draw(st.integers(min_value=0, max_value=ai + 1)) for ai in a
    )
    n = data.draw(st.integers(min_value=0, max_value=12))
    assert monomial_in_closure(a, u, n) == member_naive(a, u, n)


@given(small_tuples, st.data())
@settings(max_examples=80, deadline=None)
def test_membership_monotone(a, data):
    """Membership persists when n drops or when any exponent grows."""
    u = tuple(data.draw(st.integers(min_value=0, max_value=ai)) for ai in a)
    n = data.draw(st.integers(min_value=1, max_value=10))
    if monomial_in_closure(a, u, n):
        assert monomial_in_closure(a, u, n - 1)
        for i in range(len(a)):
            up = tuple(ui + (1 if j == i else 0) for j, ui in enumerate(u))
            assert monomial_in_closure(a, up, n)


def test_membership_superadditive_small_boxes():
    """u at level j and v at level k put u+v at level j+k, exhaustively."""
    for a in [(2, 2, 2), (2, 3, 4), (3, 4, 6)]:
        box = list(iproduct(*[range(ai) for ai in a]))
        for j, k in [(1, 1), (1, 2), (2, 2)]:
            for u in box:
                if not monomial_in_closure(a, u, j):
                    continue
                for v in box:
                    if monomial_in_closure(a, v, k):
                        w = tuple(x + y for x, y in zip(u, v))
                        assert monomial_in_closure(a, w, j + k)


# ---------------------------------------------------------- quotient dimensions

def test_quotient_dimension_fixtures():
    assert [quotient_dimension((3, 4, 6), n) for n in range(3)] == [2, 1, 0]
    assert [quotient_dimension((4, 4, 4), n) for n in range(5)] == [3, 2, 1, 0, 0]


def qd_naive(a, n):
    m = len(a)
    target = Fraction(n + 1, a[m - 2])
    count = 0
    for u in iproduct(*[range(ai) for ai in a[: m - 2]]):
        if sum(Fraction(ui, ai) for ui, ai in zip(u, a)) >= target:
            count += 1
    return count


@given(small_tuples, st.integers(min_value=0, max_value=10))
@settings(max_examples=80, deadline=None)
def test_quotient_dimension_naive_cross_check(a, n):
    assert quotient_dimension(a, n) == qd_naive(a, n)


@given(small_tuples)
@settings(max_examples=60, deadline=None)
def test_quotient_dimension_at_zero_is_multiplicity_minus_one(a):
    assert quotient_dimension(a, 0) == prod(a[: len(a) - 2]) - 1


def test_quotient_table_fixtures():
    assert quotient_table((3, 4, 6)) == QuotientTable(p=(2, 1, 0), n_stop=2)
    assert quotient_table((2, 2, 2)) == QuotientTable(p=(1, 0), n_stop=1)


@given(small_tuples)
@settings(max_examples=60, deadline=None)
def test_quotient_table_shape(a):
    table = quotient_table(a)
    assert all(x >= y for x, y in zip(table.p, table.p[1:]))
    assert all(v >= 0 for v in table.p)
    assert len(table.p) == table.n_stop + 1
    assert table.p[-1] == 0
    assert all(v > 0 for v in table.p[:-1])
    assert table.p == tuple(
        quotient_dimension(a, n) for n in range(table.n_stop + 1)
    )


def test_nr_by_oracle_fixtures():
    assert nr_by_oracle((3, 4, 6)) == 2
    assert nr_by_oracle((5, 5, 5)) == 4
    assert nr_by_oracle((2, 2, 2)) == 1


# exponents up to 40: boxes of up to 40^3 = 64,000 points, under the budget
wide_tuples = st.lists(
    st.integers(min_value=2, max_value=40), min_size=3, max_size=5
).map(lambda xs: tuple(sorted(xs)))


@given(small_tuples | wide_tuples)
@settings(max_examples=100, deadline=None)
def test_nr_by_oracle_matches_closed_form(a):
    assert nr_by_oracle(a) == normal_reduction_number(a)


# ------------------------------------------------------------------- generators

def test_closure_monomials_fixtures():
    assert closure_monomials((2, 2, 2), 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    got = closure_monomials((3, 4, 6), 2)
    assert (2, 0, 0) in got
    assert all(u != (1, 0, 0) for u in got)


def test_closure_monomials_validation():
    with pytest.raises(DomainError):
        closure_monomials((2, 2, 2), 0)


@given(small_tuples, st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_closure_monomials_shape(a, k):
    gens = closure_monomials(a, k)
    assert gens == sorted(gens)
    apex = (0,) * (len(a) - 1) + (k,)
    assert apex in gens
    for u in gens:
        assert monomial_in_closure(a, u, k)
    # divisibility antichain: no generator divides another
    for u in gens:
        for v in gens:
            if u != v:
                assert any(x > y for x, y in zip(u, v))


@given(small_tuples, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_closure_monomials_cover_the_box(a, k):
    """Every box monomial at level k sits above some generator."""
    m = len(a)
    gens = closure_monomials(a, k)
    ranges = [range(ai) for ai in a[: m - 2]]
    last_two = [
        (x, y) for x in range(k + 1) for y in range(k + 1) if x + y <= k
    ]
    for head in iproduct(*ranges):
        for tail in last_two:
            u = head + tail
            if monomial_in_closure(a, u, k):
                assert any(
                    all(x >= y for x, y in zip(u, g)) for g in gens
                )


def closure_antichain_naive(a, k):
    """Brute force: every candidate member, then the divisibility antichain by
    a quadratic scan of the members in order of degree."""
    m = len(a)
    d = math.prod(a[: m - 2])
    box = [()]
    for ai in a[: m - 2]:
        box = [u + (v,) for u in box for v in range(ai)]
    members = []
    for u in box:
        s = sum(ui * (d // ai) for ui, ai in zip(u, a))
        for um1 in range(k + 1):
            for um in range(k + 1 - um1):
                if a[m - 2] * s >= (k - um1 - um) * d:
                    members.append(u + (um1, um))
    members.sort(key=sum)
    minimal = []
    for u in members:
        if not any(all(v <= w for v, w in zip(mu, u)) for mu in minimal):
            minimal.append(u)
    return sorted(minimal)


@given(small_tuples, st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_closure_monomials_match_brute_force(a, k):
    assert closure_monomials(a, k) == closure_antichain_naive(a, k)


@pytest.mark.parametrize("a", [(28, 32, 33, 33, 39), (8, 17, 39, 39, 40)])
def test_closure_monomials_match_brute_force_on_large_boxes(a):
    assert closure_monomials(a, 2) == closure_antichain_naive(a, 2)


def _score_weights(a):
    """D = prod_{i <= m-2} a_i and the w_i = a_{m-1} D / a_i, so that the
    score a_{m-1} * sum u_i (D/a_i) of a box point is sum u_i w_i."""
    m = len(a)
    d = math.prod(a[: m - 2])
    return d, [a[m - 2] * (d // ai) for ai in a[: m - 2]]


def monomial_in_closure_by_score(a, u, n):
    """``monomial_in_closure`` as it once compared scores scaled by D: the
    reference for the comparison of degrees."""
    a = ideal_oracle._validated(a)
    m = len(a)
    u = tuple(u)
    if len(u) != m:
        raise DimensionError(f"monomial has {len(u)} entries, expected {m}")
    if any(not isinstance(v, int) or v < 0 for v in u):
        raise DomainError(f"monomial entries must be nonnegative integers, got {u}")
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"power must be a nonnegative integer, got {n!r}")
    d = math.prod(a[: m - 2])
    s = sum(ui * (d // ai) for ui, ai in zip(u[: m - 2], a[: m - 2]))
    return a[m - 2] * s >= (n - u[m - 2] - u[m - 1]) * d


def closure_monomials_by_score(a, k):
    """``closure_monomials`` as it once walked the scores scaled by D."""
    a = ideal_oracle._validated(a)
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"power must be a positive integer, got {k!r}")
    m = len(a)
    sizes = a[: m - 2]
    d, weights = _score_weights(a)
    ideal_oracle._check_budget(d * (k + 1), f"the closure generators of {a} at power {k}")
    n, w = sizes[-1], weights[-1]
    minimal = []
    for head in iproduct(*map(range, sizes[:-1])):
        base = sum(ui * wi for ui, wi in zip(head, weights))
        j = 0
        while j < n:
            score = base + j * w
            r = max(0, k - score // d)
            if all(k - (score - wi) // d > r for ui, wi in zip(head, weights) if ui):
                u = head + (j,)
                minimal.extend([u + (x, r - x) for x in range(r + 1)])
            if r == 0:
                break
            j = -((base - (score // d + 1) * d) // w)  # where floor(score / d) next grows
    top = (0,) * (m - 1) + (k,)
    if top not in minimal:
        raise InternalError(f"apex monomial {top} missing from the antichain")
    return sorted(minimal)


@given(small_tuples | wide_tuples, st.data())
@settings(max_examples=100, deadline=None)
def test_the_closure_matches_the_score_references(a, data):
    """Membership and the generators in the degree lambda against the
    score-scale references, powers 1-4 and monomials around the apex."""
    m = len(a)
    for k in range(1, 5):
        assert closure_monomials(a, k) == closure_monomials_by_score(a, k)
    for _ in range(20):
        u = tuple(data.draw(st.integers(min_value=0, max_value=ai - 1)) for ai in a[: m - 2])
        u += tuple(data.draw(st.integers(min_value=0, max_value=4)) for _ in range(2))
        n = data.draw(st.integers(min_value=0, max_value=12))
        assert monomial_in_closure(a, u, n) == monomial_in_closure_by_score(a, u, n)


# ------------------------------------------------------- the shared sorted box

def test_box_sums_enumerate_the_box_in_lex_order():
    sizes, weights = (3, 4, 5), (7, 3, 2)
    assert ideal_oracle._box_sums(sizes, weights) == [
        sum(u * w for u, w in zip(point, weights))
        for point in iproduct(*map(range, sizes))
    ]


def box_sums_pruned(sizes, weights, bound):
    """The box enumeration the references below were written against: sums
    above the bound are dropped before they are extended."""
    sums = [0]
    for n, w in zip(sizes, weights):
        sums = [x for s in sums for x in range(s, min(s + n * w, bound + 1), w)]
    return sums


def table_by_histogram(a):
    """The quotient table by a histogram of the box points' scores, one pass
    over every point.  The score of u is a_{m-1} sum u_i (D/a_i) with
    D = prod_{i <= m-2} a_i, and u counts for p(n) when it is >= (n+1) D."""
    m = len(a)
    sizes = a[: m - 2]
    d = math.prod(sizes)
    weights = [a[m - 2] * (d // ai) for ai in sizes]
    top = 0
    hist = {}
    for score in box_sums_pruned(sizes, weights, sum((n - 1) * w for n, w in zip(sizes, weights))):
        n_top = score // d - 1  # largest n with score >= (n+1) d
        if n_top >= 0:
            hist[n_top] = hist.get(n_top, 0) + 1
            if n_top > top:
                top = n_top
    n_stop = top + 1 if hist else 0
    p = [0] * (n_stop + 1)
    running = 0
    for n in range(n_stop - 1, -1, -1):
        running += hist.get(n, 0)
        p[n] = running
    return QuotientTable(p=tuple(p), n_stop=n_stop)


def pg_by_rests(a):
    """p_g by one bisection of the pruned, sorted box degrees per rest."""
    inv = numeric_invariants(a)
    m, lams = inv.m, inv.lambda_i
    bound = inv.a_invariant
    if bound < 0:
        return 0
    degs = sorted(box_sums_pruned(a[: m - 2], lams[: m - 2], bound))
    return sum(
        bisect_right(degs, x)
        for rest in range(bound, -1, -lams[m - 2])
        for x in range(rest, -1, -lams[m - 1])
    )


@given(small_tuples | wide_tuples)
@settings(max_examples=80, deadline=None)
def test_table_and_pg_match_the_references(a):
    assert quotient_table(a) == table_by_histogram(a)
    assert geometric_genus(a) == pg_by_rests(a)


@pytest.mark.parametrize(
    "a, rests_shorter",
    [
        ((28, 32, 33, 33, 39), True),  # 29,564 box degrees <= B, 5,320 rests
        ((7, 13, 16, 34, 39), False),  # 1,455 box degrees <= B, 4,797 rests
        ((7, 11, 13), False),  # m = 3: 5 box degrees <= B, 42 rests
        ((2, 3, 5), None),  # a-invariant -1: p_g = 0 before any rest
        ((2, 2, 7), None),  # a-invariant -2
    ],
)
def test_table_and_pg_match_the_references_on_both_sides(a, rests_shorter):
    inv = numeric_invariants(a)
    bound, lams = inv.a_invariant, inv.lambda_i
    if rests_shorter is None:
        assert bound < 0
    else:
        rests = sum(r // lams[-1] + 1 for r in range(bound, -1, -lams[-2]))
        k = bisect_right(ideal_oracle._box_degrees(a), bound)
        assert (rests <= k) == rests_shorter
    assert quotient_table(a) == table_by_histogram(a)
    assert geometric_genus(a) == pg_by_rests(a)


@pytest.mark.parametrize("pg_first", [True, False])
def test_one_box_enumeration_per_tuple(monkeypatch, pg_first):
    """p_g, the table and everything read off it share one sorted box."""
    calls = []
    box_sums = ideal_oracle._box_sums
    monkeypatch.setattr(
        ideal_oracle, "_box_sums", lambda *args: calls.append(args) or box_sums(*args)
    )
    for cache in (ideal_oracle._box_degrees, ideal_oracle._table_cached, brieskorn._pg_cached):
        cache.cache_clear()
    a = (7, 13, 16, 34, 39)
    oracle = [quotient_table, nr_by_oracle, lambda t: quotient_dimension(t, 1)]
    for route in [geometric_genus] + oracle if pg_first else oracle + [geometric_genus]:
        route(a)
    assert len(calls) == 1


# ----------------------------------------------------------------------- budget

def test_oversized_box_is_refused_before_allocation():
    a = (1000,) * 5
    assert prod(a[:3]) > LATTICE_BUDGET
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="budget"):
        nr_by_oracle(a)
    with pytest.raises(ResourceError):
        closure_monomials(a, 1)
    with pytest.raises(ResourceError):
        quotient_dimension(a, 0)
    assert time.perf_counter() - start < 0.5


def test_closure_generator_budget_counts_the_power():
    """A box of 10 points fits, but up to 10 (k + 1) generators do not."""
    assert nr_by_oracle((10, 10, 10)) == 9
    with pytest.raises(ResourceError, match="power"):
        closure_monomials((10, 10, 10), LATTICE_BUDGET // 10)


# ------------------------------------------------------------------ consistency

def test_qp_consistency_fixtures():
    assert qp_consistency((4, 1, 0, 0), (3, 2, 1, 0))
    assert qp_consistency((3, 2, 2, 2), (2, 1, 0))
    assert not qp_consistency((1, 1, 2), (0, 0))


def test_qp_consistency_validation():
    with pytest.raises(DimensionError):
        qp_consistency((1, 0), (1,))  # q too short
    with pytest.raises(DimensionError):
        qp_consistency((3, 2, 2, 2), (2,))  # p too short


def test_qp_consistency_rejects_wrong_dimension():
    assert not qp_consistency((3, 2, 2, 2), (2, 0, 0))


def test_nr_pg_bound_fixtures():
    assert nr_pg_bound_check((3, 4, 6))
    assert nr_pg_bound_check((4, 4, 4))
    assert nr_pg_bound_check((2, 2, 2))


@given(small_tuples)
@settings(max_examples=60, deadline=None)
def test_nr_pg_bound_always_holds(a):
    assert nr_pg_bound_check(a)
