"""Brieskorn complete intersections: numeric invariants, resolution graphs,
distinguished cycles, genera, reduction numbers, the elliptic census."""

import math
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm, prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singlat import (
    FLAG_NON_MINIMAL,
    ConsistencyError,
    ConstructionError,
    DomainError,
    InternalError,
    MaximalCycleNumbers,
    ResourceError,
    arithmetic_genus,
    br2_exceptions,
    canonical_cycle_formula,
    canonical_qcycle,
    central_multiple_cycle,
    classify_elliptic,
    cycle_products,
    divisor_cycle,
    dual_graph,
    fundamental_cycle,
    fundamental_genus,
    geometric_genus,
    intersection_number,
    invariant_report,
    is_anti_nef,
    is_elliptic,
    is_negative_definite,
    maximal_cycle_numbers,
    maximal_ideal_cycle,
    normal_reduction_number,
    numeric_invariants,
    q_sequence,
    quotient_dimension,
)
from singlat import brieskorn, graph_lattice
from singlat.cli import _star_dot
from conftest import per_curve, wide_tuples

# a wrong definiteness verdict would let Laufer's sequence loop forever;
# every test here fails after two minutes instead
pytestmark = pytest.mark.deadline(120)

GAMMA1 = (3, 4, 6)
GAMMA2 = (3, 4, 7)

exponent_tuples = st.lists(
    st.integers(min_value=2, max_value=7), min_size=3, max_size=5
).map(lambda xs: tuple(sorted(xs)))


# ----------------------------------------------------------- numeric invariants

def test_invariants_237():
    inv = numeric_invariants((2, 3, 7))
    assert inv.ell == 42
    assert inv.ell_i == (21, 14, 6)
    assert inv.alpha_i == (2, 3, 7)
    assert inv.alpha == 42
    assert inv.ghat == 1
    assert inv.ghat_i == (1, 1, 1)
    assert inv.lambda_i == (21, 14, 6)
    assert inv.eta_i == (3, 2)
    assert inv.eta_m == 1
    assert inv.eta == (3, 2, 1)
    assert inv.delta == 1
    assert inv.a_invariant == 1
    assert inv.multiplicity == 2
    assert inv.m == 3


def test_invariants_gamma_pair():
    inv1 = numeric_invariants(GAMMA1)
    assert (inv1.ell, inv1.alpha, inv1.ghat) == (12, 2, 6)
    assert inv1.alpha_i == (1, 2, 1)
    assert inv1.ghat_i == (2, 3, 1)
    assert inv1.lambda_i == (4, 3, 2)
    assert inv1.eta == (4, 3, 2)
    assert (inv1.delta, inv1.a_invariant, inv1.multiplicity) == (1, 3, 3)

    inv2 = numeric_invariants(GAMMA2)
    assert (inv2.ell, inv2.alpha, inv2.ghat) == (84, 84, 1)
    assert inv2.lambda_i == (28, 21, 12)
    assert inv2.eta == (4, 3, 2)
    assert (inv2.delta, inv2.a_invariant, inv2.multiplicity) == (1, 23, 3)


def test_invariants_6_10_15():
    inv = numeric_invariants((6, 10, 15))
    assert inv.ell == 30
    assert inv.alpha_i == (1, 1, 1)
    assert inv.alpha == 1
    assert inv.ghat == 30
    assert inv.ghat_i == (5, 3, 2)
    assert inv.eta == (5, 3, 2)
    assert inv.a_invariant == 20
    assert inv.multiplicity == 6


def test_invariants_four_exponents():
    inv = numeric_invariants((2, 2, 2, 2))
    assert (inv.ell, inv.alpha, inv.ghat) == (2, 1, 8)
    assert inv.ghat_i == (4, 4, 4, 4)
    assert inv.eta == (1, 1, 1, 1)
    assert (inv.delta, inv.a_invariant, inv.multiplicity) == (0, 0, 4)


def test_invariants_validation():
    for bad in [(2, 2), (1, 2, 3), (3, 2, 4), (2, 3, -5), (2.0, 3, 5)]:
        with pytest.raises(DomainError):
            numeric_invariants(bad)


@given(exponent_tuples)
@settings(max_examples=100, deadline=None)
def test_invariant_identities(a):
    """Relations that every exponent tuple must satisfy."""
    inv = numeric_invariants(a)
    m = inv.m
    assert inv.ell == lcm(*a)
    assert inv.alpha == prod(inv.alpha_i)
    assert inv.ell % inv.alpha == 0
    assert inv.ghat * inv.ell == prod(a)
    for w in range(m):
        assert inv.ghat_i[w] * a[w] == inv.ghat * inv.alpha_i[w]
        assert gcd(inv.lambda_i[w], inv.alpha_i[w]) == 1
    assert inv.delta >= 0
    assert inv.eta_i == tuple(
        lam // inv.alpha_i[-1] for lam in inv.lambda_i[: m - 1]
    )
    # eta_m is the Z^(m) coefficient at the family-m tips (at the center
    # when family m is empty), read off the cycle solved on the graph
    zm = divisor_cycle(a, m)
    for t in dual_graph(a).tip_indices(m) or (0,):
        assert zm[t] == inv.eta_m


@given(
    st.lists(st.integers(min_value=2, max_value=300), min_size=3, max_size=7)
    .map(lambda xs: tuple(sorted(xs)))
)
@settings(max_examples=200, deadline=None)
def test_lcm_kernel_against_the_definitions(a):
    """The prefix-suffix lcms against lcm of all the other exponents."""
    data = brieskorn._lcm_data(a)
    ell, ell_i, alpha_i, alpha, ghat, ghat_i, lams, eta_i, eta_m, delta = data
    assert ell == lcm(*a)
    assert ell_i == tuple(lcm(*(a[:i] + a[i + 1 :])) for i in range(len(a)))
    assert all(lam * x == ell for lam, x in zip(lams, a))
    assert ghat * ell == prod(a)
    inv = brieskorn._invariants_cached.__wrapped__(a)
    assert tuple(inv)[1:11] == data


def _columns(a):
    """The columns of a chunk that holds the one tuple ``a``."""
    return [(x,) for x in a]


@pytest.mark.parametrize(
    "a, fake, message",
    [
        # an lcm that takes the largest argument, as if each exponent divided the next
        ((2, 3, 7), {"lcm": max}, "alpha = 2 does not divide ell = 7"),
        ((2, 3, 4), {"lcm": max}, "branch count ghat_i is not integral"),
        ((2, 3, 6), {"lcm": max}, "lambda_i / alpha_m is not integral"),
        # an lcm that multiplies, as if the exponents were pairwise coprime
        ((2, 2, 3), {"lcm": lambda *xs: prod(xs)}, "lambda_w and alpha_w are not coprime"),
        # an unsorted tuple, which the validator would refuse
        ((2, 3, 2), {}, "delta = -1 is negative"),
    ],
)
def test_every_kernel_check_can_fire(monkeypatch, a, fake, message):
    """Each consistency check of the lcm data raises, with its message, on
    the record's path and on the elliptic scan's columnar kernel."""
    real = {name: getattr(math, name) for name in ("lcm", "gcd", "prod")}
    monkeypatch.setattr(brieskorn, "math", SimpleNamespace(**{**real, **fake}))
    # _pf_value reads the record, so it must not find one cached before the fake
    record = brieskorn._invariants_cached.__wrapped__
    monkeypatch.setattr(brieskorn, "_invariants_cached", record)
    for route in (
        brieskorn._lcm_data, record, brieskorn._pf_value,
        lambda a: brieskorn._lcm_columns(_columns(a)),
        lambda a: brieskorn._pf_columns(_columns(a)),
    ):
        with pytest.raises(InternalError) as err:
            route(a)
        assert str(err.value) == message


def test_a_column_check_names_the_first_tuple_that_fails(monkeypatch):
    """On a chunk, a failed check names the values of its first failing tuple."""
    real = {name: getattr(math, name) for name in ("lcm", "gcd", "prod")}
    monkeypatch.setattr(brieskorn, "math", SimpleNamespace(**{**real, "lcm": max}))
    # (2, 3, 4) and (2, 3, 6) pass the alpha check under this lcm; (2, 3, 7)
    # and (2, 4, 9) fail it
    cols = list(zip((2, 3, 4), (2, 3, 6), (2, 3, 7), (2, 4, 9)))
    with pytest.raises(InternalError, match="^alpha = 2 does not divide ell = 7$"):
        brieskorn._lcm_columns(cols)


def _pf_with_changed_kernel(monkeypatch, scan, a, field, change):
    """p_f of ``a`` with one field of its lcm data changed: on the record's
    route, or on the scan's with ``a`` as a one-tuple chunk."""
    if not scan:
        real = brieskorn._lcm_data

        def changed(a):
            data = list(real(a))
            data[field] = change(data[field])
            return tuple(data)

        monkeypatch.setattr(brieskorn, "_lcm_data", changed)
        # the record that _pf_value reads, built from the changed data and not cached
        record = brieskorn._invariants_cached.__wrapped__
        monkeypatch.setattr(brieskorn, "_invariants_cached", record)
        return brieskorn._pf_value(a).value
    real_cols = brieskorn._lcm_columns

    def changed_cols(cols):
        data = list(real_cols(cols))
        value = data[field]
        if isinstance(value[0], int):  # one column
            data[field] = [change(value[0])]
        else:  # one column per index
            data[field] = [[x] for x in change(tuple(c[0] for c in value))]
        return tuple(data)

    monkeypatch.setattr(brieskorn, "_lcm_columns", changed_cols)
    return brieskorn._pf_columns(_columns(a))[0]


def test_pf_formulas_must_agree_at_lambda_m_equal_alpha(monkeypatch):
    assert brieskorn._pf_value((2, 3, 6)).cycle == "both"
    for scan in (False, True):
        with pytest.raises(
            InternalError,
            match="^the two fundamental-genus formulas disagree at lambda_m = alpha$",
        ):
            _pf_with_changed_kernel(monkeypatch, scan, (2, 3, 6), 8, lambda eta_m: eta_m + 1)


def test_pf_must_be_an_integer(monkeypatch):
    for scan in (False, True):
        with pytest.raises(
            InternalError, match=r"^fundamental genus 1 \+ -\d+/84 is not an integer$"
        ):
            _pf_with_changed_kernel(
                monkeypatch, scan, (2, 3, 7), 5, lambda ghat_i: (ghat_i[0] + 1, *ghat_i[1:])
            )


def test_the_column_kernel_matches_the_record_kernel():
    """Every field of the columnar lcm data, read back tuple by tuple,
    equals the record kernel's on every tuple of m = 3..6, a_m <= 12."""
    for m in range(3, 7):
        box = list(combinations_with_replacement(range(2, 13), m))
        data = brieskorn._lcm_columns(list(zip(*box)))
        fields = [f if isinstance(f[0], int) else list(zip(*f)) for f in data]
        assert list(zip(*fields)) == [brieskorn._lcm_data(a) for a in box]


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk-1", "chunk-7", "default"])
def test_the_box_scan_matches_the_record_kernel(monkeypatch, chunk):
    """The scan's p_f equals the record kernel's on every tuple of two boxes,
    in the order of the boxes; the default chunk is larger than the m = 3
    box and ends part-way through the larger ones."""
    if chunk:
        monkeypatch.setattr(brieskorn, "_SCAN_CHUNK", chunk)
    for m_min, m_max, a_max in ((3, 5, 16), (6, 6, 10)):
        got = [(a, pf) for a, pf in brieskorn._scan_box(m_max, a_max) if len(a) >= m_min]
        want = [
            (a, brieskorn._pf_value(a).value)
            for m in range(m_min, m_max + 1)
            for a in combinations_with_replacement(range(2, a_max + 1), m)
        ]
        assert got == want


# ----------------------------------------------------------- resolution graphs

def test_graph_gamma1():
    star = dual_graph(GAMMA1)
    assert star.center_genus == 1
    assert star.center_self_int == -2
    assert star.c0 == 2
    assert star.flags == ()
    assert [(f.count, f.chain, f.beta) for f in star.branch_families] == [
        (2, (), 0), (3, (2,), 1), (1, (), 0)]
    assert star.graph.to_json_dict() == {
        "vertices": [{"genus": 1, "self_int": -2}] + [
            {"genus": 0, "self_int": -2}] * 3,
        "edges": [[0, 1], [0, 2], [0, 3]],
    }


def test_graph_gamma2():
    star = dual_graph(GAMMA2)
    assert star.center_genus == 0
    assert star.center_self_int == -2
    assert [(f.count, f.chain) for f in star.branch_families] == [
        (1, (2, 2)), (1, (2, 2, 2)), (1, (2, 4))]
    # the vertex order: the center, then each family's chain center-outward
    assert [star.tip_indices(w) for w in (1, 2, 3)] == [(2,), (5,), (7,)]
    dot = _star_dot(star)
    for i, label in [(1, "E_{1,1,1} (-2)"), (3, "E_{2,1,1} (-2)"),
                     (6, "E_{3,1,1} (-2)"), (7, "E_{3,2,1} (-4)")]:
        assert f'v{i} [label="{label}"];' in dot


def test_graph_e8(e8):
    star = dual_graph((2, 3, 5))
    assert star.graph == e8
    assert star.center_genus == 0
    assert [f.chain for f in star.branch_families] == [
        (2,), (2, 2), (2, 2, 2, 2)]


def test_graph_single_vertex():
    star = dual_graph((6, 10, 15))
    assert star.graph.n == 1
    assert star.center_genus == 11
    assert star.center_self_int == -1
    assert star.flags == ()
    assert all(f.count == 0 or len(f.chain) == 0 for f in star.branch_families)


def test_graph_flags():
    assert FLAG_NON_MINIMAL in dual_graph((2, 2, 3)).flags
    assert dual_graph((2, 2, 4)).flags == ()
    assert dual_graph((2, 3, 6)).flags == ()


def test_graph_is_negative_definite_sample():
    from singlat import is_negative_definite
    for a in [(2, 2, 2), (2, 3, 5), GAMMA1, GAMMA2, (6, 10, 15), (2, 2, 2, 3)]:
        assert is_negative_definite(dual_graph(a).graph)


def test_assemble_layout():
    """A class vector lists the center, then each non-empty family's chain
    center-outward; assemble repeats each family's part once per copy."""
    assert dual_graph(GAMMA2).assemble((9, 1, 2, 3, 4, 5, 6, 7)) == (9, 1, 2, 3, 4, 5, 6, 7)
    # GAMMA1: family 1 is empty, family 2 is three copies of one curve
    assert dual_graph(GAMMA1).assemble((9, 5)) == (9, 5, 5, 5)


@given(exponent_tuples | wide_tuples)
@settings(max_examples=40, deadline=None)
def test_vertex_count_matches_the_flattening(a):
    star = dual_graph(a)
    assert star.vertex_count == star.graph.n


def test_flattening_is_budgeted():
    """The star of (23,24,24,24,24,24) is 331,776 chains of 22 curves: it is
    built compressed, but flattening it or one of its cycles is refused."""
    a = (23, 24, 24, 24, 24, 24)
    star = dual_graph(a)
    assert star.vertex_count == 1 + 331_776 * 22
    for flatten in (lambda: star.graph, lambda: divisor_cycle(a, 1)):
        with pytest.raises(ResourceError, match="7299073 vertices"):
            flatten()


def test_compressed_star_is_budgeted(monkeypatch):
    """(2,3,6000001) has a 1,000,001-curve chain, so its m + 2 = 5 compressed
    cycles would hold 5,000,010 coefficients, and (2,3,60000001) ten times
    as many: refused before any chain is expanded or solved."""
    def refuse(*args):
        raise RuntimeError("a chain was built although the star is refused")

    monkeypatch.setattr(brieskorn, "_neg_cont_frac", refuse)
    monkeypatch.setattr(brieskorn, "_chain_coeffs", refuse)
    for a, need in (((2, 3, 6000001), 5000010), ((2, 3, 60000001), 50000010)):
        with pytest.raises(ResourceError, match=f"compressed star .* {need} cycle coefficients"):
            dual_graph(a)


@given(st.integers(1, 10**6).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, p - 1))))
@settings(max_examples=300, deadline=None)
def test_chain_length_from_the_regular_continued_fraction(pq):
    p, q = pq
    assume(gcd(p, q) == 1)
    assert brieskorn._neg_cont_frac_len(p, q) == len(brieskorn._neg_cont_frac(p, q))


# --------------------------------------------------------- distinguished cycles

# the two-point recursion, kept as the reference for the continuant closed form
def _chain_coeffs_two_point(chain, center, beyond):
    """Solve the two-point recursion lam_{v-1} = c_v lam_v - lam_{v+1} on one chain.

    Boundary values: lam_0 = center at the central curve, lam_{s+1} = beyond
    past the tip.  Raises if the solution is not a positive integer vector.
    """
    s = len(chain)
    if s == 0:
        return []
    # lam_v = A[v]*t + C[v] with t the unknown tip coefficient lam_s
    A = [0] * (s + 2)
    C = [0] * (s + 2)
    A[s + 1], C[s + 1] = 0, beyond
    A[s], C[s] = 1, 0
    for v in range(s, 0, -1):
        A[v - 1] = chain[v - 1] * A[v] - A[v + 1]
        C[v - 1] = chain[v - 1] * C[v] - C[v + 1]
    num = center - C[0]
    if num % A[0]:
        raise ConstructionError(
            f"chain solve is not integral: ({center} - {C[0]}) not divisible by {A[0]}"
        )
    t = num // A[0]
    coeffs = [A[v] * t + C[v] for v in range(1, s + 1)]
    if any(c < 1 for c in coeffs):
        raise ConstructionError("chain solve produced a non-positive coefficient")
    return coeffs


@given(
    st.lists(st.integers(min_value=2, max_value=9), max_size=8),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([0, 1]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_chain_coeffs_closed_form_matches_recursion(chain, n, beyond, integral):
    """The continuant closed form against the two-point recursion: the same
    list, or ConstructionError from both.  A random center rarely solves
    integrally, so half the examples walk the recursion inward from the tip
    coefficient n to a center that does."""
    center = n
    if integral:
        lo, center = beyond, n
        for c in reversed(chain):
            lo, center = center, c * center - lo
    pre = brieskorn._continuants(chain)
    suf = brieskorn._continuants(chain[::-1])[::-1]
    try:
        want = _chain_coeffs_two_point(chain, center, beyond)
    except ConstructionError:
        with pytest.raises(ConstructionError):
            brieskorn._chain_coeffs(pre, suf, center, beyond)
    else:
        assert brieskorn._chain_coeffs(pre, suf, center, beyond) == want


def _count_flattening(monkeypatch):
    """Record every DualGraph object made and every pairing on one from
    here on, as (name, argument) pairs in the returned list.  The plain
    constructor and the flattening of a star both fill a new graph's fields
    through ``DualGraph._fill``, so counting it sees every graph."""
    calls = []
    real_fill, real_products = graph_lattice.DualGraph._fill, graph_lattice.cycle_products

    def fill(g, *fields):
        calls.append(("DualGraph", fields[1]))
        return real_fill(g, *fields)

    def products(g, z):
        calls.append(("cycle_products", g))
        return real_products(g, z)

    monkeypatch.setattr(graph_lattice.DualGraph, "_fill", fill)
    monkeypatch.setattr(graph_lattice, "cycle_products", products)
    return calls


def test_the_flattening_count_sees_a_star_flattened(monkeypatch):
    flat = _count_flattening(monkeypatch)
    brieskorn._star_cached.cache_clear()
    try:
        dual_graph(GAMMA2).graph
        assert [name for name, _ in flat] == ["DualGraph"]
    finally:
        brieskorn._star_cached.cache_clear()


def test_star_solves_and_checks_its_cycles_once(monkeypatch):
    """A star build pairs each of its m + 2 distinguished cycles (Z_0, the
    Z^(i) and Z_K) once, class-wise on its quotient, and neither builds,
    eliminates nor pairs on the flattened graph; reading the cycles back
    from the cached star pairs none."""
    flat = _count_flattening(monkeypatch)
    paired, solved = [], []
    real_products, real_solve = graph_lattice.Quotient.products, graph_lattice.Quotient._solve

    def products(q, z):
        paired.append(z)
        return real_products(q, z)

    def solve(q):
        solved.append(q)
        return real_solve(q)

    monkeypatch.setattr(graph_lattice.Quotient, "products", products)
    monkeypatch.setattr(graph_lattice.Quotient, "_solve", solve)
    for a in [GAMMA2, (2, 3, 4, 5), (6, 10, 15), (11, 12, 12, 12, 12)]:
        brieskorn._star_cached.cache_clear()
        star = dual_graph(a)
        assert flat == [] and solved == []
        assert paired == list(star.cycles) and len(paired) == len(a) + 2
        paired.clear()
        for i in range(1, len(a) + 1):
            divisor_cycle(a, i)
        central_multiple_cycle(a)
        maximal_ideal_cycle(a)
        canonical_cycle_formula(a)
        assert flat == [] and paired == [] and solved == []
    brieskorn._star_cached.cache_clear()


def test_invariant_paths_build_no_flattened_graph(monkeypatch):
    """dual_graph, q_sequence, maximal_cycle_numbers, canonical_cycle_formula
    and every p_f path (fundamental_genus, is_elliptic, invariant_report,
    classify_elliptic) work on the compressed star and its quotient alone."""
    flat = _count_flattening(monkeypatch)
    caches = (brieskorn._star_cached, brieskorn._pf_verified)
    try:
        for a in [GAMMA1, (2, 3, 5), (2, 2, 3), (6, 10, 15), (11, 12, 12, 12, 12)]:
            for cache in caches:
                cache.cache_clear()
            dual_graph(a)
            q_sequence(a, normal_reduction_number(a) + 1)
            maximal_cycle_numbers(a)
            canonical_cycle_formula(a)
            assert flat == [], a
            fundamental_genus(a)
            brieskorn._pf_verified.cache_clear()
            is_elliptic(a)
            brieskorn._pf_verified.cache_clear()
            invariant_report(a)
            assert flat == [], a
        for cache in caches:
            cache.cache_clear()
        assert len(classify_elliptic(4, 9)) == 32
        assert flat == []
    finally:
        for cache in caches:
            cache.cache_clear()


def test_one_elimination_and_one_laufer_run_per_star(monkeypatch):
    """p_f, verified on the star's quotient, and the verdict, Z_K and Z_f
    of its flattened graph share one quotient: each star is eliminated once
    and runs Laufer's sequence once, whichever path asks first."""
    Quotient = graph_lattice.Quotient
    solved, ran = [], []
    real_solve, real_laufer = Quotient._solve, Quotient.fundamental_cycle

    def solve(q):
        solved.append(q)
        return real_solve(q)

    def laufer(q):
        if q._zf is None:
            ran.append(q)
        return real_laufer(q)

    monkeypatch.setattr(Quotient, "_solve", solve)
    monkeypatch.setattr(Quotient, "fundamental_cycle", laufer)

    def p_f_paths(a):
        fundamental_genus(a)
        is_elliptic(a)
        invariant_report(a)

    def graph_paths(a):
        g = dual_graph(a).graph
        is_negative_definite(g)
        canonical_qcycle(g)
        fundamental_cycle(g)

    tuples = [GAMMA2, (2, 3, 4, 5), (11, 12, 12, 12, 12)]
    try:
        for first, then in ((p_f_paths, graph_paths), (graph_paths, p_f_paths)):
            for a in tuples:
                brieskorn._star_cached.cache_clear()
                brieskorn._pf_verified.cache_clear()
                first(a)
                then(a)
                assert solved == ran == [dual_graph(a).quotient], a
                solved.clear()
                ran.clear()
    finally:
        brieskorn._star_cached.cache_clear()
        brieskorn._pf_verified.cache_clear()


def test_star_build_rejects_a_wrong_cycle(monkeypatch):
    """A chain solve with a wrong tip coefficient fails the pairing check.
    On (3,4,7) every chain has two curves or more, so the center pairing
    stays right and only the chain pairings can catch it."""
    real = brieskorn._chain_coeffs

    def wrong_tip(*args):
        coeffs = real(*args)
        return coeffs[:-1] + [coeffs[-1] + 1] if coeffs else coeffs

    monkeypatch.setattr(brieskorn, "_chain_coeffs", wrong_tip)
    for a in [(2, 3, 5), GAMMA2]:
        brieskorn._star_cached.cache_clear()
        try:
            with pytest.raises(ConstructionError, match="wrong intersection pattern"):
                dual_graph(a)
        finally:
            brieskorn._star_cached.cache_clear()


def test_star_build_rejects_a_wrong_center_pairing(monkeypatch):
    """A star whose center weight is one more than the one its graph and its
    cycles were built with: every chain pairing still holds, so only the
    center pairing -c0 x + sum_w count_w lam_{w,1} can catch it."""
    real = brieskorn.StarGraph

    def heavier_center(**fields):
        return real(**{**fields, "c0": fields["c0"] + 1})

    monkeypatch.setattr(brieskorn, "StarGraph", heavier_center)
    brieskorn._star_cached.cache_clear()
    try:
        with pytest.raises(ConstructionError, match="central-multiple cycle has the wrong"):
            dual_graph((2, 3, 5))
    finally:
        brieskorn._star_cached.cache_clear()


def _build_with(monkeypatch, a, change):
    """Build the star of a with StarGraph's fields passed through change."""
    real = brieskorn.StarGraph
    monkeypatch.setattr(brieskorn, "StarGraph", lambda **fields: real(**change(fields)))
    brieskorn._star_cached.cache_clear()
    try:
        return dual_graph(a)
    finally:
        brieskorn._star_cached.cache_clear()


def _with_cycle(fields, i, z):
    cycles = list(fields["cycles"])
    cycles[i] = tuple(z)
    return {**fields, "cycles": tuple(cycles)}


def test_star_build_rejects_a_wrong_canonical_cycle(monkeypatch):
    """Z_K is paired with the other cycles: the entry at family 2's first
    curve or the center coefficient raised by one fails the adjunction
    pattern."""

    def chain_entry(fields):
        z = list(fields["cycles"][-1])
        z[1 + len(fields["branch_families"][0].chain)] += 1
        return _with_cycle(fields, -1, z)

    def center(fields):
        z = list(fields["cycles"][-1])
        z[0] += 1
        return _with_cycle(fields, -1, z)

    for change in (chain_entry, center):
        for a in [(2, 3, 5), GAMMA1, GAMMA2]:
            with pytest.raises(ConstructionError, match="canonical cycle has the wrong"):
                _build_with(monkeypatch, a, change)


def test_star_build_rejects_a_zero_central_cycle(monkeypatch):
    """The zero cycle pairs to 0 = -(0 ghat // ell) at the center and to 0 on
    every chain curve; only the positivity that makes Z_0 prove definiteness
    rejects it."""

    def zero(fields):
        return _with_cycle(fields, 0, [0] * len(fields["cycles"][0]))

    for a in [(2, 3, 5), (2, 2, 2), GAMMA1]:
        with pytest.raises(ConstructionError, match="negative definite"):
            _build_with(monkeypatch, a, zero)


def test_star_build_rejects_an_indefinite_star(monkeypatch):
    """(2,3,5) with its center weight lowered from 2 to 1 has orbifold Euler
    number 1/30 - 1 < 0, so Z_0 pairs to 29 > 0 at the center: the build
    reports the star as not negative definite."""
    with pytest.raises(ConstructionError, match="negative definite"):
        _build_with(monkeypatch, (2, 3, 5), lambda fields: {**fields, "c0": fields["c0"] - 1})


@given(exponent_tuples | wide_tuples)
@settings(max_examples=40, deadline=None)
def test_compressed_maximal_cycle_genus_matches_the_graph(a):
    """p_a(M_X) read off the compressed patterns of M_X and Z_K, as
    maximal_cycle_numbers uses it, equals arithmetic_genus on the flattened
    graph, which the elimination finds negative definite."""
    inv, star, mcn = numeric_invariants(a), dual_graph(a), maximal_cycle_numbers(a)
    pa = arithmetic_genus(star.graph, maximal_ideal_cycle(a))
    assert mcn.MY_sq + mcn.MY_K == 2 * pa - 2 - 2 * inv.delta * inv.ghat_i[-1]
    assert is_negative_definite(star.graph)


@given(exponent_tuples | wide_tuples)
@settings(max_examples=40, deadline=None)
def test_class_wise_pairings_of_the_star_cycles_match_the_graph(a):
    """The star and its flattened graph share one quotient.  Each of the
    m + 2 star cycles, paired class-wise as the star build checks it and
    expanded through the class map, is the edge walk's pairing of its
    flattening, and the class-wise p_a(Z_f) that verifies p_f is
    arithmetic_genus on the flattened graph."""
    star = dual_graph(a)
    g, q = star.graph, star.quotient
    assert g.quotient is q
    for z in star.cycles:
        assert per_curve(g, q.products(z)) == cycle_products(g, star.assemble(z))
    assert q.arithmetic_genus(q.fundamental_cycle()) == arithmetic_genus(g, fundamental_cycle(g))


def test_divisor_cycle_e8_root(e8):
    assert divisor_cycle((2, 3, 5), 3) == (6, 3, 4, 2, 5, 4, 3, 2)
    assert divisor_cycle((2, 3, 5), 1) == (15, 8, 10, 5, 12, 9, 6, 3)


def test_divisor_cycle_gamma2():
    assert divisor_cycle(GAMMA2, 1) == (28, 19, 10, 21, 14, 7, 16, 4)
    assert divisor_cycle(GAMMA2, 2) == (21, 14, 7, 16, 11, 6, 12, 3)
    assert divisor_cycle(GAMMA2, 3) == (12, 8, 4, 9, 6, 3, 7, 2)


def test_divisor_cycle_index_range():
    with pytest.raises(DomainError):
        divisor_cycle((2, 3, 5), 0)
    with pytest.raises(DomainError):
        divisor_cycle((2, 3, 5), 4)


@pytest.mark.parametrize("w", [0, -1, 4])
def test_tip_indices_index_range(w):
    """A family index outside 1..m is refused, not read from the end of the
    layout: on (2, 3, 7), 0 and -1 once gave family 3's and family 2's tips."""
    star = dual_graph((2, 3, 7))
    assert [star.tip_indices(i) for i in (1, 2, 3)] == [(1,), (2,), (3,)]
    with pytest.raises(DomainError, match=rf"^family index {w} outside 1\.\.3$"):
        star.tip_indices(w)


@given(exponent_tuples | wide_tuples)
@settings(max_examples=40, deadline=None)
def test_divisor_cycle_pairings(a):
    """Z^(i) pairs to 0 off family i, -1 at the tips of family i, and
    -ghat_i at the center when family i is empty."""
    star = dual_graph(a)
    inv = numeric_invariants(a)
    g = star.graph
    for i in range(1, inv.m + 1):
        z = divisor_cycle(a, i)
        prods = cycle_products(g, z)
        tips = set(star.tip_indices(i))
        if tips:
            assert all(prods[v] == (-1 if v in tips else 0) for v in range(g.n))
        else:
            assert prods[0] == -inv.ghat_i[i - 1]
            assert all(p == 0 for p in prods[1:])
        assert is_anti_nef(g, z)


@given(exponent_tuples)
@settings(max_examples=25, deadline=None)
def test_divisor_cycle_minimality(a):
    """No unit can be dropped from Z^(i) without losing the pairing bounds."""
    star = dual_graph(a)
    g = star.graph
    if g.n > 60:
        return
    inv = numeric_invariants(a)
    for i in range(1, inv.m + 1):
        z = divisor_cycle(a, i)
        tips = set(star.tip_indices(i))
        bound = [(-1 if v in tips else 0) for v in range(g.n)]
        if not tips:
            bound[0] = -inv.ghat_i[i - 1]
        for v in range(g.n):
            if z[v] < 1:
                continue
            smaller = tuple(c - (1 if u == v else 0) for u, c in enumerate(z))
            prods = cycle_products(g, smaller)
            assert any(p > b for p, b in zip(prods, bound))


def test_central_multiple_cycle():
    assert central_multiple_cycle((2, 3, 5)) == (30, 15, 20, 10, 24, 18, 12, 6)
    assert central_multiple_cycle(GAMMA1) == (2, 1, 1, 1)
    assert central_multiple_cycle((2, 2, 2)) == (1,)


@given(exponent_tuples | wide_tuples)
@settings(max_examples=40, deadline=None)
def test_central_multiple_cycle_pairings(a):
    star = dual_graph(a)
    z = central_multiple_cycle(a)
    assert z[0] == numeric_invariants(a).alpha
    prods = cycle_products(star.graph, z)
    assert prods[0] <= 0
    assert all(p == 0 for p in prods[1:])


def test_maximal_ideal_cycle():
    assert maximal_ideal_cycle((2, 3, 5)) == divisor_cycle((2, 3, 5), 3)
    assert maximal_ideal_cycle(GAMMA1) == (2, 1, 1, 1)


# ---------------------------------------------------------------- canonical cycle

def test_canonical_cycle_fixtures():
    assert canonical_cycle_formula(GAMMA1) == (4, 2, 2, 2)
    assert canonical_cycle_formula((2, 3, 5)) == (0,) * 8
    assert canonical_cycle_formula((2, 2, 2)) == (0,)


def test_canonical_cycle_non_minimal_model():
    """(2,2,3) resolves to a non-minimal model; its canonical cycle is
    integral and correct but not effective."""
    z = canonical_cycle_formula((2, 2, 3))
    assert z == (-1, 0, 0)
    assert FLAG_NON_MINIMAL in dual_graph((2, 2, 3)).flags


@given(exponent_tuples | wide_tuples)
@settings(max_examples=40, deadline=None)
def test_canonical_cycle_matches_adjunction(a):
    star = dual_graph(a)
    zk = canonical_cycle_formula(a)
    assert all(c.denominator == 1 for c in zk)
    assert zk == canonical_qcycle(star.graph)
    if FLAG_NON_MINIMAL not in star.flags:
        assert all(c >= 0 for c in zk)


# ------------------------------------------------------------ fundamental genus

def test_fundamental_genus_fixtures():
    assert tuple(fundamental_genus((2, 3, 5))) == (0, "MX")
    assert tuple(fundamental_genus((2, 3, 7))) == (1, "MX")
    assert tuple(fundamental_genus(GAMMA1)) == (2, "both")
    assert tuple(fundamental_genus(GAMMA2)) == (2, "MX")
    assert tuple(fundamental_genus((6, 10, 15))) == (11, "Z0")
    assert tuple(fundamental_genus((2, 2, 2))) == (0, "both")


@given(exponent_tuples | wide_tuples)
@settings(max_examples=60, deadline=None)
def test_fundamental_genus_matches_laufer(a):
    """The closed form must agree with the arithmetic genus of the
    fundamental cycle computed on the actual graph."""
    star = dual_graph(a)
    pf, which = fundamental_genus(a)
    zf = fundamental_cycle(star.graph)
    assert pf == arithmetic_genus(star.graph, zf)
    inv = numeric_invariants(a)
    lam_m, alpha = inv.lambda_i[-1], inv.alpha
    if which == "Z0":
        assert lam_m >= alpha and zf == central_multiple_cycle(a)
    elif which == "MX":
        assert lam_m <= alpha and zf == maximal_ideal_cycle(a)
    else:
        assert lam_m == alpha
        assert zf == central_multiple_cycle(a) == maximal_ideal_cycle(a)


# -------------------------------------------------------------- reduction number

def test_normal_reduction_number():
    assert normal_reduction_number((2, 3, 5)) == 1
    assert normal_reduction_number((2, 2, 2)) == 1
    assert normal_reduction_number(GAMMA1) == 2
    assert normal_reduction_number(GAMMA2) == 2
    assert normal_reduction_number((4, 4, 4)) == 3
    assert normal_reduction_number((5, 5, 5)) == 4
    assert normal_reduction_number((6, 10, 15)) == 8


@given(exponent_tuples)
@settings(max_examples=100, deadline=None)
def test_normal_reduction_number_formula(a):
    m = len(a)
    want = (a[m - 2] * sum(Fraction(ai - 1, ai) for ai in a[: m - 2])).__floor__()
    assert normal_reduction_number(a) == want
    assert normal_reduction_number(a) >= 1


# -------------------------------------------------------------- geometric genus

def pg_oracle(a):
    """Count the truncated series coefficients directly: expand the
    numerator by binomials and the denominator by a partition count."""
    m = len(a)
    ell = lcm(*a)
    lams = [ell // ai for ai in a]
    bound = (m - 2) * ell - sum(lams)
    if bound < 0:
        return 0
    ways = [0] * (bound + 1)
    ways[0] = 1
    for lam in lams:
        for n in range(lam, bound + 1):
            ways[n] += ways[n - lam]
    total = 0
    for n in range(bound + 1):
        j = 0
        while j <= m - 2 and n - j * ell >= 0:
            total += (-1) ** j * comb(m - 2, j) * ways[n - j * ell]
            j += 1
    return total


def test_geometric_genus_fixtures():
    assert geometric_genus((2, 3, 5)) == 0
    assert geometric_genus((2, 3, 7)) == 1
    assert geometric_genus(GAMMA1) == 3
    assert geometric_genus(GAMMA2) == 3
    assert geometric_genus((4, 4, 4)) == 4
    assert geometric_genus((2, 2, 2)) == 0
    assert geometric_genus((2, 2, 2, 2)) == 1
    assert geometric_genus((6, 10, 15)) == pg_oracle((6, 10, 15)) == 91


@given(exponent_tuples | wide_tuples.filter(
    lambda a: numeric_invariants(a).a_invariant <= 20_000))
@settings(max_examples=60, deadline=None)
def test_geometric_genus_against_oracle(a):
    """The box-basis count against the partition-count oracle and the dense
    series, also beyond the acceptance box."""
    assert geometric_genus(a) == pg_oracle(a) == brieskorn._pg_dense(a)


def test_geometric_genus_without_a_dense_array():
    """a-invariant 186,249,983: the box route needs no array of that length."""
    brieskorn._pg_cached.cache_clear()
    start = time.perf_counter()
    assert geometric_genus((97, 98, 99, 101)) == 53_538_496
    assert time.perf_counter() - start < 1.0


def test_geometric_genus_budget():
    with pytest.raises(ResourceError, match="budget"):
        geometric_genus((1000,) * 5)
    with pytest.raises(ResourceError, match="p_g pairs"):
        geometric_genus((3, 4000, 4001))
    # the dense series of (97, 98, 99, 101) would hold 186,249,984 entries
    with pytest.raises(ResourceError, match="dense p_g series"):
        brieskorn._pg_dense((97, 98, 99, 101))


# ------------------------------------------------------------------- q sequence

def test_maximal_cycle_numbers():
    assert maximal_cycle_numbers(GAMMA1) == MaximalCycleNumbers(-3, 3)
    assert maximal_cycle_numbers((2, 2, 2)) == MaximalCycleNumbers(-2, 0)
    assert maximal_cycle_numbers((4, 4, 4)) == MaximalCycleNumbers(-4, 8)
    mcn = maximal_cycle_numbers(GAMMA2)
    assert mcn.MY_sq == -3
    assert mcn.MY_K == 3


def test_q_sequence_fixtures():
    assert q_sequence(GAMMA1, 4) == (3, 2, 2, 2, 2)
    assert q_sequence(GAMMA2, 4) == (3, 2, 2, 2, 2)
    assert q_sequence((4, 4, 4), 4) == (4, 1, 0, 0, 0)
    assert q_sequence((2, 2, 2), 2) == (0, 0, 0)
    with pytest.raises(DomainError):
        q_sequence(GAMMA1, -1)


@given(exponent_tuples, st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_q_sequence_shape(a, extra):
    nr = normal_reduction_number(a)
    q = q_sequence(a, nr + extra)
    assert q[0] == geometric_genus(a)
    assert all(x >= y for x, y in zip(q, q[1:]))
    assert all(v >= 0 for v in q)
    # consecutive entries first coincide exactly at the reduction number
    assert all(q[n - 1] > q[n] for n in range(1, nr))
    assert q[nr] == q[nr - 1]
    assert q[nr:] == (q[nr],) * (len(q) - nr)
    mcn = maximal_cycle_numbers(a)
    n = len(q) - 1
    run = sum(
        (n + 1 - i) * quotient_dimension(a, i - 1) for i in range(1, n + 1)
    )
    assert q[n] == q[0] + n * (mcn.MY_sq - mcn.MY_K) // 2 + run


# ---------------------------------------------------------------- elliptic census

def test_is_elliptic_fixtures():
    assert is_elliptic((2, 3, 7))
    assert is_elliptic((2, 2, 2, 2))
    assert not is_elliptic((2, 3, 5))
    assert not is_elliptic(GAMMA1)
    assert not is_elliptic((4, 4, 4))


def test_classify_elliptic_box_3_9():
    got = classify_elliptic(3, 9)
    want = (
        [(2, 3, x) for x in range(6, 10)]
        + [(2, 4, x) for x in range(4, 10)]
        + [(2, 5, x) for x in range(5, 10)]
        + [(3, 3, x) for x in range(3, 10)]
        + [(3, 4, 4), (3, 4, 5)]
    )
    assert got == sorted(want)
    assert len(got) == 24
    assert all(is_elliptic(a) for a in got)


def test_classify_elliptic_validation():
    with pytest.raises(DomainError):
        classify_elliptic(2, 9)
    with pytest.raises(DomainError):
        classify_elliptic(3, 1)


@pytest.mark.parametrize(
    "func, args",
    [
        (q_sequence, ((3, 4, 6), 2.5)),
        (q_sequence, ((3, 4, 6), 2.0)),
        (divisor_cycle, ((3, 4, 6), 1.0)),
        (classify_elliptic, (3.0, 8)),
        (classify_elliptic, (3, 8.0)),
    ],
)
def test_non_integer_arguments_raise_domain_error(func, args):
    with pytest.raises(DomainError):
        func(*args)


def _with_scanned_pf(monkeypatch, a, value):
    """Let the box scan report ``value`` as the p_f of ``a``."""
    real = brieskorn._pf_columns

    def patched(cols):
        return [value if t == a else pf for t, pf in zip(zip(*cols), real(cols))]

    monkeypatch.setattr(brieskorn, "_pf_columns", patched)


def test_classify_elliptic_verifies_what_it_reports(monkeypatch):
    """A scan that wrongly calls (2, 3, 5) elliptic is caught by the
    Laufer cross-check instead of being reported."""
    _with_scanned_pf(monkeypatch, (2, 3, 5), 1)
    with pytest.raises(
        ConsistencyError,
        match=r"^scanned fundamental genus 1 of \(2, 3, 5\) disagrees with the Laufer value 0$",
    ):
        classify_elliptic(3, 5)


def test_br2_exceptions_verifies_what_it_reports(monkeypatch):
    """A wrong scanned p_f of a reported tuple is caught by the Laufer
    cross-check."""
    _with_scanned_pf(monkeypatch, GAMMA1, 3)
    with pytest.raises(
        ConsistencyError,
        match=r"^scanned fundamental genus 3 of \(3, 4, 6\) disagrees with the Laufer value 2$",
    ):
        br2_exceptions()


def test_classify_elliptic_scans_the_box_in_chunks():
    """The census holds one chunk's columns at a time: its tracemalloc peak
    on the 8,463 tuples of m <= 5, a_m <= 14 stays below a bound that the
    columns of the whole m = 5 box (6,188 tuples) exceed."""
    for cache in (brieskorn._pf_verified, brieskorn._star_cached, brieskorn._invariants_cached):
        cache.cache_clear()
    tracemalloc.start()
    try:
        found = classify_elliptic(5, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 52
    assert peak < 2_000_000


def test_classify_elliptic_builds_records_only_for_what_it_reports():
    """The scan reads the uncached lcm kernel; only the Laufer cross-check
    of a reported tuple builds its record."""
    for cache in (brieskorn._pf_verified, brieskorn._star_cached, brieskorn._invariants_cached):
        cache.cache_clear()
    found = classify_elliptic(4, 12)
    assert len(found) < 100 < comb(13, 3) + comb(14, 4)
    assert brieskorn._invariants_cached.cache_info().misses == len(found)


def test_br2_exceptions():
    pairs = br2_exceptions()
    assert pairs == [GAMMA1, GAMMA2]
    for a in pairs:
        assert fundamental_genus(a).value == 2
        assert geometric_genus(a) == 3
        assert normal_reduction_number(a) == 2
        assert not is_elliptic(a)


def test_br2_scan_of_the_census_box():
    """nr = 2 with p_f != 1 happens 46 times for m <= 5, a_m <= 30, but only
    the two exceptions also have p_g = 3."""
    non_elliptic = [
        a
        for m in range(3, 6)
        for a in combinations_with_replacement(range(2, 31), m)
        if normal_reduction_number(a) == 2 and fundamental_genus(a).value != 1
    ]
    assert len(non_elliptic) == 46
    assert (2, 5, 10) in non_elliptic and geometric_genus((2, 5, 10)) == 4
    assert [a for a in non_elliptic if geometric_genus(a) == 3] == br2_exceptions()


# ----------------------------------------------------------------------- report

def test_invariant_report_keys_and_values():
    rep = invariant_report((2, 2, 2))
    assert list(rep) == [
        "a", "ell", "alpha", "ghat", "lambda", "eta", "delta",
        "g", "c0", "pf", "pg", "nr", "elliptic", "flags",
    ]
    assert rep == {
        "a": [2, 2, 2], "ell": 2, "alpha": [1, 1, 1], "ghat": 4,
        "lambda": [1, 1, 1], "eta": [1, 1, 1], "delta": 0, "g": 0,
        "c0": 2, "pf": 0, "pg": 0, "nr": 1, "elliptic": False, "flags": [],
    }


def test_invariant_report_flagged():
    rep = invariant_report((2, 2, 3))
    assert rep["flags"] == [FLAG_NON_MINIMAL]
    assert rep["g"] == 0 and rep["c0"] == 1
