"""Brieskorn complete intersections: numeric invariants, resolution graphs,
distinguished cycles, genera, reduction numbers, the elliptic census."""

import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlat import (
    FLAG_NON_MINIMAL,
    ConsistencyError,
    ConstructionError,
    DomainError,
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
from conftest import wide_tuples

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
    assert star.family_starts == (1, 3, 6)
    assert star.tip_indices(1) == (2,)
    assert star.tip_indices(3) == (7,)
    assert star.chain_start(1, 0) == 1


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
    star = dual_graph(GAMMA2)
    z = star.assemble(9, [(1, 2), (3, 4, 5), (6, 7)])
    assert z == (9, 1, 2, 3, 4, 5, 6, 7)


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
    try:
        want = _chain_coeffs_two_point(chain, center, beyond)
    except ConstructionError:
        with pytest.raises(ConstructionError):
            brieskorn._chain_coeffs(chain, center, beyond)
    else:
        assert brieskorn._chain_coeffs(chain, center, beyond) == want


def _count_flattening(monkeypatch):
    """Record every DualGraph construction, _eliminate call and cycle_products
    call from here on, as (name, argument) pairs in the returned list."""
    calls = []
    for owner, name in [
        (graph_lattice.DualGraph, "__init__"),
        (graph_lattice, "_eliminate"),
        (graph_lattice, "cycle_products"),
    ]:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            calls.append((_name, args[1] if _name == "__init__" else args[0]))
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_star_solves_and_checks_its_cycles_once(monkeypatch):
    """A star build pairs each of its m + 2 distinguished cycles (Z_0, the
    Z^(i) and Z_K) once per chain family, on the compressed cycles, and
    neither builds nor eliminates the flattened graph nor pairs on it;
    reading the cycles back from the cached star pairs none."""
    flat = _count_flattening(monkeypatch)
    per_family, real_pairings = [], brieskorn._chain_pairings

    def counted_pairings(chain, center, coeffs):
        per_family.append(chain)
        return real_pairings(chain, center, coeffs)

    monkeypatch.setattr(brieskorn, "_chain_pairings", counted_pairings)
    for a in [GAMMA2, (2, 3, 4, 5), (6, 10, 15), (11, 12, 12, 12, 12)]:
        brieskorn._star_cached.cache_clear()
        star = dual_graph(a)
        families = sum(1 for fam in star.branch_families if fam.chain)
        assert flat == []
        assert len(per_family) == (len(a) + 2) * families
        per_family.clear()
        for i in range(1, len(a) + 1):
            divisor_cycle(a, i)
        central_multiple_cycle(a)
        maximal_ideal_cycle(a)
        canonical_cycle_formula(a)
        assert flat == [] and per_family == []
    brieskorn._star_cached.cache_clear()


def test_invariant_paths_build_no_flattened_graph(monkeypatch):
    """dual_graph, q_sequence, maximal_cycle_numbers and
    canonical_cycle_formula work on the compressed star alone."""
    flat = _count_flattening(monkeypatch)
    for a in [GAMMA1, (2, 3, 5), (2, 2, 3), (6, 10, 15), (11, 12, 12, 12, 12)]:
        brieskorn._star_cached.cache_clear()
        dual_graph(a)
        q_sequence(a, normal_reduction_number(a) + 1)
        maximal_cycle_numbers(a)
        canonical_cycle_formula(a)
        assert flat == [], a
    brieskorn._star_cached.cache_clear()


def test_star_build_rejects_a_wrong_cycle(monkeypatch):
    """A chain solve with a wrong tip coefficient fails the pairing check.
    On (3,4,7) every chain has two curves or more, so the center pairing
    stays right and only the chain pairings can catch it."""
    real = brieskorn._chain_coeffs

    def wrong_tip(chain, center, beyond):
        coeffs = real(chain, center, beyond)
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


def _with_cycle(fields, i, x, fams):
    cycles = list(fields["cycles"])
    cycles[i] = (x, tuple(fams))
    return {**fields, "cycles": tuple(cycles)}


def test_star_build_rejects_a_wrong_canonical_cycle(monkeypatch):
    """Z_K is paired with the other cycles: one chain entry or the center
    coefficient raised by one fails the adjunction pattern."""

    def chain_entry(fields):
        x, (f1, f2, *rest) = fields["cycles"][-1]
        return _with_cycle(fields, -1, x, [f1, (f2[0] + 1, *f2[1:]), *rest])

    def center(fields):
        x, fams = fields["cycles"][-1]
        return _with_cycle(fields, -1, x + 1, fams)

    for change in (chain_entry, center):
        for a in [(2, 3, 5), GAMMA1, GAMMA2]:
            with pytest.raises(ConstructionError, match="canonical cycle has the wrong"):
                _build_with(monkeypatch, a, change)


def test_star_build_rejects_a_zero_central_cycle(monkeypatch):
    """The zero cycle pairs to 0 = -(0 ghat // ell) at the center and to 0 on
    every chain curve; only the positivity that makes Z_0 prove definiteness
    rejects it."""

    def zero(fields):
        x, fams = fields["cycles"][0]
        return _with_cycle(fields, 0, 0, [(0,) * len(cc) for cc in fams])

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


def test_classify_elliptic_verifies_what_it_reports(monkeypatch):
    """A closed form that wrongly calls (2, 3, 5) elliptic is caught by the
    Laufer cross-check instead of being reported."""
    real = brieskorn._pf_value

    def patched(a):
        pf = real(a)
        return pf._replace(value=1) if a == (2, 3, 5) else pf

    brieskorn._pf_verified.cache_clear()
    monkeypatch.setattr(brieskorn, "_pf_value", patched)
    try:
        with pytest.raises(ConsistencyError, match="Laufer value 0"):
            classify_elliptic(3, 5)
    finally:
        brieskorn._pf_verified.cache_clear()


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
