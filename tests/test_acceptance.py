"""Acceptance gate: ten criteria, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Criteria 5, 6, 8
and 9 share a single sweep over all exponent tuples with m <= 5 and
a_m <= 12 (4290 tuples); the sweep fixture walks each tuple once and
keeps only small per-tuple summaries.
"""

import time
from itertools import combinations_with_replacement
from math import comb
from typing import NamedTuple

import pytest

from singlat import (
    FLAG_NON_MINIMAL,
    a_invariant_relation,
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
    is_elliptic,
    maximal_cycle_numbers,
    maximal_ideal_cycle,
    normal_reduction_number,
    nr_by_oracle,
    numeric_invariants,
    q_sequence,
    qp_consistency,
    quotient_table,
)
from singlat.brieskorn import _ONE, _genus_numerators, _pg_dense
from conftest import (
    ordered_quotient, per_curve, reference_quotient, star, star_layout_mismatches,
)

SWEEP_M_MAX = 5
SWEEP_A_MAX = 12


def sweep_tuples():
    for m in range(3, SWEEP_M_MAX + 1):
        yield from combinations_with_replacement(range(2, SWEEP_A_MAX + 1), m)


def solved_pairings(star_graph, inv, i):
    """The pairings Z_0 (i = 0) or Z^(i) was solved for, on the flattened
    graph: -1 at the tips of family i, 0 on every other chain curve, and at
    the center 0 if there are such tips, else -alpha ghat/ell for Z_0 and
    -ghat_i for Z^(i)."""
    want = [0] * star_graph.graph.n
    tips = star_graph.tip_indices(i) if i else ()
    for t in tips:
        want[t] = -1
    if not tips:
        want[0] = -inv.ghat_i[i - 1] if i else -(inv.alpha * inv.ghat // inv.ell)
    return tuple(want)


class Record(NamedTuple):
    pf: int
    pf_graph: int
    selector: str
    lam_m: int
    alpha: int
    eta_m_is_tip: bool
    cycles_pair_as_solved: bool
    class_pairings_match_graph: bool
    class_genus_matches_graph: bool
    kept_quotient_matches_adjacency: bool
    layout_mismatches: list
    zf_eq_z0: bool
    zf_eq_mx: bool
    pa_mx_matches_graph: bool
    closed_genera_match_classes: bool
    zk_matches_adjunction: bool
    zk_integral: bool
    zk_effective: bool
    flagged: bool
    nr: int
    q: tuple
    p: tuple
    pg: int
    pg_dense: int


@pytest.fixture(scope="session")
def sweep():
    records = {}
    for a in sweep_tuples():
        star_graph = dual_graph(a)
        graph, quo = star_graph.graph, star_graph.quotient
        inv = numeric_invariants(a)
        zf = fundamental_cycle(graph)
        pf, selector = fundamental_genus(a)
        z0 = central_multiple_cycle(a)
        mx = maximal_ideal_cycle(a)
        zk = canonical_cycle_formula(a)
        mcn = maximal_cycle_numbers(a)
        nr = normal_reduction_number(a)
        q = q_sequence(a, nr + 2)
        # Z_0, Z^(1..m) and Z_K on the flattened graph, by the edge walk
        flat = [cycle_products(graph, z) for z in [
            z0, *(divisor_cycle(a, i) for i in range(1, len(a) + 1)),
            star_graph.assemble(star_graph.cycles[-1]),
        ]]
        records[a] = Record(
            pf=pf,
            pf_graph=arithmetic_genus(graph, zf),
            selector=selector,
            lam_m=inv.lambda_i[-1],
            alpha=inv.alpha,
            eta_m_is_tip=all(
                mx[t] == inv.eta_m for t in star_graph.tip_indices(len(a)) or (0,)
            ),
            cycles_pair_as_solved=all(
                p == solved_pairings(star_graph, inv, i) for i, p in enumerate(flat[:-1])
            ),
            # the class-wise pairings the star build checks its cycles with,
            # and the class-wise p_a(Z_f) that verifies p_f
            class_pairings_match_graph=graph.quotient is quo and all(
                per_curve(graph, quo.products(z)) == p for z, p in zip(star_graph.cycles, flat)
            ),
            class_genus_matches_graph=quo.arithmetic_genus(quo.fundamental_cycle())
            == arithmetic_genus(graph, zf),
            # the quotient the star builds from its families, against the
            # one the adjacency gives, row keys in order
            kept_quotient_matches_adjacency=ordered_quotient(quo)
            == ordered_quotient(reference_quotient(graph)),
            layout_mismatches=star_layout_mismatches(star_graph),
            zf_eq_z0=zf == z0,
            zf_eq_mx=zf == mx,
            # maximal_cycle_numbers reads the closed p_a(M_X), which no star
            # cycle enters: MY_sq + MY_K = 2 p_a(M_X) - 2 - 2 delta ghat_m
            pa_mx_matches_graph=mcn.MY_sq + mcn.MY_K
            == 2 * arithmetic_genus(graph, mx) - 2 - 2 * inv.delta * inv.ghat_i[-1],
            # the closed 2 ell (p_a - 1) of Z_0 and of M_X, against p_a of the
            # star's cycles class by class; Z_0 is not Z_f where lambda_m < alpha
            closed_genera_match_classes=_genus_numerators(_ONE, inv[1:-1]) == tuple(
                2 * inv.ell * (quo.arithmetic_genus(star_graph.cycles[i]) - 1)
                for i in (0, len(a))
            ),
            zk_matches_adjunction=zk == canonical_qcycle(graph),
            zk_integral=all(c.denominator == 1 for c in zk),
            zk_effective=all(c >= 0 for c in zk),
            flagged=FLAG_NON_MINIMAL in star_graph.flags,
            nr=nr,
            q=q,
            p=quotient_table(a).p,
            pg=geometric_genus(a),
            pg_dense=_pg_dense(a),
        )
    return records


def test_criterion_01_figure_fixtures():
    """The two worked resolution graphs are reproduced exactly."""
    gamma1 = dual_graph((3, 4, 6))
    assert gamma1.center_genus == 1
    assert gamma1.center_self_int == -2
    assert gamma1.graph == star((1, -2), [[-2], [-2], [-2]])

    gamma2 = dual_graph((3, 4, 7))
    assert gamma2.center_genus == 0
    assert gamma2.center_self_int == -2
    assert [f.chain for f in gamma2.branch_families] == [
        (2, 2), (2, 2, 2), (2, 4)]
    assert gamma2.graph == star((0, -2), [[-2, -2], [-2, -2, -2], [-2, -4]])


def test_criterion_02_genus_pair():
    """Both fixture singularities have geometric genus 3, fundamental
    genus 2."""
    for a in [(3, 4, 6), (3, 4, 7)]:
        assert geometric_genus(a) == 3
        assert fundamental_genus(a).value == 2


def test_criterion_03_elliptic_classification():
    """Sweep m <= 5, a_m <= 30: exactly the six elliptic families."""
    box = classify_elliptic(5, 30)
    families = set()
    for x in range(2, 31):
        if x >= 6:
            families.add((2, 3, x))
        if x >= 4:
            families.add((2, 4, x))
        if 5 <= x <= 9:
            families.add((2, 5, x))
        if x >= 3:
            families.add((3, 3, x))
        if 4 <= x <= 5:
            families.add((3, 4, x))
        families.add((2, 2, 2, x))
    assert set(box) == families
    assert box == sorted(families)
    assert (2, 5, 9) in box and (2, 5, 10) not in box
    assert (3, 4, 5) in box and (3, 4, 6) not in box
    assert all(len(a) < 5 for a in box)
    assert all(is_elliptic((2, 2, 2, x)) for x in range(2, 31))


def test_criterion_04_formula_oracle_equivalence():
    """Closed-form reduction number equals the lattice oracle on all
    4290 sweep tuples, in under 30 seconds."""
    start = time.perf_counter()
    count = 0
    for a in sweep_tuples():
        assert normal_reduction_number(a) == nr_by_oracle(a), a
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 4290
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_05_fundamental_genus_closed_form(sweep):
    """p_f closed form equals the Laufer computation, the fundamental
    cycle is the predicted distinguished cycle, the eta_m the closed
    form uses is the tip coefficient of Z^(m) on the graph, Z_0 and every
    Z^(i) pair against the flattened graph as they were solved for, the
    closed p_a(M_X) is the graph's, the closed p_a of Z_0 and of M_X are
    those of the star's cycles class by class, the quotient each star
    keeps from its families is the one its adjacency gives and lays the
    star out as its families once did, and the class-wise pairings and
    p_a(Z_f) on it match the flattened graph's."""
    for a, r in sweep.items():
        assert r.pf == r.pf_graph, a
        assert r.kept_quotient_matches_adjacency, a
        assert r.layout_mismatches == [], a
        assert r.class_pairings_match_graph, a
        assert r.class_genus_matches_graph, a
        assert r.pa_mx_matches_graph, a
        assert r.closed_genera_match_classes, a
        assert r.eta_m_is_tip, a
        assert r.cycles_pair_as_solved, a
        if r.lam_m >= r.alpha:
            assert r.zf_eq_z0, a
        if r.lam_m <= r.alpha:
            assert r.zf_eq_mx, a
        assert r.selector == (
            "both" if r.lam_m == r.alpha
            else "Z0" if r.lam_m > r.alpha else "MX"
        ), a


def test_criterion_06_canonical_cycle(sweep):
    """Canonical cycle formula agrees with the adjunction solve and is
    integral everywhere; effective away from the non-minimal models.

    Five sweep tuples resolve to a star whose central curve is a
    (-1)-curve (flagged non-minimal); there the adjunction solution is
    legitimately non-effective and effectivity is waived.
    """
    flagged = set()
    for a, r in sweep.items():
        assert r.zk_matches_adjunction, a
        assert r.zk_integral, a
        if r.flagged:
            flagged.add(a)
        else:
            assert r.zk_effective, a
    assert flagged == {(2, 2, 3), (2, 2, 5), (2, 2, 7), (2, 2, 9), (2, 2, 11)}
    for a in flagged:
        assert not sweep[a].zk_effective
        assert dual_graph(a).center_self_int == -1


def test_criterion_07_homogeneous_cones():
    """Degree-d cones: binomial q-sequence and nr = d-1 = a(R)+2."""
    for d in range(3, 9):
        a = (d, d, d)
        want_q = tuple(comb(max(d - n, 0), 3) for n in range(d + 1))
        assert q_sequence(a, d) == want_q
        assert normal_reduction_number(a) == d - 1 == a_invariant_relation(d)


def test_criterion_08_difference_identities(sweep):
    """q is non-increasing, first repeats exactly at nr, and satisfies
    2q(n) + p(n) = q(n+1) + q(n-1)."""
    for a, r in sweep.items():
        q = r.q
        assert all(x >= y for x, y in zip(q, q[1:])), a
        stab = next(n for n in range(1, len(q)) if q[n] == q[n - 1])
        assert stab == r.nr, a
        padded = r.p + (0,) * (len(q) - 1 - len(r.p))
        assert qp_consistency(q, padded), a


def test_criterion_09_reduction_genus_inequality(sweep):
    """r(r-1)/2 + q(r) <= p_g on the whole sweep, with the box-basis p_g
    equal to the dense-series p_g."""
    for a, r in sweep.items():
        assert r.pg == r.pg_dense, a
        assert r.nr * (r.nr - 1) // 2 + r.q[r.nr] <= r.pg, a


def test_criterion_10_br2_exceptions():
    """Exactly two tuples form the boundary case list, with the stated
    invariants."""
    pairs = br2_exceptions()
    assert pairs == [(3, 4, 6), (3, 4, 7)]
    for a in pairs:
        assert fundamental_genus(a).value == 2
        assert normal_reduction_number(a) == 2
        assert geometric_genus(a) == 3
