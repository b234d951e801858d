"""Brieskorn complete intersections: numeric invariants, resolution graphs,
distinguished cycles, genera, reduction numbers, the elliptic census."""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from math import comb, gcd, lcm, prod
from operator import mul

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
from singlat import brieskorn, graph_lattice, ideal_oracle
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


def _lcm_data(a: tuple[int, ...]) -> tuple:
    """The reference lcm kernel for one tuple, kept as it stood before the
    record and the census scan shared one kernel: ``(ell, ell_i, alpha_i,
    alpha, ghat, ghat_i, lambda_i, eta_i, eta_m, delta)``, with the five
    checks and messages of ``brieskorn._lcm_fields``, and then the
    a-invariant, as the record once added it."""
    lcm = math.lcm
    suf = list(accumulate(a[:0:-1], lcm, initial=1))  # lcm(a[m-j:]), j = 0..m-1
    suf.reverse()  # now suf[i] = lcm(a[i+1:])
    ell = lcm(a[0], suf[0])
    # the prefix lcms lcm(a[:i]), i = 0..m-1, meet the suffixes one by one
    ell_i = tuple(map(lcm, accumulate(a[:-1], lcm, initial=1), suf))
    alphas = tuple([ell // li for li in ell_i])
    alpha = math.prod(alphas)
    if ell % alpha:
        raise InternalError(f"alpha = {alpha} does not divide ell = {ell}")
    ghat = math.prod(a) // ell
    ghats = []
    for ai, al in zip(a, alphas):
        num = ghat * al
        if num % ai:
            raise InternalError("branch count ghat_i is not integral")
        ghats.append(num // ai)
    lams = tuple([ell // ai for ai in a])
    for lw, aw in zip(lams, alphas):
        if math.gcd(lw, aw) != 1:
            raise InternalError("lambda_w and alpha_w are not coprime")
    alpha_m = alphas[-1]
    eta = []
    for lam in lams[:-1]:
        if lam % alpha_m:
            raise InternalError("lambda_i / alpha_m is not integral")
        eta.append(lam // alpha_m)
    # tip coefficient of Z^(m): (lambda_m + beta')/alpha_m with
    # beta' = -lambda_m mod alpha_m, i.e. the round-up of lambda_m/alpha_m
    # (the central coefficient lambda_m itself when family m is empty)
    eta_m = -(-lams[-1] // alpha_m)
    delta = eta[-1] - eta_m
    if delta < 0:
        raise InternalError(f"delta = {delta} is negative")
    b = (len(a) - 2) * ell - sum(lams)
    return ell, ell_i, alphas, alpha, ghat, tuple(ghats), lams, tuple(eta), eta_m, delta, b


def _pf_value(a: tuple[int, ...]) -> brieskorn.FundamentalGenus:
    """The reference closed p_f for one tuple, as it stood before the one
    kernel, on the lcm data of the reference :func:`_lcm_data`."""
    _, ell, ell_i, _, alpha, ghat, ghat_i, lams, _, eta_m, *_ = (a, *_lcm_data(a))
    ghat_m, lam_m = ghat_i[-1], lams[-1]
    # each branch gives 2 ell (p_f - 1) in integers, using ell / alpha_w = ell_w
    head = (len(a) - 2) * ghat * ell - sum(map(mul, ghat_i[:-1], ell_i[:-1]))
    z0 = alpha * (head - ghat_m * ell_i[-1] - (alpha - 1) * ghat)
    mx = lam_m * head - (2 * eta_m - 1) * ghat_m * ell
    if lam_m > alpha:
        num, sel = z0, "Z0"
    elif lam_m < alpha:
        num, sel = mx, "MX"
    else:
        num, sel = z0, "both"
        if num != mx:
            raise InternalError("the two fundamental-genus formulas disagree at lambda_m = alpha")
    if num % (2 * ell):
        raise InternalError(f"fundamental genus 1 + {num}/{2 * ell} is not an integer")
    return brieskorn.FundamentalGenus(1 + num // (2 * ell), sel)


@given(
    st.lists(st.integers(min_value=2, max_value=300), min_size=3, max_size=7)
    .map(lambda xs: tuple(sorted(xs)))
)
@settings(max_examples=200, deadline=None)
def test_lcm_kernel_against_the_definitions(a):
    """The prefix-suffix lcms against lcm of all the other exponents, and
    the record's lcm data against the reference kernel."""
    data = _lcm_data(a)
    ell, ell_i, alpha_i, alpha, ghat, ghat_i, lams, eta_i, eta_m, delta, b = data
    assert ell == lcm(*a)
    assert ell_i == tuple(lcm(*(a[:i] + a[i + 1 :])) for i in range(len(a)))
    assert all(lam * x == ell for lam, x in zip(lams, a))
    assert ghat * ell == prod(a)
    inv = brieskorn._invariants_cached.__wrapped__(a)
    assert tuple(inv)[1:-1] == data


def _scan_chunk(monkeypatch, chunk):
    """The p_f that ``_scan_range`` finds for the tuples of ``chunk``, read
    as one chunk of a box that holds them alone, in their order."""
    monkeypatch.setattr(brieskorn, "combinations_with_replacement", lambda pool, m: iter(chunk))
    return [pf for _, pf in brieskorn._scan_range(0, len(chunk[0]))]


def _fake_ops(monkeypatch, **ops):
    """Replace scalar ops of the kernel's arithmetic, for one tuple and,
    lifted to columns, for a chunk."""
    lifted = {name: brieskorn._lifted(op) for name, op in ops.items()}
    monkeypatch.setattr(brieskorn, "_ONE", brieskorn._ONE._replace(**ops))
    monkeypatch.setattr(brieskorn, "_CHUNK", brieskorn._CHUNK._replace(**lifted))


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
    the record's route and on the elliptic scan's, with ``a`` in a chunk."""
    _fake_ops(monkeypatch, **fake)
    # _pf_value reads the record, so it must not find one cached before the fake
    record = brieskorn._invariants_cached.__wrapped__
    monkeypatch.setattr(brieskorn, "_invariants_cached", record)
    for route in (record, brieskorn._pf_value, lambda a: _scan_chunk(monkeypatch, [a])):
        with pytest.raises(InternalError) as err:
            route(a)
        assert str(err.value) == message


def test_a_column_check_names_the_first_tuple_that_fails(monkeypatch):
    """On a chunk, a failed check names the values of its first failing tuple."""
    # the unsorted (2, 5, 3) and (2, 7, 3) have delta -2 and -3
    with pytest.raises(InternalError, match="^delta = -2 is negative$"):
        _scan_chunk(monkeypatch, [(2, 3, 4), (2, 5, 3), (2, 7, 3)])
    _fake_ops(monkeypatch, lcm=max)
    # (2, 3, 4) and (2, 3, 6) pass the alpha check under this lcm; (2, 3, 7)
    # and (2, 4, 9) fail it
    with pytest.raises(InternalError, match="^alpha = 2 does not divide ell = 7$"):
        _scan_chunk(monkeypatch, [(2, 3, 4), (2, 3, 6), (2, 3, 7), (2, 4, 9)])


@contextmanager
def _changed_kernel(field, change):
    """A ``MonkeyPatch`` under which the kernel changes one field of its
    lcm data, of one tuple or of a one-tuple chunk, and the record that
    ``_pf_value`` and ``_mcn_value`` read is built from the changed data
    and not cached."""
    real = brieskorn._lcm_fields

    def changed(ar, a):
        data = list(real(ar, a))
        value = data[field]
        if isinstance(data[0], int):  # one tuple
            data[field] = change(value)
        elif isinstance(value, list):  # one column
            data[field] = [change(value[0])]
        else:  # one column per index
            data[field] = tuple([x] for x in change(tuple(c[0] for c in value)))
        return tuple(data)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brieskorn, "_lcm_fields", changed)
        mp.setattr(brieskorn, "_invariants_cached", brieskorn._invariants_cached.__wrapped__)
        yield mp


def _pf_with_changed_kernel(scan, a, field, change):
    """p_f of ``a`` with one field of its lcm data changed: on the record's
    route, or on the scan's with ``a`` as a one-tuple chunk."""
    with _changed_kernel(field, change) as mp:
        return _scan_chunk(mp, [a])[0] if scan else brieskorn._pf_value(a).value


def test_pf_formulas_must_agree_at_lambda_m_equal_alpha():
    assert brieskorn._pf_value((2, 3, 6)).cycle == "both"
    for scan in (False, True):
        with pytest.raises(
            InternalError,
            match="^the two fundamental-genus formulas disagree at lambda_m = alpha$",
        ):
            _pf_with_changed_kernel(scan, (2, 3, 6), 8, lambda eta_m: eta_m + 1)


def test_pf_must_be_an_integer():
    """The a-invariant one too low on (2, 3, 7) moves 2 ell (p_f - 1) from
    0 to -ghat lambda_m = -6, which 2 ell = 84 does not divide."""
    for scan in (False, True):
        with pytest.raises(
            InternalError, match=r"^fundamental genus 1 \+ -6/84 is not an integer$"
        ):
            _pf_with_changed_kernel(scan, (2, 3, 7), 10, lambda b: b - 1)


def test_maximal_cycle_genus_must_be_an_integer():
    """The a-invariant one too high on (2, 3, 7) moves ell M_X.(M_X + K)
    from 0 to ghat lambda_m = 6, which 2 ell = 84 does not divide."""
    with _changed_kernel(10, lambda b: b + 1):
        with pytest.raises(InternalError, match=r"^M_X\.\(M_X \+ K\) is odd$"):
            maximal_cycle_numbers((2, 3, 7))


def _entry(field, k):
    """Entry ``k`` of a field of the chunk kernel's data: of its column, or
    of each of its columns."""
    return field[k] if isinstance(field, list) else tuple(c[k] for c in field)


def test_the_record_matches_the_reference_kernel():
    """The record's lcm data and closed p_f equal the reference kernel's on
    every tuple of m = 3..6, a_m <= 12."""
    for m in range(3, 7):
        for a in combinations_with_replacement(range(2, 13), m):
            assert brieskorn._invariants_cached.__wrapped__(a)[1:-1] == _lcm_data(a)
            assert brieskorn._pf_value(a) == _pf_value(a)


def test_the_column_kernel_matches_the_record_kernel():
    """Every field of the kernel's lcm data on a chunk, read back tuple by
    tuple, equals the reference kernel's on every tuple of m = 3..6,
    a_m <= 12, each m-box read as one chunk."""
    for m in range(3, 7):
        box = list(combinations_with_replacement(range(2, 13), m))
        data = brieskorn._lcm_fields(brieskorn._CHUNK, list(zip(*box)))
        got = [tuple(_entry(f, k) for f in data) for k in range(len(box))]
        assert got == [_lcm_data(a) for a in box]


@given(
    st.integers(min_value=3, max_value=6).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(2, 60), min_size=m, max_size=m).map(sorted).map(tuple),
            st.lists(
                st.lists(st.integers(2, 60), min_size=m, max_size=m).map(sorted).map(tuple),
                max_size=12,
            ),
        )
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_the_kernel_reads_a_tuple_alike_alone_and_in_a_chunk(case, rnd):
    """Every field of the lcm data and the closed p_f of a tuple read alone
    equal its entries when it sits at a random position of a chunk of
    random sorted tuples."""
    a, others = case
    k = rnd.randint(0, len(others))
    chunk = others[:k] + [a] + others[k:]
    alone = brieskorn._lcm_fields(brieskorn._ONE, a)
    data = brieskorn._lcm_fields(brieskorn._CHUNK, list(zip(*chunk)))
    assert tuple(_entry(f, k) for f in data) == alone
    pf = brieskorn._closed_pf(brieskorn._CHUNK, data)
    assert pf[k] == brieskorn._closed_pf(brieskorn._ONE, alone)


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk-1", "chunk-7", "default"])
def test_the_box_scan_matches_the_record_kernel(monkeypatch, chunk):
    """The scan's p_f equals the reference kernel's on every tuple of two
    boxes, in the order of the boxes; the default chunk is larger than the
    m = 3 box and ends part-way through the larger ones."""
    if chunk:
        monkeypatch.setattr(brieskorn, "_SCAN_CHUNK", chunk)
    for m_min, m_max, a_max in ((3, 5, 16), (6, 6, 10)):
        got = [(a, pf) for a, pf in brieskorn._scan_box(m_max, a_max) if len(a) >= m_min]
        want = [
            (a, _pf_value(a).value)
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
    """The closed p_a(M_X) that maximal_cycle_numbers uses equals
    arithmetic_genus on the flattened graph, which the elimination finds
    negative definite."""
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


def _count_validations(monkeypatch) -> list:
    """The list that each later ``_validated`` call appends its argument to."""
    calls = []
    real = brieskorn._validated

    def counted(a):
        calls.append(a)
        return real(a)

    for module in (brieskorn, ideal_oracle):
        monkeypatch.setattr(module, "_validated", counted)
    return calls


def test_q_sequence_validates_once(monkeypatch):
    """q_sequence validates its tuple once and reads p_g, M_X, the quotient
    table and nr without validating it again."""
    calls = _count_validations(monkeypatch)
    assert q_sequence([3, 4, 6], 4) == (3, 2, 2, 2, 2)
    assert calls == [[3, 4, 6]]


def test_invariant_report_validates_once(monkeypatch):
    """invariant_report validates its tuple once and reads p_g and nr
    without validating it again."""
    calls = _count_validations(monkeypatch)
    assert invariant_report([3, 4, 6])["nr"] == 2
    assert calls == [[3, 4, 6]]


def test_q_sequence_and_maximal_cycle_numbers_build_no_star(monkeypatch):
    """Both read M_X's genus in closed form, also where family m is empty,
    as on (2, 2, 2) and (2, 3, 6): a star build would raise here."""

    def no_star(a):
        raise AssertionError(f"the star of {a} was built")

    monkeypatch.setattr(brieskorn, "_star_cached", no_star)
    for a, q, mcn in [
        ((2, 2, 2), (0, 0, 0), (-2, 0)), ((2, 3, 6), (1, 1, 1), (-2, 0)),
        (GAMMA1, (3, 2, 2), (-3, 3)), ((2, 3, 7), (1, 1, 1), (-2, 0)),
        ((4, 4, 4), (4, 1, 0), (-4, 8)),
    ]:
        assert q_sequence(a, 2) == q
        assert maximal_cycle_numbers(a) == mcn


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


@pytest.mark.deadline(5)
def test_a_census_box_over_the_budget_is_refused_before_the_scan():
    """The box is counted m by m, and refused at the first m that takes the
    count past LATTICE_BUDGET, before any list is built for it."""
    with pytest.raises(ResourceError, match="^the census box m <= 1413, a_m <= 3 needs 1000399 "):
        classify_elliptic(10**8, 3)
    # the whole box, comb(a_max - 1 + m_max, m_max) - a_max - comb(a_max, 2) tuples
    assert comb(44, 5) - 40 - comb(40, 2) == 1_085_188 > ideal_oracle.LATTICE_BUDGET
    with pytest.raises(ResourceError, match="^the census box m <= 5, a_m <= 40 needs 1085188 "):
        classify_elliptic(5, 40)
    assert comb(34, 5) - 30 - comb(30, 2) == 277_791 < ideal_oracle.LATTICE_BUDGET


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
    real = brieskorn._scan_range

    def patched(*args):
        return ((t, value if t == a else pf) for t, pf in real(*args))

    monkeypatch.setattr(brieskorn, "_scan_range", patched)


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


@pytest.fixture
def split_scan(monkeypatch):
    """Let every census box take the split path on two CPUs, with 7-tuple
    chunks, and record the jobs handed to the workers.  The workers are
    forked, so they see the caller's patches."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method here: the census never splits")
    monkeypatch.setattr(brieskorn, "_SPLIT_MIN", 0)
    monkeypatch.setattr(brieskorn, "_SCAN_CHUNK", 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    jobs = []
    real = brieskorn._in_workers

    def recorded(target, args):
        jobs.append(args)
        return real(target, args)

    monkeypatch.setattr(brieskorn, "_in_workers", recorded)
    yield jobs
    assert multiprocessing.active_children() == []


def _in_process_census(m_max, a_max):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brieskorn, "_SPLIT_MIN", math.inf)
        return brieskorn._scan_census(m_max, a_max)


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_the_split_scan_matches_the_in_process_scan(split_scan, monkeypatch, method):
    """The two workers find what the in-process scan finds, in box order: on
    a box of one tuple, fewer than the workers, and on boxes whose halves end
    in partial chunks.  The census forks its workers; under ``spawn`` the
    worker is imported afresh, which checks that it is importable and its
    arguments picklable."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    monkeypatch.setattr(brieskorn, "_START_METHOD", method)
    for box in ((3, 2), (4, 9), (5, 8)):
        found = brieskorn._scan_census(*box)
        assert found == _in_process_census(*box)
        assert sorted(a for a, _ in found) == classify_elliptic(*box)
    # per box, two workers on adjacent runs of whole 7-tuple chunks of each m-box
    assert split_scan[0] == [(2, [(3, 0, 0)]), (2, [(3, 0, 1)])]
    assert len(split_scan) == 6
    for (a_max, first), (_, second) in split_scan:
        for (m, start, mid), (m2, mid2, stop) in zip(first, second):
            assert (m2, start, mid2, stop) == (m, 0, mid, comb(a_max + m - 2, m))
            assert mid % 7 == 0


def test_a_kernel_error_in_a_worker_reaches_the_caller(split_scan, monkeypatch):
    """A kernel check that fails in a worker raises its InternalError, with
    its message, in the caller, as the in-process scan does."""
    _fake_ops(monkeypatch, lcm=max)
    with pytest.raises(InternalError) as serial:
        _in_process_census(4, 9)
    with pytest.raises(InternalError) as split:
        brieskorn._scan_census(4, 9)
    assert str(split.value) == str(serial.value) == "alpha = 2 does not divide ell = 5"
    assert split_scan


def test_the_split_scan_raises_the_first_error_in_box_order(split_scan, monkeypatch):
    """Worker 0 fails in the m = 5 box and worker 1 earlier, in the second
    half of the m = 4 box: the caller gets worker 1's error, the one the
    in-process scan meets first."""
    real = brieskorn._lcm_fields
    bad = {(2, 2, 2, 2, 2), (6, 7, 8, 9)}

    def failing(ar, cols):
        for a in zip(*cols):
            if a in bad:
                raise InternalError(f"fault at {a}")
        return real(ar, cols)

    monkeypatch.setattr(brieskorn, "_lcm_fields", failing)
    for scan in (_in_process_census, brieskorn._scan_census):
        with pytest.raises(InternalError, match=r"^fault at \(6, 7, 8, 9\)$"):
            scan(5, 9)
    assert split_scan


_UNGUARDED_SCRIPT = """\
import multiprocessing
import os
import sys

from singlat import brieskorn

if sys.argv[1:]:
    multiprocessing.set_start_method(sys.argv[1])
brieskorn._SPLIT_MIN = 0
os.sched_getaffinity = lambda pid: {0, 1}
in_workers = brieskorn._in_workers


def counted(target, jobs):
    print("workers:", len(jobs))
    return in_workers(target, jobs)


brieskorn._in_workers = counted
print(brieskorn.classify_elliptic(4, 9))
"""


@pytest.mark.parametrize("method", [None, "spawn", "forkserver"])
def test_a_script_without_a_main_guard_can_split_the_census(tmp_path, method):
    """A script that splits the census at top level, with no ``__main__``
    guard, prints the in-process result under the default or any other
    start method: the forked workers do not run the script again, as
    spawned ones would."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" not in methods:
        pytest.skip("no fork start method here: the census never splits")
    if method is not None and method not in methods:
        pytest.skip(f"no {method} start method here")
    script = tmp_path / "census.py"
    script.write_text(_UNGUARDED_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(script)] + ([method] if method else []),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == f"workers: 2\n{classify_elliptic(4, 9)}\n"


def _census_in_a_daemon(conn):
    try:
        conn.send(classify_elliptic(4, 9))
    except Exception as exc:
        conn.send(repr(exc))
    conn.close()


def test_the_scan_stays_in_process_on_one_cpu_beside_a_thread_or_in_a_daemon(
    split_scan, monkeypatch
):
    """One CPU, a caller running another thread, which a fork would not
    copy, or a daemonic caller, which may start no process, scans
    in-process."""
    want = _in_process_census(4, 9)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert brieskorn._scan_census(4, 9) == want
    finally:
        stop.set()
        thread.join()
    assert split_scan == []
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    daemon = ctx.Process(target=_census_in_a_daemon, args=(send,), daemon=True)
    daemon.start()
    send.close()
    try:
        assert recv.recv() == sorted(a for a, _ in want)
    finally:
        daemon.join()
        recv.close()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert brieskorn._split_workers(10**6) == 1
    assert brieskorn._scan_census(4, 9) == want
    assert split_scan == []


def test_br2_exceptions():
    pairs = br2_exceptions()
    assert pairs == [GAMMA1, GAMMA2]
    for a in pairs:
        assert fundamental_genus(a).value == 2
        assert geometric_genus(a) == 3
        assert normal_reduction_number(a) == 2
        assert not is_elliptic(a)


def test_br2_exceptions_validates_nothing(monkeypatch):
    """The scanned tuples come from the box, so br2_exceptions reads nr and
    p_g of each without validating it."""
    calls = _count_validations(monkeypatch)
    assert br2_exceptions() == [GAMMA1, GAMMA2]
    assert calls == []


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
