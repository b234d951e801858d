"""Brieskorn complete-intersection surface singularities.

Everything is driven by the exponent tuple a = (a_1 <= ... <= a_m), m >= 3,
a_1 >= 2.  From it we compute the numeric invariants, build the star-shaped
resolution dual graph, the distinguished anti-nef cycles living on it, the
fundamental and geometric genera, the normal reduction number of the maximal
ideal, and the classification of the elliptic members.  All arithmetic is
exact.
"""

from __future__ import annotations

import math
import os
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import (
    accumulate, chain, combinations_with_replacement, compress, count, islice, repeat,
)
from operator import add, eq, floordiv, lt, mod, mul, ne, neg, sub
from typing import Callable, Iterator, NamedTuple, Sequence

from . import ideal_oracle
from .errors import ConsistencyError, ConstructionError, DomainError, InternalError
from .graph_lattice import Cycle, DualGraph, QCycle, Quotient
from .ideal_oracle import _validated

__all__ = [
    "BCIInvariants",
    "ChainFamily",
    "StarGraph",
    "FundamentalGenus",
    "MaximalCycleNumbers",
    "numeric_invariants",
    "dual_graph",
    "divisor_cycle",
    "maximal_ideal_cycle",
    "central_multiple_cycle",
    "canonical_cycle_formula",
    "fundamental_genus",
    "normal_reduction_number",
    "geometric_genus",
    "maximal_cycle_numbers",
    "q_sequence",
    "is_elliptic",
    "classify_elliptic",
    "br2_exceptions",
    "invariant_report",
    "FLAG_NON_MINIMAL",
]

FLAG_NON_MINIMAL = "non-minimal-model"


def _neg_cont_frac(p: int, q: int) -> list[int]:
    """Entries >= 2 of the negative continued fraction p/q = c1 - 1/(c2 - ...)."""
    out = []
    while q:
        c = -(-p // q)
        out.append(c)
        p, q = q, c * q - p
    return out


def _neg_cont_frac_len(p: int, q: int) -> int:
    """len(_neg_cont_frac(p, q)) in O(log p) steps.  With the regular continued
    fraction p/q = [a_1, ..., a_k] padded to odd k by [.., x] = [.., x - 1, 1],
    the length is (k + 1)/2 + sum_{i even} (a_i - 1); unpadded, the loop
    counts the same as ceil(k/2) + sum_{i even} (a_i - 1).  0 for (1, 0)."""
    k = length = 0
    while q:
        k += 1
        if k % 2 == 0:
            length += p // q - 1
        p, q = q, p % q
    return length + (k + 1) // 2


def _continuants(chain: Sequence[int]) -> list[int]:
    """Continuants K(c_1..c_v) for v = 0..s: K() = 1 and
    K(c_1..c_v) = c_v K(c_1..c_{v-1}) - K(c_1..c_{v-2})."""
    ks = [0, 1]
    for c in chain:
        ks.append(c * ks[-1] - ks[-2])
    return ks[1:]


def _chain_coeffs(pre: Sequence[int], suf: Sequence[int], center: int, beyond: int) -> list[int]:
    """Solve the two-point recursion lam_{v-1} = c_v lam_v - lam_{v+1} on one
    chain c_1..c_s, given its continuants pre[v] = K(c_1..c_v) and
    suf[v] = K(c_{v+1}..c_s), v = 0..s.

    Boundary values: lam_0 = center at the central curve, lam_{s+1} = beyond
    past the tip.  In closed form (Neumann, "A calculus for plumbing")
    lam_v = (center K(c_{v+1}..c_s) + beyond K(c_1..c_{v-1})) / K(c_1..c_s),
    K the continuant.  Raises if the solution is not a positive integer vector.
    """
    coeffs = []
    for v in range(1, len(pre)):
        lam, rem = divmod(center * suf[v] + beyond * pre[v - 1], pre[-1])
        if rem:
            raise ConstructionError(
                f"chain solve is not integral at curve {v} of a chain with "
                f"continuant {pre[-1]} (center {center})"
            )
        if lam < 1:
            raise ConstructionError("chain solve produced a non-positive coefficient")
        coeffs.append(lam)
    return coeffs


class BCIInvariants(NamedTuple):
    """Numeric invariants of an exponent tuple."""

    a: tuple[int, ...]
    ell: int
    ell_i: tuple[int, ...]
    alpha_i: tuple[int, ...]
    alpha: int
    ghat: int
    ghat_i: tuple[int, ...]
    lambda_i: tuple[int, ...]
    eta_i: tuple[int, ...]  # eta_1 .. eta_{m-1}
    eta_m: int
    delta: int
    a_invariant: int
    multiplicity: int

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def eta(self) -> tuple[int, ...]:
        return self.eta_i + (self.eta_m,)


class ChainFamily(NamedTuple):
    """One family of identical chains: ghat_w copies of the same string of curves."""

    count: int
    chain: tuple[int, ...]  # c_{w,1}.. outward from the center, each >= 2
    beta: int  # 0 when the family has no vertices


class _StarFields(NamedTuple):
    center_genus: int
    c0: int
    branch_families: tuple[ChainFamily, ...]
    flags: tuple[str, ...]
    cycles: tuple[Cycle, ...]


class StarGraph(_StarFields):
    """Star-shaped resolution graph: central curve plus chain families.

    ``quotient`` is the star's :class:`Quotient`, built on first use from
    the fields: class 0 is the center, then each family's chain positions
    center-outward, as its ``spans`` record.  ``cycles`` holds ``Z_0,
    Z^(1), ..., Z^(m), Z_K`` as class vectors in that order;
    ``assemble(cycle)`` flattens one with :meth:`Quotient.flatten`.
    ``graph``, the flattened :class:`DualGraph`, is emitted on first use
    from the same quotient, so the two share its cached results; the
    quotient alone knows its vertex order, and ``tip_indices`` asks it with
    :meth:`Quotient.curves`.  ``vertex_count`` is its size, the sum of the
    class sizes; ``graph`` and ``assemble`` check it against
    ``LATTICE_BUDGET`` before they allocate.

    The five fields are those of the immutable record ``_StarFields``, so
    equality, hashing and ``repr`` see them alone.  This subclass declares
    no ``__slots__``, so each star has a ``__dict__``, where the
    ``cached_property`` values ``vertex_count``, ``quotient`` and ``graph``
    are kept after their first use.
    """

    @cached_property
    def vertex_count(self) -> int:
        return sum(self.quotient.sizes)

    def check_flat_budget(self) -> None:
        """Raise ``ResourceError`` when the flattened graph is too large."""
        ideal_oracle._check_budget(self.vertex_count, "the flattened star graph", "vertices")

    @cached_property
    def quotient(self) -> Quotient:
        return Quotient.star(
            (self.center_genus, -self.c0),
            [(fam.count, [-c for c in fam.chain]) for fam in self.branch_families],
        )

    @cached_property
    def graph(self) -> DualGraph:
        self.check_flat_budget()
        return DualGraph.from_star_quotient(self.quotient)

    @property
    def center_self_int(self) -> int:
        return -self.c0

    def tip_indices(self, w: int) -> tuple[int, ...]:
        """Indices of the outer ends of family w's (1-based) chain copies."""
        m = len(self.branch_families)
        if not isinstance(w, int) or not 1 <= w <= m:
            raise DomainError(f"family index {w!r} outside 1..{m}")
        first, end = self.quotient.spans[w - 1]
        return tuple(self.quotient.curves(end - 1)) if first < end else ()

    def assemble(self, z: Sequence[int]) -> Cycle:
        """The cycle on the flattened graph of the class vector z."""
        self.check_flat_budget()
        return self.quotient.flatten(z)


class _Arith(NamedTuple):
    """The arithmetic that :func:`_lcm_fields` and :func:`_closed_pf` are
    written in.  ``_ONE`` applies the C-level scalar ops to the ints of one
    tuple; ``_CHUNK`` lifts each of them to ``list(map(op, *columns))`` on a
    chunk of tuples held in columns.  ``const`` makes an operand of an int,
    ``flat`` chains the entries of an indexed field for one pass of a check,
    and ``check`` raises ``InternalError`` with ``template`` filled in with
    the values of the first tuple whose flag is set."""

    lcm: Callable
    floordiv: Callable
    mod: Callable
    mul: Callable
    add: Callable
    sub: Callable
    neg: Callable
    lt: Callable
    eq: Callable
    const: Callable
    flat: Callable
    check: Callable


def _check_one(flag, template: str, *values) -> None:
    if flag:
        raise InternalError(template.format(*values))


def _check_chunk(flags, template: str, *columns) -> None:
    k = next(compress(count(), flags), None)
    if k is not None:
        raise InternalError(template.format(*(c[k] for c in columns)))


def _lifted(op):
    return lambda *cols: list(map(op, *cols))


# for one tuple, int and iter leave an int and an indexed field as they are
_ONE = _Arith(math.lcm, floordiv, mod, mul, add, sub, neg, lt, eq, int, iter, _check_one)
_CHUNK = _Arith(*map(_lifted, _ONE[:9]), repeat, chain.from_iterable, _check_chunk)


def _lcm_fields(ar: _Arith, a: Sequence) -> tuple:
    """The lcm data of ``a``: ``(ell, ell_i, alpha_i, alpha, ghat, ghat_i,
    lambda_i, eta_i, eta_m, delta, a_invariant)``, the fields of
    :class:`BCIInvariants` after ``a`` in their order, uncached.  Under
    ``_ONE``, ``a`` is one tuple; under ``_CHUNK``, ``a[i]`` is the column
    of the ``a_i`` of a chunk, and every int below is a column.

    ``ell_i`` is the lcm of the prefix lcm before ``a_i`` and the suffix lcm
    after it, so the lcms take O(m) calls.  The five consistency checks of
    the data run here; a failure raises ``InternalError``, naming the values
    of the first tuple that fails.
    """
    lcm, div, times = ar.lcm, ar.floordiv, ar.mul
    # suf[i] = lcm(a[i+1:]) for i = 0..m-2 and pre[i] = lcm(a[:i+1]); an
    # lcm with 1 is left out
    suf = [a[-1]]
    for x in a[-2:0:-1]:
        suf.append(lcm(suf[-1], x))
    suf.reverse()
    pre = [a[0]]
    for x in a[1:-1]:
        pre.append(lcm(pre[-1], x))
    ell = lcm(a[0], suf[0])
    ell_i = (suf[0], *map(lcm, pre, suf[1:]), pre[-1])
    alphas = tuple(map(div, repeat(ell), ell_i))
    alpha = reduce(times, alphas)
    ar.check(ar.mod(ell, alpha), "alpha = {} does not divide ell = {}", alpha, ell)
    ghat = div(reduce(times, a), ell)
    nums = list(map(times, repeat(ghat), alphas))
    # each check over an indexed field is one pass over its chained entries
    if any(map(mod, ar.flat(nums), ar.flat(a))):
        raise InternalError("branch count ghat_i is not integral")
    ghats = tuple(map(div, nums, a))
    lams = tuple(map(div, repeat(ell), a))
    if any(map(ne, map(math.gcd, ar.flat(lams), ar.flat(alphas)), repeat(1))):
        raise InternalError("lambda_w and alpha_w are not coprime")
    alpha_m = alphas[-1]
    if any(map(mod, ar.flat(lams[:-1]), ar.flat([alpha_m] * (len(a) - 1)))):
        raise InternalError("lambda_i / alpha_m is not integral")
    eta = tuple(map(div, lams[:-1], repeat(alpha_m)))
    # tip coefficient of Z^(m): (lambda_m + beta')/alpha_m with
    # beta' = -lambda_m mod alpha_m, i.e. the round-up of lambda_m/alpha_m
    # (the central coefficient lambda_m itself when family m is empty)
    eta_m = ar.neg(div(ar.neg(lams[-1]), alpha_m))
    delta = ar.sub(eta[-1], eta_m)
    ar.check(ar.lt(delta, ar.const(0)), "delta = {} is negative", delta)
    # the a-invariant B = (m-2) ell - sum lambda_i
    b = reduce(ar.sub, lams, times(ell, ar.const(len(a) - 2)))
    return ell, ell_i, alphas, alpha, ghat, ghats, lams, eta, eta_m, delta, b


@lru_cache(maxsize=2048)
def _invariants_cached(a: tuple[int, ...]) -> BCIInvariants:
    """The record of ``a``: the lcm data of :func:`_lcm_fields`, checked
    there, plus the multiplicity.  Cached for the per-tuple paths; the
    elliptic scans read the same kernel on chunks and build no record."""
    return BCIInvariants(a, *_lcm_fields(_ONE, a), multiplicity=math.prod(a[:-2]))


def numeric_invariants(a: Sequence[int]) -> BCIInvariants:
    """All lcm-derived invariants of the exponent tuple, fully validated."""
    return _invariants_cached(_validated(a))


@lru_cache(maxsize=64)
def _star_cached(a: tuple[int, ...]) -> StarGraph:
    inv = _invariants_cached(a)
    # beta_w = 0 and the chain is empty where alpha_w = 1
    betas = [
        (-pow(lam_w, -1, alpha_w)) % alpha_w
        for alpha_w, lam_w in zip(inv.alpha_i, inv.lambda_i)
    ]
    # each of the m + 2 cycles solved below holds one coefficient list per
    # family; counted before any chain is expanded
    ideal_oracle._check_budget(
        (inv.m + 2) * sum(map(_neg_cont_frac_len, inv.alpha_i, betas)),
        f"the compressed star of {a}", "cycle coefficients",
    )
    families = [
        ChainFamily(count=count, chain=tuple(_neg_cont_frac(alpha_w, beta)), beta=beta)
        for count, alpha_w, beta in zip(inv.ghat_i, inv.alpha_i, betas)
    ]
    # each chain's continuants, once: a continuant reads the same both ways,
    # so suf[v] = K(c_{v+1}..c_s) comes from the reversed chain
    solves = [
        (_continuants(fam.chain), _continuants(fam.chain[::-1])[::-1]) for fam in families
    ]
    for (pre, _), alpha_w in zip(solves, inv.alpha_i):
        if pre[-1] != alpha_w:
            raise InternalError("chain continuant does not reproduce alpha_w")

    two_g = (inv.m - 2) * inv.ghat - sum(inv.ghat_i)
    if two_g % 2:
        raise ConstructionError("central genus is not an integer")
    center_genus = 1 + two_g // 2
    if center_genus < 0:
        raise ConstructionError(f"central genus {center_genus} is negative")

    # c0 = ghat/ell + sum_w count_w beta_w/alpha_w, and ell/alpha_w = ell_w
    c0_num = inv.ghat + sum(
        fam.count * fam.beta * ell_w for fam, ell_w in zip(families, inv.ell_i)
    )
    c0, rem = divmod(c0_num, inv.ell)
    if rem:
        raise ConstructionError(
            f"central self-intersection -({Fraction(c0_num, inv.ell)}) is not integral"
        )
    if c0 < 1:
        raise ConstructionError(f"central weight c0 = {c0} is below 1")

    # Z_0 (center alpha, 0 past every tip), then Z^(1..m) (center lambda_i,
    # 1 past each family-i tip), as class vectors: each chain is solved once,
    # integrally
    cycles = []
    for i, center in enumerate((inv.alpha,) + inv.lambda_i):
        z = [center]
        for w, (pre, suf) in enumerate(solves, start=1):
            z += _chain_coeffs(pre, suf, center, 1 if w == i else 0)
        cycles.append(tuple(z))
    # Z_K = 1 + k Z_0 - sum_w Z^(w), k = (m-2) ell/alpha, coefficientwise
    k = (inv.m - 2) * (inv.ell // inv.alpha)
    cycles.append(tuple(1 + k * x0 - sum(xs) for x0, *xs in zip(*cycles)))

    branch_count = sum(fam.count for fam in families if fam.chain)
    flags = (FLAG_NON_MINIMAL,) if c0 == 1 and center_genus == 0 and branch_count <= 2 else ()
    star = StarGraph(
        center_genus=center_genus, c0=c0, branch_families=tuple(families),
        flags=flags, cycles=tuple(cycles),
    )

    # Z_0 and Z^(i) pair to -1 at the tips they were solved for, 0 on other chain
    # curves, and at the center 0 if there are such tips, else -x ghat/ell; Z_K
    # to 2 - c_v and 2 - 2g - c0 (adjunction).  Each cycle is paired class-wise
    # on the quotient of the built star; the center pairing is
    # -c0 x + sum_w count_w lam_{w,1}.  A positive Z_0 pairing below 0 at the
    # center proves the connected star negative definite.
    m = inv.m
    names = ["central-multiple cycle", *(f"divisor cycle {i}" for i in range(1, m + 1))]
    names.append("canonical cycle")
    quo = star.quotient
    for i, z in enumerate(star.cycles):
        got = quo.products(z)
        want = [0] * len(z)
        # family i's classes; its tip is the last one when there are any
        first, end = quo.spans[i - 1] if 0 < i <= m else (0, 0)
        if i > m:
            want = [e + 2 - 2 * g for g, e in zip(quo.genera, quo.self_ints)]
        elif first < end:
            want[end - 1] = -1
        else:
            want[0] = -(z[0] * inv.ghat // inv.ell)
        chains_ok = got[1:] == want[1:]
        low = min(z)
        if i == 0 and chains_ok and (got[0] >= 0 or low < 1):
            raise ConstructionError("Z_0 does not show the star graph negative definite")
        if not chains_ok or got[0] != want[0]:
            raise ConstructionError(f"{names[i]} has the wrong intersection pattern")
        if i > m and low < 0 and FLAG_NON_MINIMAL not in flags:
            raise InternalError("canonical cycle formula produced a non-effective cycle")
    return star


def dual_graph(a: Sequence[int]) -> StarGraph:
    """Star-shaped dual graph of the resolution attached to the exponent tuple."""
    return _star_cached(_validated(a))


def divisor_cycle(a: Sequence[int], i: int) -> Cycle:
    """Exceptional part of the i-th coordinate function: anti-nef, center
    coefficient lambda_i, pairing -1 against each family-i tip and 0 elsewhere
    (against the center itself when family i has no vertices)."""
    a = _validated(a)
    m = len(a)
    if not isinstance(i, int) or not 1 <= i <= m:
        raise DomainError(f"coordinate index {i!r} outside 1..{m}")
    star = _star_cached(a)
    return star.assemble(star.cycles[i])


def maximal_ideal_cycle(a: Sequence[int]) -> Cycle:
    """Cycle cut out by a generic function of the maximal ideal (= last divisor cycle)."""
    a = _validated(a)
    star = _star_cached(a)
    return star.assemble(star.cycles[len(a)])


def central_multiple_cycle(a: Sequence[int]) -> Cycle:
    """Smallest anti-nef cycle pairing to zero against everything off the center;
    its center coefficient is alpha."""
    star = _star_cached(_validated(a))
    return star.assemble(star.cycles[0])


def canonical_cycle_formula(a: Sequence[int]) -> QCycle:
    """Canonical cycle as reduced + (m-2) ell/alpha central multiples minus the
    divisor cycles, the unique adjunction solve by the star build's checks;
    ``singlat check`` compares it with the solve on the flattened graph.

    On an unflagged star graph the result must also be effective (the
    singularity is Gorenstein and the model is the minimal good resolution);
    on a model flagged non-minimal a negative coefficient on the central
    (-1)-curve is legitimate and allowed through.
    """
    star = _star_cached(_validated(a))
    return star.assemble([Fraction(v) for v in star.cycles[-1]])


class FundamentalGenus(NamedTuple):
    value: int
    cycle: str  # which minimal cycle realizes it: "Z0", "MX", or "both"


def _genus_numerators(ar: _Arith, data: tuple) -> tuple:
    """``2 ell (p_a - 1)`` of the central-multiple cycle Z_0 and of the
    maximal-ideal cycle M_X, on the lcm data ``data`` of :func:`_lcm_fields`
    in the arithmetic ``ar``.  Each is ``ghat x (B + x - c)``, B the
    a-invariant, with ``(x, c) = (alpha, 2 alpha - 1)`` for Z_0 and
    ``(lambda_m, (2 eta_m - 1) alpha_m)`` for M_X, x the center
    coefficient."""
    _, _, alphas, alpha, ghat, _, lams, _, eta_m, _, b = data
    times, sub, add, one = ar.mul, ar.sub, ar.add, ar.const(1)
    # (x, c) of each cycle
    of_z0 = alpha, sub(add(alpha, alpha), one)
    of_mx = lams[-1], times(sub(add(eta_m, eta_m), one), alphas[-1])
    return tuple(times(times(ghat, x), sub(add(b, x), c)) for x, c in (of_z0, of_mx))


def _closed_pf(ar: _Arith, data: tuple):
    """The closed p_f on the lcm data ``data`` of :func:`_lcm_fields`, in the
    arithmetic ``ar``: p_a of the central-multiple cycle where
    lambda_m >= alpha, else of the maximal-ideal cycle.  Its two checks
    raise ``InternalError``, naming the values of the first tuple that
    fails."""
    ell, alpha, lam_m = data[0], data[3], data[6][-1]
    times, sub = ar.mul, ar.sub
    z0, mx = _genus_numerators(ar, data)
    gap = sub(z0, mx)
    ar.check(
        times(ar.eq(lam_m, alpha), gap),
        "the two fundamental-genus formulas disagree at lambda_m = alpha",
    )
    # z0 where lambda_m >= alpha, else mx
    num = sub(z0, times(ar.lt(lam_m, alpha), gap))
    two_ell = ar.add(ell, ell)
    ar.check(
        ar.mod(num, two_ell), "fundamental genus 1 + {}/{} is not an integer", num, two_ell
    )
    return ar.add(ar.floordiv(num, two_ell), ar.const(1))


def _pf_value(a: tuple[int, ...]) -> FundamentalGenus:
    inv = _invariants_cached(a)
    lam_m, alpha = inv.lambda_i[-1], inv.alpha
    sel = "Z0" if lam_m > alpha else "MX" if lam_m < alpha else "both"
    # the record holds the fields of _lcm_fields between a and the multiplicity
    return FundamentalGenus(_closed_pf(_ONE, inv[1:-1]), sel)


@lru_cache(maxsize=4096)
def _pf_verified(a: tuple[int, ...]) -> FundamentalGenus:
    pf = _pf_value(a)
    # Laufer's sequence and p_a class by class, on the star's quotient
    quo = _star_cached(a).quotient
    pa = quo.arithmetic_genus(quo.fundamental_cycle())
    if pa != pf.value:
        raise ConsistencyError(
            f"closed-form fundamental genus {pf.value} of {a} disagrees with "
            f"the Laufer value {pa}"
        )
    return pf


def fundamental_genus(a: Sequence[int]) -> FundamentalGenus:
    """Arithmetic genus of the fundamental cycle, in closed form.

    The fundamental cycle equals the central-multiple cycle when
    lambda_m >= alpha and the maximal-ideal cycle when lambda_m <= alpha;
    the returned selector records which case applied.  The value is always
    cross-checked against p_a of the fundamental cycle that Laufer's
    sequence computes on the star's classes, without flattening the star.
    """
    return _pf_verified(_validated(a))


def normal_reduction_number(a: Sequence[int]) -> int:
    """nr of the maximal ideal: floor(a_{m-1} * sum_{i<=m-2} (a_i - 1)/a_i)."""
    return _nr_value(_validated(a))


def _nr_value(a: tuple[int, ...]) -> int:
    m = len(a)
    inner = a[: m - 2]
    d = math.prod(inner)
    s = sum((ai - 1) * (d // ai) for ai in inner)
    return (a[m - 2] * s) // d


def _pg_pairs_size(a: tuple[int, ...]) -> tuple[int, str]:
    """The (p, q) pairs the box-basis p_g walks, as ``(count, what)`` for
    ``ideal_oracle._check_budget``; none below a negative a-invariant.  The
    count also bounds the rests B - lambda_{m-1} p - lambda_m q, one per
    pair, that p_g holds in a list and sorts."""
    m = len(a)
    count = ((m - 2) * a[m - 2] + 1) * ((m - 2) * a[m - 1] + 1)
    return (count if _invariants_cached(a).a_invariant >= 0 else 0), f"the p_g pairs of {a}"


def _pg_series_size(a: tuple[int, ...]) -> tuple[int, str]:
    """The coefficients the dense p_g series holds, a-invariant + 1, as
    ``(count, what)`` for ``ideal_oracle._check_budget``."""
    return _invariants_cached(a).a_invariant + 1, f"the dense p_g series of {a}"


@lru_cache(maxsize=4096)
def _pg_cached(a: tuple[int, ...]) -> int:
    inv = _invariants_cached(a)
    m, lams = inv.m, inv.lambda_i
    bound = inv.a_invariant
    if bound < 0:
        return 0
    # (1 - t^ell)/(1 - t^lambda_i) = sum_{u < a_i} t^(u lambda_i) for i <= m-2, so
    # p_g counts the (u, p, q) in box x N^2 with
    # D(u) + lambda_{m-1} p + lambda_m q <= B, D(u) = sum u_i lambda_i: the pairs
    # of a box degree and a rest r = B - lambda_{m-1} p - lambda_m q with D(u) <= r,
    # counted from the shorter side
    ideal_oracle._check_budget(*_pg_pairs_size(a))
    degs = ideal_oracle._box_degrees(a)
    rests = [
        x for rest in range(bound, -1, -lams[m - 2]) for x in range(rest, -1, -lams[m - 1])
    ]
    k = bisect_right(degs, bound)  # the degrees that can pair at all
    if len(rests) <= k:
        return sum(map(bisect_right, repeat(degs), rests))
    rests.sort()
    return k * len(rests) - sum(map(bisect_left, repeat(rests), islice(degs, k)))


def _pg_dense(a: tuple[int, ...]) -> int:
    """p_g from a dense array of the Poincare series coefficients up to the
    a-invariant; the independent route that ``singlat check`` compares with.
    Raises ``ResourceError`` when the array would exceed ``LATTICE_BUDGET``."""
    inv = _invariants_cached(a)
    m, ell, lams = inv.m, inv.ell, inv.lambda_i
    bound = inv.a_invariant
    if bound < 0:
        return 0
    ideal_oracle._check_budget(*_pg_series_size(a))
    # graded dimensions of the weight-lams complete intersection with m-2
    # relations of degree ell, truncated at the a-invariant
    c = [0] * (bound + 1)
    c[0] = 1
    for lam in lams:
        if lam <= bound:
            for r in range(lam):
                c[r::lam] = list(accumulate(c[r::lam]))
    for _ in range(m - 2):
        if ell <= bound:
            c[ell:] = [x - y for x, y in zip(c[ell:], c)]
        if min(c) < 0:
            raise InternalError("graded dimension went negative")
    return sum(c)


def geometric_genus(a: Sequence[int]) -> int:
    """Geometric genus: total graded dimension up to the a-invariant B (0 if B < 0).

    Counted on the box basis: the number of (u, p, q), u in the exponent box,
    with sum u_i lambda_i + lambda_{m-1} p + lambda_m q <= B.  Raises
    ``ResourceError`` when the box or the (p, q) range exceeds
    ``LATTICE_BUDGET``.
    """
    return _pg_cached(_validated(a))


class MaximalCycleNumbers(NamedTuple):
    """Self-intersection and canonical pairing of the maximal-ideal cycle pulled
    back to the normalized blowup: MY_sq = -multiplicity and
    MY_sq + MY_K = 2 p_a(M_X) - 2 - 2 delta ghat_m."""

    MY_sq: int
    MY_K: int


def maximal_cycle_numbers(a: Sequence[int]) -> MaximalCycleNumbers:
    """MY_sq and MY_K in closed form: MY_sq = -multiplicity, and
    M_X.(M_X + K) = 2 p_a(M_X) - 2 from the numerator
    2 ell (p_a(M_X) - 1) = ghat lambda_m (B + lambda_m - (2 eta_m - 1) alpha_m)
    that the closed p_f shares.  No star is built; ``singlat check``
    compares the sum with p_a(M_X) on the flattened graph."""
    return _mcn_value(_validated(a))


def _mcn_value(a: tuple[int, ...]) -> MaximalCycleNumbers:
    inv = _invariants_cached(a)
    # mx = 2 ell (p_a(M_X) - 1) = ell M_X.(M_X + K)
    mx = _genus_numerators(_ONE, inv[1:-1])[1]
    if mx % (2 * inv.ell):
        raise InternalError("M_X.(M_X + K) is odd")
    my_sq = -inv.multiplicity
    my_k = mx // inv.ell - 2 * inv.delta * inv.ghat_i[-1] - my_sq
    return MaximalCycleNumbers(MY_sq=my_sq, MY_K=my_k)


def q_sequence(a: Sequence[int], n_max: int) -> tuple[int, ...]:
    """Normalized colength sequence q(0..n_max) of the maximal ideal.

    q(0) is the geometric genus; the increments are
    q(n) - q(n-1) = (my_sq - my_k)/2 + sum_{i<=n} p(i) with p(i) the lattice
    quotient dimensions and my_sq, my_k the closed forms of
    :func:`maximal_cycle_numbers`, so no star is built.  Postconditions
    enforced: q >= 0, non-increasing, first repeat exactly at the normal
    reduction number, constant afterwards.
    """
    a = _validated(a)
    if not isinstance(n_max, int) or n_max < 0:
        raise DomainError("q-sequence length must be a nonnegative integer")
    ideal_oracle._check_budget(n_max + 1, f"the q-sequence q(0..{n_max}) of {a}")
    # a is validated: read the cached values behind geometric_genus,
    # maximal_cycle_numbers, quotient_table and normal_reduction_number
    pg = _pg_cached(a)
    mcn = _mcn_value(a)
    diff = mcn.MY_sq - mcn.MY_K
    if diff % 2:
        raise InternalError("my_sq - my_k is odd")
    half = diff // 2
    table = ideal_oracle._table_cached(a)

    def p(i: int) -> int:
        return table.p[i - 1] if i - 1 < len(table.p) else 0

    q = [pg]
    run = 0
    for n in range(1, n_max + 1):
        run += p(n)
        q.append(q[-1] + half + run)

    nr = _nr_value(a)
    if any(v < 0 for v in q):
        raise ConsistencyError(f"q-sequence of {a} has a negative entry: {q}")
    if any(x > y for x, y in zip(q[1:], q)):
        raise ConsistencyError(f"q-sequence of {a} increases: {q}")
    stab = next((n for n in range(1, n_max + 1) if q[n] == q[n - 1]), None)
    if n_max >= nr:
        if stab != nr:
            raise ConsistencyError(
                f"q-sequence of {a} first repeats at {stab}, expected {nr}"
            )
        if any(v != q[nr] for v in q[nr:]):
            raise ConsistencyError(f"q-sequence of {a} moves after stabilizing: {q}")
    elif stab is not None:
        raise ConsistencyError(
            f"q-sequence of {a} repeats at {stab} before the reduction number {nr}"
        )
    return tuple(q)


def is_elliptic(a: Sequence[int]) -> bool:
    """True iff the fundamental genus equals one, cross-checked against Laufer."""
    return _pf_verified(_validated(a)).value == 1


_SCAN_CHUNK = 1024  # tuples per chunk; larger chunks cost memory for no speed
# the census box is split over at most this many worker processes, and only
# from this many tuples on.  Starting the workers costs tens of milliseconds:
# one-off timings found the split slower on 8,463 tuples and faster on
# 40,455, and no box between was measured.  2^16 lies above that crossing
# and need only part the command line's small boxes (at most 660 tuples in
# the benchmark's pins) from the census box m <= 5, a_m <= 30 (277,791)
_SPLIT_WORKERS = 2
_SPLIT_MIN = 1 << 16
# workers are forked: a forked worker re-imports nothing, so a caller's
# script without a ``__main__`` guard is not run again in it, as it would be
# under spawn or forkserver (the default on macOS, Windows and, from Python
# 3.14, Linux)
_START_METHOD = "fork"


def _scan_range(
    a_max: int, m: int, start: int = 0, stop: int | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(a, p_f)`` for the tuples ``start:stop`` of the m-box a_m <= a_max,
    in ``combinations_with_replacement`` order.  The range is read in chunks
    of ``_SCAN_CHUNK`` tuples, and ``p_f`` comes from the record's kernel and
    closed form, with all their checks, run on each chunk's columns; no
    record is built and no cache is filled."""
    box = islice(combinations_with_replacement(range(2, a_max + 1), m), start, stop)
    while chunk := list(islice(box, _SCAN_CHUNK)):
        yield from zip(chunk, _closed_pf(_CHUNK, _lcm_fields(_CHUNK, list(zip(*chunk)))))


def _scan_box(m_max: int, a_max: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """:func:`_scan_range` over the whole box 3 <= m <= m_max, a_m <= a_max,
    m by m."""
    for m in range(3, m_max + 1):
        yield from _scan_range(a_max, m)


def _elliptic_ranges(a_max: int, ranges) -> Iterator[list[tuple[tuple[int, ...], int]]]:
    """For each ``(m, start, stop)`` of ``ranges`` in turn, the ``(a, 1)``
    pairs of the elliptic tuples that :func:`_scan_range` finds there."""
    for m, start, stop in ranges:
        yield [(a, pf) for a, pf in _scan_range(a_max, m, start, stop) if pf == 1]


def _census_worker(conn, a_max: int, ranges) -> None:
    """Worker process of the split census: sends ``(kept, error)``, the lists
    of :func:`_elliptic_ranges` that it completed and the exception that
    ended the scan, or None."""
    kept, error = [], None
    try:
        kept.extend(_elliptic_ranges(a_max, ranges))
    except Exception as exc:
        error = exc
    conn.send((kept, error))
    conn.close()


def _split_workers(size: int) -> int:
    """How many worker processes scan a census box of ``size`` tuples: 1
    (in-process) below ``_SPLIT_MIN``, with fewer than two CPUs, in a
    process that runs other threads (a fork copies none of them, nor
    releases the locks they hold), where ``_START_METHOD`` is not available
    (no fork on Windows) or in a daemonic process, which may not start any."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    if size < _SPLIT_MIN or cpus < 2:
        return 1
    # no thread runs but the main one unless threading has been imported
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    import multiprocessing

    if _START_METHOD not in multiprocessing.get_all_start_methods():
        return 1
    return 1 if multiprocessing.current_process().daemon else _SPLIT_WORKERS


def _in_workers(target, jobs: list[tuple]) -> list:
    """``target(conn, *args)`` for each ``args`` of ``jobs``, each in a worker
    process started by ``_START_METHOD``, and what each sends on ``conn``, in
    the order of ``jobs``.  Every worker has ended when this returns or
    raises."""
    import multiprocessing

    ctx = multiprocessing.get_context(_START_METHOD)
    procs, conns = [], []
    try:
        for args in jobs:
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            proc = ctx.Process(target=target, args=(send, *args))
            proc.start()
            procs.append(proc)
            # the worker holds the only send end, so its death ends recv
            send.close()
        return [conn.recv() for conn in conns]
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
            proc.close()
        for conn in conns:
            conn.close()


def _scan_census(m_max: int, a_max: int) -> list[tuple[tuple[int, ...], int]]:
    """The ``(a, 1)`` pairs of the elliptic tuples of the box, in box order,
    scanned in-process or split by :func:`_split_workers`.  Each m-box is
    split into one contiguous run of whole chunks per worker, so every chunk
    is the one the in-process scan reads; a worker stops at its first kernel
    error, and the first error in box order is raised, as in-process.  A box
    of more than ``LATTICE_BUDGET`` tuples raises ``ResourceError`` before
    any is scanned."""
    # counted m by m, up to the first m-box that takes the count past the budget
    total = 0
    for m in range(3, m_max + 1):
        total += math.comb(a_max + m - 2, m)
        if total > ideal_oracle.LATTICE_BUDGET:
            break
    ideal_oracle._check_budget(total, f"the census box m <= {m}, a_m <= {a_max}", "tuples")
    sizes = {m: math.comb(a_max + m - 2, m) for m in range(3, m_max + 1)}
    workers = _split_workers(total)
    jobs = []
    for k in range(workers):
        ranges = []
        for m, size in sizes.items():
            chunks = -(-size // _SCAN_CHUNK)
            start, stop = (chunks * j // workers * _SCAN_CHUNK for j in (k, k + 1))
            ranges.append((m, start, min(stop, size)))
        jobs.append((a_max, ranges))
    if workers == 1:
        results = [(list(_elliptic_ranges(*jobs[0])), None)]
    else:
        results = _in_workers(_census_worker, jobs)
    found = []
    for i in range(len(sizes)):
        for kept, error in results:
            if i == len(kept):
                raise error
            found += kept[i]
    return found


def _laufer_checked(found: list[tuple[tuple[int, ...], int]]) -> list[tuple[int, ...]]:
    """The tuples of the scanned ``(a, p_f)`` pairs in lex order, after each
    ``p_f`` has been compared with the one that Laufer's algorithm verifies
    on the star's classes."""
    for a, pf in found:
        laufer = _pf_verified(a).value
        if pf != laufer:
            raise ConsistencyError(
                f"scanned fundamental genus {pf} of {a} disagrees with the Laufer value {laufer}"
            )
    return sorted(a for a, _ in found)


def classify_elliptic(m_max: int, a_max: int) -> list[tuple[int, ...]]:
    """All elliptic exponent tuples with m <= m_max and a_m <= a_max, in lex order.

    The box is scanned in columns by :func:`_scan_range`, whose closed form
    runs every consistency check of the record's kernel; no invariant
    record is built and no cache is filled for a tuple that is not
    reported.  Every tuple reported has its scanned p_f compared, in this
    process, with the one Laufer's algorithm verifies on its star's classes.

    A box of at least 2^16 tuples (``_SPLIT_MIN``; m <= 5, a_m <= 30 has
    277,791) is scanned in two worker processes, each on one contiguous
    half of every m's box, with the kernel and p_f checks; they are forked,
    whatever the default start method, so a calling script needs no
    ``__main__`` guard, and have ended when this returns or raises.  The
    scan stays in-process on a smaller box, with fewer than two CPUs in this
    process's affinity mask, while another thread runs, where fork is not
    available, or in a daemonic process.  There is no option for this: the
    result, and any error, is the in-process scan's.  A box of more than
    ``LATTICE_BUDGET`` tuples raises ``ResourceError`` before the scan.
    """
    if not isinstance(m_max, int) or m_max < 3:
        raise DomainError("m_max must be an integer at least 3")
    if not isinstance(a_max, int) or a_max < 2:
        raise DomainError("a_max must be an integer at least 2")
    return _laufer_checked(_scan_census(m_max, a_max))


def br2_exceptions() -> list[tuple[int, int, int]]:
    """Exponent tuples of the acceptance box m <= 5, a_m <= 12 whose maximal
    ideal has normal reduction number two while p_f != 1 and p_g = 3, in lex
    order.

    The list is derived by scanning that box with :func:`_scan_box` for
    p_f, the closed form for nr and the box-basis p_g; every tuple reported
    has its scanned p_f compared with the one Laufer's algorithm verifies.
    The scan builds no record, so only the tuples with nr = 2 and p_f != 1
    reach the invariant record and the p_g cache.  The scan finds (3, 4, 6)
    and (3, 4, 7), both with p_f = 2.  Other non-elliptic tuples do reach
    nr = 2 with a different p_g, e.g. (2, 5, 10) with p_f = 2 and p_g = 4.
    """
    return _laufer_checked([
        (a, pf)
        for a, pf in _scan_box(5, 12)
        if pf != 1 and _nr_value(a) == 2 and _pg_cached(a) == 3
    ])


def invariant_report(a: Sequence[int]) -> dict:
    """JSON-ready summary: {"a","ell","alpha","ghat","lambda","eta","delta",
    "g","c0","pf","pg","nr","elliptic","flags"}."""
    a = _validated(a)
    # p_g first: a pair range or box over its budget is refused before the
    # star is built and Laufer's sequence runs on it
    pg = _pg_cached(a)
    inv = _invariants_cached(a)
    star = _star_cached(a)
    pf = _pf_verified(a)
    return {
        "a": list(a),
        "ell": inv.ell,
        "alpha": list(inv.alpha_i),
        "ghat": inv.ghat,
        "lambda": list(inv.lambda_i),
        "eta": list(inv.eta),
        "delta": inv.delta,
        "g": star.center_genus,
        "c0": star.c0,
        "pf": pf.value,
        "pg": pg,
        "nr": _nr_value(a),
        "elliptic": pf.value == 1,
        "flags": list(star.flags),
    }
