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
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import (
    accumulate, chain, combinations_with_replacement, compress, count, islice, repeat,
)
from operator import add, and_, eq, floordiv, ge, lt, mod, mul, ne, neg, sub
from typing import Iterator, NamedTuple, Sequence

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


def _lcm_data(a: tuple[int, ...]) -> tuple:
    """The lcm data of ``a``: ``(ell, ell_i, alpha_i, alpha, ghat, ghat_i,
    lambda_i, eta_i, eta_m, delta)``, the fields of :class:`BCIInvariants`
    after ``a`` in their order, as a plain tuple and uncached.

    ``ell_i`` is the lcm of the prefix lcm before ``a_i`` and the suffix lcm
    after it, so the lcms take O(m) calls.  The five consistency checks of
    the data run here; a failure raises ``InternalError``.  This is the
    record's kernel, for one tuple; the elliptic scans run the same checks
    on a box through :func:`_lcm_columns`, and the tests compare the two
    tuple by tuple.
    """
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
    return ell, ell_i, alphas, alpha, ghat, tuple(ghats), lams, tuple(eta), eta_m, delta


def _first(flags) -> int | None:
    """Index of the first true flag, or None."""
    return next(compress(count(), flags), None)


def _lcm_columns(cols: Sequence[Sequence[int]]) -> tuple:
    """:func:`_lcm_data` on a chunk of tuples held in columns, ``cols[i]``
    the ``a_i`` of each tuple: the same ten fields in their order, a scalar
    field as one column and an indexed field as a list of columns.

    Each quantity is one ``map`` over the chunk and each of the five checks
    one pass of ``any`` or :func:`_first`, so the per-tuple work runs in C.
    A failure raises the message of :func:`_lcm_data`, naming the values of
    the first tuple in the chunk that fails that check.
    """
    lcm = math.lcm
    # suf[i] = lcm(a[i+1:]) for i = 0..m-2 and pre[i] = lcm(a[:i+1]); an
    # lcm with 1 is left out
    suf = [cols[-1]]
    for c in cols[-2:0:-1]:
        suf.append(list(map(lcm, suf[-1], c)))
    suf.reverse()
    pre = [cols[0]]
    for c in cols[1:-1]:
        pre.append(list(map(lcm, pre[-1], c)))
    ell = list(map(lcm, cols[0], suf[0]))
    ell_i = [suf[0], *(list(map(lcm, p, s)) for p, s in zip(pre, suf[1:])), pre[-1]]
    alphas = [list(map(floordiv, ell, li)) for li in ell_i]
    alpha = alphas[0]
    for al in alphas[1:]:
        alpha = map(mul, alpha, al)
    alpha = list(alpha)
    if (k := _first(map(mod, ell, alpha))) is not None:
        raise InternalError(f"alpha = {alpha[k]} does not divide ell = {ell[k]}")
    prod_a = cols[0]
    for c in cols[1:]:
        prod_a = map(mul, prod_a, c)
    ghat = list(map(floordiv, prod_a, ell))
    nums = [list(map(mul, ghat, al)) for al in alphas]
    if any(map(mod, chain(*nums), chain(*cols))):
        raise InternalError("branch count ghat_i is not integral")
    ghats = [list(map(floordiv, num, c)) for num, c in zip(nums, cols)]
    lams = [list(map(floordiv, ell, c)) for c in cols]
    if any(map(ne, map(math.gcd, chain(*lams), chain(*alphas)), repeat(1))):
        raise InternalError("lambda_w and alpha_w are not coprime")
    alpha_m = alphas[-1]
    if any(map(mod, chain(*lams[:-1]), alpha_m * (len(cols) - 1))):
        raise InternalError("lambda_i / alpha_m is not integral")
    eta = [list(map(floordiv, lam, alpha_m)) for lam in lams[:-1]]
    # the round-up of lambda_m/alpha_m, as in _lcm_data
    eta_m = list(map(neg, map(floordiv, map(neg, lams[-1]), alpha_m)))
    delta = list(map(sub, eta[-1], eta_m))
    if (k := _first(map(lt, delta, repeat(0)))) is not None:
        raise InternalError(f"delta = {delta[k]} is negative")
    return ell, ell_i, alphas, alpha, ghat, ghats, lams, eta, eta_m, delta


@lru_cache(maxsize=2048)
def _invariants_cached(a: tuple[int, ...]) -> BCIInvariants:
    """The record of ``a``: the lcm data of :func:`_lcm_data`, checked there,
    plus the a-invariant and the multiplicity.  Cached for the per-tuple
    paths; the elliptic scans read :func:`_lcm_columns` and build no record."""
    m = len(a)
    data = _lcm_data(a)
    ell, lams = data[0], data[6]
    return BCIInvariants(
        a, *data,
        a_invariant=(m - 2) * ell - sum(lams),
        multiplicity=math.prod(a[: m - 2]),
    )


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


def _pf_value(a: tuple[int, ...]) -> FundamentalGenus:
    # the record holds the fields of _lcm_data after a, in their order
    _, ell, ell_i, _, alpha, ghat, ghat_i, lams, _, eta_m, *_ = _invariants_cached(a)
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
    return FundamentalGenus(1 + num // (2 * ell), sel)


def _pf_columns(cols: Sequence[Sequence[int]]) -> list[int]:
    """The values of :func:`_pf_value` on a chunk of tuples in columns, as
    one column, from the data of :func:`_lcm_columns`; each step is one
    ``map`` over the chunk, and the two checks of :func:`_pf_value` raise its
    messages, naming the first tuple that fails."""
    ell, ell_i, _, alpha, ghat, ghat_i, lams, _, eta_m, _ = _lcm_columns(cols)
    ghat_m, lam_m = ghat_i[-1], lams[-1]
    head = map(mul, map(mul, ghat, ell), repeat(len(cols) - 2))
    for g, li in zip(ghat_i[:-1], ell_i[:-1]):
        head = map(sub, head, map(mul, g, li))
    head = list(head)
    # z0 = alpha (head - ghat_m ell_m - (alpha - 1) ghat)
    z0 = map(sub, head, map(mul, ghat_m, ell_i[-1]))
    z0 = map(sub, z0, map(sub, map(mul, alpha, ghat), ghat))
    z0 = list(map(mul, alpha, z0))
    # mx = lam_m head - (2 eta_m - 1) ghat_m ell
    mx = map(mul, map(sub, map(add, eta_m, eta_m), repeat(1)), map(mul, ghat_m, ell))
    mx = list(map(sub, map(mul, lam_m, head), mx))
    if any(map(and_, map(eq, lam_m, alpha), map(ne, z0, mx))):
        raise InternalError("the two fundamental-genus formulas disagree at lambda_m = alpha")
    # z0 where lambda_m >= alpha, else mx
    num = list(map(add, mx, map(mul, map(ge, lam_m, alpha), map(sub, z0, mx))))
    two_ell = list(map(add, ell, ell))
    if (k := _first(map(mod, num, two_ell))) is not None:
        raise InternalError(f"fundamental genus 1 + {num[k]}/{two_ell[k]} is not an integer")
    return list(map(add, map(floordiv, num, two_ell), repeat(1)))


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
    a = _validated(a)
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
    """MY_sq and MY_K from the checked patterns: M_X = Z^(m) pairs to -1 at
    the ghat_m family-m tips (-ghat_m at the center if there are none), where
    M_X and Z_K have coefficients eta_m and z, so p_a(M_X) = 1 + ghat_m (z - eta_m)/2."""
    a = _validated(a)
    inv = _invariants_cached(a)
    star = _star_cached(a)
    # family m's tip class, or the center when family m is empty
    first, end = star.quotient.spans[-1]
    tip = end - 1 if first < end else 0
    eta_m, z = star.cycles[len(a)][tip], star.cycles[-1][tip]
    two_pa_minus_2 = inv.ghat_i[-1] * (z - eta_m)
    if two_pa_minus_2 % 2:
        raise InternalError("M_X.(M_X + K) is odd")
    my_sq = -inv.multiplicity
    my_k = two_pa_minus_2 - 2 * inv.delta * inv.ghat_i[-1] - my_sq
    return MaximalCycleNumbers(MY_sq=my_sq, MY_K=my_k)


def q_sequence(a: Sequence[int], n_max: int) -> tuple[int, ...]:
    """Normalized colength sequence q(0..n_max) of the maximal ideal.

    q(0) is the geometric genus; the increments are
    q(n) - q(n-1) = (my_sq - my_k)/2 + sum_{i<=n} p(i) with p(i) the lattice
    quotient dimensions.  Postconditions enforced: q >= 0, non-increasing,
    first repeat exactly at the normal reduction number, constant afterwards.
    """
    a = _validated(a)
    if not isinstance(n_max, int) or n_max < 0:
        raise DomainError("q-sequence length must be a nonnegative integer")
    ideal_oracle._check_budget(n_max + 1, f"the q-sequence q(0..{n_max}) of {a}")
    pg = geometric_genus(a)
    mcn = maximal_cycle_numbers(a)
    diff = mcn.MY_sq - mcn.MY_K
    if diff % 2:
        raise InternalError("my_sq - my_k is odd")
    half = diff // 2
    table = ideal_oracle.quotient_table(a)

    def p(i: int) -> int:
        return table.p[i - 1] if i - 1 < len(table.p) else 0

    q = [pg]
    run = 0
    for n in range(1, n_max + 1):
        run += p(n)
        q.append(q[-1] + half + run)

    nr = normal_reduction_number(a)
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


def _scan_box(m_max: int, a_max: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(a, p_f)`` for every tuple of the box 3 <= m <= m_max, a_m <= a_max,
    m by m and in ``combinations_with_replacement`` order.  The box is read
    in chunks of ``_SCAN_CHUNK`` tuples, and ``p_f`` comes from the columnar
    kernel :func:`_pf_columns` with every check of the record's; no record
    is built and no cache is filled."""
    for m in range(3, m_max + 1):
        box = combinations_with_replacement(range(2, a_max + 1), m)
        while chunk := list(islice(box, _SCAN_CHUNK)):
            yield from zip(chunk, _pf_columns(list(zip(*chunk))))


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

    The box is scanned in columns by :func:`_scan_box`, whose closed form
    runs every consistency check of the record's kernel; no invariant
    record is built and no cache is filled for a tuple that is not
    reported.  Every tuple reported has its scanned p_f compared with the
    one Laufer's algorithm verifies on its star's classes.
    """
    if not isinstance(m_max, int) or m_max < 3:
        raise DomainError("m_max must be an integer at least 3")
    if not isinstance(a_max, int) or a_max < 2:
        raise DomainError("a_max must be an integer at least 2")
    return _laufer_checked([(a, pf) for a, pf in _scan_box(m_max, a_max) if pf == 1])


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
        if pf != 1 and normal_reduction_number(a) == 2 and _pg_cached(a) == 3
    ])


def invariant_report(a: Sequence[int]) -> dict:
    """JSON-ready summary: {"a","ell","alpha","ghat","lambda","eta","delta",
    "g","c0","pf","pg","nr","elliptic","flags"}."""
    a = _validated(a)
    # p_g first: a pair range or box over its budget is refused before the
    # star is built and Laufer's sequence runs on it
    pg = geometric_genus(a)
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
        "nr": normal_reduction_number(a),
        "elliptic": pf.value == 1,
        "flags": list(star.flags),
    }
