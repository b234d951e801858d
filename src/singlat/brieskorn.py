"""Brieskorn complete-intersection surface singularities.

Everything is driven by the exponent tuple a = (a_1 <= ... <= a_m), m >= 3,
a_1 >= 2.  From it we compute the numeric invariants, build the star-shaped
resolution dual graph, the distinguished anti-nef cycles living on it, the
fundamental and geometric genera, the normal reduction number of the maximal
ideal, and the classification of the elliptic members.  All arithmetic is
exact.

Every cache here and in ``ideal_oracle`` has one slot
(``lru_cache(maxsize=1)``).  Each call asks about one tuple, and a tuple's
paths read its record, its stars, its p_g and its quotient table back to
back, so one slot gets the hits a larger cache would.  What a cache keeps
between calls is then what the last tuple built, which passed its own
``LATTICE_BUDGET``; the walks and scans over many tuples go through the
same caches and keep no more.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations_with_replacement, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import ideal_oracle
from .errors import ConsistencyError, ConstructionError, DomainError, InternalError
from .graph_lattice import Cycle, DualGraph, QCycle, Quotient, _continuants
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

    ``quotient`` is the star's :class:`Quotient`: class 0 is the center,
    then each family's chain positions center-outward, as its ``spans``
    record.  It is built on first use from the fields, here and nowhere
    else in this module.  The Seifert step's star, with no cycles, is the
    one whose quotient the p_f paths search for Z_f, and a star from
    :func:`dual_graph` with the same first four fields shares that
    quotient.  ``cycles`` holds ``Z_0,
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
    are kept after their first use, for as long as the star is: the one
    slot of each cache (module docstring) holds the last tuple's stars.
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


@lru_cache(maxsize=1)
def _invariants_cached(a: tuple[int, ...]) -> BCIInvariants:
    """The invariant record of ``a``: its lcm data and its multiplicity.
    Every path reads the record here, the census walk and the box scans
    too, under the one-slot rule of the module docstring.

    ``ell_i`` is the lcm of the prefix lcm before ``a_i`` and the suffix lcm
    after it, so the lcms take O(m) calls.  The five consistency checks of
    the data run here; a failure raises ``InternalError``.
    """
    lcm = math.lcm
    # suf[i] = lcm(a[i+1:]) for i = 0..m-2 and pre[i] = lcm(a[:i+1]); an
    # lcm with 1 is left out
    suf = list(accumulate(a[:0:-1], lcm))
    suf.reverse()
    pre = list(accumulate(a[:-1], lcm))
    ell = lcm(a[0], suf[0])
    ell_i = (suf[0], *map(lcm, pre, suf[1:]), pre[-1])
    alphas = tuple([ell // li for li in ell_i])
    alpha = math.prod(alphas)
    if ell % alpha:
        raise InternalError(f"alpha = {alpha} does not divide ell = {ell}")
    ghat = math.prod(a) // ell
    ghats = []
    for x, al in zip(a, alphas):
        num = ghat * al
        if num % x:
            raise InternalError("branch count ghat_i is not integral")
        ghats.append(num // x)
    lams = tuple([ell // x for x in a])
    for lam, al in zip(lams, alphas):
        if math.gcd(lam, al) != 1:
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
    # the a-invariant B = (m-2) ell - sum lambda_i
    b = (len(a) - 2) * ell - sum(lams)
    return BCIInvariants(
        a, ell, ell_i, alphas, alpha, ghat, tuple(ghats), lams, tuple(eta), eta_m, delta, b,
        math.prod(a[:-2]),
    )


def numeric_invariants(a: Sequence[int]) -> BCIInvariants:
    """All lcm-derived invariants of the exponent tuple, fully validated."""
    return _invariants_cached(_validated(a))


@lru_cache(maxsize=1)
def _seifert_cached(a: tuple[int, ...]) -> StarGraph:
    """The Seifert step of the star build: the star of the chains and the
    center with ``cycles=()``, with every check that needs no cycle, its
    quotient among them.  This star never leaves ``brieskorn``: the p_f
    paths read its fields and search its quotient, and the cycles step
    builds on it."""
    inv = _invariants_cached(a)
    # beta_w = 0 and the chain is empty where alpha_w = 1
    betas = [
        (-pow(lam_w, -1, alpha_w)) % alpha_w
        for alpha_w, lam_w in zip(inv.alpha_i, inv.lambda_i)
    ]
    # each of the m + 2 cycles of the star holds one coefficient list per
    # family; counted before any chain is expanded
    ideal_oracle._check_budget(
        (inv.m + 2) * sum(map(_neg_cont_frac_len, inv.alpha_i, betas)),
        f"the compressed star of {a}", "cycle coefficients",
    )
    families = tuple(
        ChainFamily(count=count, chain=tuple(_neg_cont_frac(alpha_w, beta)), beta=beta)
        for count, alpha_w, beta in zip(inv.ghat_i, inv.alpha_i, betas)
    )

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

    branch_count = sum(fam.count for fam in families if fam.chain)
    flags = (FLAG_NON_MINIMAL,) if c0 == 1 and center_genus == 0 and branch_count <= 2 else ()
    star = StarGraph(
        center_genus=center_genus, c0=c0, branch_families=families, flags=flags, cycles=()
    )
    for ks, alpha_w in zip(star.quotient.chain_continuants(), inv.alpha_i):
        if ks[0] != alpha_w:
            raise InternalError("chain continuant does not reproduce alpha_w")
    return star


@lru_cache(maxsize=1)
def _star_cached(a: tuple[int, ...]) -> StarGraph:
    """The cycles step of the star build: the Seifert step's star with its
    m + 2 cycles, each solved and paired once."""
    inv = _invariants_cached(a)
    sd = _seifert_cached(a)
    # each chain's continuants K(c_1..c_v) and, from the quotient,
    # K(c_{v+1}..c_s)
    solves = [
        (_continuants(fam.chain), ks)
        for fam, ks in zip(sd.branch_families, sd.quotient.chain_continuants())
    ]
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

    star = StarGraph(**{**sd._asdict(), "cycles": tuple(cycles)})
    if star[:4] == sd[:4]:
        # the star of exactly the Seifert data shares its quotient, which the
        # cached_property then keeps; the checks below pair on the quotient
        # of the star's own fields either way
        vars(star)["quotient"] = sd.quotient

    # Z_0 and Z^(i) pair to -1 at the tips they were solved for, 0 on other chain
    # curves, and at the center 0 if there are such tips, else -x ghat/ell; Z_K
    # to 2 - c_v and 2 - 2g - c0 (adjunction).  Each cycle is paired class-wise
    # on the quotient of the built star; the center pairing is
    # -c0 x + sum_w count_w lam_{w,1}.  A positive Z_0 pairing below 0 at the
    # center proves the connected star negative definite.
    quo = star.quotient
    m = inv.m
    names = ["central-multiple cycle", *(f"divisor cycle {i}" for i in range(1, m + 1))]
    names.append("canonical cycle")
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
        if i > m and low < 0 and FLAG_NON_MINIMAL not in star.flags:
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


def _genus_numerators(inv: BCIInvariants) -> tuple[int, int]:
    """``2 ell (p_a - 1)`` of the central-multiple cycle Z_0 and of the
    maximal-ideal cycle M_X, on the record ``inv``.  Each is
    ``ghat x (B + x - c)``, B the a-invariant, with
    ``(x, c) = (alpha, 2 alpha - 1)`` for Z_0 and
    ``(lambda_m, (2 eta_m - 1) alpha_m)`` for M_X, x the center
    coefficient."""
    alpha, lam_m, b = inv.alpha, inv.lambda_i[-1], inv.a_invariant
    return (
        inv.ghat * alpha * (b + alpha - (2 * alpha - 1)),
        inv.ghat * lam_m * (b + lam_m - (2 * inv.eta_m - 1) * inv.alpha_i[-1]),
    )


def _closed_pf(inv: BCIInvariants) -> int:
    """The closed p_f on the record ``inv``: p_a of the central-multiple
    cycle where lambda_m >= alpha, else of the maximal-ideal cycle.  Its
    two checks raise ``InternalError``."""
    z0, mx = _genus_numerators(inv)
    lam_m, alpha = inv.lambda_i[-1], inv.alpha
    if lam_m == alpha and z0 != mx:
        raise InternalError("the two fundamental-genus formulas disagree at lambda_m = alpha")
    num = z0 if lam_m >= alpha else mx
    if num % (2 * inv.ell):
        raise InternalError(f"fundamental genus 1 + {num}/{2 * inv.ell} is not an integer")
    return num // (2 * inv.ell) + 1


def _check_by_search(a: tuple[int, ...], pf: int) -> None:
    """Compare the closed p_f of ``a`` with p_a, class by class, of the Z_f
    that :meth:`Quotient.fundamental_cycle_search` reads off the star's
    Seifert data; raise ``ConsistencyError`` if they differ."""
    quo = _seifert_cached(a).quotient
    pa = quo.arithmetic_genus(quo.fundamental_cycle_search())
    if pa != pf:
        raise ConsistencyError(
            f"closed-form fundamental genus {pf} of {a} disagrees with "
            f"the search on the Seifert data: p_a(Z_f) = {pa}"
        )


def _pf_verified(a: tuple[int, ...]) -> FundamentalGenus:
    """The closed p_f of ``a``, compared with the search, and the cycle it
    is the genus of."""
    inv = _invariants_cached(a)
    pf = _closed_pf(inv)
    _check_by_search(a, pf)
    lam_m, alpha = inv.lambda_i[-1], inv.alpha
    return FundamentalGenus(pf, "Z0" if lam_m > alpha else "MX" if lam_m < alpha else "both")


def fundamental_genus(a: Sequence[int]) -> FundamentalGenus:
    """Arithmetic genus of the fundamental cycle, in closed form.

    The fundamental cycle equals the central-multiple cycle when
    lambda_m >= alpha and the maximal-ideal cycle when lambda_m <= alpha;
    the returned selector records which case applied.  The value, the
    closed form on the invariant record, is compared on every call by
    :func:`_check_by_search` with p_a of the fundamental cycle read off the
    star's Seifert data: no cycle is built, no quotient is eliminated and
    Laufer's sequence does not run.
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


@lru_cache(maxsize=1)
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
    mx = _genus_numerators(inv)[1]
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
    """True iff the fundamental genus equals one, cross-checked against the
    search on the star's Seifert data, as :func:`fundamental_genus` is."""
    return _pf_verified(_validated(a)).value == 1


def _with_closed_pf(tuples: Iterable[tuple[int, ...]]) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(a, p_f)`` for each tuple ``a`` of ``tuples``, ``p_f`` the closed
    form on the record of :func:`_invariants_cached`, with all their
    checks."""
    for a in tuples:
        yield a, _closed_pf(_invariants_cached(a))


def _box(m_max: int, a_max: int) -> Iterator[tuple[int, ...]]:
    """The tuples of the box 3 <= m <= m_max, a_m <= a_max, m by m, each m
    in ``combinations_with_replacement`` order."""
    for m in range(3, m_max + 1):
        yield from combinations_with_replacement(range(2, a_max + 1), m)


# (E) fails on every tuple with m >= 6: its left side is largest at
# a = (2, ..., 2), where it is (m - 1)/2 + 2/2 + 1/2 = (m + 2)/2 <= m - 2
_ELLIPTIC_M_MAX = 5


def _census_prefixes(
    m: int, a_max: int, prefix: tuple[int, ...] = (), s: Fraction = Fraction(0)
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """The sorted prefixes ``(a_1, ..., a_{m-1})``, entries at most
    ``a_max``, that some last entry may complete to a tuple satisfying (E)
    of :func:`classify_elliptic`, each with ``s`` the sum of its ``1/a_i``.
    Depth first: after ``k`` entries summing to ``s``, the next entry ``x``
    is kept while ``s + (m + 2 - k)/x > m - 2``, the left side of (E) when
    every later entry equals ``x`` and ``ell_m = a_{m-1}``, which bounds it
    from above; the bound falls as ``x`` grows, so the level stops at its
    first failure."""
    k = len(prefix)
    if k == m - 1:
        yield prefix, s
        return
    for x in range(prefix[-1] if prefix else 2, a_max + 1):
        if s + Fraction(m + 2 - k, x) <= m - 2:
            break
        yield from _census_prefixes(m, a_max, prefix + (x,), s + Fraction(1, x))


def _walk_census(m_max: int, a_max: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(a, p_f)`` for every tuple with m <= m_max and a_m <= a_max that
    satisfies (E) of :func:`classify_elliptic`, m by m, each prefix of
    :func:`_census_prefixes` followed by its last entries in increasing
    order.  ``p_f`` comes from :func:`_with_closed_pf`, with all its
    checks.

    The last entries of a prefix with ``1/a_1 + ... + 1/a_{m-1} = s`` are
    the ``x`` from ``a_{m-1}`` to ``a_max`` with ``2/x > r``,
    ``r = m - 2 - s - 1/ell_m``: all of them when ``r <= 0``, else those
    with ``x r < 2``.  So every prefix's count is known before any tuple
    is listed, and more than ``LATTICE_BUDGET`` candidates in all raise
    ``ResourceError`` before the first kernel call."""
    runs = []
    for m in range(3, min(m_max, _ELLIPTIC_M_MAX) + 1):
        for prefix, s in _census_prefixes(m, a_max):
            r = m - 2 - s - Fraction(1, math.lcm(*prefix))
            hi = a_max if r <= 0 else min(a_max, (2 * r.denominator - 1) // r.numerator)
            if prefix[-1] <= hi:
                runs.append((prefix, range(prefix[-1], hi + 1)))
    ideal_oracle._check_budget(
        sum(len(last) for _, last in runs),
        f"the elliptic candidates of m <= {m_max}, a_m <= {a_max}", "tuples",
    )
    yield from _with_closed_pf(prefix + (x,) for prefix, last in runs for x in last)


def classify_elliptic(m_max: int, a_max: int) -> list[tuple[int, ...]]:
    """All elliptic exponent tuples with m <= m_max and a_m <= a_max, in lex order.

    Every elliptic tuple satisfies

        (E)  1/a_1 + ... + 1/a_{m-1} + 2/a_m + 1/ell_m > m - 2,

    ``ell_m = lcm(a_1, ..., a_{m-1})``.  By :func:`_genus_numerators`,
    ``2 ell (p_f - 1) = ghat x (B + x - c)`` with ``ghat x > 0``, so p_f = 1
    exactly when ``B = c - x``, and then ``B < lambda_m + alpha_m``:

    - Z_0 case, lambda_m >= alpha: ``B = alpha - 1 < lambda_m``;
    - M_X case, lambda_m < alpha: ``eta_m < lambda_m / alpha_m + 1``, so
      ``B = (2 eta_m - 1) alpha_m - lambda_m < lambda_m + alpha_m``.

    With ``B = ell (m - 2 - sum_i 1/a_i)``, ``lambda_m = ell / a_m`` and
    ``alpha_m = ell / ell_m``, dividing by ell gives (E).  No tuple with
    m >= 6 satisfies it, so m runs from 3 to ``min(m_max, 5)``.

    :func:`_walk_census` lists the tuples that satisfy (E), 161 of them for
    m <= 5, a_m <= 30, and reads each p_f as the closed form on the
    invariant record, with every consistency check.  Every tuple reported
    has that p_f compared by :func:`_check_by_search` with the search on
    its star's Seifert data, which builds no cycle and runs no elimination
    and no Laufer sequence.  More than ``LATTICE_BUDGET`` candidates raise
    ``ResourceError`` before the first is read.  :func:`_verify_census_box`
    checks the walk against a scan of the whole box.
    """
    if not isinstance(m_max, int) or m_max < 3:
        raise DomainError("m_max must be an integer at least 3")
    if not isinstance(a_max, int) or a_max < 2:
        raise DomainError("a_max must be an integer at least 2")
    found = sorted(a for a, pf in _walk_census(m_max, a_max) if pf == 1)
    for a in found:
        _check_by_search(a, 1)
    return found


def _verify_census_box(m_max: int, a_max: int) -> list[tuple[int, ...]]:
    """The elliptic tuples of the box 3 <= m <= m_max, a_m <= a_max, found
    by scanning every tuple of :func:`_box` with :func:`_with_closed_pf`,
    with all kernel and p_f checks.  Raises ``ConsistencyError``, naming
    the tuple, if one outside the candidates of :func:`_walk_census` has
    p_f = 1, which would break (E), or if the tuples with p_f = 1 are not
    those :func:`classify_elliptic` reports.  Not budgeted: the box m <= 5,
    a_m <= 30 (277,791 tuples) takes about two seconds."""
    found = sorted(a for a, pf in _with_closed_pf(_box(m_max, a_max)) if pf == 1)
    candidates = {a for a, _ in _walk_census(m_max, a_max)}
    for a in found:
        if a not in candidates:
            raise ConsistencyError(f"{a} has p_f = 1 but is not a census candidate")
    reported = classify_elliptic(m_max, a_max)
    if found != reported:
        a = min(set(found) ^ set(reported))
        where = "census" if a in reported else "box scan"
        raise ConsistencyError(f"only the {where} finds the elliptic tuple {a}")
    return found


def br2_exceptions() -> list[tuple[int, int, int]]:
    """Exponent tuples of the acceptance box m <= 5, a_m <= 12 whose maximal
    ideal has normal reduction number two while p_f != 1 and p_g = 3, in lex
    order.

    The list is derived from the closed form for nr on every tuple of that
    box; only the 47 tuples with nr = 2 reach the closed p_f of
    :func:`_with_closed_pf`, and only those with p_f != 1 reach the
    box-basis p_g.  Every tuple reported has that p_f compared by
    :func:`_check_by_search` with the search on the star's Seifert data.
    The filter finds (3, 4, 6) and (3, 4, 7), both with p_f = 2.  Other
    non-elliptic tuples do reach nr = 2 with a different p_g, e.g.
    (2, 5, 10) with p_f = 2 and p_g = 4.
    """
    nr_two = (a for a in _box(5, 12) if _nr_value(a) == 2)
    found = [(a, pf) for a, pf in _with_closed_pf(nr_two) if pf != 1 and _pg_cached(a) == 3]
    for a, pf in found:
        _check_by_search(a, pf)
    return sorted(a for a, _ in found)


def invariant_report(a: Sequence[int]) -> dict:
    """JSON-ready summary: {"a","ell","alpha","ghat","lambda","eta","delta",
    "g","c0","pf","pg","nr","elliptic","flags"}."""
    a = _validated(a)
    # p_g first: a pair range or box over its budget is refused before the
    # star's Seifert data is read
    pg = _pg_cached(a)
    inv = _invariants_cached(a)
    sd = _seifert_cached(a)
    pf = _pf_verified(a)
    return {
        "a": list(a),
        "ell": inv.ell,
        "alpha": list(inv.alpha_i),
        "ghat": inv.ghat,
        "lambda": list(inv.lambda_i),
        "eta": list(inv.eta),
        "delta": inv.delta,
        "g": sd.center_genus,
        "c0": sd.c0,
        "pf": pf.value,
        "pg": pg,
        "nr": _nr_value(a),
        "elliptic": pf.value == 1,
        "flags": list(sd.flags),
    }
