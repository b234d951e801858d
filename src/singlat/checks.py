"""Cross-module consistency suite for a single exponent tuple.

Every closed formula in the package has an independent route to the same
number (graph-side solve, lattice-point count, or cone specialization).
``run_tuple_checks`` exercises all of them and reports one pass/fail result
per route; the CLI ``check`` subcommand is a thin wrapper around it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from . import brieskorn, cone_homogeneous, graph_lattice, ideal_oracle
from .errors import ResourceError, SinglatError
from .ideal_oracle import _validated

__all__ = ["CheckResult", "run_tuple_checks"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _require(ok: bool, msg: str) -> None:
    """Fail the running step with msg unless ok.  Unlike an assert statement,
    this survives ``python -O``."""
    if not ok:
        raise AssertionError(msg)


def _run(name: str, fn: Callable[[], str]) -> CheckResult:
    try:
        detail = fn()
    except ResourceError:
        raise  # a step that cannot run has not failed; the whole battery stops
    except SinglatError as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    except AssertionError as exc:
        return CheckResult(name, False, str(exc) or "assertion failed")
    return CheckResult(name, True, detail)


def run_tuple_checks(a: Sequence[int]) -> list[CheckResult]:
    """Run every cross-module invariant for one tuple; never masks a failure.

    Raises ``ResourceError`` when a route would exceed its budget, since a
    check that cannot run has neither passed nor failed.  Every budget is
    checked before the first step runs, so such a tuple costs nothing else.
    """
    a = _validated(a)
    m = len(a)
    for need in (
        ideal_oracle._box_size(a[: m - 2]),
        brieskorn._pg_pairs_size(a),
        brieskorn._pg_series_size(a),
    ):
        ideal_oracle._check_budget(*need)
    inv = brieskorn.numeric_invariants(a)
    star = brieskorn.dual_graph(a)
    star.check_flat_budget()

    def assert_same(what: str, got, want) -> None:
        """got == want entrywise, or name both lengths when they differ, else
        the first vertex where the entries do."""
        got, want = tuple(got), tuple(want)
        if got == want:
            return
        if len(got) != len(want):
            raise AssertionError(f"{what} a vector of {len(got)} entries, expected {len(want)}")
        bad = next(v for v, (x, y) in enumerate(zip(got, want)) if x != y)
        raise AssertionError(f"{what} {got[bad]} at vertex {bad}, expected {want[bad]}")

    def assert_pairings(name: str, z, tips, at_center: int) -> None:
        """z is anti-nef and pairs to -1 at each of tips, to 0 on every other
        chain curve and to at_center at the center, on the flattened graph."""
        products = graph_lattice.cycle_products(star.graph, z)
        _require(all(v <= 0 for v in products), f"{name} is not anti-nef")
        want = [0] * star.graph.n
        want[0] = at_center
        for t in tips:
            want[t] = -1
        assert_same(f"{name} pairs to", products, want)

    def invariants() -> str:
        # identities independent of the ones the lcm kernel raises on
        _require(
            all(al == x // math.gcd(x, l) for al, x, l in zip(inv.alpha_i, a, inv.ell_i)),
            "alpha_i != a_i / gcd(a_i, ell_i)",
        )
        _require(
            all(gh * l == math.prod(a[:i] + a[i + 1 :])
                for i, (gh, l) in enumerate(zip(inv.ghat_i, inv.ell_i))),
            "ghat_i * ell_i != prod_{j != i} a_j",
        )
        _require(
            all(lam * x == inv.ell for lam, x in zip(inv.lambda_i, a)),
            "lambda_i * a_i != ell",
        )
        _require(inv.ghat * inv.ell == math.prod(a), "ghat * ell != prod(a)")
        return f"ell={inv.ell} alpha={inv.alpha} ghat={inv.ghat} delta={inv.delta}"

    def graph() -> str:
        center = (star.graph.genera[0], star.graph.self_ints[0])
        _require(center == (star.center_genus, -star.c0), "center weight mismatch")
        for w, fam in enumerate(star.branch_families):
            _require(fam.count == inv.ghat_i[w], f"family {w + 1} count != ghat_w")
            _require(all(c >= 2 for c in fam.chain), f"family {w + 1} chain entry < 2")
            _require(
                (not fam.chain) == (inv.alpha_i[w] == 1),
                f"family {w + 1} emptiness disagrees with alpha_w",
            )
        _require(star.graph.n == star.vertex_count, "flattened vertex count mismatch")
        _require(graph_lattice.is_negative_definite(star.graph), "not negative definite")
        return (
            f"n={star.graph.n} center=(genus {star.center_genus}, "
            f"{star.center_self_int})"
        )

    def divisor_cycles() -> str:
        for i in range(1, m + 1):
            z = brieskorn.divisor_cycle(a, i)
            _require(z[0] == inv.lambda_i[i - 1], f"Z^({i}) center coefficient")
            _require(all(v >= 1 for v in z), f"Z^({i}) is not effective")
            tips = star.tip_indices(i)
            assert_pairings(f"Z^({i})", z, tips, 0 if tips else -inv.ghat_i[i - 1])
        zm = brieskorn.divisor_cycle(a, m)
        tips = star.tip_indices(m)
        tip_coeff = zm[tips[0]] if tips else inv.lambda_i[-1]
        _require(
            tip_coeff == inv.eta_m,
            f"eta_m={inv.eta_m} but the Z^(m) tip coefficient is {tip_coeff}",
        )
        return f"all {m} cycles anti-nef; eta_m={inv.eta_m} confirmed on the graph"

    def central_cycle() -> str:
        z0 = brieskorn.central_multiple_cycle(a)
        _require(z0[0] == inv.alpha, "Z_0 center coefficient != alpha")
        assert_pairings("Z_0", z0, (), -(inv.alpha * inv.ghat // inv.ell))
        return f"center coefficient {inv.alpha}"

    def canonical_cycle() -> str:
        zk = brieskorn.canonical_cycle_formula(a)
        zi = tuple(int(v) for v in zk)
        want = [
            e + 2 - 2 * g
            for g, e in zip(star.graph.genera, star.graph.self_ints)
        ]
        assert_same("Z_K pairs to", graph_lattice.cycle_products(star.graph, zi), want)
        assert_same("Z_K formula is", zk, graph_lattice.canonical_qcycle(star.graph))
        if brieskorn.FLAG_NON_MINIMAL in star.flags:
            return "integral, matches the adjunction solve (non-minimal model)"
        _require(all(v >= 0 for v in zi), "Z_K is not effective on a minimal model")
        return "integral, effective, matches the adjunction solve"

    def fundamental() -> str:
        pf = brieskorn.fundamental_genus(a)
        zf = graph_lattice.fundamental_cycle(star.graph)
        # the Seifert-data search that verifies p_f, against Laufer's sequence
        assert_same("searched Z_f is", star.assemble(star.quotient.fundamental_cycle_search()), zf)
        lam_m = inv.lambda_i[-1]
        if lam_m >= inv.alpha:
            _require(zf == brieskorn.central_multiple_cycle(a), "Z_f != Z_0")
        if lam_m <= inv.alpha:
            _require(zf == brieskorn.maximal_ideal_cycle(a), "Z_f != M_X")
        return f"pf={pf.value} via {pf.cycle}"

    def nr_oracle() -> str:
        nr = brieskorn.normal_reduction_number(a)
        oracle = ideal_oracle.nr_by_oracle(a)
        _require(nr == oracle, f"closed form nr={nr} but oracle says {oracle}")
        return f"nr={nr} agrees with the lattice oracle"

    def q_seq() -> str:
        nr = brieskorn.normal_reduction_number(a)
        n_max = nr + 2
        q = brieskorn.q_sequence(a, n_max)
        table = ideal_oracle.quotient_table(a)
        p = [table.p[n] if n < len(table.p) else 0 for n in range(n_max)]
        _require(ideal_oracle.qp_consistency(q, p), "q/p second-difference identity")
        # the one input of q from the closed p_a(M_X), checked on the flat graph
        mcn = brieskorn.maximal_cycle_numbers(a)
        pa_mx = graph_lattice.arithmetic_genus(star.graph, brieskorn.maximal_ideal_cycle(a))
        want = 2 * pa_mx - 2 - 2 * inv.delta * inv.ghat_i[-1]
        _require(
            mcn.MY_sq + mcn.MY_K == want,
            f"MY_sq + MY_K = {mcn.MY_sq + mcn.MY_K}, but p_a(M_X) = {pa_mx} on the "
            f"flattened graph gives {want}",
        )
        return f"q={q}"

    def nr_pg_bound() -> str:
        r = brieskorn.normal_reduction_number(a)
        bound = r * (r - 1) // 2 + brieskorn.q_sequence(a, r)[r]
        pg = brieskorn.geometric_genus(a)
        dense = brieskorn._pg_dense(a)
        _require(pg == dense, f"box-basis pg={pg} but the dense series gives pg={dense}")
        _require(bound <= pg, f"r(r-1)/2 + q(r) = {bound} > pg = {pg}")
        return f"{bound} <= pg={pg}"

    def rational_nr() -> str:
        pg = brieskorn.geometric_genus(a)
        nr = brieskorn.normal_reduction_number(a)
        if pg == 0:
            _require(nr == 1, f"pg=0 but nr={nr}")
            return "pg=0 forces nr=1, satisfied"
        return f"pg={pg} > 0, nothing to enforce"

    def homogeneous_cone() -> str:
        if len(set(a)) != 1 or m != 3:
            return "not a hypersurface cone (d,d,d), nothing to enforce"
        d = a[0]
        if d < 3:
            return "degree below 3, outside the cone formulas"
        q = brieskorn.q_sequence(a, d)
        want = tuple(cone_homogeneous.homogeneous_q(d, n) for n in range(d + 1))
        _require(q == want, f"q={q} but the cone formula gives {want}")
        nr = brieskorn.normal_reduction_number(a)
        _require(nr == cone_homogeneous.homogeneous_nr(d), "nr != d-1")
        _require(nr == cone_homogeneous.a_invariant_relation(d), "nr != a(R)+2")
        _require(
            nr == cone_homogeneous.brr_upper_bound(cone_homogeneous.plane_cone(d)),
            "cone bound not attained",
        )
        return f"matches the degree-{d} plane-cone formulas"

    steps = [
        ("invariants", invariants),
        ("graph", graph),
        ("divisor-cycles", divisor_cycles),
        ("central-cycle", central_cycle),
        ("canonical-cycle", canonical_cycle),
        ("fundamental-cycle", fundamental),
        ("nr-oracle", nr_oracle),
        ("q-sequence", q_seq),
        ("nr-pg-bound", nr_pg_bound),
        ("rational-nr", rational_nr),
        ("homogeneous-cone", homogeneous_cone),
    ]
    return [_run(name, fn) for name, fn in steps]
