"""The per-tuple self-check battery used by the command line."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from singlat import (
    CheckResult, DomainError, ResourceError, brieskorn, graph_lattice, run_tuple_checks,
)

CHECK_NAMES = [
    "invariants",
    "graph",
    "divisor-cycles",
    "central-cycle",
    "canonical-cycle",
    "fundamental-cycle",
    "nr-oracle",
    "q-sequence",
    "nr-pg-bound",
    "rational-nr",
    "homogeneous-cone",
]


def test_check_names_and_order():
    results = run_tuple_checks((3, 4, 7))
    assert [r.name for r in results] == CHECK_NAMES
    assert all(r.passed for r in results)
    assert all(isinstance(r, CheckResult) for r in results)


def test_checks_report_key_values():
    by_name = {r.name: r for r in run_tuple_checks((3, 4, 7))}
    assert "pf=2 via MX" == by_name["fundamental-cycle"].detail
    assert "nr=2" in by_name["nr-oracle"].detail
    assert by_name["q-sequence"].detail == "q=(3, 2, 2, 2, 2)"


def test_checks_non_minimal_model():
    by_name = {r.name: r for r in run_tuple_checks((2, 2, 3))}
    assert all(r.passed for r in by_name.values())
    assert by_name["canonical-cycle"].detail == (
        "integral, matches the adjunction solve (non-minimal model)"
    )
    assert "pg=0 forces nr=1" in by_name["rational-nr"].detail


def test_checks_homogeneous_cone_branch():
    by_name = {r.name: r for r in run_tuple_checks((4, 4, 4))}
    assert by_name["homogeneous-cone"].passed
    assert "degree-4" in by_name["homogeneous-cone"].detail
    off = {r.name: r for r in run_tuple_checks((3, 4, 6))}
    assert "nothing to enforce" in off["homogeneous-cone"].detail


def test_checks_validation_propagates():
    with pytest.raises(DomainError):
        run_tuple_checks((2, 2))
    with pytest.raises(DomainError):
        run_tuple_checks((1, 2, 3))


def test_checks_small_sweep():
    for a in combinations_with_replacement(range(2, 6), 3):
        assert all(r.passed for r in run_tuple_checks(a)), a


def test_nr_pg_bound_compares_the_dense_series(monkeypatch):
    monkeypatch.setattr(brieskorn, "_pg_dense", lambda a: 4)
    by_name = {r.name: r for r in run_tuple_checks((3, 4, 7))}
    assert not by_name["nr-pg-bound"].passed
    assert "pg=3" in by_name["nr-pg-bound"].detail
    assert "pg=4" in by_name["nr-pg-bound"].detail
    assert sum(not r.passed for r in by_name.values()) == 1


def test_nr_pg_bound_fails_above_pg(monkeypatch):
    """q raised by 10 everywhere keeps its differences, so only the bound
    r(r-1)/2 + q(r) at r = nr = 2 of (3,4,7) fails, above p_g = 3."""
    real = brieskorn.q_sequence
    monkeypatch.setattr(brieskorn, "q_sequence", lambda a, n: tuple(v + 10 for v in real(a, n)))
    by_name = {r.name: r for r in run_tuple_checks((3, 4, 7))}
    assert by_name["nr-pg-bound"] == ("nr-pg-bound", False, "r(r-1)/2 + q(r) = 13 > pg = 3")
    assert sum(not r.passed for r in by_name.values()) == 1


def test_canonical_cycle_step_compares_the_formula_with_the_solve(monkeypatch):
    """An adjunction solve of all 7s on the flattened graph of (3,4,6): the
    formula's Z_K = (4, 2, 2, 2) still meets adjunction there, so only the
    comparison of the two routes fails, naming the first differing vertex
    and both values."""
    monkeypatch.setattr(graph_lattice, "canonical_qcycle", lambda g: (Fraction(7),) * g.n)
    by_name = {r.name: r for r in run_tuple_checks((3, 4, 6))}
    assert not by_name["canonical-cycle"].passed
    assert by_name["canonical-cycle"].detail == "Z_K formula is 4 at vertex 0, expected 7"
    assert sum(not r.passed for r in by_name.values()) == 1


@pytest.mark.parametrize("change, detail", [
    (lambda zk: zk + (Fraction(0),), "Z_K formula is a vector of 8 entries, expected 9"),
    (lambda zk: zk[:-1], "Z_K formula is a vector of 8 entries, expected 7"),
], ids=["one-more", "one-fewer"])
def test_canonical_cycle_step_compares_the_lengths(monkeypatch, change, detail):
    """A solve with one coefficient more or one fewer than the flattened
    graph of (3,4,7) has curves fails the comparison, naming both
    lengths, though every coefficient it shares with the formula agrees."""
    real = graph_lattice.canonical_qcycle
    monkeypatch.setattr(graph_lattice, "canonical_qcycle", lambda g: change(real(g)))
    by_name = {r.name: r for r in run_tuple_checks((3, 4, 7))}
    assert not by_name["canonical-cycle"].passed
    assert by_name["canonical-cycle"].detail == detail
    assert sum(not r.passed for r in by_name.values()) == 1


def test_invariants_step_checks_the_branch_counts(monkeypatch):
    """ghat_1 one too high on (3,4,7) breaks ghat_1 ell_1 = a_2 a_3, which
    none of the conditions the invariant record is built under restates."""
    real = brieskorn.numeric_invariants

    def raised(a):
        inv = real(a)
        return inv._replace(ghat_i=(inv.ghat_i[0] + 1,) + inv.ghat_i[1:])

    monkeypatch.setattr(brieskorn, "numeric_invariants", raised)
    by_name = {r.name: r for r in run_tuple_checks((3, 4, 7))}
    assert not by_name["invariants"].passed
    assert by_name["invariants"].detail == "ghat_i * ell_i != prod_{j != i} a_j"


def test_graph_step_reads_the_flattened_center(monkeypatch):
    """A flattened graph whose center is one lower than -c0 fails the graph
    step, which compares the graph's own center with the star's data.  The
    star's own quotient, which its build checked, is left as it was."""
    real = graph_lattice.DualGraph.from_star_quotient

    def lowered(q):
        return real(graph_lattice.Quotient(
            q.genera, (q.self_ints[0] - 1, *q.self_ints[1:]), q.sizes, q.into, q.spans))

    monkeypatch.setattr(graph_lattice.DualGraph, "from_star_quotient", staticmethod(lowered))
    brieskorn._star_cached.cache_clear()
    try:
        by_name = {r.name: r for r in run_tuple_checks((3, 4, 7))}
    finally:
        brieskorn._star_cached.cache_clear()
    assert not by_name["graph"].passed
    assert by_name["graph"].detail == "center weight mismatch"


def test_q_sequence_step_checks_the_maximal_cycle_numbers(monkeypatch):
    """MY_sq and MY_K both one too high leave MY_sq - MY_K, and so q, as they
    were; only p_a(M_X) on the flattened graph catches them."""
    real = brieskorn.maximal_cycle_numbers

    def raised(a):
        mcn = real(a)
        return brieskorn.MaximalCycleNumbers(MY_sq=mcn.MY_sq + 1, MY_K=mcn.MY_K + 1)

    monkeypatch.setattr(brieskorn, "maximal_cycle_numbers", raised)
    by_name = {r.name: r for r in run_tuple_checks((3, 4, 7))}
    assert not by_name["q-sequence"].passed
    assert by_name["q-sequence"].detail == (
        "MY_sq + MY_K = 2, but p_a(M_X) = 2 on the flattened graph gives 0"
    )
    assert sum(not r.passed for r in by_name.values()) == 1


_CORRUPT_SOLVE_UNDER_O = """
from fractions import Fraction
from singlat import graph_lattice, run_tuple_checks
assert False, "this interpreter keeps assert statements"
graph_lattice.canonical_qcycle = lambda g: (Fraction(7),) * g.n
for r in run_tuple_checks((3, 4, 7)):
    print("PASS" if r.passed else "FAIL", r.name, r.detail)
"""


def test_checks_fail_under_python_O():
    """python -O strips assert statements; the battery still fails a
    corrupted route there, with the same detail as without -O."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_SOLVE_UNDER_O],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    failed = [line for line in proc.stdout.splitlines() if not line.startswith("PASS ")]
    assert failed == ["FAIL canonical-cycle Z_K formula is 24 at vertex 0, expected 7"]


def test_checks_stop_on_a_resource_budget():
    with pytest.raises(ResourceError):
        run_tuple_checks((1000,) * 5)


def test_divisor_cycles_step_pairs_on_the_flattened_graph(monkeypatch):
    """A Z^(1) of (3,4,6) with one chain copy raised by one: effective,
    anti-nef, with the right center coefficient, but its center pairing is
    -1 where -ghat_1 = -2 is expected."""
    real = brieskorn.divisor_cycle
    monkeypatch.setattr(
        brieskorn, "divisor_cycle", lambda a, i: (4, 3, 2, 2) if i == 1 else real(a, i)
    )
    by_name = {r.name: r for r in run_tuple_checks((3, 4, 6))}
    assert not by_name["divisor-cycles"].passed
    assert by_name["divisor-cycles"].detail == "Z^(1) pairs to -1 at vertex 0, expected -2"
    assert sum(not r.passed for r in by_name.values()) == 1


def test_central_cycle_step_pairs_on_the_flattened_graph(monkeypatch):
    """A Z_0 of (2,3,5) solved with 2 past the family-1 tip instead of 0:
    still anti-nef with center coefficient alpha, but its pattern is off."""
    monkeypatch.setattr(
        brieskorn, "central_multiple_cycle", lambda a: (30, 16, 20, 10, 24, 18, 12, 6)
    )
    by_name = {r.name: r for r in run_tuple_checks((2, 3, 5))}
    assert not by_name["central-cycle"].passed
    assert by_name["central-cycle"].detail == "Z_0 pairs to 0 at vertex 0, expected -1"
    assert sum(not r.passed for r in by_name.values()) == 1


def test_checks_stop_on_a_budget_before_the_first_step(monkeypatch):
    """(97,98,99,101) needs a dense p_g series of 186,249,984 terms; the
    battery refuses it before any step, in particular before Laufer's
    sequence on its graph."""
    calls = []

    def refuse(*args):
        calls.append(args)
        raise RuntimeError("a step ran before the budgets were checked")

    monkeypatch.setattr(brieskorn, "numeric_invariants", refuse)
    monkeypatch.setattr(brieskorn, "dual_graph", refuse)
    with pytest.raises(ResourceError, match="dense p_g series"):
        run_tuple_checks((97, 98, 99, 101))
    assert calls == []


def test_checks_stop_on_the_flattened_graph_budget():
    """(23,24,24,24,24,24) fits the box (317,952 points), the p_g pairs
    (9,409) and the dense series (2,070 terms); its flattened graph of
    7,299,073 curves does not, and the battery says so before any step."""
    with pytest.raises(ResourceError, match="flattened star graph needs 7299073 vertices"):
        run_tuple_checks((23, 24, 24, 24, 24, 24))
