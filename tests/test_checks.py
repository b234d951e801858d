"""The per-tuple self-check battery used by the command line."""

from itertools import combinations_with_replacement

import pytest

from singlat import CheckResult, DomainError, ResourceError, brieskorn, run_tuple_checks

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
