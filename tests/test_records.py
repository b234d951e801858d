"""The record types: their ``repr``, immutability, value equality and
hashing, and the values a star caches."""

import pytest

from singlat import (
    CheckResult, dual_graph, maximal_cycle_numbers, numeric_invariants,
    plane_cone, quotient_table, run_tuple_checks,
)

STAR_237 = dual_graph((2, 3, 7))

# each record on a small input, with its repr pinned byte for byte
RECORDS = {
    "BCIInvariants": (
        numeric_invariants((2, 3, 5)),
        "BCIInvariants(a=(2, 3, 5), ell=30, ell_i=(15, 10, 6), alpha_i=(2, 3, 5), "
        "alpha=30, ghat=1, ghat_i=(1, 1, 1), lambda_i=(15, 10, 6), eta_i=(3, 2), "
        "eta_m=2, delta=0, a_invariant=-1, multiplicity=2)",
    ),
    "StarGraph": (
        STAR_237,
        "StarGraph(center_genus=0, c0=1, branch_families=("
        "ChainFamily(count=1, chain=(2,), beta=1), "
        "ChainFamily(count=1, chain=(3,), beta=1), "
        "ChainFamily(count=1, chain=(7,), beta=1)), flags=(), "
        "cycles=((42, 21, 14, 6), (21, 11, 7, 3), (14, 7, 5, 2), (6, 3, 2, 1), (2, 1, 1, 1)))",
    ),
    "ChainFamily": (STAR_237.branch_families[0], "ChainFamily(count=1, chain=(2,), beta=1)"),
    "QuotientTable": (quotient_table((3, 4, 6)), "QuotientTable(p=(2, 1, 0), n_stop=2)"),
    "ConeData": (plane_cone(4), "ConeData(g=3, d=4, gon=3)"),
    "CheckResult": (
        run_tuple_checks((2, 3, 5))[0],
        "CheckResult(name='invariants', passed=True, detail='ell=30 alpha=30 ghat=1 delta=0')",
    ),
    "MaximalCycleNumbers": (
        maximal_cycle_numbers((2, 3, 5)), "MaximalCycleNumbers(MY_sq=-2, MY_K=0)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_pinned(name):
    record, text = RECORDS[name]
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record, text = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records(name):
    record, _ = RECORDS[name]
    twin = type(record)(**record._asdict())
    assert twin is not record
    assert twin == record
    assert hash(twin) == hash(record)


def test_check_result_detail_defaults_to_empty():
    assert CheckResult("graph", True).detail == ""


def test_star_caches_its_quotient_and_graph():
    """A star built afresh from the fields of a cached one computes its own
    quotient and graph once, equal to the cached star's."""
    star = dual_graph((2, 3, 7))
    assert star.quotient is star.quotient
    assert star.graph is star.graph
    twin = type(star)(*star)
    assert twin.quotient is twin.quotient
    assert twin.graph is twin.graph
    assert twin.graph is not star.graph
    assert twin.graph == star.graph
    assert twin.vertex_count == star.vertex_count == 4
