"""Cone-like singularities over smooth curves: the strict round-up
bracket, the gonality bound on the reduction number, and the degree-d
homogeneous specialization."""

import re
from fractions import Fraction
from math import ceil, floor

import pytest

from singlat import (
    ConeData,
    DomainError,
    a_invariant_relation,
    brr_upper_bound,
    cone_report,
    geometric_genus,
    gonality_plane,
    gonality_upper,
    homogeneous_nr,
    homogeneous_q,
    normal_reduction_number,
    plane_cone,
    quotient_dimension,
)


# -------------------------------------------------------------------- round-up

def test_round_up_strict_fixtures():
    from singlat import round_up_strict
    assert round_up_strict(2) == 3
    assert round_up_strict(Fraction(5, 2)) == 3
    assert round_up_strict(Fraction(-1, 2)) == 0
    assert round_up_strict(-3) == -2
    assert round_up_strict(Fraction(12, 4)) == 4  # normalizes to the integer 3


def test_round_up_strict_exhaustive():
    from singlat import round_up_strict
    for p in range(-50, 51):
        for q in range(1, 11):
            x = Fraction(p, q)
            want = floor(x) + 1 if x.denominator == 1 else ceil(x)
            assert round_up_strict(x) == want
            assert round_up_strict(x) > x >= round_up_strict(x) - 1


def test_round_up_strict_rejects_floats():
    from singlat import round_up_strict
    with pytest.raises(DomainError):
        round_up_strict(2.5)


# ------------------------------------------------------------------- cone data

def test_cone_data_validation():
    ConeData(g=2, d=5, gon=2)
    with pytest.raises(DomainError, match=f"^{re.escape('gonality 3 exceeds the bound floor((g+3)/2) = 2')}$"):
        ConeData(g=2, d=5, gon=3)  # gonality above floor((g+3)/2)
    with pytest.raises(DomainError, match="^genus must be a nonnegative integer, got -1$"):
        ConeData(g=-1, d=5, gon=1)
    with pytest.raises(DomainError, match="^degree must be a positive integer, got 0$"):
        ConeData(g=2, d=0, gon=2)
    with pytest.raises(DomainError, match="^gonality must be a positive integer, got 0$"):
        ConeData(2, 5, 0)
    with pytest.raises(DomainError, match="^degree must be a positive integer, got '5'$"):
        ConeData(g=2, d="5", gon=2)


def test_plane_cone():
    assert plane_cone(3) == ConeData(g=1, d=3, gon=2)
    assert plane_cone(4) == ConeData(g=3, d=4, gon=3)
    assert plane_cone(7) == ConeData(g=15, d=7, gon=6)
    with pytest.raises(DomainError):
        plane_cone(2)


def test_gonality():
    assert gonality_plane(4) == 3
    assert gonality_upper(2) == 2
    assert gonality_plane(3) == 2 == gonality_upper(1)
    for d in range(3, 13):
        assert gonality_plane(d) <= gonality_upper((d - 1) * (d - 2) // 2)


# ----------------------------------------------------------------- upper bound

def test_brr_upper_bound_fixtures():
    assert brr_upper_bound(plane_cone(4)) == 3
    assert brr_upper_bound(ConeData(g=2, d=10, gon=2)) == 3
    assert brr_upper_bound(ConeData(g=1, d=3, gon=2)) == 2
    assert brr_upper_bound(ConeData(g=1, d=9, gon=2)) == 2
    with pytest.raises(DomainError):
        brr_upper_bound(ConeData(g=0, d=3, gon=1))


def test_brr_upper_bound_matches_homogeneous_nr():
    for d in range(3, 13):
        assert brr_upper_bound(plane_cone(d)) == homogeneous_nr(d)


# ----------------------------------------------------------------- homogeneous

def test_homogeneous_q_fixtures():
    assert [homogeneous_q(4, n) for n in range(4)] == [4, 1, 0, 0]
    assert homogeneous_q(3, 0) == 1
    assert homogeneous_q(5, 5) == 0
    with pytest.raises(DomainError):
        homogeneous_q(2, 0)
    with pytest.raises(DomainError):
        homogeneous_q(4, -1)


def test_homogeneous_q_second_differences():
    for d in range(3, 9):
        for n in range(1, d + 2):
            second = (
                homogeneous_q(d, n - 1)
                - 2 * homogeneous_q(d, n)
                + homogeneous_q(d, n + 1)
            )
            assert second == max(d - 1 - n, 0)
            assert second == quotient_dimension((d, d, d), n)


def test_homogeneous_q_zero_is_geometric_genus():
    for d in range(3, 9):
        assert homogeneous_q(d, 0) == geometric_genus((d, d, d))


def test_homogeneous_nr_and_a_invariant():
    assert homogeneous_nr(3) == 2
    assert homogeneous_nr(7) == 6 == a_invariant_relation(7)
    for d in range(3, 9):
        assert homogeneous_nr(d) == a_invariant_relation(d)
        assert homogeneous_nr(d) == normal_reduction_number((d, d, d))
    with pytest.raises(DomainError):
        homogeneous_nr(2)
    with pytest.raises(DomainError):
        a_invariant_relation(2)


# ---------------------------------------------------------------------- report

def test_cone_report():
    rep = cone_report(4)
    assert list(rep) == ["d", "g", "gon", "nr", "bound", "q"]
    assert rep == {
        "d": 4, "g": 3, "gon": 3, "nr": 3, "bound": 3, "q": [4, 1, 0, 0, 0],
    }
    assert len(cone_report(6)["q"]) == 7
