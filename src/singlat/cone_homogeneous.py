"""Cone-like and homogeneous hypersurface singularities.

A cone-like singularity carries three numbers: the genus g of the
exceptional curve, the degree d (minus its self-intersection), and the
gonality gon of the curve.  The normal reduction number of any ideal is
bounded by a strict round-up expression in these, and for cones over smooth
plane curves everything is explicit: q(n) = C(d-n, 3), nr = d - 1, and the
bound is attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import brieskorn, ideal_oracle
from .errors import DomainError

__all__ = [
    "ConeData",
    "plane_cone",
    "round_up_strict",
    "brr_upper_bound",
    "homogeneous_q",
    "homogeneous_nr",
    "a_invariant_relation",
    "gonality_plane",
    "gonality_upper",
    "cone_report",
]


@dataclass(frozen=True)
class ConeData:
    """Exceptional-curve data of a cone-like singularity.

    g: genus of the exceptional curve; d: degree (= minus the
    self-intersection); gon: gonality, which can never exceed
    floor((g+3)/2).
    """

    g: int
    d: int
    gon: int

    def __post_init__(self) -> None:
        if not isinstance(self.g, int) or self.g < 0:
            raise DomainError(f"genus must be a nonnegative integer, got {self.g!r}")
        if not isinstance(self.d, int) or self.d < 1:
            raise DomainError(f"degree must be a positive integer, got {self.d!r}")
        if not isinstance(self.gon, int) or self.gon < 1:
            raise DomainError(f"gonality must be a positive integer, got {self.gon!r}")
        bound = gonality_upper(self.g)
        if self.gon > bound:
            raise DomainError(
                f"gonality {self.gon} exceeds the bound floor((g+3)/2) = {bound}"
            )


def _plane_degree(d) -> int:
    """d, checked to be the degree (>= 3) of a plane curve of positive genus."""
    if not isinstance(d, int) or d < 3:
        raise DomainError(f"degree must be an integer >= 3, got {d!r}")
    return d


def plane_cone(d: int) -> ConeData:
    """Cone over a smooth plane curve of degree d: g = (d-1)(d-2)/2, gon = d-1."""
    d = _plane_degree(d)
    return ConeData(g=(d - 1) * (d - 2) // 2, d=d, gon=d - 1)


def round_up_strict(x) -> int:
    """Smallest integer strictly greater than x; e.g. 2 -> 3 and 5/2 -> 3."""
    if not isinstance(x, (int, Fraction)):
        raise DomainError(f"expected an exact rational, got {x!r}")
    return math.floor(x) + 1


def brr_upper_bound(c: ConeData) -> int:
    """Upper bound [[(2g-2)/min(d, gon)]] + 1 for the normal reduction number
    of any integrally closed ideal on the cone; needs g >= 1."""
    if c.g < 1:
        raise DomainError(f"bound needs genus >= 1, got {c.g}")
    return round_up_strict(Fraction(2 * c.g - 2, min(c.d, c.gon))) + 1


def homogeneous_q(d: int, n: int) -> int:
    """q(n) = C(d-n, 3) for the cone over a degree-d plane curve (0 when d-n < 3)."""
    d = _plane_degree(d)
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"index must be a nonnegative integer, got {n!r}")
    return math.comb(max(d - n, 0), 3)


def homogeneous_nr(d: int) -> int:
    """Normal reduction number d - 1 of the degree-d plane-curve cone."""
    return _plane_degree(d) - 1


def a_invariant_relation(d: int) -> int:
    """nr recovered from the a-invariant: a(R) + 2, with a(R) read off the
    Brieskorn hypersurface (d, d, d)."""
    d = _plane_degree(d)
    return brieskorn.numeric_invariants((d, d, d)).a_invariant + 2


def gonality_plane(d: int) -> int:
    """Gonality d - 1 of a smooth plane curve of degree d."""
    return plane_cone(d).gon


def gonality_upper(g: int) -> int:
    """General gonality bound floor((g+3)/2) for a genus-g curve."""
    if not isinstance(g, int) or g < 0:
        raise DomainError(f"genus must be a nonnegative integer, got {g!r}")
    return (g + 3) // 2


def cone_report(d: int) -> dict:
    """JSON-ready summary {"d","g","gon","nr","bound","q"} for the degree-d cone."""
    cone = plane_cone(d)
    ideal_oracle._check_budget(d + 1, f"the q list of the degree-{d} cone")
    return {
        "d": cone.d,
        "g": cone.g,
        "gon": cone.gon,
        "nr": homogeneous_nr(d),
        "bound": brr_upper_bound(cone),
        "q": [homogeneous_q(d, n) for n in range(d + 1)],
    }
