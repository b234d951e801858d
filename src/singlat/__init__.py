"""Exact-arithmetic invariants of Brieskorn complete-intersection and cone
singularities: resolution dual graphs, exceptional cycles, genera, normal
reduction numbers, and the brute-force oracles that validate them."""

from . import brieskorn, checks, cone_homogeneous, errors, graph_lattice, ideal_oracle
from .errors import *  # noqa: F403
from .graph_lattice import *  # noqa: F403
from .brieskorn import *  # noqa: F403
from .ideal_oracle import *  # noqa: F403
from .cone_homogeneous import *  # noqa: F403
from .checks import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for mod in (errors, graph_lattice, brieskorn, ideal_oracle, cone_homogeneous, checks)
    for name in mod.__all__
] + ["__version__"]
