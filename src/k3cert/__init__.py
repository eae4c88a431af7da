"""Exact-arithmetic certificates for two K3 lattice scenarios.

Everything here is integer or symbolic arithmetic: lattices and their
discriminant groups, isometries and reflection groups, a fundamental
chamber with a ping-pong certificate, a Pell-family generator search,
and the plane translation maps of elliptic curves.  No floating point
is used anywhere in a verification path.
"""

from .lattice import (
    IntegerLattice,
    LatticeError,
    change_basis,
    discriminant_group,
    solve_norm_system,
    solve_pairing_norm,
)
from .quadfield import QuadExt
from .isometry import Isometry, compose, order_of, reflection_in
from .chamber import Chamber, pingpong_certify, reduce_to_chamber
from .report import Report, ReportItem

__version__ = "0.1.0"

__all__ = [
    "IntegerLattice", "LatticeError", "change_basis", "discriminant_group",
    "solve_norm_system", "solve_pairing_norm", "QuadExt", "Isometry",
    "compose", "order_of", "reflection_in", "Chamber", "pingpong_certify",
    "reduce_to_chamber", "Report", "ReportItem", "__version__",
]
