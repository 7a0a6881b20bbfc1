"""Exact arithmetic over Q[l] for degenerate special numbers and polynomials.

The kernel works in the polynomial ring of the degeneracy parameter, so
every identity the suite verifies is a polynomial identity: one pass
certifies it for all parameter values at once.
"""

from .factorials import BasisId, classical_falling, degen_falling, to_basis
from .fubini_bell import PolyFamily, family_series, poly_by_sum, rfubini_numbers
from .harmonic import degen_harmonic, degen_hyperharmonic, harmonic_gf
from .identities import CHECK_IDS, SuiteBounds, run_suite, suite_json
from .kernel import QL, QLX, QQ, LambdaPoly, SeriesOrderError, TruncSeries, XPoly
from .operators import OperatorSpec, theorem1_check, theorem2_blocks, theorem2_check
from .report import CheckReport, Counterexample
from .stirling import StirlingFamily, Triangle, stirling_value, triangle, unsigned_first_kind
from .tables import Tables

__version__ = "0.1.0"

__all__ = [
    "BasisId", "CHECK_IDS", "CheckReport", "Counterexample", "LambdaPoly", "OperatorSpec",
    "PolyFamily", "QL", "QLX", "QQ", "SeriesOrderError", "StirlingFamily", "SuiteBounds", "Tables",
    "Triangle", "TruncSeries", "XPoly", "classical_falling", "degen_falling", "degen_harmonic",
    "degen_hyperharmonic", "family_series", "harmonic_gf", "poly_by_sum", "rfubini_numbers",
    "run_suite", "stirling_value", "suite_json", "theorem1_check", "theorem2_blocks",
    "theorem2_check", "to_basis", "triangle", "unsigned_first_kind",
]
