"""The package's public names resolve, and no test-only route is part of it."""

import importlib
import pkgutil

import qlambda
from qlambda.kernel import TruncSeries, XPoly
from qlambda.tables import Tables

# Second routes kept in tests/routes.py (or deleted), never in the package.
ORACLE_ONLY = ("series_by_gf", "poly_by_gf", "triangle_by_gf", "_gf_parts", "classical_log1p",
               "degen_transform", "degen_transform_value", "from_basis", "classical_harmonic",
               "lift_to_xpoly", "euler_apply", "rhs_theorem1", "stirling2_by_recurrence",
               "gen_binomial", "stirling_by_basis", "classical_rising", "degen_rising",
               "stirling_value", "unsigned_first_kind")


def test_every_exported_name_resolves():
    assert len(set(qlambda.__all__)) == len(qlambda.__all__)
    for name in qlambda.__all__:
        assert getattr(qlambda, name, None) is not None, name


def test_oracle_routes_are_not_in_the_package():
    modules = [importlib.import_module(f"qlambda.{info.name}")
               for info in pkgutil.iter_modules(qlambda.__path__) if info.name != "__main__"]
    assert len(modules) >= 12
    for name in ORACLE_ONLY:
        assert name not in qlambda.__all__, name
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(Tables(), "series")


def test_series_shift_and_derivatives_are_oracle_only():
    # only tests/routes.py's oracles take them, as plain functions
    for cls, name in ((TruncSeries, "shift"), (TruncSeries, "derive"), (XPoly, "derivative")):
        assert not hasattr(cls, name), name
