"""The package's small value types: immutable, equal and hashed by value, printable, picklable.

Each case builds one value by keyword and names one field to change.  The
values hold plain placeholders where a real one holds kernel elements, so
the contract is the container's own; ``tests/test_kernel.py`` round-trips
the kernel values.
"""

import pickle

import pytest

from qlambda import stirling as st
from qlambda.factorials import BasisId
from qlambda.fubini_bell import RBELL_DEGENERATE, RFUBINI_DEGENERATE, PolyFamily
from qlambda.identities import SuiteBounds
from qlambda.operators import OperatorSpec, Theorem2Blocks
from qlambda.report import CheckReport, Counterexample

_TRI_ARGS = dict(family=st.StirlingFamily(st.S2_CLASSICAL), nmax=1, rows=((1,), (0, 1)))
_BOUNDS = ("thm1_jmax=10, thm1_mmax=8, thm1_rmax=4, thm2_trials=100, thm2_degmax=6, "
           "thm2_rmax=3, thm2_order=16, thm3_mmax=8, thm3_rmax=3, thm3_order=20, "
           "thm3_numeric_mmax=4, thm3_numeric_rmax=2, thm3_tol_exponent=12, thm4_nmax=5, "
           "thm5_nmax=12, thm5_rmax=4, thm6_kmax=8, thm6_order=16, cor7_nmax=10, "
           "cor7_kmax=10, thm8_mmax=6, thm8_rmax=3, thm8_order=16")

# (type, keyword arguments, (field, another value), repr)
CASES = [
    (Counterexample, dict(location="series: coefficient of t^3", lhs="1", rhs="l"), ("rhs", "2"),
     "Counterexample(location='series: coefficient of t^3', lhs='1', rhs='l')"),
    (CheckReport, dict(check_id="thm4", params=(("n", 3),), passed=True, counterexample=None),
     ("passed", False),
     "CheckReport(check_id='thm4', params=(('n', 3),), passed=True, counterexample=None)"),
    (st.Triangle, _TRI_ARGS, ("nmax", 0),
     "Triangle(family=StirlingFamily(id='S2-classical', r=0), nmax=1, rows=((1,), (0, 1)))"),
    (SuiteBounds, dict(thm4_nmax=5), ("thm4_nmax", 6), f"SuiteBounds({_BOUNDS})"),
    (BasisId, dict(kind="falling", shift=2), ("shift", 1), "BasisId(kind='falling', shift=2)"),
    (PolyFamily, dict(id=RBELL_DEGENERATE, r=2), ("r", 1),
     "PolyFamily(id='rbell-degenerate', r=2)"),
    (st.StirlingFamily, dict(id=st.S2R_DEGENERATE, r=2), ("r", 1),
     "StirlingFamily(id='S2r-degenerate', r=2)"),
    (OperatorSpec, dict(m=3, r=1, mode="shifted"), ("m", 2),
     "OperatorSpec(m=3, r=1, mode='shifted')"),
    (Theorem2Blocks, dict(r=1, order=4, degmax=1, main=(((1,),), ((1,),)), shifted=((), ())),
     ("order", 5), "Theorem2Blocks(r=1, order=4, degmax=1)"),
]


@pytest.mark.parametrize("cls,kwargs,change,text", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_type_contract(cls, kwargs, change, text):
    value = cls(**kwargs)
    assert all(getattr(value, name) == arg for name, arg in kwargs.items())
    assert repr(value) == text
    twin = cls(**kwargs)
    assert twin == value and hash(twin) == hash(value) and len({twin, value}) == 1
    name, other = change
    assert cls(**dict(kwargs, **{name: other})) != value
    for field in (name, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, other)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == kwargs[name]
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is cls and restored == value and repr(restored) == text


@pytest.mark.parametrize("make", [
    lambda: BasisId("nope"),
    lambda: BasisId("falling", -1),
    lambda: PolyFamily(RFUBINI_DEGENERATE, -1),
    lambda: BasisId("falling", 2)._replace(shift=-1),
    lambda: BasisId("falling")._replace(kind="nope"),
    lambda: PolyFamily(RFUBINI_DEGENERATE, 2)._replace(r=-1),
    lambda: PolyFamily(RBELL_DEGENERATE, 1)._replace(id="fubini-classical"),
    lambda: st.StirlingFamily(st.S2R_DEGENERATE, 2)._replace(r=-1),
    lambda: st.StirlingFamily(st.S2R_DEGENERATE, 2)._replace(id=st.S2_CLASSICAL),
    lambda: OperatorSpec(3, 1, "shifted")._replace(m=0),
    lambda: OperatorSpec(3, 1)._replace(mode="nope"),
])
def test_validating_constructors_reject(make):
    """Each check runs on construction and on ``_replace``."""
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("value,change", [
    (BasisId("falling", 2), dict(shift=1)),
    (PolyFamily(RFUBINI_DEGENERATE, 2), dict(r=1)),
    (st.StirlingFamily(st.S2R_DEGENERATE, 2), dict(r=0)),
    (OperatorSpec(3, 1, "shifted"), dict(m=1)),
], ids=lambda value: type(value).__name__ if not isinstance(value, dict) else "")
def test_replace_builds_a_value_of_the_type(value, change):
    twin = value._replace(**change)
    assert type(twin) is type(value) and twin == type(value)(**dict(value._asdict(), **change))
    with pytest.raises(TypeError):
        type(value)._make((*value, 1))
    with pytest.raises(ValueError):
        value._replace(extra=1)
