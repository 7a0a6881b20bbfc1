"""Structured pass/fail reports for identity checks."""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

from .kernel import LambdaPoly
from .render import lambda_poly_ascii


def render_value(value) -> str:
    """Canonical one-line rendering for counterexample payloads."""
    if isinstance(value, LambdaPoly):
        return lambda_poly_ascii(value)
    return str(value)


class Counterexample(NamedTuple):
    location: str
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {"location": self.location, "lhs": self.lhs, "rhs": self.rhs}


class CheckReport(NamedTuple):
    """Outcome of one identity check instance.

    ``passed`` is true exactly when ``counterexample`` is absent; params
    are stored as a sorted tuple so reports hash and order deterministically.
    """

    check_id: str
    params: tuple[tuple[str, object], ...]
    passed: bool
    counterexample: Optional[Counterexample]

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "params": dict(self.params),
            "passed": self.passed,
            "counterexample": self.counterexample.to_json() if self.counterexample else None,
        }


def make_report(check_id: str, params: Mapping[str, object],
                counterexample: Optional[Counterexample]) -> CheckReport:
    return CheckReport(
        check_id=check_id,
        params=tuple(sorted(params.items())),
        passed=counterexample is None,
        counterexample=counterexample,
    )


def first_mismatch(lhs, rhs, label: str) -> Optional[Counterexample]:
    """The counterexample at ``label`` if two LambdaPoly or rational values differ, else None;
    a check names the divergent coefficient in ``label``."""
    if lhs != rhs:
        return Counterexample(label, render_value(lhs), render_value(rhs))
    return None
