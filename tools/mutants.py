"""Mutation check: every named source edit must make a test fail.

Each mutant is a named ``(file, old, new)`` edit of the package source,
optionally followed by the test subset that must catch it (``TESTS``, the
kernel's, when absent).  For each one the script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a fresh temporary directory,
replaces the single occurrence of ``old`` by ``new`` and runs that subset
there.  A mutant is caught when that run fails.  The unedited copy runs
every subset first and must pass.

    python tools/mutants.py

Exits 0 when every mutant is caught, 1 otherwise.  Runs for a few
minutes; it is not part of the tier-1 suite, but ``tests/test_mutants.py``
checks there that each ``old`` still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_kernel.py", "tests/test_acceptance.py::test_criterion_11_kernel_laws")
KERNEL = "src/qlambda/kernel.py"
IDENTITIES = "src/qlambda/identities.py"
OPERATORS = "src/qlambda/operators.py"
STIRLING = "src/qlambda/stirling.py"
TABLES = "src/qlambda/tables.py"
HARMONIC = "src/qlambda/harmonic.py"
VALUES = ("tests/test_value_types.py",)
# run_suite against checks that compare every index, clean and faulted
EVERY_INDEX = tuple(f"tests/test_identities.py::test_{name}" for name in (
    "clean_run_reports_equal_the_every_index_loops",
    "faulted_reports_equal_the_every_index_loops",
    "edge_reports_equal_the_every_index_loops", "thm8_reads_index_m_plus_one"))
# a default run builds every shared value once, before its first check
PLANNED = ("tests/test_identities.py::"
           "test_a_run_builds_every_shared_value_once_before_any_check",)
# each table at a number for l equals the oracle's Q[l] table there, faults included
POINTS = ("tests/test_operators.py::test_point_tables_equal_the_q_l_tables_there",)
# the harmonic values at a number for l equal the routes' Q[l] ones there times the scale, and
# a clean run of thm6, cor7 and thm8 takes no product in Q[l]
HARMONIC_POINTS = (
    "tests/test_series_routes.py::test_point_harmonic_values_equal_the_q_l_ones_there",
    "tests/test_identities.py::test_a_clean_harmonic_run_takes_no_lambda_poly_product")
_MAKE = "    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too\n"

# name -> (file, old, new[, tests]); ``old`` must occur exactly once in ``file``.
MUTANTS = {
    "product index off by one": (
        KERNEL,
        "for j, cj in enumerate(other.coeffs):\n"
        "                out[i + j] = out[i + j] + ci * cj",
        "for j, cj in enumerate(other.coeffs):\n"
        "                out[i + j - 1] = out[i + j - 1] + ci * cj",
    ),
    "add drops the longer tail": (KERNEL, "out = list(a)\n", "out = list(a[:len(b)])\n"),
    "no trailing-zero strip": (KERNEL, "while cs and not cs[-1]:", "while False:"),
    "hash disagrees with eq": (
        KERNEL,
        "return hash((type(self).__name__, self.coeffs))",
        "return hash((type(self).__name__, id(self)))",
    ),
    "truncate keeps one term too few": (
        KERNEL,
        "self.coeffs[: order + 1])",
        "self.coeffs[: order])",
    ),
    "truncate accepts an order one too high": (
        KERNEL,
        "if not 0 <= order <= self.order:",
        "if not 0 <= order <= self.order + 1:",
    ),
    "reciprocal sign": (KERNEL, "out.append(-(b0 * acc))", "out.append(b0 * acc)"),
    "scalar equality misses zero": (
        KERNEL,
        "return self.coeffs == ((other,) if other else ())",
        "return self.coeffs == (other,)",
    ),
    "BasisId accepts a negative shift": (
        "src/qlambda/factorials.py", "if shift < 0:", "if False:", VALUES,
    ),
    "PolyFamily accepts a negative r": (
        "src/qlambda/fubini_bell.py", "if r < 0:", "if False:", VALUES,
    ),
    "StirlingFamily lets any family take r": (
        "src/qlambda/stirling.py", "if r and id not in R_FAMILY_IDS:", "if False:",
        ("tests/test_stirling.py::test_family_validation",),
    ),
    "OperatorSpec accepts shifted m < r": (
        "src/qlambda/operators.py", 'if mode == "shifted" and m < r:', "if False:",
        ("tests/test_operators.py::test_spec_validation",),
    ),
    "thm1 reads one index fewer": (
        OPERATORS, "top = min(m, jmax)", "top = min(m - 1, jmax)", EVERY_INDEX,
    ),
    "thm2 reads one index fewer": (OPERATORS, "[:f.degree + 1]", "[:f.degree]", EVERY_INDEX),
    "thm3 reads one index fewer": (
        IDENTITIES, "r, m, m, range(m + 1)", "r, m, m, range(max(m, 1))", EVERY_INDEX,
    ),
    "thm8 reads one index fewer": (
        IDENTITIES, "top = min(m + 1, order)", "top = min(m, order)", EVERY_INDEX,
    ),
    "thm2 compares where g_j = 0": (
        OPERATORS, " if not gj.is_zero()][", "][",
        ("tests/test_operators.py::test_theorem2_check_agrees_with_the_derivative_oracle",),
    ),
    "thm8 takes the closed form unchecked": (
        IDENTITIES, "found = first_difference(sides, order - 1)", "found = None",
        ("tests/test_identities.py::test_thm8_fails_every_instance_when_the_closed_form_fails",),
    ),
    "an instance passes despite a failed closed form": (
        IDENTITIES, "if open_term is not None:", "if False:",
        ("tests/test_identities.py::test_thm8_fails_every_instance_when_the_closed_form_fails",),
    ),
    "harmonic checks count S2r faults": (
        OPERATORS, " if fid == family]", "]",
        ("tests/test_identities.py::"
         "test_only_s2r_faults_raise_the_points_of_the_checks_that_read_them",),
    ),
    "bracket summed one time fewer": (
        IDENTITIES, "row[k] * math.comb(n + k, k)", "row[k] * math.comb(n + k - 1, k - 1)",
        ("tests/test_identities.py::test_thm6_instances",
         "tests/test_identities.py::test_thm8_instances"),
    ),
    "per-run store outlives the run": (
        TABLES, "_RUN.reset(token)", "pass",
        ("tests/test_series_routes.py::test_each_run_builds_each_shifted_binomial_once",),
    ),
    "fault applied twice": (
        STIRLING, "(delta if at is None", "(delta + delta if at is None",
        ("tests/test_stirling.py::test_fault_injection_changes_exactly_one_entry",),
    ),
    "recurrence factor's sign": (
        STIRLING, "LambdaPoly((a0 * k + b0 * n + r, a1 * k + b1 * n))",
        "LambdaPoly((a0 * k + b0 * n + r, -a1 * k - b1 * n))",
        ("tests/test_acceptance.py::test_criterion_9_three_way_stirling_agreement",),
    ),
    **{f"{name} _replace skips its checks": (file, _MAKE, "", VALUES) for name, file in (
        ("BasisId", "src/qlambda/factorials.py"), ("PolyFamily", "src/qlambda/fubini_bell.py"),
        ("StirlingFamily", STIRLING), ("OperatorSpec", OPERATORS))},
    "Theorem2Blocks has an instance __dict__": (
        OPERATORS, "    __slots__ = ()\n\n    def __repr__(self):\n        return f\"Theorem2",
        "    def __repr__(self):\n        return f\"Theorem2", VALUES,
    ),
    "the plan drops thm5's triangle read": (
        IDENTITIES,
        "read(stirling.S1R_UNSIGNED_DEGENERATE, range(1, b.thm5_rmax + 1), b.thm5_nmax)",
        "pass", PLANNED,
    ),
    "the plan sizes the g-free tables one index short": (
        IDENTITIES, "theorem2_blocks, r, index, degmax, at)",
        "theorem2_blocks, r, index - 1, degmax, at)", PLANNED,
    ),
    "a reader builds its own triangle inside a run": (
        STIRLING, "shared((\"triangle\", *family), triangle, family, n)", "triangle(family, n)",
        PLANNED,
    ),
    "thm5 builds its own harmonic row inside a run": (
        IDENTITIES, "shared((\"harmonic\", None), harmonic_row, n)[n]", "harmonic_row(n)[n]",
        PLANNED,
    ),
    "a check builds its own blocks inside a run": (
        OPERATORS, "shared((\"blocks\", r, at), theorem2_blocks, r, order, m, at)",
        "theorem2_blocks(r, order, m, at)", PLANNED,
    ),
    "the ratio step k + l": (
        IDENTITIES, "c * (k - at) // k", "c * (k + at) // k",
        ("tests/test_series_routes.py::test_summed_brackets_equal_the_binomial_products",
         "tests/test_series_routes.py::test_harmonic_sums_equal_the_binomial_products"),
    ),
    "the shifted index n - r + 1": (
        OPERATORS, "table[n - r][j - r]", "table[n - r + 1][j - r]",
        ("tests/test_operators.py::test_shifted_tables_equal_the_term_by_term_sums",),
    ),
    "thm4's coefficient i + 1": (
        IDENTITIES, "fn.coeff(i - 1) * i\n", "fn.coeff(i - 1) * (i + 1)\n",
        ("tests/test_identities.py::test_thm4_instances",),
    ),
    "a zero scalar that keeps its coefficients": (
        KERNEL, "if not other:\n                return self._zero",
        "if False:\n                return self._zero",
    ),
    "a run builds a value its plan does not list": (
        TABLES, "raise LookupError(f\"{key!r} is not in the run's plan\")",
        "return store.setdefault(key, build(*args))",
        ("tests/test_identities.py::test_a_run_refuses_a_value_its_plan_does_not_list",),
    ),
    "one point fewer": (
        OPERATORS, ") + extra + 1)", ") + extra)",
        ("tests/test_identities.py::test_a_fault_that_vanishes_at_all_but_the_last_point_is_seen",),
    ),
    "recurrence factor uses n for k": (
        STIRLING, "else a0 * k + b0 * n + r +", "else a0 * n + b0 * n + r +", POINTS,
    ),
    "fault delta skipped at points": (STIRLING, "else delta.subs(at))", "else 0)", POINTS),
    "one harmonic point fewer": (
        OPERATORS, "sides(at) for at in l_points(degree, extra, family)",
        "sides(at) for at in l_points(degree - 1, extra, family)",
        ("tests/test_identities.py::"
         "test_a_harmonic_error_that_vanishes_at_all_but_the_last_point_is_seen",),
    ),
    "bracket binomial uses k + 1": (
        IDENTITIES, "c * (k - at) // k", "c * (k + 1 - at) // k", HARMONIC_POINTS,
    ),
    "interpolation drops the last point": (
        KERNEL, "for i in range(len(diffs)):", "for i in range(len(diffs) - 1):",
    ),
    "Newton basis step off by one": (
        KERNEL, "basis * cls((-i, 1)) / (i + 1)", "basis * cls((-i - 1, 1)) / (i + 1)",
    ),
    "scale is lcm(1..N-1)": (
        HARMONIC, "math.lcm(*range(1, nmax + 1))", "math.lcm(*range(1, nmax))", HARMONIC_POINTS,
    ),
    "the plan sizes the harmonic row one index short": (
        IDENTITIES, "harmonic_row, nmax, at) for at", "harmonic_row, nmax - 1, at) for at",
        PLANNED,
    ),
    "a negative --x value is left to argparse": (
        "src/qlambda/cli.py", 'in ("--lambda", "--x")', 'in ("--lambda",)',
        ("tests/test_cli.py::test_a_negative_rational_after_its_flag_equals_the_equals_form",),
    ),
}


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(dest: Path, file: str, old: str, new: str) -> None:
    path = dest / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{file}: expected one occurrence of {old!r}, found {text.count(old)}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def _run_tests(dest: Path, tests) -> tuple[int, float]:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=dest, env=env, capture_output=True, text=True)
    return proc.returncode, time.perf_counter() - t0


def _trial(edit, tests) -> tuple[int, float]:
    with tempfile.TemporaryDirectory(prefix="qlambda-mutant-") as tmp:
        dest = Path(tmp)
        _copy(dest)
        if edit is not None:
            _apply(dest, *edit)
        return _run_tests(dest, tests)


def _tests(edit) -> tuple[str, ...]:
    return edit[3] if len(edit) > 3 else TESTS


def main() -> int:
    every = dict.fromkeys(test for edit in MUTANTS.values() for test in _tests(edit))
    code, secs = _trial(None, list(every))
    print(f"{'unedited':40s} exit {code}  {secs:5.1f} s")
    if code != 0:
        print("the unedited copy fails its tests; no mutant can be judged")
        return 1
    survivors = []
    for name, edit in MUTANTS.items():
        code, secs = _trial(edit[:3], _tests(edit))
        verdict = "caught" if code != 0 else "SURVIVED"
        print(f"{name:40s} exit {code}  {secs:5.1f} s  {verdict}")
        if code == 0:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
