"""The mutation gate's edits stay in step with the source they edit.

``tools/mutants.py`` runs for minutes and stops at the first edit whose
``old`` text is gone or ambiguous; this checks every edit at once, in
well under a second, and that each names tests that exist.
"""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_each_mutant_edits_exactly_one_place():
    for name, (file, old, new, *_) in mutants.MUTANTS.items():
        text = (ROOT / file).read_text(encoding="utf-8")
        assert text.count(old) == 1, (name, text.count(old))
        assert old != new, name


def test_each_mutant_names_tests_that_exist():
    for name, edit in mutants.MUTANTS.items():
        for test in mutants._tests(edit):
            path, _, function = test.partition("::")
            text = (ROOT / path).read_text(encoding="utf-8")
            assert not function or re.search(rf"^def {re.escape(function)}\(", text, re.M), \
                (name, test)
