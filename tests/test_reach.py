"""The reach check's allowances name code that still exists.

``tools/reach.py`` runs every benchmark menu command and verify run, for
about two minutes; this checks, in well under a second, that each name its
``ALLOWED`` dict excuses is still a function or nested code object in
``src/qlambda``, and that each gives a reason.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)


def test_every_allowed_name_is_a_definition_in_src():
    names = {name for path in sorted(reach.PACKAGE.glob("*.py"))
             for name in reach.code_names(path).values()}
    assert len(names) > 200
    assert sorted(set(reach.ALLOWED) - names) == []
    assert all(reason.strip() for reason in reach.ALLOWED.values())
