"""Every name the benchmark's tracer wraps still resolves in qlambda.

``perfbench/tracing.py`` rebinds functions and kernel methods by name, so
a traced name deleted from qlambda makes every traced benchmark worker
fail at install time.  This test reads ``perfbench/`` and changes nothing
there.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from qlambda import identities, kernel

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    for layer, (cls_name, methods) in tracing.KERNEL_LAYERS.items():
        cls = getattr(kernel, cls_name)
        for method in methods:
            assert callable(cls.__dict__.get(method)), (layer, method)
    for layer, (mod_name, names) in tracing.SPAN_LAYERS.items():
        module = importlib.import_module(mod_name)
        names = names or tracing._module_functions(layer, module)
        assert names, layer
        for name in names:
            assert callable(getattr(module, name, None)), (layer, name)
    for check_id, names in tracing.CHECK_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(identities, name, None)), (check_id, name)
    assert sorted(identities._RUNNERS) == sorted(tracing.CHECK_IDS)
    assert sorted(tracing.CHECK_IDS) == sorted(identities.CHECK_IDS)


def test_cli_import_loads_every_module_the_tracer_reads():
    # the benchmark's worker imports only qlambda.cli, then the tracer looks each
    # module up in sys.modules; importing them here, as above, would hide a missing one
    tracing = _tracing()
    needed = {mod for mod, _ in tracing.SPAN_LAYERS.values()} | {"qlambda.kernel",
                                                                  "qlambda.identities"}
    code = "import sys; from qlambda import cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert sorted(needed - set(proc.stdout.split())) == []
