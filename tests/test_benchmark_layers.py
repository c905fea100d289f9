"""The traced benchmark's layer table names functions that exist."""
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    """Every (module, function) that ``perfbench/tracing.py`` wraps is in the
    package, so deleting or renaming a traced entry point fails here and not
    in a ``--trace 1`` benchmark run. The file is read, never imported, so no
    bytecode cache is written next to it."""
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    missing = [f"{layer}: {module_name}.{fname}"
               for layer, (module_name, fnames, _) in namespace["LAYERS"].items()
               for fname in fnames
               if not callable(getattr(importlib.import_module(module_name), fname, None))]
    assert not missing
