"""The benchmark tracer's contract: every name it wraps must exist.

`perfbench/tracer.py` swaps library names for recording wrappers by
`getattr`/`setattr` on the modules that look them up at call time.  A
library change that deletes or renames one of them breaks `--trace 1`
only when the benchmark runs, so the list is checked here.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # read only: no bytecode cache is written next to the benchmark
    flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module.WRAPS


def test_wrapped_names_resolve():
    missing = [f"sphrect.{m}.{a}" for m, a, _, _ in _wraps()
               if not callable(getattr(importlib.import_module(f"sphrect.{m}"),
                                       a, None))]
    assert not missing
