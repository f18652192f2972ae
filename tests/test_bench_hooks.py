"""The names the benchmark's tracer wraps must exist in mflab.

perfbench/spans.py replaces each (module, name) in its TARGETS with a
wrapper when a traced run starts; a name that was renamed or deleted would
only fail there.  This checks the names without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in _targets().items() for name in names])
def test_traced_names_exist(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
