"""The names the benchmark's tracer wraps must exist in mflab, with the
argument names it reads.

perfbench/spans.py replaces each (module, name) in its TARGETS with a
wrapper when a traced run starts, and derives span attributes from the
call's bound arguments by name (its _ATTRS); a name or an argument that was
renamed or deleted would only fail there.  This checks both without
installing anything.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path
from unittest.mock import MagicMock

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS_MOD = _spans()


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in SPANS_MOD.TARGETS.items() for name in names])
def test_traced_names_exist(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


class ReadKeys:
    """Stands in for the bound arguments a span's attribute function gets:
    records every key it reads and answers with the path of an existing
    file (the cache attributes take its size)."""

    def __init__(self) -> None:
        self.read: list[str] = []

    def __getitem__(self, key: str) -> str:
        self.read.append(key)
        return __file__


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in SPANS_MOD.TARGETS.items() for name in names
    if name in SPANS_MOD._ATTRS])
def test_traced_attributes_read_parameters_of_the_wrapped_function(module, name):
    fn = getattr(importlib.import_module(module), name)
    params = inspect.signature(fn).parameters
    args = ReadKeys()
    SPANS_MOD._ATTRS[name](args, MagicMock())
    unknown = sorted(set(args.read) - set(params))
    assert not unknown, f"{module}.{name}{inspect.signature(fn)} has no parameter {unknown}"
