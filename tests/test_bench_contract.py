"""The benchmark's traced run wraps package functions by name; they must exist.

perfbench/spans.py lists the (module, function) pairs it wraps.  Renaming or
inlining one of them breaks the traced run, so it fails here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PACKAGE, spans.TRACED


PACKAGE, TRACED = _traced()


@pytest.mark.parametrize("module, function", TRACED)
def test_traced_function_resolves(module, function):
    # the traced run looks modules up in sys.modules: the package attribute
    # neelwall.minimize is the function, which shadows the module
    importlib.import_module(f"{PACKAGE}.{module}")
    assert callable(getattr(sys.modules[f"{PACKAGE}.{module}"], function, None))
