"""The benchmark's span table names functions and methods that exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = load_spans()


@pytest.mark.parametrize("span,module_name,attr", SPANS, ids=[attr for _, _, attr in SPANS])
def test_span_target_resolves(span, module_name, attr):
    # the tracer patches a method through its class __dict__ and a function
    # as a module attribute; a missing one fails only a traced benchmark run
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name)), span
    else:
        assert callable(getattr(owner, attr, None)), span
