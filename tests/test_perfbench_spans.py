"""The benchmark's tracer names only calls that exist in gammacert."""

import importlib
import importlib.util
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "perfbench", "spans.py")


def _spans_module():
    # load the file on its own; nothing is installed or patched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_SPANS = _spans_module()


@pytest.mark.parametrize("module, attr", _SPANS.SPANS + _SPANS.COUNTED,
                         ids=lambda v: str(v))
def test_traced_call_resolves(module, attr):
    # a rename in gammacert would otherwise surface only under --trace 1
    obj = importlib.import_module(f"gammacert.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
