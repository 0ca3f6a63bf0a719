"""The benchmark's tracer names only calls that exist in gammacert, and
reads the counts it reports off their results."""

import importlib
import importlib.util
import os

import pytest

from conftest import PSI_LINEAR, TOY
from gammacert import builder, stepper
from gammacert.planner import make_plan, schedule_X

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


def test_tracer_counts_toy_build():
    # the counts are read off the results of recursive_step and build, so a
    # change to their shape would otherwise break only traced benchmark runs
    originals = (builder.build, stepper.recursive_step, builder.recursive_step)
    tracer = _SPANS.Tracer()
    tracer.install()
    try:
        assert builder.build is not originals[0]
        plan = make_plan(TOY["alpha"], TOY["x0"], TOY["delta"], PSI_LINEAR,
                         TOY["steps"], theta=TOY["theta"], toy=True)
        builder.build(plan, schedule_X(plan))
    finally:
        tracer.restore()
    assert (builder.build, stepper.recursive_step, builder.recursive_step) == originals
    assert tracer.counts["stepper.verdicts"] == 45
    assert tracer.counts["builder.ledger_verdicts"] == 38
