"""The benchmark tracer's target names exist in mvflow.

perfbench/tracer.py wraps mvflow functions by name from outside the
package.  A name it lists that mvflow no longer has would only surface when
the benchmark runs; these tests load the tracer's tables (without installing
anything) and fail as soon as such a name is removed or renamed.
"""
import importlib
import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_module_target_exists(tracer):
    # the tracer looks each name up in the module's own namespace
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.MODULE_TARGETS
               if attr not in vars(importlib.import_module(mod))]
    assert missing == []


def test_every_method_target_exists(tracer):
    missing = [f"{mod}.{cls}.{meth}" for mod, cls, meth, _ in tracer.METHOD_TARGETS
               if meth not in vars(getattr(importlib.import_module(mod), cls, object))]
    assert missing == []
