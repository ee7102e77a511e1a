"""The layer tracer in perfbench/tracer.py wraps cohom functions by name.

Every binding it lists must resolve, so that a rename which would break
traced benchmark runs fails the test suite instead.  The tracer source is
only read and executed here; nothing under perfbench/ is written.
"""

import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


tracer = _load_tracer()
BINDINGS = sorted({b for bindings in tracer.SPANS.values() for b in bindings}
                  | set(tracer.COUNT_ONLY))


@pytest.mark.parametrize("module,attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_tracer_binding_resolves(module, attr):
    assert callable(tracer._resolve(module, attr))


def test_stage_names_are_span_names():
    assert set(tracer.STAGES) <= set(tracer.SPANS)
