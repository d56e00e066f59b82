"""The benchmark's traced run (``perfbench/spans.py``) wraps kohnert entry
points by name.  A wrapped name that is removed or renamed in the package
fails here, not first as a failed benchmark run."""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    """``perfbench/spans.py`` as a module, compiled from its source, so no
    bytecode cache is written beside it."""
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), vars(module))
    return module


def test_span_recorder_wraps_and_restores_every_target():
    recorder = load_spans().SpanRecorder()
    targets = recorder.wrapped_attributes()
    originals = {}
    for owner, attr in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is not there to wrap"
        originals[owner, attr] = vars(owner)[attr]
    with recorder:
        for owner, attr in targets:
            assert vars(owner)[attr] is not originals[owner, attr], (owner, attr)
    for owner, attr in targets:
        assert vars(owner)[attr] is originals[owner, attr], (owner, attr)
