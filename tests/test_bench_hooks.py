"""The benchmark's layer hooks still find frontlab's functions.

`perfbench/layers.py` wraps each instrumented function in every module
namespace that looks it up by name.  A refactor that stops importing one
of those names would only show when a traced benchmark run stops; this
test makes it a tier-1 failure instead.  The file is read, not imported,
so nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


TARGETS = _load_layers().TARGETS


@pytest.mark.parametrize(
    "module,attr,span",
    [(m, a, s) for m, a, s, _ in TARGETS],
    ids=[f"{m.__name__}.{a}" for m, a, _, _ in TARGETS],
)
def test_target_resolves_to_defining_function(module, attr, span):
    # the span is named after the defining module: "<module>.<function>"
    home, name = span.split(".")
    assert name == attr
    defining = importlib.import_module(f"frontlab.{home}")
    fn = getattr(module, attr, None)
    assert fn is not None, f"{module.__name__} no longer has {attr}"
    assert fn is getattr(defining, attr), f"{module.__name__}.{attr} is not {span}"
    assert fn.__module__ == defining.__name__
