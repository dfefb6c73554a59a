"""The traced benchmark's wrap targets still exist.

``perfbench/run.py --trace 1`` times the program layer by layer by
wrapping every function that ``perfbench/spans.py`` lists in
``LAYER_FUNCTIONS``.  ``spans.install`` reads a class attribute from the
class's own ``__dict__``, so a method that moves to a base class, or is
renamed or deleted, makes the traced run fail with a ``KeyError``.  The
untraced runs never resolve these targets, so this test does, exactly as
``install`` does, without wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYER_FUNCTIONS = load_spans().LAYER_FUNCTIONS


@pytest.mark.parametrize(
    "layer,module_name,attribute", LAYER_FUNCTIONS, ids=lambda part: str(part)
)
def test_wrap_target_resolves(layer, module_name, attribute):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        assert leaf in owner.__dict__, (
            f"{module_name}.{attribute} is not defined in the body of "
            f"{owner.__name__}; spans.install reads {owner.__name__}.__dict__"
        )
        target = owner.__dict__[leaf]
    else:
        target = getattr(owner, leaf)
    assert callable(target)
