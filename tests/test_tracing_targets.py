"""Every span target of the benchmark tracer names something that exists.

``bench/tracing.py`` wraps functions and methods by name, so a deleted,
renamed or inherited name would break only a traced benchmark run.  This
reads the target list and looks each one up the way ``Tracer.install``
does: a method in its class's own ``__dict__``, a function as a module
attribute.  Nothing under ``bench/`` is modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("mod_name,attr", [(t[0], t[1]) for t in load_targets()])
def test_target_resolves(mod_name, attr):
    mod = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in getattr(mod, cls_name).__dict__, f"{mod_name}.{attr} is not defined on the class itself"
    else:
        assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr} does not exist"
