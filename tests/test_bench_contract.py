"""The benchmark wraps hilbcomp functions by (module, attribute) name; a
rename must fail here, not only in the traced benchmark pass."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.FUNCTIONS


@pytest.mark.parametrize("modname, attr", _functions())
def test_wrapped_function_resolves(modname, attr):
    owner = importlib.import_module(f"hilbcomp.{modname}")
    if "." in attr:
        # Tracer.install reads the method from the class __dict__
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__.get(meth))
    else:
        assert callable(getattr(owner, attr, None))
