"""The benchmark tracer wraps library functions by name; a rename or a
deletion in ``kstieltjes`` must fail here, not only in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import kstieltjes as ks

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("short", sorted(tracer.FUNCTIONS))
def test_functions_resolve(short):
    module = importlib.import_module(f"{ks.__name__}.{short}")
    missing = [attr for attr in tracer.FUNCTIONS[short]
               if not callable(getattr(module, attr, None))]
    assert not missing, f"{short}: {missing}"


@pytest.mark.parametrize("short, cls_name, methods", tracer.METHODS,
                         ids=[f"{s}.{c}" for s, c, _ in tracer.METHODS])
def test_methods_resolve(short, cls_name, methods):
    cls = getattr(importlib.import_module(f"{ks.__name__}.{short}"), cls_name)
    missing = [meth for meth in methods if meth not in cls.__dict__]
    assert not missing, f"{short}.{cls_name}: {missing}"
