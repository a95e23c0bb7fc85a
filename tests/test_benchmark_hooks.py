import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark",
                       "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _hooks():
    tr = _tracing()
    return ([(m, a) for m, a, _ in tr.SPANS + tr.COUNTED]
            + [(m, "solve") for m in tr.SOLVE_CALLERS]
            + [("hemiot.solver", "laguerre_diagram"),
               ("hemiot.solver", "_newton_step")])


@pytest.mark.parametrize("module, attr", _hooks(),
                         ids=lambda v: v)
def test_benchmark_tracer_hooks_exist(module, attr):
    # the tracer patches these module attributes from outside the package;
    # a rename must fail here rather than in a traced benchmark run
    assert hasattr(importlib.import_module(module), attr)
