"""The names the benchmark's tracer reads must exist in the package.

``perfbench/tracing.py`` leaves out a metric whose function or module state
is gone instead of failing, so a renamed public function would silently drop
its traced metrics. The benchmark's own smoke tests are not part of this
suite; this test loads the tracer's metric list and checks it against the
package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# second name parts that are module state, not functions
STATE = {"cache", "kl_memo", "r_memo"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_functions():
    tracing = _tracing()
    names = set()
    for metric, _unit in tracing.METRICS:
        parts = metric.split(".")
        if len(parts) == 3 and parts[1] not in STATE:
            names.add((parts[0], parts[1]))
    return sorted(names)


@pytest.mark.parametrize("layer,name", _traced_functions())
def test_traced_function_is_public_in_its_layer(layer, name):
    module = importlib.import_module(f"odd_diagrams.{layer}")
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn), f"odd_diagrams.{layer}.{name} is gone"
    assert fn.__module__ == f"odd_diagrams.{layer}"


def test_traced_module_state_exists():
    intervals = importlib.import_module("odd_diagrams.intervals")
    polynomials = importlib.import_module("odd_diagrams.polynomials")
    assert callable(intervals._cached_interval.cache_info)
    assert isinstance(polynomials._KL_MEMO, dict)
    assert isinstance(polynomials._R_MEMO, dict)
