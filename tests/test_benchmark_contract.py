"""The names the benchmark's tracer reads must exist in the package, and
the command lines its workloads send must parse.

``perfbench/tracing.py`` leaves out a metric whose function or module state
is gone instead of failing, so a renamed public function would silently drop
its traced metrics. The benchmark's own smoke tests are not part of this
suite; this test loads the tracer's metric list and checks it against the
package.
"""

import argparse
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from odd_diagrams import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")
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


# every command line ``perfbench/workloads.py`` sends through ``cli.run``
BENCHMARK_COMMANDS = [
    ["census", "--n", "7", "--jobs", "1"],
    ["classes", "--n", "7", "--out", "P"],
    ["class", "--perm", "654172839"],
    ["factorize", "--interval", "5431627", "7461523"],
    ["poincare", "--interval", "5431627", "7461523"],
    ["partition", "--interval", "5431627", "7461523"],
]


@pytest.mark.parametrize("argv", BENCHMARK_COMMANDS, ids=lambda argv: argv[0])
def test_cli_parses_every_benchmark_command(argv, monkeypatch):
    # straight from the command's row, with no parser built, as the full parser would
    expected = vars(cli.build_parser().parse_args(argv))
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda *args, **kwargs: pytest.fail("a parser was built"))
    monkeypatch.setattr(cli, "_parser", lambda: pytest.fail("the full parser read the line"))
    args = cli.parse_args(argv)
    assert args.command == argv[0]
    assert callable(args.func)
    assert vars(args) == expected


def _command_and_options(argv):
    return (argv[0],) + tuple(a for a in argv[1:] if a.startswith("--"))


def test_benchmark_commands_cover_the_workloads():
    # each ``s.cli(...)`` call in the workloads sits on one line
    sent = {
        _command_and_options(re.findall(r'"([^"]*)"', line.split("s.cli(", 1)[1]))
        for line in WORKLOADS.read_text().splitlines()
        if "s.cli(" in line
    }
    assert sent == {_command_and_options(argv) for argv in BENCHMARK_COMMANDS}
