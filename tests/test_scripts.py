import importlib.util
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-n", "10"], "requires --long"),
        (["--max-n", "12", "--long"], "supports n <= 10"),
        (["--max-n", "3", "--jobs", "-1"], "jobs must be in"),
        (["--min-n", "0"], "need 1 <= --min-n <= --max-n"),
    ],
)
def test_census_sweep_rejects_bad_flags_before_any_work(monkeypatch, capsys, argv, message):
    sweep = _load("census_sweep")

    def no_census(n, jobs=1):
        raise AssertionError("census called")

    monkeypatch.setattr(sweep, "census", no_census)
    monkeypatch.setattr(sys, "argv", ["census_sweep.py", *argv])
    with pytest.raises(SystemExit) as exc:
        sweep.main()
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_census_sweep_runs_a_small_range(monkeypatch, capsys):
    sweep = _load("census_sweep")
    monkeypatch.setattr(sys, "argv", ["census_sweep.py", "--max-n", "4", "--jobs", "1"])
    sweep.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines] == [
        "n=2: classes=2 non_self_dual=0",
        "n=3: classes=5 non_self_dual=0",
        "n=4: classes=17 non_self_dual=0",
    ]
