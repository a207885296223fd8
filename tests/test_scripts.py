import importlib.util
import json
import pathlib
import sys

import pytest

from odd_diagrams import classes

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


def _class_sweep_exits_2_before_any_work(monkeypatch, capsys, tmp_path, max_n, *flags):
    sweep = _load("class_sweep")

    def no_table(n):
        raise AssertionError("classes_of_sn called")

    monkeypatch.setattr(classes, "classes_of_sn", no_table)
    monkeypatch.setattr(
        sys, "argv", ["class_sweep.py", "--max-n", str(max_n), "--out-dir", str(tmp_path), *flags]
    )
    with pytest.raises(SystemExit) as exc:
        sweep.main()
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_class_sweep_rejects_n_above_10_without_long(monkeypatch, capsys, tmp_path):
    err = _class_sweep_exits_2_before_any_work(monkeypatch, capsys, tmp_path, 11)
    assert err.endswith("error: classes supports n <= 10\n")


def test_class_sweep_requires_long_at_10(monkeypatch, capsys, tmp_path):
    err = _class_sweep_exits_2_before_any_work(monkeypatch, capsys, tmp_path, 10)
    assert "n >= 10 requires --long" in err


def test_class_sweep_rejects_n_above_10_with_long(monkeypatch, capsys, tmp_path):
    # --long lifts the guard at n = 10 only: the report holds its whole class table
    err = _class_sweep_exits_2_before_any_work(monkeypatch, capsys, tmp_path, 11, "--long")
    assert err.endswith("error: classes supports n <= 10\n")


def test_class_sweep_writes_one_report_per_n(monkeypatch, capsys, tmp_path):
    sweep = _load("class_sweep")
    monkeypatch.setattr(sys, "argv", ["class_sweep.py", "--max-n", "3", "--out-dir", str(tmp_path)])
    sweep.main()
    paths = [tmp_path / f"classes_s{n}.json" for n in (1, 2, 3)]
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {path} ({count} classes)" for path, count in zip(paths, (1, 2, 5))]
    assert [len(json.loads(path.read_text())["classes"]) for path in paths] == [1, 2, 5]
