import json
import os
import time
import tracemalloc

import pytest

from odd_diagrams import classes as classes_mod
from odd_diagrams import cli, diagrams, partition, polynomials, verify
from odd_diagrams.cli import run
from odd_diagrams.perms import format_perm, parse_perm


def test_diagram(capsys):
    assert run(["diagram", "--perm", "1432"]) == 0
    out = capsys.readouterr().out
    assert "*" in out and out.count("\n") == 4


def test_poincare(capsys):
    assert run(["poincare", "--interval", "5431627", "7461523"]) == 0
    assert capsys.readouterr().out.strip() == "1+3t+5t^2+5t^3+3t^4+t^5"


def test_factorize(capsys):
    assert run(["factorize", "--interval", "213", "312"]) == 0
    assert capsys.readouterr().out.strip() == "[2] = 1+t"


def test_partition(capsys):
    assert run(["partition", "--interval", "5431627", "7461523"]) == 0
    out = capsys.readouterr().out
    assert "k=3 a=3 b=7 anchors=[3, 5, 7] m=3" in out
    assert out.count("block") == 3


def test_class(capsys):
    assert run(["class", "--perm", "213"]) == 0
    out = capsys.readouterr().out
    assert "min: 213" in out
    assert "max: 312" in out
    assert "size: 2" in out


def test_kl_and_rpoly(capsys):
    assert run(["kl", "--x", "1234", "--y", "3412"]) == 0
    assert capsys.readouterr().out.strip() == "1+q"
    assert run(["rpoly", "--x", "12", "--y", "21"]) == 0
    assert capsys.readouterr().out.strip() == "-1+q"


def test_hasse_dot(tmp_path, capsys):
    path = tmp_path / "s3.dot"
    assert run(["hasse", "--interval", "123", "321", "--dot", str(path)]) == 0
    dot = path.read_text()
    assert dot.startswith("graph")
    assert dot.count("--") == 8


def test_classes_report(tmp_path, capsys):
    path = tmp_path / "s4.json"
    assert run(["classes", "--n", "4", "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["schema"] == 1
    assert report["n"] == 4
    assert sum(c["size"] for c in report["classes"]) == 24
    assert all("self_dual" in c and "kl_is_one" in c for c in report["classes"])


def test_census(capsys):
    assert run(["census", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "non-self-dual: 0" in out


def test_a_parse_error_leaves_the_parser_usable(capsys):
    assert run(["census", "--n", "five"]) == 2
    assert "invalid int value: 'five'" in capsys.readouterr().err
    assert run(["census", "--n", "5", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == "classes: 70, non-self-dual: 0\n"


def test_the_parser_is_built_once_across_runs(monkeypatch, capsys):
    calls = []
    build = cli.build_parser

    def counting_build_parser():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    assert run(["census", "--n", "4", "--jobs", "1"]) == 0
    assert run(["diagram", "--perm", "312"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("classes: 17, non-self-dual: 0\n")


def test_census_list_without_findings_prints_summary_only(capsys):
    assert run(["census", "--n", "5", "--list", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == "classes: 70, non-self-dual: 0\n"


def test_census_list_prints_non_self_dual_intervals(monkeypatch, capsys):
    table = [classes_mod.class_of(parse_perm(w)) for w in ("5431627", "654172839")]
    # one parity block holding the two classes
    monkeypatch.setattr(classes_mod, "parity_sets", lambda n, allow_large=False: [None])
    monkeypatch.setattr(classes_mod, "parity_block",
                        lambda n, evens, tables: [(c.key, c.members, c.lengths) for c in table])
    assert run(["census", "--n", "9", "--list", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert out == "classes: 2, non-self-dual: 1\n  [654172839, 958172634]\n"


def test_census_n8_traces_under_3_mb(capsys):
    # the census holds one parity block at a time, never the table of S_8
    tracemalloc.start()
    try:
        assert run(["census", "--n", "8", "--jobs", "1"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "classes: 13732, non-self-dual: 0\n"
    assert peak < 3 * 2**20


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two cores")
def test_census_jobs_2_prints_what_jobs_1_prints(capsys):
    assert run(["census", "--n", "8", "--list", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert run(["census", "--n", "8", "--list", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial == "classes: 13732, non-self-dual: 0\n"


@pytest.mark.long
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two cores")
def test_census_n9_jobs_2_prints_what_jobs_1_prints(capsys):
    assert run(["census", "--n", "9", "--list", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert run(["census", "--n", "9", "--list", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert serial.startswith("classes: 103873, non-self-dual: 8\n")


def test_census_n9_lists_the_eight_intervals_in_order(capsys):
    assert run(["census", "--n", "9", "--list", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == (
        "classes: 103873, non-self-dual: 8\n"
        "  [654172839, 958172634]\n"
        "  [654173829, 958173624]\n"
        "  [654271839, 958271634]\n"
        "  [654273819, 958273614]\n"
        "  [654371829, 958371624]\n"
        "  [654372819, 958372614]\n"
        "  [765431829, 968471523]\n"
        "  [765432819, 968472513]\n"
    )


def test_census_rejects_jobs_out_of_range(capsys):
    for jobs in (-1, (os.cpu_count() or 1) + 1):
        assert run(["census", "--n", "3", "--jobs", str(jobs)]) == 2
        assert "jobs must be in 0.." in capsys.readouterr().err


def test_census_requires_long_at_10(capsys):
    assert run(["census", "--n", "10"]) == 2


@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_rejects_n_below_1_with_checks(n, capsys):
    assert run(["verify", "--n", n, "--checks", "parity"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be positive\n"


def test_classes_requires_long_at_10(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("classes_of_sn called")

    monkeypatch.setattr(classes_mod, "classes_of_sn", fail)
    assert run(["classes", "--n", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: classes at n >= 10 requires --long\n"


def test_verify_ok(capsys):
    assert run(["verify", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "theorem_b" in out
    assert "FAIL" not in out


def test_verify_subset(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run([
        "verify", "--n", "4", "--checks", "theorem_b,factorization",
        "--out", str(path),
    ]) == 0
    report = json.loads(path.read_text())
    assert report["schema"] == 2
    assert "jobs" not in report
    assert [c["name"] for c in report["checks"]] == ["theorem_b", "factorization"]
    assert all(c["failed"] == 0 for c in report["checks"])


@pytest.mark.parametrize("argv, names", [
    (["--n", "7", "--checks", "kl_inversion"], "kl_inversion (n <= 5)"),
    (["--n", "6"], "rpoly_descent_independence (n <= 5), kl_inversion (n <= 5), "
                   "kl_carrell (n <= 5)"),
    (["--n", "10", "--checks", "parity,bruhat_vs_covers"],
     "parity (n <= 9), bruhat_vs_covers (n <= 6)"),
])
def test_verify_rejects_a_check_above_its_n_limit(argv, names, monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("check ran")

    monkeypatch.setattr(verify, "CHECKS", dict.fromkeys(verify.CHECKS, fail))
    monkeypatch.setattr(classes_mod, "classes_of_sn", fail)
    assert run(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: n = {argv[1]} is above the n-limit of {names}; "
                            "pass --long to run anyway\n")


def test_verify_long_lifts_the_n_limit(monkeypatch, capsys):
    ran = []

    def fake(n, rng, class_table):
        ran.append(n)
        return verify.CheckResult("kl_inversion", "exhaustive", passed=1)

    monkeypatch.setitem(verify.CHECKS, "kl_inversion", fake)
    assert run(["verify", "--n", "7", "--checks", "kl_inversion", "--long"]) == 0
    assert ran == [7]


def test_every_check_has_an_n_limit():
    assert verify.MAX_N.keys() == verify.CHECKS.keys()
    assert min(verify.MAX_N.values()) == 5  # the full battery runs at n <= 5


def test_verify_times_each_check(tmp_path, monkeypatch, capsys):
    def slow(n, rng, class_table):
        time.sleep(0.05)
        return verify.CheckResult("parity", "exhaustive", passed=1)

    monkeypatch.setitem(verify.CHECKS, "parity", slow)
    path = tmp_path / "report.json"
    assert run(["verify", "--n", "4", "--checks", "parity,theorem_b", "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    times = [check["wall_time"] for check in report["checks"]]
    assert times[0] >= 0.05 and times[1] >= 0
    assert sum(times) <= report["wall_time"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines[:2]] == [f"wall_time={t:.2f}s" for t in times]


def test_verify_unknown_check(capsys):
    assert run(["verify", "--n", "3", "--checks", "nope"]) == 2


def test_verify_empty_checks_is_an_unknown_check(capsys):
    # an empty list names the check "", not the whole battery
    assert run(["verify", "--n", "3", "--checks", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: unknown checks: ['']")


def test_verify_rejects_a_repeated_check(monkeypatch, capsys):
    monkeypatch.setattr(verify, "run_checks", lambda *a, **k: pytest.fail("checks ran"))
    assert run(["verify", "--n", "3", "--checks", "parity,parity"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert errors == ["error: checks named more than once: ['parity']"]


def test_verify_has_no_jobs_option(capsys):
    assert run(["verify", "--n", "3", "--jobs", "2"]) == 2


def test_verify_builds_the_class_table_at_most_once(monkeypatch):
    builds = []
    build = classes_mod.classes_of_sn
    monkeypatch.setattr(classes_mod, "classes_of_sn", lambda n: builds.append(n) or build(n))
    assert verify.run_checks(4).ok
    assert builds == [4]
    assert verify.run_checks(4, ["diagram_counts", "top_heavy"]).ok
    assert builds == [4]


def test_parity_check_fails_on_a_class_spanning_two_parity_blocks(monkeypatch):
    # 123 and 132 have different values at even positions; a key that puts
    # them in one class fails the check, although the class table, built
    # one parity block at a time, never calls odd_diagram_key
    assert verify.run_checks(3, ["parity"]).ok
    real = diagrams.odd_diagram_key
    merged = {(1, 3, 2): real((1, 2, 3))}
    monkeypatch.setattr(diagrams, "odd_diagram_key", lambda w: merged.get(w, real(w)))
    check = verify.run_checks(3, ["parity"]).checks[0]
    assert (check.passed, check.failed, check.findings) == (3, 1, [{"min": "123"}])


def test_kl_checks_catch_a_wrong_kl_polynomial(monkeypatch):
    real = polynomials.kl_polynomial

    def flattened(x, y):  # reports P_{1234,3412} = 1 + q as 1
        p = real(x, y)
        return polynomials.one() if p.degree > 0 else p

    monkeypatch.setattr(polynomials, "kl_polynomial", flattened)
    report = verify.run_checks(4, ["kl_inversion", "kl_carrell", "kl_class_probe"])
    assert [c.failed > 0 for c in report.checks] == [True, True, False]


def test_usage_errors(capsys):
    assert run(["poincare", "--interval", "21", "12"]) == 2
    assert run(["diagram", "--perm", "1,1,2"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["classes", "--n", "11"]) == 2


def test_census_checks_jobs_before_building_the_table(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("class table built before --jobs was checked")

    monkeypatch.setattr(classes_mod, "parity_sets", fail)
    monkeypatch.setattr(classes_mod, "parity_block", fail)
    assert run(["census", "--n", "8", "--jobs", "-1"]) == 2
    assert "jobs must be in 0.." in capsys.readouterr().err


def test_classes_above_guarded_n_names_the_long_flag(capsys):
    assert run(["classes", "--n", "11"]) == 2
    err = capsys.readouterr().err
    assert "--long" in err
    assert "allow_large" not in err


def test_census_above_guarded_n_states_its_range(capsys):
    assert run(["census", "--n", "11", "--long"]) == 2
    err = capsys.readouterr().err
    assert "census supports n <= 10" in err
    assert "allow_large" not in err


# --- factorize and partition need the extremes of one class ---


@pytest.mark.parametrize("command", ["factorize", "partition"])
@pytest.mark.parametrize("pair", [("312", "213"), ("7461523", "5431627"), ("31425", "41523")])
def test_non_extreme_pairs_exit_2_with_one_error_line(command, pair, capsys):
    assert run([command, "--interval", *pair]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_factorize_error_names_the_failing_end(capsys):
    assert run(["factorize", "--interval", "31425", "41523"]) == 2
    assert "41523 is not the maximum" in capsys.readouterr().err
    assert run(["factorize", "--interval", "312", "312"]) == 2
    assert "312 is not the minimum" in capsys.readouterr().err


@pytest.mark.parametrize("n", range(1, 6))
def test_only_the_class_extremes_are_accepted(n, capsys):
    for cls in classes_mod.classes_of_sn(n):
        for u in cls.members:
            for v in cls.members:
                args = ["--interval", format_perm(u), format_perm(v)]
                extremes = (u, v) == (cls.min_elem, cls.max_elem)
                assert (run(["factorize", *args]) == 0) == extremes
                if len(cls) > 1:
                    assert (run(["partition", *args]) == 0) == extremes
    capsys.readouterr()


def test_extremes_check_runs_before_any_work(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the extremes were checked")

    monkeypatch.setattr(partition, "_factor_lengths", fail)
    monkeypatch.setattr(partition, "_anchor_step", fail)
    assert run(["factorize", "--interval", "7461523", "5431627"]) == 2
    assert run(["partition", "--interval", "7461523", "5431627"]) == 2


# --- the member budget of class and partition ---


def _interleaved(n):
    """1, n/2 + 1, 2, n/2 + 2, ...: a class of (n/2)! members."""
    half = n // 2
    return ",".join(f"{i},{i + half}" for i in range(1, half + 1))


def _reversed_halves(n):
    """1, n, 2, n - 1, ...: the maximum of the class of ``_interleaved(n)``."""
    return ",".join(f"{i},{n + 1 - i}" for i in range(1, n // 2 + 1))


@pytest.mark.parametrize("argv", [
    ["class", "--perm", _interleaved(20)],
    ["partition", "--interval", _interleaved(20), _reversed_halves(20)],
])
def test_a_class_above_the_member_budget_exits_2_at_once(argv, monkeypatch, capsys):
    # 10! = 3,628,800 members; the size comes from the factor lengths, and
    # no interval is built
    def fail(*args):
        raise AssertionError("an interval was built")

    monkeypatch.setattr(classes_mod, "interval_elements", fail)
    monkeypatch.setattr(partition, "interval_elements", fail)
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the class [{_interleaved(20)}, {_reversed_halves(20)}] "
                            f"has 3628800 members, more than {partition.MEMBER_BUDGET}; "
                            "pass --long to run anyway\n")


def test_a_class_within_the_member_budget_answers(capsys):
    assert run(["class", "--perm", _interleaved(14)]) == 0
    assert "size: 5040\n" in capsys.readouterr().out


@pytest.mark.parametrize("command, args", [
    ("class", ["--perm", "5431627"]),
    ("partition", ["--interval", "5431627", "7461523"]),
])
def test_long_lifts_the_member_budget(command, args, monkeypatch, capsys):
    monkeypatch.setattr(partition, "MEMBER_BUDGET", 17)
    assert run([command, *args]) == 2
    assert "has 18 members, more than 17;" in capsys.readouterr().err
    assert run([command, *args, "--long"]) == 0
    assert capsys.readouterr().err == ""


# --- the member budget of poincare and hasse ---


@pytest.mark.parametrize("command", ["poincare", "hasse"])
def test_an_interval_above_the_member_budget_exits_2_within_seconds(command, capsys):
    # [e, w0] in S_9 has 9! = 362,880 members; the lifting stops once it
    # holds more than the budget
    start = time.perf_counter()
    assert run([command, "--interval", "123456789", "987654321"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: building [123456789, 987654321] takes more than "
                            f"{partition.MEMBER_BUDGET} members; pass --long to run anyway\n")


@pytest.mark.parametrize("argv", [
    ["poincare", "--interval", "5431627", "7461523"],
    ["hasse", "--interval", "1234", "4321"],
])
def test_an_interval_within_the_member_budget_prints_the_same_with_long(argv, capsys):
    assert run(argv) == 0
    plain = capsys.readouterr()
    assert plain.err == "" and plain.out
    assert run([*argv, "--long"]) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("command", ["poincare", "hasse"])
def test_long_lifts_the_interval_member_budget(command, monkeypatch, capsys):
    # [1234, 4321] has 24 members
    monkeypatch.setattr(partition, "MEMBER_BUDGET", 23)
    assert run([command, "--interval", "1234", "4321"]) == 2
    assert "takes more than 23 members;" in capsys.readouterr().err
    assert run([command, "--interval", "1234", "4321", "--long"]) == 0
    assert capsys.readouterr().err == ""


# --- unwritable output paths ---


@pytest.mark.parametrize("argv", [
    ["classes", "--n", "3", "--out"],
    ["hasse", "--interval", "123", "321", "--dot"],
    ["verify", "--n", "3", "--checks", "diagram_counts", "--out"],
])
def test_unwritable_output_path_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out"
    assert run([*argv, str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
    assert not path.parent.exists()


@pytest.mark.parametrize("argv", [
    ["classes", "--n", "9", "--out"],
    ["verify", "--n", "5", "--out"],
])
def test_unwritable_output_path_fails_before_any_work(argv, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("work began before the output path was opened")

    monkeypatch.setattr(classes_mod, "classes_of_sn", fail)
    monkeypatch.setattr(verify, "run_checks", fail)
    path = tmp_path / "missing" / "out"
    assert run([*argv, str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


@pytest.mark.parametrize("argv", [
    ["classes", "--n", "0"],
    ["classes", "--n", "10"],
    ["verify", "--n", "0"],
    ["verify", "--n", "3", "--checks", "nonsense"],
    ["verify", "--n", "6", "--checks", "kl_inversion"],
])
def test_rejected_arguments_leave_an_existing_output_file_untouched(argv, tmp_path, capsys):
    path = tmp_path / "out.json"
    path.write_text("kept\n")
    assert run([*argv, "--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert path.read_text() == "kept\n"


def _w0(n):
    return list(range(n, 0, -1))


def _joined(w):
    return ",".join(map(str, w))


@pytest.mark.parametrize("command, x, y", [
    # x = w0 (1 40) in S_40
    ("kl", _joined([1, *_w0(40)[1:-1], 40]), _joined(_w0(40))),
    # a cover pair of S_50 (R = q - 1): w0 with its last two entries swapped
    ("rpoly", _joined([*_w0(50)[:-2], 1, 2]), _joined(_w0(50))),
], ids=["kl", "rpoly"])
def test_a_recursion_too_deep_exits_2_with_one_error_line(command, x, y, capsys):
    assert run([command, "--x", x, "--y", y]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
