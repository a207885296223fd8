import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from conftest import perm_pair_strategy, perm_strategy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from odd_diagrams import classes as classes_mod
from odd_diagrams import cli, diagrams, intervals, partition, polynomials, verify
from odd_diagrams.cli import run
from odd_diagrams.perms import format_perm, parse_perm

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.with_name("src")


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


# the full text of partition and factorize on the golden classes of S_7 and S_9, byte for byte
PINNED_TEXT = {
    ("partition", "5431627", "7461523"): (
        "k=3 a=3 b=7 anchors=[3, 5, 7] m=3\n"
        "u_chain: 54[3]1[6]2[7] 54[6]1[3]2[7] 54[6]1[7]2[3]\n"
        "v_chain: 74[3]1[6]2[5] 74[6]1[3]2[5] 74[6]1[5]2[3]\n"
        "block 1 [5431627, 7431625]: 5431627 5431726 6431527 6431725 7431526 7431625\n"
        "block 2 [5461327, 7461325]: 5461327 5471326 6451327 6471325 7451326 7461325\n"
        "block 3 [5461723, 7461523]: 5461723 5471623 6451723 6471523 7451623 7461523\n"),
    ("partition", "654172839", "958172634"): (
        "k=4 a=3 b=9 anchors=[3, 5, 7, 9] m=4\n"
        "u_chain: 65[4]1[7]2[8]3[9] 65[7]1[4]2[8]3[9] 65[7]1[8]2[4]3[9] "
        "65[7]1[8]2[9]3[4]\n"
        "v_chain: 95[4]1[8]2[7]3[6] 95[8]1[4]2[7]3[6] 95[8]1[7]2[4]3[6] "
        "95[8]1[7]2[6]3[4]\n"
        "block 1 [654172839, 954182736]: 654172839 654172938 654182739 654182937 "
        "654192738 654192837 754162839 754162938 754182639 754182936 754192638 "
        "754192836 854162739 854162937 854172639 854172936 854192637 854192736 "
        "954162738 954162837 954172638 954172836 954182637 954182736\n"
        "block 2 [657142839, 958142736]: 657142839 657142938 658142739 658142937 "
        "659142738 659142837 756142839 756142938 758142639 758142936 759142638 "
        "759142836 856142739 856142937 857142639 857142936 859142637 859142736 "
        "956142738 956142837 957142638 957142836 958142637 958142736\n"
        "block 3 [657182439, 958172436]: 657182439 657192438 658172439 658192437 "
        "659172438 659182437 756182439 756192438 758162439 758192436 759162438 "
        "759182436 856172439 856192437 857162439 857192436 859162437 859172436 "
        "956172438 956182437 957162438 957182436 958162437 958172436\n"
        "block 4 [657182934, 958172634]: 657182934 657192834 658172934 658192734 "
        "659172834 659182734 756182934 756192834 758162934 758192634 759162834 "
        "759182634 856172934 856192734 857162934 857192634 859162734 859172634 "
        "956172834 956182734 957162834 957182634 958162734 958172634\n"),
    ("factorize", "5431627", "7461523"): "[3, 3, 2] = 1+3t+5t^2+5t^3+3t^4+t^5\n",
}


@pytest.mark.parametrize("command, u, v", list(PINNED_TEXT), ids=" ".join)
def test_partition_and_factorize_print_their_pinned_text(command, u, v, capsys):
    assert run([command, "--interval", u, v]) == 0
    assert capsys.readouterr().out == PINNED_TEXT[command, u, v]


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
    # a second run replaces a longer file whole, and prints what it wrote
    path.write_text("x" * 10_000)
    assert run(["hasse", "--interval", "123", "321", "--dot", str(path)]) == 0
    assert path.read_text() == dot
    capsys.readouterr()
    assert run(["hasse", "--interval", "123", "321"]) == 0
    assert capsys.readouterr().out == dot


def test_classes_report(tmp_path, capsys):
    path = tmp_path / "s4.json"
    assert run(["classes", "--n", "4", "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["schema"] == 1
    assert report["n"] == 4
    assert sum(c["size"] for c in report["classes"]) == 24
    assert all("self_dual" in c and "kl_is_one" in c for c in report["classes"])


def test_classes_builds_no_member_tuple_but_one_interval_per_shape(tmp_path, monkeypatch, capsys):
    # the report reads the ends sweep; only the one class of rank >= 3 in S_6
    # has its members built, as an interval from its anchor chain, and the
    # lifting engine is not run
    def fail(*args, **kwargs):
        raise AssertionError("class members built")

    for name in ("parity_block", "class_stream", "classes_of_sn"):
        monkeypatch.setattr(classes_mod, name, fail)
    monkeypatch.setattr(classes_mod, "BruhatInterval", fail)
    monkeypatch.setattr(intervals, "_lifting_step", fail)
    built, class_interval = [], classes_mod.class_interval
    monkeypatch.setattr(classes_mod, "class_interval",
                        lambda lo, hi: built.append(lo) or class_interval(lo, hi))
    path = tmp_path / "s6.json"
    assert run(["classes", "--n", "6", "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path} (351 classes)\n"
    assert len(json.loads(path.read_text())["classes"]) == 351
    assert len(built) == 1


def test_census(capsys):
    assert run(["census", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "non-self-dual: 0" in out


def test_a_parse_error_leaves_the_parser_usable(capsys):
    assert run(["census", "--n", "five"]) == 2
    assert "invalid int value: 'five'" in capsys.readouterr().err
    assert run(["census", "--n", "5", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == "classes: 70, non-self-dual: 0\n"


def _forbid_parsers(monkeypatch):
    """Fail the test if a line builds an ``argparse.ArgumentParser`` or
    reaches the full parser, built or kept."""
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda *args, **kwargs: pytest.fail("a parser was built"))
    monkeypatch.setattr(cli, "_parser", lambda: pytest.fail("the full parser read the line"))


def test_a_well_formed_run_builds_no_parser(monkeypatch, capsys):
    _forbid_parsers(monkeypatch)
    assert run(["census", "--n", "4", "--jobs", "1"]) == 0
    assert run(["census", "--n", "4", "--jobs", "1", "--list", "--n", "3"]) == 0
    assert run(["diagram", "--perm", "312"]) == 0
    assert capsys.readouterr().out == ("classes: 17, non-self-dual: 0\n"
                                       "classes: 5, non-self-dual: 0\n"
                                       "* # .\n. . .\n. . .\n")


def test_a_well_formed_first_run_imports_no_locale():
    # argparse's first gettext lookup imports locale; -S skips the site hook,
    # whose .pth files may import it themselves
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); from odd_diagrams import cli; "
            "code = cli.run(['diagram', '--perm', '312']); print(code, 'locale' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


# --- the line reader against the full parser ---


def _readme_cli_examples():
    """The command lines of README's CLI block, without their comments."""
    block = README.read_text().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines()]


README_EXAMPLES = _readme_cli_examples()

DIFFERENTIAL_ARGVS = [
    *README_EXAMPLES,
    *([name, "-h"] for name in cli.COMMANDS),
    [],
    ["-h"],
    ["nonsense"],
    ["cen", "--n", "7"],
    ["--", "census", "--n", "7"],
    ["census"],
    ["census", "--n", "7", "junk"],
    ["census", "--n", "7", "--lis"],
    ["census", "--n", "7", "--l"],
    ["census", "--n=7", "--jobs=1"],
    ["hasse", "--interval", "123", "321", "--dot=s3.dot"],
    ["census", "--", "--n", "7"],
    ["census", "--n", "7", "--", "junk"],
    ["census", "--n", "five"],
    ["kl", "--x", "12"],
    ["verify", "--n", "3", "--jobs", "2"],
    ["census", "--n", "4", "--jobs", "-1"],
    ["census", "--n", "4", "--jobs", "1", "--n", "3", "--list"],
    ["hasse", "--interval", "123", "--dot", "s3.dot"],
]


def test_readme_cli_examples_cover_every_command():
    assert [argv[0] for argv in README_EXAMPLES] == list(cli.COMMANDS)


@pytest.fixture
def recorded_args(monkeypatch):
    """Every command's handler replaced by one that records its arguments,
    with the full parser rebuilt from the patched table and dropped after."""
    calls = []

    def record(args):
        calls.append(vars(args))
        return 0

    monkeypatch.setattr(cli, "COMMANDS", {name: (help_text, arguments, record)
                                          for name, (help_text, arguments, _)
                                          in cli.COMMANDS.items()})
    cli._parser.cache_clear()
    yield calls
    cli._parser.cache_clear()


def _full_parser_run(argv):
    """``run`` with the full parser reading every line."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return cli.USAGE_ERROR if exc.code else 0
    return args.func(args)


@pytest.mark.parametrize("argv", DIFFERENTIAL_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_run_parses_a_line_as_the_full_parser_does(argv, recorded_args, capsys):
    code = run(argv)
    captured, calls = capsys.readouterr(), list(recorded_args)
    # a line that parses reaches its handler once, and one that does not never does
    assert len(calls) == (code == 0 and "-h" not in argv)
    recorded_args.clear()
    assert _full_parser_run(argv) == code
    assert capsys.readouterr() == captured
    assert recorded_args == calls


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_a_readme_example_is_read_with_no_parser(argv, monkeypatch):
    expected = vars(cli.build_parser().parse_args(argv))
    _forbid_parsers(monkeypatch)
    assert vars(cli.parse_args(argv)) == expected


FLAGS = sorted({flags[0] for _, arguments, _ in cli.COMMANDS.values() for flags, _ in arguments})
VALUES = ["7", "312", "-1", "", "five", " 7", "+3", "1_0", "\u0663", "123", "321", "s3.dot"]
JUNK = ["-", "--", "-h", "--help", "--n=7", "--lis", "--l", "-n", "junk", "census"]


def _flag_with_values(argument):
    """One argument's flag followed by as many values as it takes."""
    flags, options = argument
    count = 0 if options.get("action") else options.get("nargs", 1)
    return st.lists(st.sampled_from(VALUES), min_size=count, max_size=count).map(
        lambda values: [flags[0], *values])


@st.composite
def command_lines(draw):
    """A command and pieces of its line: one of its own flags with as many
    values as it takes, or one token of every row's flags, values and junk."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    own = st.sampled_from(cli.COMMANDS[name][1]).flatmap(_flag_with_values)
    token = st.sampled_from(FLAGS + VALUES + JUNK).map(lambda t: [t])
    pieces = draw(st.lists(st.one_of(own, own, own, token), max_size=6))
    return [name, *(t for piece in pieces for t in piece)]


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
def test_a_line_the_reader_reads_parses_the_same_in_the_full_parser(argv):
    args = cli._read_line(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


def test_census_list_without_findings_prints_summary_only(capsys):
    assert run(["census", "--n", "5", "--list", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == "classes: 70, non-self-dual: 0\n"


def test_census_list_prints_non_self_dual_intervals(monkeypatch, capsys):
    table = [classes_mod.class_of(parse_perm(w)) for w in ("5431627", "654172839")]
    # one parity block holding the two classes, as the census sweeps it: by their ends
    monkeypatch.setattr(classes_mod, "parity_sets", lambda n: [None])
    monkeypatch.setattr(classes_mod, "parity_block_ends", lambda n, evens, tables: [
        (diagrams.odd_diagram_key(c.bottom), c.bottom, c.top, c.rank) for c in table])
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


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two cores")
def test_census_n9_jobs_2_prints_what_jobs_1_prints(capsys):
    # a worker sends the ends of the 8 classes kept back to the parent, which prints them
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
        raise AssertionError("a sweep started")

    monkeypatch.setattr(classes_mod, "classes_of_sn", fail)
    monkeypatch.setattr(classes_mod, "parity_block_ends", fail)
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
    assert report["schema"] == 3
    assert "jobs" not in report
    assert [c["name"] for c in report["checks"]] == ["theorem_b", "factorization"]
    assert all(c["failed"] == 0 for c in report["checks"])


@pytest.mark.parametrize("argv, names", [
    (["--n", "7", "--checks", "kl_inversion"], "kl_inversion (n <= 5)"),
    (["--n", "6"], "rpoly_descent_independence (n <= 5), interval_lifting_vs_filter (n <= 5), "
                   "kl_inversion (n <= 5), kl_carrell (n <= 5)"),
    (["--n", "10", "--checks", "parity,bruhat_vs_covers"],
     "parity (n <= 9), bruhat_vs_covers (n <= 6)"),
])
def test_verify_rejects_a_check_above_its_n_limit(argv, names, monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("check ran")

    monkeypatch.setattr(verify, "CHECKS", {name: (fail, limit)
                                           for name, (_, limit) in verify.CHECKS.items()})
    monkeypatch.setattr(classes_mod, "classes_of_sn", fail)
    assert run(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: n = {argv[1]} is above the n-limit of {names}; "
                            "pass --long to run anyway\n")


def test_verify_long_lifts_the_n_limit(monkeypatch, capsys):
    ran = []

    def fake(n, result):
        ran.append(n)
        result.record(True)

    monkeypatch.setitem(verify.CHECKS, "kl_inversion", (fake, 5))
    assert run(["verify", "--n", "7", "--checks", "kl_inversion", "--long"]) == 0
    assert ran == [7]


def test_every_check_row_names_its_function_and_n_limit():
    for name, (check, limit) in verify.CHECKS.items():
        assert check.__name__ == f"check_{name}"
        assert limit >= 5
    # the full battery runs at n <= 5
    assert min(limit for _, limit in verify.CHECKS.values()) == 5


def test_verify_times_each_check(tmp_path, monkeypatch, capsys):
    def slow(n, result):
        time.sleep(0.05)
        result.record(True)

    monkeypatch.setitem(verify.CHECKS, "parity", (slow, 9))
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


def test_verify_has_no_seed_option(capsys):
    # every check is exhaustive, so there is nothing to seed
    assert run(["verify", "--n", "3", "--seed", "0"]) == 2


def test_verify_never_calls_classes_of_sn(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("classes_of_sn called")

    monkeypatch.setattr(classes_mod, "classes_of_sn", fail)
    assert verify.run_checks(4).ok


def test_verify_checks_each_block_before_sweeping_the_next(monkeypatch, capsys):
    events = []
    real_block, real_interval = classes_mod.parity_block, intervals.interval_elements

    def block(n, evens, tables):
        events.append(("swept", evens))
        return real_block(n, evens, tables)

    def interval(u, v):
        events.append(("checked", u))
        return real_interval(u, v)

    monkeypatch.setattr(classes_mod, "parity_block", block)
    monkeypatch.setattr(intervals, "interval_elements", interval)
    assert run(["verify", "--n", "4", "--checks", "theorem_b"]) == 0
    capsys.readouterr()
    expected = []
    for evens in classes_mod.parity_sets(4):
        expected.append(("swept", evens))
        expected += [("checked", members[0]) for _, members, _ in real_block(4, evens, {})]
    assert events == expected


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
    monkeypatch.setattr(classes_mod, "parity_block_ends", fail)
    assert run(["census", "--n", "8", "--jobs", "-1"]) == 2
    assert "jobs must be in 0.." in capsys.readouterr().err


def test_classes_above_guarded_n_states_its_range(capsys):
    # --long cannot lift the cap, so the message does not offer it
    assert run(["classes", "--n", "11"]) == 2
    err = capsys.readouterr().err
    assert err == "error: classes supports n <= 10\n"
    assert "allow_large" not in err


def test_census_above_guarded_n_states_its_range(capsys):
    assert run(["census", "--n", "12", "--long"]) == 2
    err = capsys.readouterr().err
    assert "census supports n <= 11" in err
    assert "allow_large" not in err


SWEEP_DEGREE_ERRORS = {
    ("classes", 0, False): "n must be positive",
    ("classes", 0, True): "n must be positive",
    ("classes", 10, False): "classes at n >= 10 requires --long",
    ("classes", 11, False): "classes supports n <= 10",
    ("classes", 11, True): "classes supports n <= 10",
    ("census", 0, False): "n must be positive",
    ("census", 0, True): "n must be positive",
    ("census", 10, False): "census at n >= 10 requires --long",
    ("census", 11, False): "census at n >= 10 requires --long",
    ("census", 12, False): "census supports n <= 11",
    ("census", 12, True): "census supports n <= 11",
}


@pytest.mark.parametrize("command, n, long", list(SWEEP_DEGREE_ERRORS))
def test_a_sweep_outside_its_degree_range_exits_2_before_sweeping(monkeypatch, capsys,
                                                                  command, n, long):
    def fail(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(classes_mod, "parity_sets", fail)
    monkeypatch.setattr(classes_mod, "parity_block", fail)
    monkeypatch.setattr(classes_mod, "parity_block_ends", fail)
    assert run([command, "--n", str(n)] + ["--long"] * long) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {SWEEP_DEGREE_ERRORS[command, n, long]}\n"
    assert captured.out == ""


def test_verify_long_streams_the_parity_blocks_above_n_10(monkeypatch, capsys):
    swept = []

    def empty_block(n, evens, tables=None):
        swept.append(n)
        return []

    monkeypatch.setattr(classes_mod, "parity_block", empty_block)
    assert run(["verify", "--n", "11", "--checks", "theorem_b", "--long"]) == 0
    captured = capsys.readouterr()
    # one parity block for each 6 of the 11 values at the even positions
    assert swept == [11] * 462
    assert "allow_large" not in captured.out + captured.err
    assert captured.out.startswith("theorem_b ")


# --- factorize and partition need the extremes of one class ---


@pytest.mark.parametrize("command", ["factorize", "partition"])
@pytest.mark.parametrize("pair", [("312", "213"), ("7461523", "5431627"), ("31425", "41523")])
def test_non_extreme_pairs_exit_2_with_one_error_line(command, pair, capsys):
    assert run([command, "--interval", *pair]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command", ["factorize", "partition"])
def test_a_pair_of_different_degree_is_a_degree_mismatch(command, capsys):
    # 12 and 123 both have an empty odd diagram, so the diagrams do not differ
    assert run([command, "--interval", "12", "123"]) == 2
    assert capsys.readouterr() == ("", "error: degree mismatch\n")


@pytest.mark.parametrize("w", ["1", "132"])
def test_partition_of_a_one_member_class_has_no_step(w, capsys):
    # a one-member class is its own minimum and maximum, with no value to split at
    assert run(["partition", "--interval", w, w]) == 2
    assert capsys.readouterr() == ("", "error: permutations are equal; no differing value\n")


def test_factorize_error_names_the_failing_end(capsys):
    assert run(["factorize", "--interval", "31425", "41523"]) == 2
    assert "41523 is not the maximum" in capsys.readouterr().err
    assert run(["factorize", "--interval", "312", "312"]) == 2
    assert "312 is not the minimum" in capsys.readouterr().err


@pytest.mark.parametrize("n", range(1, 6))
def test_only_the_class_extremes_are_accepted(n, capsys):
    for cls in classes_mod.classes_of_sn(n):
        for u in cls.elements:
            for v in cls.elements:
                args = ["--interval", format_perm(u), format_perm(v)]
                extremes = (u, v) == (cls.bottom, cls.top)
                assert (run(["factorize", *args]) == 0) == extremes
                if len(cls) > 1:
                    assert (run(["partition", *args]) == 0) == extremes
    capsys.readouterr()


def test_extremes_check_runs_before_any_work(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the extremes were checked")

    monkeypatch.setattr(partition, "_factor_lengths", fail)
    monkeypatch.setattr(partition, "_anchor_positions", fail)
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
    # no member is built
    def fail(*args):
        raise AssertionError("members were built")

    monkeypatch.setattr(partition, "_chain_members", fail)
    monkeypatch.setattr(intervals, "_lifting_step", fail)
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


def _unwritable(argv, tmp_path):
    """``argv`` and the output path it ends in: a path in a missing directory
    after a line that ends in its output flag."""
    if argv[-1].startswith("--"):
        argv = [*argv, str(tmp_path / "missing" / "out")]
    return argv, argv[-1]


@pytest.mark.parametrize("argv", [
    ["classes", "--n", "3", "--out"],
    ["hasse", "--interval", "123", "321", "--dot"],
    ["verify", "--n", "3", "--checks", "diagram_counts", "--out"],
    # the empty path is opened like any other, not taken for no path
    ["classes", "--n", "3", "--out", ""],
    ["hasse", "--interval", "123", "321", "--dot", ""],
    ["verify", "--n", "2", "--checks", "parity", "--out", ""],
])
def test_unwritable_output_path_exits_2(argv, tmp_path, capsys):
    argv, path = _unwritable(argv, tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(path) in err[0]
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [
    ["classes", "--n", "9", "--out"],
    ["hasse", "--interval", "1234", "4321", "--dot"],
    ["verify", "--n", "5", "--out"],
    ["classes", "--n", "9", "--out", ""],
    ["hasse", "--interval", "1234", "4321", "--dot", ""],
    ["verify", "--n", "5", "--out", ""],
])
def test_unwritable_output_path_fails_before_any_work(argv, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("work began before the output path was opened")

    monkeypatch.setattr(classes_mod, "classes_of_sn", fail)
    monkeypatch.setattr(classes_mod, "parity_block_ends", fail)
    monkeypatch.setattr(intervals, "interval_elements", fail)
    monkeypatch.setattr(verify, "run_checks", fail)
    argv, path = _unwritable(argv, tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(path) in err[0]


@pytest.mark.parametrize("argv", [
    ["classes", "--n", "0", "--out"],
    ["classes", "--n", "10", "--out"],
    ["verify", "--n", "0", "--out"],
    ["verify", "--n", "3", "--checks", "nonsense", "--out"],
    ["verify", "--n", "6", "--checks", "kl_inversion", "--out"],
    ["hasse", "--interval", "321", "123", "--dot"],
])
def test_rejected_arguments_leave_an_existing_output_file_untouched(argv, tmp_path, capsys):
    path = tmp_path / "out.json"
    path.write_text("kept\n")
    assert run([*argv, str(path)]) == 2
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


# --- random inputs to the commands with a member budget ---


def _argv(command, u, v):
    """The line of ``command`` on the pair (u, v): ``class`` and ``diagram``
    take u alone, ``kl`` and ``rpoly`` take x = u and y = v."""
    if command in ("class", "diagram"):
        return [command, "--perm", format_perm(u)]
    if command in ("kl", "rpoly"):
        return [command, "--x", format_perm(u), "--y", format_perm(v)]
    return [command, "--interval", format_perm(u), format_perm(v)]


def _pairs(max_n):
    """Pairs of one degree, of any two degrees, and the ends of a class, in
    S_1..S_max_n."""
    return st.one_of(perm_pair_strategy(max_n=max_n),
                     st.tuples(perm_strategy(max_n=max_n), perm_strategy(max_n=max_n)),
                     perm_strategy(max_n=max_n).map(classes_mod.class_of).map(
                         lambda cls: (cls.bottom, cls.top)))


@pytest.mark.parametrize("command", ["class", "poincare", "factorize", "partition", "hasse",
                                     "diagram", "kl", "rpoly"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_random_pair_answers_or_exits_2_with_one_error_line(command, data):
    # KL and R-polynomials are drawn in S_1..S_5, the others in S_1..S_6
    pair = data.draw(_pairs(5 if command in ("kl", "rpoly") else 6), label="pair")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(_argv(command, *pair))
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [] and out.getvalue()
    else:
        assert code == 2 and out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")


# --- random lines of the commands that sweep S_n ---

CHECK_NAME = st.sampled_from([*verify.CHECKS, "nope"])


@st.composite
def sweep_lines(draw):
    """A line of ``verify`` at n in -1..4, with --checks of known, unknown,
    empty or repeated names, or without it; or of ``census`` or ``classes``
    at n in -1..5, 10, 11 or 12, census with --jobs -1, 1 or one more than
    the cores. Each with or without --long, except that n = 10 under --long,
    a sweep of S_10 that takes seconds, and the census of n = 11 under
    --long, which takes many more, are left to their own CI steps."""
    command = draw(st.sampled_from(["verify", "census", "classes"]))
    long = draw(st.booleans())
    if command == "verify":
        n = draw(st.integers(-1, 4))
        checks = draw(st.one_of(st.none(), st.just(""),
                                CHECK_NAME.map(lambda name: f"{name},{name}"),
                                st.lists(CHECK_NAME, min_size=1, max_size=3).map(",".join)))
        options = [] if checks is None else ["--checks", checks]
    else:
        n = draw(st.sampled_from([*range(-1, 6), 10, 11, 12]))
        assume(not (long and (n == 10 or n == 11 and command == "census")))
        jobs = draw(st.sampled_from([-1, 1, (os.cpu_count() or 1) + 1]))
        options = ["--jobs", str(jobs)] if command == "census" else []
    return [command, "--n", str(n), *options] + ["--long"] * long


@settings(max_examples=80, deadline=None)
@given(argv=sweep_lines())
def test_a_random_sweep_line_answers_or_exits_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    lines = err.getvalue().splitlines()
    if code != 0:
        assert code == 2 and out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return
    assert lines == []
    command, n = argv[0], int(argv[2])
    if command == "verify":
        names = argv[4].split(",") if "--checks" in argv else list(verify.CHECKS)
        *rows, total = out.getvalue().splitlines()
        assert [row.split()[:2] for row in rows] == [[name, "ok"] for name in names]
        assert total.startswith("wall_time: ")
    elif command == "census":
        # the first non-self-dual classes are in S_9
        assert re.fullmatch(r"classes: \d+, non-self-dual: 0\n", out.getvalue())
    else:
        report = json.loads(out.getvalue())
        assert (report["schema"], report["n"]) == (1, n)
