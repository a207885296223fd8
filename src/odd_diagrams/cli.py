"""Command-line harness: diagrams, classes, polynomials, censuses, checks, and
the one degree rule of the commands that sweep S_n, ``check_sweep_degree``.

Each command is declared once, in its ``COMMANDS`` row: help text, arguments
and handler. ``build_parser`` makes the full parser, every row a subcommand.
``run`` builds and runs only the parser of the command it is given, one per
row and process, and leaves help, usage errors and any other line to the full
parser, so a call neither builds the other subparsers nor parses its line twice."""

import argparse
import contextlib
import functools
import json
import sys

from . import classes as classes_mod
from . import diagrams, intervals, partition, perms, polynomials, verify

PROG = "odd-diagrams"
USAGE_ERROR = 2
CHECK_FAILURE = 1


def _interval_args(args) -> tuple[perms.Perm, perms.Perm]:
    return tuple(map(perms.parse_perm, args.interval))


def cmd_diagram(args) -> int:
    w = perms.parse_perm(args.perm)
    print(diagrams.render_diagrams(w))
    return 0


def _member_budget(args) -> int | None:
    """The most class or interval members a command may build: no limit
    with --long."""
    return None if args.long else partition.MEMBER_BUDGET


def cmd_class(args) -> int:
    w = perms.parse_perm(args.perm)
    cls = classes_mod.class_of(w, max_members=_member_budget(args))
    print(f"min: {perms.format_perm(cls.bottom)}")
    print(f"max: {perms.format_perm(cls.top)}")
    print(f"size: {len(cls)}")
    print(f"rank_vector: {list(intervals.rank_vector(cls))}")
    print("members: " + " ".join(perms.format_perm(x) for x in cls.elements))
    return 0


def cmd_poincare(args) -> int:
    u, v = _interval_args(args)
    print(polynomials.poincare(u, v, max_members=_member_budget(args)).pretty("t"))
    return 0


def cmd_factorize(args) -> int:
    u, v = _interval_args(args)
    result = partition.factorize(u, v)
    print(f"{list(result.factor_lengths)} = {result.product.pretty('t')}")
    return 0


def _highlight(w: perms.Perm, positions) -> str:
    marked = set(positions)
    parts = []
    for i, x in enumerate(w, start=1):
        text = str(x)
        parts.append(f"[{text}]" if i in marked else text)
    sep = "," if len(w) > 9 else ""
    return sep.join(parts)


def cmd_partition(args) -> int:
    u, v = _interval_args(args)
    decomp = partition.decompose(u, v, max_members=_member_budget(args))
    step = decomp.step
    print(f"k={step.k} a={step.a} b={step.b} anchors={list(step.anchors)} m={step.m}")
    print("u_chain: " + " ".join(_highlight(w, step.anchors) for w in decomp.u_chain))
    print("v_chain: " + " ".join(_highlight(w, step.anchors) for w in decomp.v_chain))
    for i, block in enumerate(decomp.blocks, start=1):
        members = " ".join(perms.format_perm(w) for w in block.elements)
        print(f"block {i} [{perms.format_perm(block.bottom)}, "
              f"{perms.format_perm(block.top)}]: {members}")
    return 0


def cmd_kl(args) -> int:
    x, y = perms.parse_perm(args.x), perms.parse_perm(args.y)
    print(polynomials.kl_polynomial(x, y).pretty("q"))
    return 0


def cmd_rpoly(args) -> int:
    x, y = perms.parse_perm(args.x), perms.parse_perm(args.y)
    print(polynomials.r_polynomial(x, y).pretty("q"))
    return 0


def cmd_hasse(args) -> int:
    u, v = _interval_args(args)
    # the path is opened before the interval is built, so one that cannot be written fails
    # at once, and emptied only once it is built, so a rejected interval leaves it as it was
    with (open(args.dot, "a") if args.dot else contextlib.nullcontext(sys.stdout)) as out:
        interval = intervals.interval_elements(u, v, max_members=_member_budget(args))
        if args.dot:
            out.truncate(0)
        out.write(intervals.to_dot(interval) + "\n")
    if args.dot:
        print(f"wrote {args.dot} ({len(interval)} nodes)")
    return 0


def check_sweep_degree(command: str, n: int, long: bool) -> None:
    """ValueError unless ``command``, ``census`` or ``classes``, may sweep S_n:
    neither goes past n = 10, which --long cannot lift, and n = 10 needs
    --long (S_10 has 3.6M permutations). The report holds the key, ends and
    rank of every class, about 345 MB at n = 10."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > 10:
        raise ValueError(f"{command} supports n <= 10")
    if n == 10 and not long:
        raise ValueError(f"{command} at n >= 10 requires --long")


def cmd_classes(args) -> int:
    check_sweep_degree("classes", args.n, args.long)
    # the path is opened before the sweep, so one that cannot be written fails at once
    with (open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)) as out:
        count = classes_mod.write_report(args.n, out)
    if args.out:
        print(f"wrote {args.out} ({count} classes)")
    return 0


def cmd_census(args) -> int:
    check_sweep_degree("census", args.n, args.long)
    count, bad = classes_mod.census(args.n, jobs=args.jobs)
    print(f"classes: {count}, non-self-dual: {len(bad)}")
    if args.list:
        for cls in bad:
            print(f"  [{perms.format_perm(cls.bottom)}, {perms.format_perm(cls.top)}]")
    return 0


def cmd_verify(args) -> int:
    names = args.checks.split(",") if args.checks is not None else None
    names = verify.select_checks(args.n, names, allow_large=args.long)
    # the path is opened before the checks run, so one that cannot be written fails at once
    with (open(args.out, "w") if args.out else contextlib.nullcontext()) as out:
        report = verify.run_checks(args.n, names, allow_large=args.long)
        if out:
            json.dump(report.to_json(), out, indent=1)
            out.write("\n")
    for check in report.checks:
        status = "ok" if check.failed == 0 else "FAIL"
        line = (f"{check.name:34s} {status:4s} passed={check.passed} "
                f"failed={check.failed} wall_time={check.wall_time:.2f}s")
        if check.findings:
            line += f" findings={len(check.findings)}"
        print(line)
    print(f"wall_time: {report.wall_time:.2f}s")
    return 0 if report.ok else CHECK_FAILURE


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One argument of a command, as ``add_argument`` takes it."""
    return flags, options


def _long(what: str) -> tuple[tuple[str, ...], dict]:
    return _arg("--long", action="store_true", help=f"allow {what}")


_PERM = _arg("--perm", required=True)
_INTERVAL = _arg("--interval", nargs=2, required=True, metavar=("U", "V"))
_X, _Y = _arg("--x", required=True), _arg("--y", required=True)
_N = _arg("--n", type=int, required=True)

# Each command's one declaration: its name maps to (help, arguments,
# handler), in the order the usage lists them. ``build_parser`` makes a
# subcommand of every row; ``parse_args`` builds only the row it is given.
COMMANDS = {
    "diagram": ("ASCII Rothe/odd diagram of a permutation", (_PERM,), cmd_diagram),
    "class": ("odd diagram class of a permutation",
              (_PERM, _long("classes above the member budget")), cmd_class),
    "poincare": ("Poincare polynomial of [u, v]",
                 (_INTERVAL, _long("intervals above the member budget")), cmd_poincare),
    "factorize": ("factor the Poincare polynomial of a class", (_INTERVAL,), cmd_factorize),
    "partition": ("uniform partition of a class",
                  (_INTERVAL, _long("classes above the member budget")), cmd_partition),
    "kl": ("Kazhdan-Lusztig polynomial P_{x,y}", (_X, _Y), cmd_kl),
    "rpoly": ("R-polynomial R_{x,y}", (_X, _Y), cmd_rpoly),
    "hasse": ("DOT Hasse diagram of [u, v]",
              (_INTERVAL, _arg("--dot", help="output path (default: stdout)"),
               _long("intervals above the member budget")), cmd_hasse),
    "classes": ("JSON report of all classes of S_n",
                (_N, _arg("--out", help="output path PATH.json (default: stdout)"),
                 _long("long-running sizes")), cmd_classes),
    "census": ("non-self-dual class census of S_n",
               (_N, _long("long-running sizes"),
                _arg("--list", action="store_true", help="list non-self-dual classes"),
                _arg("--jobs", type=int, default=0, help="worker count (0 = all cores)")),
               cmd_census),
    "verify": ("run theorem-backed verification checks",
               (_N, _arg("--checks", help="comma-separated check names (default: all)"),
                _long("long-running sizes"),
                _arg("--out", help="write the JSON report here")), cmd_verify),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> None:
    """Give ``parser`` the arguments and handler of the command ``name``."""
    _, arguments, handler = COMMANDS[name]
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(func=handler)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command of ``COMMANDS`` as a subcommand."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Odd diagrams, Bruhat intervals, and Poincare factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``build_parser``, built on first use and kept for the
    process: a parse leaves no state in it."""
    return build_parser()


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The command ``name`` alone, as ``build_parser`` makes its subparser:
    same prog, arguments and handler, and ``command`` set to ``name``. Built
    on first use and kept for the process, one per row of ``COMMANDS``."""
    parser = argparse.ArgumentParser(prog=f"{PROG} {name}")
    _add_command(parser, name)
    parser.set_defaults(command=name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building and running only the
    parser of the command ``argv`` starts with. The full parser reads any
    other line and any line that command leaves arguments of, so every help,
    usage and error message is its own; as there, SystemExit ends a line
    that asks for help or does not parse."""
    if argv and argv[0] in COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return _parser().parse_args(argv)


def run(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        print(f"error: this input needs more than the {sys.getrecursionlimit()} nested calls "
              "Python allows", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
