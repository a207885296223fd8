"""Command-line harness: diagrams, classes, polynomials, censuses, checks, and
the one degree rule of the commands that sweep S_n, ``check_sweep_degree``.

Each command is declared once, in its ``COMMANDS`` row: help text, arguments
and handler. ``build_parser`` makes the full parser, every row a subcommand.
``run`` reads a well-formed line straight from its command's row, with no
parser built, and leaves help, usage errors and any other line to the full
parser, so every message is the full parser's own."""

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
    factors = partition.factorize(u, v)
    print(f"{list(factors)} = {polynomials.expand_factors(factors).pretty('t')}")
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
    (k, anchors), blocks = partition.decompose(u, v, max_members=_member_budget(args))
    print(f"k={k} a={anchors[0]} b={anchors[-1]} anchors={list(anchors)} m={len(anchors)}")
    print("u_chain: " + " ".join(_highlight(block.bottom, anchors) for block in blocks))
    print("v_chain: " + " ".join(_highlight(block.top, anchors) for block in blocks))
    for i, block in enumerate(blocks, start=1):
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
    to_file = args.dot is not None
    with (open(args.dot, "a") if to_file else contextlib.nullcontext(sys.stdout)) as out:
        interval = intervals.interval_elements(u, v, max_members=_member_budget(args))
        if to_file:
            out.truncate(0)
        out.write(intervals.to_dot(interval) + "\n")
    if to_file:
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
    to_file = args.out is not None
    with (open(args.out, "w") if to_file else contextlib.nullcontext(sys.stdout)) as out:
        count = classes_mod.write_report(args.n, out)
    if to_file:
        print(f"wrote {args.out} ({count} classes)")
    return 0


def cmd_census(args) -> int:
    check_sweep_degree("census", args.n, args.long)
    count, ends = classes_mod.census(args.n, jobs=args.jobs)
    print(f"classes: {count}, non-self-dual: {len(ends)}")
    if args.list:
        for lo, hi in ends:
            print(f"  [{perms.format_perm(lo)}, {perms.format_perm(hi)}]")
    return 0


def cmd_verify(args) -> int:
    names = args.checks.split(",") if args.checks is not None else None
    names = verify.select_checks(args.n, names, allow_large=args.long)
    # the path is opened before the checks run, so one that cannot be written fails at once
    with (open(args.out, "w") if args.out is not None else contextlib.nullcontext()) as out:
        report = verify.run_checks(args.n, names, allow_large=args.long)
        if out is not None:
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
# subcommand of every row; ``parse_args`` reads a well-formed line from its
# row alone.
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


def _read_line(argv: list[str]) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read from the row of
    the command ``argv`` starts with, when every other token is one of that
    row's flags spelt out in full or one of its values; None for any other
    line. A value may not start with "-" and must pass the flag's type, a
    repeated flag keeps its last value, and every required flag is given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, arguments, handler = COMMANDS[argv[0]]
    # each flag's destination, as argparse names it, and its options
    row = {flags[0]: (flags[0].lstrip("-").replace("-", "_"), options)
           for flags, options in arguments}
    values = {}
    i = 1
    while i < len(argv):
        if argv[i] not in row:
            return None
        dest, options = row[argv[i]]
        if options.get("action") == "store_true":
            values[dest], i = True, i + 1
            continue
        count = options.get("nargs", 1)
        tokens = argv[i + 1:i + 1 + count]
        if len(tokens) < count or any(t.startswith("-") for t in tokens):
            return None
        try:
            converted = [options.get("type", str)(t) for t in tokens]
        except (TypeError, ValueError):
            return None
        values[dest] = converted if "nargs" in options else converted[0]
        i += 1 + count
    for dest, options in row.values():
        if dest not in values:
            if options.get("required"):
                return None
            values[dest] = options.get("default",
                                       False if options.get("action") == "store_true" else None)
    return argparse.Namespace(command=argv[0], func=handler, **values)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: a line ``_read_line`` reads needs
    no parser, and the full parser reads any other, so every help, usage and
    error message is its own; as there, SystemExit ends a line that asks for
    help or does not parse."""
    args = _read_line(argv)
    return args if args is not None else _parser().parse_args(argv)


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
