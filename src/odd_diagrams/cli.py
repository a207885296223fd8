"""Command-line harness: diagrams, classes, polynomials, censuses, checks."""

import argparse
import contextlib
import functools
import json
import sys

from . import classes as classes_mod
from . import diagrams, intervals, partition, perms, polynomials, verify

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
    print(f"min: {perms.format_perm(cls.min_elem)}")
    print(f"max: {perms.format_perm(cls.max_elem)}")
    print(f"size: {len(cls.members)}")
    print(f"rank_vector: {list(intervals.rank_vector(cls.interval))}")
    print("members: " + " ".join(perms.format_perm(x) for x in cls.members))
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
    interval = intervals.interval_elements(u, v, max_members=_member_budget(args))
    dot = intervals.to_dot(interval)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot + "\n")
        print(f"wrote {args.dot} ({len(interval)} nodes)")
    else:
        print(dot)
    return 0


def cmd_classes(args) -> int:
    if args.n >= classes_mod.GUARDED_MAX_N and not args.long:
        raise ValueError(f"classes at n >= {classes_mod.GUARDED_MAX_N} requires --long")
    classes_mod.check_degree(args.n, allow_large=args.long)
    # the path is opened before the sweep, so one that cannot be written fails at once
    with (open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)) as out:
        table = classes_mod.classes_of_sn(args.n, allow_large=args.long)
        classes_mod.write_report(table, out)
    if args.out:
        print(f"wrote {args.out} ({len(table)} classes)")
    return 0


def cmd_census(args) -> int:
    if args.n > classes_mod.GUARDED_MAX_N:
        raise ValueError(f"census supports n <= {classes_mod.GUARDED_MAX_N}")
    if args.n >= 10 and not args.long:
        raise ValueError("census at n >= 10 requires --long")
    count, bad = classes_mod.census(args.n, jobs=args.jobs)
    print(f"classes: {count}, non-self-dual: {len(bad)}")
    if args.list:
        for cls in bad:
            print(f"  [{perms.format_perm(cls.min_elem)}, "
                  f"{perms.format_perm(cls.max_elem)}]")
    return 0


def cmd_verify(args) -> int:
    names = args.checks.split(",") if args.checks is not None else None
    names = verify.select_checks(args.n, names, allow_large=args.long)
    # the path is opened before the checks run, so one that cannot be written fails at once
    with (open(args.out, "w") if args.out else contextlib.nullcontext()) as out:
        report = verify.run_checks(args.n, names, seed=args.seed, allow_large=args.long)
        if out:
            json.dump(report.to_json(), out, indent=1)
            out.write("\n")
    for check in report.checks:
        status = "ok" if check.failed == 0 else "FAIL"
        line = (f"{check.name:34s} {status:4s} passed={check.passed} "
                f"failed={check.failed} scope={check.scope} wall_time={check.wall_time:.2f}s")
        if check.findings:
            line += f" findings={len(check.findings)}"
        print(line)
    print(f"wall_time: {report.wall_time:.2f}s")
    return 0 if report.ok else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odd-diagrams",
        description="Odd diagrams, Bruhat intervals, and Poincare factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagram", help="ASCII Rothe/odd diagram of a permutation")
    p.add_argument("--perm", required=True)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("class", help="odd diagram class of a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--long", action="store_true", help="allow classes above the member budget")
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("poincare", help="Poincare polynomial of [u, v]")
    p.add_argument("--interval", nargs=2, required=True, metavar=("U", "V"))
    p.add_argument("--long", action="store_true", help="allow intervals above the member budget")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("factorize", help="factor the Poincare polynomial of a class")
    p.add_argument("--interval", nargs=2, required=True, metavar=("U", "V"))
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("partition", help="uniform partition of a class")
    p.add_argument("--interval", nargs=2, required=True, metavar=("U", "V"))
    p.add_argument("--long", action="store_true", help="allow classes above the member budget")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("kl", help="Kazhdan-Lusztig polynomial P_{x,y}")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("rpoly", help="R-polynomial R_{x,y}")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_rpoly)

    p = sub.add_parser("hasse", help="DOT Hasse diagram of [u, v]")
    p.add_argument("--interval", nargs=2, required=True, metavar=("U", "V"))
    p.add_argument("--dot", help="output path (default: stdout)")
    p.add_argument("--long", action="store_true", help="allow intervals above the member budget")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("classes", help="JSON report of all classes of S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="output path PATH.json (default: stdout)")
    p.add_argument("--long", action="store_true", help="allow long-running sizes")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("census", help="non-self-dual class census of S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--long", action="store_true", help="allow long-running sizes")
    p.add_argument("--list", action="store_true", help="list non-self-dual classes")
    p.add_argument("--jobs", type=int, default=0, help="worker count (0 = all cores)")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run theorem-backed verification checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checks", help="comma-separated check names (default: all)")
    p.add_argument("--long", action="store_true", help="allow long-running sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``build_parser``, built on first use and kept for the
    process: a parse leaves no state in it."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
