#!/usr/bin/env python3
"""Write JSON class reports for a range of symmetric group degrees.

Example:
    python3 scripts/class_sweep.py --max-n 6 --out-dir reports/
"""

import argparse
import pathlib
import time

from odd_diagrams.classes import classes_of_sn, write_report
from odd_diagrams.cli import check_sweep_degree


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=1)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--long", action="store_true", help="allow n >= 10")
    args = parser.parse_args()
    if not 1 <= args.min_n <= args.max_n:
        parser.error(f"need 1 <= --min-n <= --max-n, got {args.min_n} and {args.max_n}")
    try:
        check_sweep_degree("classes", args.max_n, args.long)
    except ValueError as exc:
        parser.error(str(exc))

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in range(args.min_n, args.max_n + 1):
        start = time.perf_counter()
        table = classes_of_sn(n)
        path = out_dir / f"classes_s{n}.json"
        with open(path, "w") as fh:
            write_report(table, fh)
        print(
            f"n={n}: {len(table)} classes -> {path} "
            f"({time.perf_counter() - start:.1f}s)"
        )


if __name__ == "__main__":
    main()
