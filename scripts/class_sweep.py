#!/usr/bin/env python3
"""Write JSON class reports for a range of symmetric group degrees, one
``classes --n k --out DIR/classes_sk.json`` run of the CLI each.

Example:
    python3 scripts/class_sweep.py --max-n 6 --out-dir reports/
"""

import argparse
import os
import sys

from odd_diagrams import cli


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
        cli.check_sweep_degree("classes", args.max_n, args.long)
    except ValueError as exc:
        parser.error(str(exc))

    os.makedirs(args.out_dir, exist_ok=True)
    for n in range(args.min_n, args.max_n + 1):
        path = os.path.join(args.out_dir, f"classes_s{n}.json")
        code = cli.run(["classes", "--n", str(n), "--out", path] + ["--long"] * args.long)
        if code:
            sys.exit(code)


if __name__ == "__main__":
    main()
