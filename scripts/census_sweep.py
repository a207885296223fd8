#!/usr/bin/env python3
"""Self-duality census over a range of degrees, with timings.

The n = 10 census enumerates 3,628,800 permutations and takes minutes;
enable it with --long.
"""

import argparse
import time

from odd_diagrams.classes import GUARDED_MAX_N, classes_of_sn
from odd_diagrams.duality import non_self_dual_classes, resolve_jobs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=9)
    parser.add_argument("--long", action="store_true", help="allow n = 10")
    parser.add_argument("--jobs", type=int, default=0, help="workers (0 = all cores)")
    args = parser.parse_args()
    if not 1 <= args.min_n <= args.max_n:
        parser.error(f"need 1 <= --min-n <= --max-n, got {args.min_n} and {args.max_n}")
    if args.max_n > GUARDED_MAX_N:
        parser.error(f"the census supports n <= {GUARDED_MAX_N}")
    if args.max_n == GUARDED_MAX_N and not args.long:
        parser.error(f"n = {GUARDED_MAX_N} requires --long")
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))

    for n in range(args.min_n, args.max_n + 1):
        start = time.perf_counter()
        classes = classes_of_sn(n)
        bad = non_self_dual_classes(classes, jobs=jobs)
        print(
            f"n={n}: classes={len(classes)} non_self_dual={len(bad)} "
            f"({time.perf_counter() - start:.1f}s)"
        )


if __name__ == "__main__":
    main()
