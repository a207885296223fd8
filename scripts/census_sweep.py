#!/usr/bin/env python3
"""Self-duality census over a range of degrees, with timings and memory.

Each line gives the census of one n, its time, and the peak resident set
size of this process so far (``ru_maxrss``); with --jobs above 1 the
workers' peak is printed too. The census streams S_n one parity block at a
time, so the peak stays small even at n = 11. On a 2-core Intel Xeon host
with 8 GB RAM and Python 3.11.7, the n = 10 census (3,628,800
permutations) takes about 3.7 s at 26 MB with --jobs 1 and 1.9 s with
--jobs 0, and the n = 11 census (39,916,800 permutations, 8,248,273
classes, 1,978 of them not self-dual) about 36 s at 47 MB with --jobs 1 and
17 s with --jobs 0, 46 MB a worker. Both need --long.
"""

import argparse
import resource
import time

from odd_diagrams.classes import census, resolve_jobs
from odd_diagrams.cli import check_sweep_degree


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=9)
    parser.add_argument("--long", action="store_true", help="allow n = 10 and 11")
    parser.add_argument("--jobs", type=int, default=0, help="workers (0 = all cores)")
    args = parser.parse_args()
    if not 1 <= args.min_n <= args.max_n:
        parser.error(f"need 1 <= --min-n <= --max-n, got {args.min_n} and {args.max_n}")
    try:
        check_sweep_degree("census", args.max_n, args.long)
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))

    for n in range(args.min_n, args.max_n + 1):
        start = time.perf_counter()
        count, bad = census(n, jobs=jobs)
        elapsed = time.perf_counter() - start
        memory = f"peak RSS {_peak_mb(resource.RUSAGE_SELF):.0f} MB"
        if jobs > 1:
            memory += f", workers {_peak_mb(resource.RUSAGE_CHILDREN):.0f} MB"
        print(f"n={n}: classes={count} non_self_dual={len(bad)} ({elapsed:.1f}s, {memory})")


def _peak_mb(who: int) -> float:
    """Peak resident set size in MB; Linux reports ``ru_maxrss`` in KB."""
    return resource.getrusage(who).ru_maxrss / 1024


if __name__ == "__main__":
    main()
