#!/usr/bin/env python3
"""Self-duality census over a range of degrees, with timings and memory.

Each line gives the census of one n, its time, and the peak resident set
size of this process so far (``ru_maxrss``); with --jobs above 1 the
workers' peak is printed too. The census streams S_n one parity block at a
time, so the peak stays small even at n = 10. The n = 10 census
enumerates 3,628,800 permutations and takes about 4.9 s at 22 MB with
--jobs 1 and 2.7 s with --jobs 0 on a 2-core Intel Xeon host with 8 GB RAM
and Python 3.11.7; enable it with --long.
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
    parser.add_argument("--long", action="store_true", help="allow n = 10")
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
