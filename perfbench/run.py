"""Benchmark of the odd-diagrams package, run from the root of a checkout.

Usage:
    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): census, report, kl_lower, queries. Every repeat
runs in a fresh interpreter (worker.py), because a CLI user pays for cold
module memos on every invocation; repeats continue until --seconds is spent,
with at least MIN_REPEATS of them.

--trace 0 reports the end-to-end metrics: wall_s (median time of the timed
calls of one repeat), setup_s (median time from launching an interpreter
until the package is imported and the seeded inputs exist, over the repeats
and SETUP_PROBES extra launches per repeat) and peak_rss_mb (median peak
resident memory of a repeat). Both times are scaled to a host of fixed speed,
measured by a reference computation next to each sample; see
workloads.REFERENCE_PASS_S. The raw times are in the raw line. --trace 1
alternates untraced and traced repeats and reports the per-layer metrics of
tracing.py, unscaled medians over the traced repeats, plus trace_overhead_s.

Standard output ends with a JSON line of every repeat's raw values and the
environment, then the result line {"correct", "attempted", "failed",
"metrics"}. A human summary goes to standard error. The exit code is 0 when
every gate passed, 1 when one failed, 2 when the benchmark could not run.

To print every end-to-end metric of every workload:
    for w in census report kl_lower queries; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_REPEATS = 3
# launches per round that only set up, so set-up time has enough samples
SETUP_PROBES = 2
# the whole run must end within 180 s; a worker gets what is left of this
RUN_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run, as opposed to a failed gate."""


def _spawn(spec: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repeat could start")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['mode']} repeat did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("ready") - start
    return record


def measure(workload: str, params: dict, seed: int, seconds: float, trace: bool):
    """Run one workload; return (result line, raw record)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    def spec(mode):
        return {"workload": workload, "params": params, "seed": seed,
                "mode": mode, "out_dir": str(OUT_DIR)}

    modes = ("plain", "traced") if trace else ("plain",)
    min_rounds = 1 if trace else MIN_REPEATS
    probes: list[dict] = []
    rounds: list[dict] = []
    while True:
        round_start = time.monotonic()
        if not trace:
            probes += [_spawn(spec("setup"), deadline) for _ in range(SETUP_PROBES)]
        rounds.append({mode: _spawn(spec(mode), deadline) for mode in modes})
        now = time.monotonic()
        # stop before a round that would overrun the measuring time
        if len(rounds) >= min_rounds and now + (now - round_start) - start > seconds:
            break

    plain = [r["plain"] for r in rounds]
    records = [rec for r in rounds for rec in r.values()]
    if trace:
        traced = [r["traced"] for r in rounds]
        values = {name: statistics.median(t["layers"][name] for t in traced)
                  for name, _ in tracing.METRICS
                  if all(name in t["layers"] for t in traced)}
        values["trace_overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        units = dict(tracing.METRICS)
    else:
        scale = workloads.REFERENCE_PASS_S
        values = {
            "wall_s": statistics.median(p["scaled_wall_s"] for p in plain),
            "setup_s": statistics.median(r["setup_s"] * scale / r["pass_s"]
                                         for r in probes + plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = dict(END_TO_END)
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    raw = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "params": params, "environment": environment(),
        "setup_probes": probes, "repeats": rounds,
    }
    return result, raw


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": _git_sha()}


def _git_sha():
    """HEAD of the checkout, if it is a git repository; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def summary(workload: str, result: dict, raw: dict) -> str:
    n = len(raw["repeats"])
    lines = [f"{workload} seed {raw['seed']}: {n} repeat(s), attempted {result['attempted']}, "
             f"failed {result['failed']}, fail_ratio "
             f"{result['failed'] / result['attempted']:.4f}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not raw["trace"]:
        plain = [r["plain"] for r in raw["repeats"]]
        setups = [r["setup_s"] for r in raw["setup_probes"] + plain]
        lines.append(f"  unscaled medians: wall_s "
                     f"{statistics.median(p['wall_s'] for p in plain):.6g} s, "
                     f"setup_s {statistics.median(setups):.6g} s")
    for rec in (rec for r in raw["repeats"] for rec in r.values()):
        lines.extend(f"  FAIL {error}" for error in rec["errors"])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "odd_diagrams" / "__init__.py").is_file():
        print(f"error: no odd_diagrams sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, raw = measure(args.workload, workloads.FULL[args.workload],
                              args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary(args.workload, result, raw), file=sys.stderr)
    print(json.dumps(raw))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
