"""One repeat of a workload in a fresh interpreter, so every module memo is cold.

Usage: python3 perfbench/worker.py '<spec json>'

The spec names the workload, its parameters, the seed, the mode ("setup":
import and make the inputs, then stop; "plain": run untraced; "traced": run
with spans) and an output directory inside the checkout. The last line of
standard output is one JSON record; ``ready`` is the ``time.monotonic()``
reading once the package is imported and the inputs exist, which the parent
turns into set-up time.
"""

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import odd_diagrams
    from odd_diagrams import cli

    if Path(odd_diagrams.__file__).resolve().parent != src / "odd_diagrams":
        print(f"odd_diagrams imported from {odd_diagrams.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads

    name, params = spec["workload"], spec["params"]
    inputs = workloads.make_inputs(name, params, spec["seed"])
    ready = time.monotonic()
    if spec["mode"] == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install("odd_diagrams")
        pass_s = None
    else:
        tracer = None
        pass_s = workloads.reference_pass_s(workloads.FIRST_SAMPLE_S)
    record = {"ready": ready, "pass_s": pass_s}
    if spec["mode"] == "setup":
        print(json.dumps(record))
        return 0

    session = workloads.Session(cli, pass_s)
    os.makedirs(spec["out_dir"], exist_ok=True)
    workloads.RUN[name](session, odd_diagrams, params, inputs, spec["out_dir"])
    record.update({
        "wall_s": session.wall_s,
        "scaled_wall_s": session.scaled_wall_s,
        "peak_rss_mb": session.peak_rss_kb / 1024,
        "attempted": session.attempted,
        "failed": session.failed,
        "errors": session.errors,
    })
    if tracer is not None:
        record["layers"] = tracer.metrics(odd_diagrams)
        tracer.write(os.path.join(spec["out_dir"], f"trace-{name}-seed{spec['seed']}.json"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
