"""One pass of one workload in a fresh interpreter.

Set-up (import, input generation, manifest files, one untimed warm-up op)
ends with a `READY` line on stdout, so the parent can time set-up from
process start.  The pass then runs every op of the workload once, closed
loop, one client, one thread, and prints one JSON object as its last line:
per op its id, latency, failure (null when correct) and time spent in the
program's checking entry points, and the times of the reference chunks run
between ops (reference.py).
Each pass being its own process keeps the program's memo caches cold, as
they are for a CLI user.

    python3 perfbench/worker.py --workload filtrate --seed 1 --workdir DIR [--trace SPANS]

With `--trace SPANS` the pass is traced and its spans are written to SPANS.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", metavar="SPANS",
                        help="trace the pass and write its spans to this file")
    args = parser.parse_args()

    import reference
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    warm_failure = workload.warm_up()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload.verify_s = 0.0
    print("READY", flush=True)

    ops = []
    refs = [reference.chunk() for _ in range(3)]
    last_ref = time.perf_counter()
    for index, (name, op) in enumerate(workload.ops):
        if tracer is not None:
            tracer.op_id = index
        verify_before = workload.verify_s
        start = time.perf_counter()
        try:
            failure = op()
        except Exception as exc:  # one failing op must not stop the pass
            failure = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        end = time.perf_counter()
        ops.append([name, end - start, failure, workload.verify_s - verify_before])
        if end - last_ref >= reference.REF_EVERY_S:
            refs.append(reference.chunk())
            last_ref = time.perf_counter()
    refs += [reference.chunk() for _ in range(3)]

    result = {
        "ops": ops,
        "refs": refs,
        "warm_failure": warm_failure,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digests": workload.digests(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
