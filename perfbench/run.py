"""phantomcover benchmark: one run of one workload.

    python3 perfbench/run.py --workload filtrate|cover|suite --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats passes of the workload,
each in a fresh interpreter (perfbench/worker.py), while the next pass is
expected to end within `--seconds`, and at least MIN_PASSES passes of each
kind.  Every pass runs the same seeded input set from cold memo caches.
Times are scaled to the reference speed (perfbench/reference.py), and each
op's latency is its median over the passes.

With `--trace 0` passes are untraced and the run reports the end-to-end
metrics.  With `--trace 1` untraced and traced passes alternate and the run
reports the per-layer metrics of the traced passes, whose counts must repeat
exactly, plus the tracing overhead.  Every metric is printed by name with its
unit; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Spans of the last traced pass go to
.perfbench_work/spans-<workload>.tsv.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("filtrate", "cover", "suite")
MIN_PASSES = 3
DEADLINE_S = 170

# (name, unit) of every end-to-end metric and every per-layer metric.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("verify_s", "s"), ("peak_rss_mb", "MB"))
# Per-layer times are kept only for layers every workload reaches; the
# others are reported as counts here and as self times in the printed table.
PER_LAYER = (
    ("exact_linalg.self_s", "s"), ("exact_linalg.snf.self_s", "s"),
    ("exact_linalg.snf.calls", "count"), ("exact_linalg.solve_mod.calls", "count"),
    ("exact_linalg.snf.max_bits", "bits"),
    ("finmod.self_s", "s"), ("finmod.contains.calls", "count"),
    ("finmod.morphisms_built", "count"), ("finmod.solve_left_factor.calls", "count"),
    ("finmod.pure_closure.calls", "count"),
    ("ideals.self_s", "s"), ("ideals.is_phantom.calls", "count"),
    ("rep_a2.quotient_rep.calls", "count"),
    ("approx.probes_checked", "count"), ("approx.is_precover.calls", "count"),
    ("approx.is_cover.calls", "count"),
    ("filtration.steps", "count"), ("filtration.contains_per_step", "ratio"),
    ("filtration.build.calls", "count"), ("filtration.verify.calls", "count"),
    ("manifest.bytes", "bytes"), ("manifest.parse.calls", "count"),
    ("manifest.serialize.calls", "count"), ("cli.calls", "count"),
    ("samplers.calls", "count"), ("oracles.calls", "count"),
    ("verify.run_property.calls", "count"), ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)
# per-layer name -> span name whose calls or self time it reports
SPAN_OF = {
    "exact_linalg.snf": "exact_linalg.smith_normal_form",
    "exact_linalg.solve_mod": "exact_linalg.solve_mod",
    "finmod.contains": "finmod.Submodule.contains",
    "finmod.solve_left_factor": "finmod.solve_left_factor",
    "finmod.pure_closure": "finmod.pure_closure_counted",
    "ideals.is_phantom": "ideals.is_phantom",
    "rep_a2.quotient_rep": "rep_a2.quotient_rep",
    "approx.is_precover": "approx.is_precover",
    "approx.is_cover": "approx.is_cover",
    "filtration.build": "filtration.build_filtration",
    "filtration.verify": "filtration.verify_filtration",
    "manifest.parse": "manifest.parse",
    "manifest.serialize": "manifest.serialize",
    "cli": "cli.main",
    "verify.run_property": "verify.run_property",
}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def run_pass(workload, seed, workdir, deadline, spans=None):
    """Run one worker, traced if given a spans file; returns (set-up
    seconds, result dict)."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if spans:
        cmd += ["--trace", spans]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("pass overran the run deadline") from None
    if ready.strip() != "READY" or proc.returncode != 0 or not rest.strip():
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return normalise(setup, json.loads(rest.strip().splitlines()[-1]))


def normalise(setup, result):
    """Scale every time of one pass to the reference speed: by
    REF_NOMINAL_S over the pass's median reference chunk.  The raw pass
    wall time and the scale stay in the result for the printed context."""
    scale = reference.REF_NOMINAL_S / statistics.median(result["refs"])
    result["scale"] = scale
    result["raw_wall_s"] = sum(op[1] for op in result["ops"])
    for op in result["ops"]:
        op[1] *= scale
        op[3] *= scale
    if "trace" in result:
        summary = result["trace"]
        for span in summary["spans"].values():
            span["self_s"] *= scale
        for layer in summary["layers"]:
            summary["layers"][layer] *= scale
    return setup * scale, result


def op_medians(passes, field):
    """Per op, the median of one field (1 latency, 3 checking time) across
    passes.  Medians per op shed the passes an op ran in a slow spell of the
    host; the pass totals reported are sums of these medians."""
    count = len(passes[0][1]["ops"])
    return [statistics.median(r["ops"][k][field] for _, r in passes)
            for k in range(count)]


def tail(latencies):
    """(value, percentile) at the highest percentile with >= 10 ops beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def per_layer(summary):
    spans, counters = summary["spans"], summary["counters"]

    def calls(key):
        return spans.get(SPAN_OF[key], {}).get("calls", 0)

    def calls_prefix(layer):
        return sum(v["calls"] for k, v in spans.items() if k.startswith(layer + "."))

    steps = counters["filtration.steps"]
    values = {
        "exact_linalg.self_s": summary["layers"]["exact_linalg"],
        "exact_linalg.snf.self_s": spans.get(SPAN_OF["exact_linalg.snf"], {}).get("self_s", 0.0),
        "finmod.self_s": summary["layers"]["finmod"],
        "ideals.self_s": summary["layers"]["ideals"],
        "exact_linalg.snf.max_bits": counters["exact_linalg.snf.max_bits"],
        "finmod.morphisms_built": spans.get("finmod.ModuleMorphism.__post_init__", {}).get("calls", 0),
        "approx.probes_checked": counters["approx.probes_checked"],
        "filtration.steps": steps,
        "filtration.contains_per_step":
            counters["filtration.build.contains"] / steps if steps else 0.0,
        "manifest.bytes": counters["manifest.bytes"],
        "samplers.calls": calls_prefix("samplers"),
        "oracles.calls": calls_prefix("oracles"),
        "trace.spans": counters["spans"],
    }
    for key in SPAN_OF:
        values.setdefault(key + ".calls", calls(key))
    return values


def src_lines(src: str) -> int:
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def run_passes(args, workdir, spans_path):
    """Untraced passes (and, with --trace 1, traced ones in between) while
    the next round is expected to end within --seconds; returns the two
    lists of (set-up, result)."""
    deadline = time.monotonic() + DEADLINE_S
    begin = time.monotonic()
    plain, traced = [], []
    while True:
        i = len(plain) + len(traced)
        round_start = time.monotonic()
        plain.append(run_pass(args.workload, args.seed,
                              os.path.join(workdir, f"pass{i}"), deadline))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed,
                                   os.path.join(workdir, f"pass{i + 1}"), deadline,
                                   spans=spans_path))
        now = time.monotonic()
        if (now + (now - round_start) - begin > args.seconds
                and len(plain) >= MIN_PASSES):
            return plain, traced


def end_to_end(plain):
    """The end-to-end metrics of the untraced passes, with the per-op
    latencies and the tail percentile they rest on."""
    per_op = op_medians(plain, 1)
    tail_value, tail_pct = tail(per_op)
    e2e = {
        "setup_s": statistics.median(s for s, _ in plain),
        "wall_s": sum(per_op),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * tail_value,
        "verify_s": sum(op_medians(plain, 3)),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for _, r in plain) / 1024,
    }
    return e2e, per_op, tail_pct


def layer_metrics(traced, untraced_wall):
    """Per-layer metrics of the traced passes (medians of the self times), and
    whether every traced pass gave the same counts."""
    runs = [per_layer(r["trace"]) for _, r in traced]
    counts = [{k: v for k, v in run.items() if not k.endswith("_s")} for run in runs]
    values = {k: statistics.median(run[k] for run in runs) if k.endswith("_s")
              else runs[0][k] for k in runs[0]}
    values["trace.overhead_s"] = sum(op_medians(traced, 1)) - untraced_wall
    return values, all(c == counts[0] for c in counts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src", "phantomcover")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        return fail(f"no program sources at {os.path.relpath(src, ROOT)}; "
                    "run from the root of a phantomcover checkout")
    work = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        plain, traced = run_passes(args, workdir,
                                   os.path.join(work, f"spans-{args.workload}.tsv"))
    except (RuntimeError, OSError, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for _, r in plain + traced]
    attempted = sum(len(r["ops"]) for r in results)
    failed = sum(1 for r in results for op in r["ops"] if op[2])
    problems = [f"{op[0]}: {op[2]}" for r in results for op in r["ops"] if op[2]]
    problems += [f"warm-up: {r['warm_failure']}" for r in results if r["warm_failure"]]
    digests = {json.dumps(r["digests"], sort_keys=True) for r in results}
    digest = (hashlib.sha256(digests.pop().encode()).hexdigest()[:16]
              if len(digests) == 1 else "VARYING")
    names = [op[0] for op in plain[0][1]["ops"]]
    e2e, per_op, tail_pct = end_to_end(plain)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)}+{len(traced)} python={platform.python_version()} "
          f"nproc={os.cpu_count()} src_lines={src_lines(src)}")
    print(f"ops_per_pass={len(names)} attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6f} op_tail_pct={tail_pct:.1f} "
          f"output_digest={digest}")
    print("pass_raw_wall_s=" + ",".join(f"{r['raw_wall_s']:.3f}" for _, r in plain)
          + " pass_scale=" + ",".join(f"{r['scale']:.3f}" for _, r in plain))
    print("pass_wall_s=" + ",".join(f"{sum(op[1] for op in r['ops']):.3f}"
                                    for _, r in plain)
          + " pass_setup_s=" + ",".join(f"{s:.3f}" for s, _ in plain))
    for problem in problems[:20]:
        print(f"failed_op {problem}")
    for name, unit in END_TO_END:
        print(f"e2e {name}={e2e[name]:.6g} {unit}")
    if args.workload == "suite":
        groups = {}
        for name, latency in zip(names, per_op):
            group = name.split("/")[0]
            groups[group] = groups.get(group, 0.0) + latency
        for group, seconds in groups.items():
            print(f"group verify.{group}.s={seconds:.6g} s")

    correct = not problems
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        values, repeat = layer_metrics(traced, e2e["wall_s"])
        if not repeat:
            correct = False
            print("trace_counts=VARYING across traced passes of one seed")
        summaries = [r["trace"] for _, r in traced]
        for layer in summaries[0]["layers"]:
            seconds = statistics.median(s["layers"][layer] for s in summaries)
            print(f"self {layer}.self_s={seconds:.6g} s")
        for span, info in sorted(summaries[0]["spans"].items(),
                                 key=lambda kv: -kv[1]["self_s"])[:25]:
            print(f"span {span} calls={info['calls']} self_s={info['self_s']:.6g}")
        for name, unit in PER_LAYER:
            print(f"layer {name}={values[name]:.6g} {unit}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
