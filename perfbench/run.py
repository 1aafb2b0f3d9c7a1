#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload heat2p-large --seed 7 --seconds 25 --trace 0

Run it from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build); results, traces and checkpoints go to .bench_out.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 1 the program's telemetry
counters and POCHOIR_TRACE are on, the metrics are the per-layer ones, and
the Chrome trace is validated with pochoir_json_check and cross-checked
against the counts the program reported.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("heat2p-large", "lcs-long", "life-batch")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the benchmark and the JSON checker."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs, "--target",
                    "pochoir_perfbench", "pochoir_json_check"],
                   stdout=sys.stderr, check=True)
    return (os.path.join(build_dir, "pochoir_perfbench"),
            os.path.join(build_dir, "pochoir", "pochoir_json_check"))


def trace_checks(trace_path, json_check, expect):
    """Validates the Chrome trace and compares its program spans with the
    counts from the run reports; returns a list of failures."""
    failures = []
    lint = subprocess.run([json_check, trace_path], stdout=sys.stderr)
    if lint.returncode != 0:
        return [f"pochoir_json_check rejected {trace_path}"]
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    count = {}
    dur_s = {}
    for ev in events:
        count[ev["name"]] = count.get(ev["name"], 0) + 1
        dur_s[ev["name"]] = dur_s.get(ev["name"], 0.0) + ev["dur"] * 1e-6
    for name in ("slab", "checkpoint_io", "health_scan"):
        if count.get(name, 0) != expect[name]:
            failures.append(f"trace has {count.get(name, 0)} '{name}' spans, "
                            f"the run reports imply {expect[name]}")
    if count.get("stencil_run", 0) < expect["stencil_run_min"]:
        failures.append(f"trace has {count.get('stencil_run', 0)} 'stencil_run' spans, "
                        f"expected at least {expect['stencil_run_min']}")
    # checkpoint_io spans and RunReport::checkpoint_seconds time the same
    # region with the same clock; each span may differ by the few
    # microseconds between the two clock reads.
    span_s, report_s = dur_s.get("checkpoint_io", 0.0), expect["checkpoint_io_s"]
    log(f"checkpoint_io spans {span_s:.6f}s, RunReport {report_s:.6f}s")
    if abs(span_s - report_s) > 0.02 * report_s + 10e-6 * expect["checkpoint_io"]:
        failures.append(f"checkpoint_io spans sum to {span_s:.6f}s, "
                        f"RunReport says {report_s:.6f}s")
    for name in ("bench.trap_serial", "bench.supervised", "bench.resume"):
        if count.get(name, 0) == 0:
            failures.append(f"trace lacks the benchmark span '{name}'")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bench, json_check = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = os.path.join(ROOT, ".bench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ckpt_dir = os.path.join(out_dir, "ckpt", f"{tag}-{os.getpid()}")
    trace_path = os.path.join(out_dir, "traces", f"{tag}.json")
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)

    env = {k: v for k, v in os.environ.items() if not k.startswith("POCHOIR_")}
    if args.trace:
        env["POCHOIR_TELEMETRY"] = "1"
        env["POCHOIR_TRACE"] = trace_path
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--ckpt-dir", ckpt_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S}s")
        return 1
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])

    expect = result.pop("trace_expect", None)
    if args.trace:
        failures = trace_checks(trace_path, json_check, expect)
        for f in failures:
            log(f"TRACE CHECK FAILED: {f}")
        if failures:
            result["correct"] = False

    with open(os.path.join(out_dir, "results", f"{tag}.json"), "w") as f:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=args.trace), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
