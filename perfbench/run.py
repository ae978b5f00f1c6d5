#!/usr/bin/env python3
"""Runs one workload of the LOTUS benchmark and prints its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the benchmark binary from source twice: plain, and with
the `trace` feature that arms the repository's telemetry counters. It runs
the plain binary for the end-to-end metrics; with `--trace 1` it also runs
the traced binary, for the per-layer metrics, and compares the two runs.

Every line before the last is a full record (environment, workload
descriptors, sample counts, answer checks). The last line is the result:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every answer check passed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("count-skewed", "count-flat", "serve-mix")
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# Per-binary-run limit; a whole run must end within 180 s.
RUN_TIMEOUT_S = 170
# A traced count may differ this much from the plain one and still agree
# with it (the armed counters add work in the merge loops).
PHASE_SUM_TOLERANCE = 0.35


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def declared_metrics():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def build(target_dir, traced):
    """Builds the binary and copies it to a name of its own, since both
    builds write the same `release/perfbench`."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    if traced:
        cmd += ["--features", "trace"]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"cargo build failed ({done.returncode})")
    out_dir = os.path.join(target_dir, "perfbench-bin")
    os.makedirs(out_dir, exist_ok=True)
    dest = os.path.join(out_dir, "perfbench-traced" if traced else "perfbench-plain")
    shutil.copy2(os.path.join(target_dir, "release", "perfbench"), dest + ".tmp")
    os.replace(dest + ".tmp", dest)
    return dest


def run_binary(binary, args, trace_out=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, timeout=RUN_TIMEOUT_S, check=False, text=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{os.path.basename(binary)} exited {done.returncode} without a result")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "shims", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths += [os.path.join(root, f) for f in sorted(files)]
    for path in paths:
        if os.path.isfile(path):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=False)
        return done.stdout.strip() or None if done.returncode == 0 else None
    except OSError:
        return None


def workload_purpose(workload, tv):
    """Whether the traced run shows the path mix the workload exists for.
    A property of the program, recorded beside the result; it does not
    fail the run."""
    if workload == "count-skewed":
        share = (tv["core.hhh_hhn_s"] + tv["core.hnn_s"]) / tv["trace.phase_sum_s"]
        return {"claim": "hhh_hhn + hnn >= half of a count", "measured": f"{share:.3f}", "holds": share >= 0.5}
    if workload == "count-flat":
        share = tv["core.nnn_s"] / tv["trace.phase_sum_s"]
        return {"claim": "nnn >= half of a count", "measured": f"{share:.3f}", "holds": share >= 0.5}
    if workload == "serve-mix":
        ratio = tv["core.count_prepared_us"] / 1e3 / tv["serve.count_p50_ms"]
        return {"claim": "count_prepared < a tenth of serve.count_p50", "measured": f"{ratio:.3f}", "holds": ratio < 0.1}
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    end_to_end, per_layer = declared_metrics()
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        # Build both every time: the second build of a fresh tree is a
        # no-op, and the first run pays for both.
        plain_bin = build(target_dir, traced=False)
        traced_bin = build(target_dir, traced=True)
        started = time.monotonic()
        plain = run_binary(plain_bin, args)
        traced = None
        if args.trace:
            trace_dir = os.path.join(target_dir, "perfbench-traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_file = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
            traced = run_binary(traced_bin, args, trace_file)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log(str(e))
        return 1

    values = {name: m["value"] for name, m in plain["metrics"].items()}
    purpose = agree = None
    correct = plain["correct"]
    attempted, failed = plain["attempted"], plain["failed"]
    checks = list(plain["record"]["check_failures"])
    if traced is None:
        metrics = plain["metrics"]
        declared = end_to_end
    else:
        correct = correct and traced["correct"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        checks += traced["record"]["check_failures"]
        metrics = dict(traced["metrics"])
        declared = per_layer
        tv = {name: m["value"] for name, m in traced["metrics"].items()}
        base, seen = values["p50_ms"], tv["p50_ms"]
        metrics["trace.overhead_frac"] = {"value": (seen - base) / base, "unit": "fraction"}
        if args.workload.startswith("count-"):
            # The traced phases, called one by one, should add up to the
            # plain end-to-end count. A timing, not an answer: recorded
            # and logged, it does not fail the run.
            base, seen = values["p50_ms"] / 1e3, tv["trace.phase_sum_s"]
            agree = {
                "phase_sum_s": seen,
                "count_s": base,
                "holds": abs(seen - base) <= PHASE_SUM_TOLERANCE * base,
            }
        purpose = workload_purpose(args.workload, tv)
    missing = [n for n in declared if n not in metrics or not math.isfinite(metrics[n]["value"])]
    if missing:
        log(f"no finite value for declared metrics: {', '.join(missing)}")
        return 2
    metrics = {n: metrics[n] for n in declared}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "measure_s": round(time.monotonic() - started, 3),
        "plain": plain,
        "traced": traced,
        "check_failures": checks,
        "purpose": purpose,
        "phases_agree": agree,
    }
    results = os.path.join(target_dir, "perfbench-results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    for failure in checks:
        log(f"check failed: {failure}")
    if agree:
        log(f"traced phases {'agree' if agree['holds'] else 'DO NOT agree'} with the plain count: {agree['phase_sum_s']:.3f} s vs {agree['count_s']:.3f} s")
    if purpose:
        log(f"purpose {'confirmed' if purpose['holds'] else 'NOT confirmed'}: {purpose['claim']} ({purpose['measured']})")

    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
