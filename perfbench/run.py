#!/usr/bin/env python3
"""The repo benchmark: builds perfbench_driver from source, runs one
workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload sync_join_churn --seed 7 --seconds 25 --trace 0

Run from the root of a checkout. --trace 0 measures the end-to-end metrics
with tracing off; --trace 1 runs one untraced and one traced round and
reports the per-layer metrics. The last line of standard output is the
result as one JSON object; the lines before it are for people. The exit
code is non-zero when the build, the build guard or the correctness gate
fails. See perfbench/README.md.

    python3 perfbench/run.py --write-golden 0-19

records the count digests of seeds 0..19 into perfbench/golden.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import benchlib  # noqa: E402

WORKERS = 4          # fixed load-generator width (capped at nproc)
# Set-up passes, each in a fresh process, run in two batches: one before the
# timed rounds and one after, so their median spans the whole run. A batch
# runs at least SETUP_PASSES[0] and at most SETUP_PASSES[1] passes, and goes
# on until SETUP_BATCH_S has passed.
SETUP_PASSES = (2, 20)
SETUP_BATCH_S = 0.6
DRIVER_TIMEOUT_S = 170
GOLDEN = os.path.join(HERE, "golden.json")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def build():
    """Configures (once) and builds perfbench_driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "experiment.h")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}; run from a full checkout")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(min(WORKERS, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        _run_build(["cmake", "-S", HERE, "-B", out, *generator])
    _run_build(["cmake", "--build", out, "-j", jobs])
    return os.path.join(out, "perfbench_driver")


def _run_build(cmd):
    # Build output goes to stderr so stdout keeps the result line last.
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def driver(exe, *args):
    try:
        res = subprocess.run([exe, *args], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {DRIVER_TIMEOUT_S}s: {' '.join(args)}")
    if res.returncode != 0:
        fail(f"driver exited {res.returncode}: {' '.join(args)}")
    return json.loads(res.stdout)


def setup_batch(exe, common):
    """Set-up times of one batch of cold passes, one per fresh process, so
    that a set-up of a few milliseconds still gets a median of many."""
    lo, hi = SETUP_PASSES
    out = []
    t0 = time.monotonic()
    while len(out) < lo or (len(out) < hi and time.monotonic() - t0 < SETUP_BATCH_S):
        out.append(driver(exe, "setup", *common)["setup_s"])
    return out


def environment(info, workers):
    """What every result is recorded with: toolchain, flags, host, commit."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".h", ".cpp", ".py", ".txt")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return {"compiler": info["compiler"], "flags": info["flags"], "lto": info["lto"],
            "audit": info["audit"], "ndebug": info["ndebug"], "nproc": os.cpu_count(),
            "workers": workers, "commit": commit or "unknown (not a git checkout)",
            "source_sha256": h.hexdigest()[:16]}


def guard(info):
    """Refuse audit or debug builds: their numbers are not the product's."""
    if info["audit"] or not info["ndebug"] or not info["lto"]:
        fail(f"refusing to measure a non-release build: {info}")


def load_golden():
    if not os.path.isfile(GOLDEN):
        return {}
    with open(GOLDEN) as fh:
        return json.load(fh)


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run(args):
    exe = build()
    info = driver(exe, "info")
    guard(info)
    workers = min(WORKERS, os.cpu_count() or 1)
    env = environment(info, workers)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workers", str(workers)]
    if args.trace:
        raw = driver(exe, "trace", *common)
        metrics, extra = benchlib.per_layer(raw)
        print(f"# tracing overhead: wall_s untraced {raw['untraced']['wall_s']:.4f}"
              f"  traced {raw['traced']['wall_s']:.4f}")
        print("# self time by layer (traced round, all replicas):")
        by_layer = benchlib.self_time_by_layer_ms(raw["spans"])
        whole = sum(by_layer.values()) or 1.0
        for layer, ms in sorted(by_layer.items(), key=lambda kv: -kv[1]):
            print(f"#   {layer:<12} {ms:12.2f} ms  {100 * ms / whole:5.1f}%")
        print("# per-layer metrics:")
        for name, (v, unit) in {**metrics, **extra}.items():
            print(f"#   {name:<32} {fmt(v):>14} {unit}")
        counts = raw["untraced"]["counts"]
    else:
        setup = setup_batch(exe, common)
        raw = driver(exe, "e2e", *common, "--seconds", str(args.seconds))
        raw["setup_s"] = setup + setup_batch(exe, common)
        metrics = benchlib.end_to_end(raw)
        print(f"# rounds {len(raw['rounds'])}: wall_s "
              + " ".join(f"{r['wall_s']:.3f}" for r in raw["rounds"]))
        print(f"# set-up passes {len(raw['setup_s'])} (one per process): setup_s "
              + " ".join(f"{s:.4f}" for s in raw["setup_s"]))
        if "search" in raw:
            print(f"# replay::search cross-check: {json.dumps(raw['search'])}")
        issued = benchlib.ops_issued(raw["counts"])
        print(f"# ops_failed_frac base: {issued - benchlib.ops_completed(raw['counts'])} "
              f"of {issued} ops issued; deliveries_per_s base: "
              f"{benchlib.deliveries(raw['counts'])} copies per round")
        for name, (v, unit) in metrics.items():
            print(f"#   {name:<20} {fmt(v):>14} {unit}")
        counts = raw["counts"]

    golden = load_golden().get(args.workload, {}).get(str(args.seed))
    failed, problems = benchlib.gate(raw, golden)
    attempted = raw["replicas"]
    print(f"# counts digest {benchlib.digest(counts)}; golden "
          + (golden if golden else f"none for seed {args.seed} (held-out seed)"))
    for p in problems:
        print(f"# GATE FAILED: {p}")
    print(f"# replicas failed {failed} of {attempted} attempted")
    print(result_line(not problems, attempted, failed, metrics))
    return 0 if not problems else 1


def write_golden(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    exe = build()
    guard(driver(exe, "info"))
    golden = load_golden()
    workers = str(min(WORKERS, os.cpu_count() or 1))
    names = [w["name"] for w in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]
    for name in names:
        for seed in seeds:
            raw = driver(exe, "e2e", "--workload", name, "--seed", str(seed), "--seconds", "0",
                         "--workers", workers)
            failed, problems = benchlib.gate(raw, None)
            if problems:
                fail(f"{name} seed {seed}: {problems}")
            golden.setdefault(name, {})[str(seed)] = benchlib.digest(raw["counts"])
            log(f"golden {name} seed {seed}: {golden[name][str(seed)]}")
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", metavar="LO-HI")
    args = ap.parse_args()
    if args.write_golden:
        return write_golden(args.write_golden)
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
