"""Arithmetic of the benchmark: percentiles, span self time, metric
derivation from perfbench_driver's raw measurements, the correctness gate and the
BENCHMARK.json schema. No process is started here, so all of it is unit
tested (test_benchlib.py)."""

from __future__ import annotations

import hashlib
import json
import math
import re
import statistics

# ------------------------------------------------------------------ basics --


def percentile(samples, p):
    """Nearest-rank percentile, the library's convention
    (harness::percentile): sorted[min(n - 1, floor(p * n))]."""
    if not samples:
        raise ValueError("percentile of no samples")
    s = sorted(samples)
    return s[min(len(s) - 1, math.floor(p * len(s)))]


median = statistics.median


def ratio(num, den):
    """num / den, with 0 for an empty base (the base is always printed
    beside the ratio, so a 0 with base 0 reads as 'nothing to divide')."""
    return num / den if den else 0.0


# ------------------------------------------------------------------- spans --


def layer_of(name):
    """The src/ module a span belongs to: the prefix before the first dot.
    The per-replica root span is the harness's own glue."""
    return "harness" if name == "replica" else name.split(".", 1)[0]


def self_times_ns(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children. spans are [name, start, end, parent, replica]
    rows whose parent indexes the same list (-1 for a root)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def self_time_by_layer_ms(spans):
    totals = {}
    for s, t in zip(spans, self_times_ns(spans)):
        layer = layer_of(s[0])
        totals[layer] = totals.get(layer, 0.0) + t / 1e6
    return totals


def span_ms_by_replica(spans, name):
    """Per-replica total milliseconds of spans called `name` (replicas >= 0,
    i.e. not the replay set-up passes), in replica order."""
    per = {}
    for s in spans:
        if s[0] == name and s[4] >= 0:
            per[s[4]] = per.get(s[4], 0.0) + (s[2] - s[1]) / 1e6
    return [per[k] for k in sorted(per)]


def spans_ms(spans, name):
    """Durations in milliseconds of every span called `name`."""
    return [(s[2] - s[1]) / 1e6 for s in spans if s[0] == name]


# ------------------------------------------------------------------ counts --


def total(counts, key):
    return sum(c.get(key, 0) for c in counts)


def deliveries(counts):
    return sum(v for c in counts for k, v in c.items() if k.startswith("delivered."))


def ops_issued(counts):
    return total(counts, "reads_issued") + total(counts, "writes_issued")


def ops_completed(counts):
    return total(counts, "reads_completed") + total(counts, "writes_completed")


def digest(counts):
    """Digest of a replica set's deterministic counts, in replica order."""
    blob = json.dumps(counts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


# ----------------------------------------------------------------- metrics --


def end_to_end(raw):
    """The end-to-end metrics of one untraced perfbench_driver run (mode e2e)."""
    counts = raw["counts"]
    wall = median([r["wall_s"] for r in raw["rounds"]])
    issued = ops_issued(counts)
    return {
        "wall_s": (wall, "s"),
        "deliveries_per_s": (deliveries(counts) / wall, "1/s"),
        "cpu_s": (median([r["cpu_s"] for r in raw["rounds"]]), "s"),
        "setup_s": (median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "ops_failed_frac": (ratio(issued - ops_completed(counts), issued), "ratio"),
    }


NET_TAGS = ("sync.inquiry", "sync.reply", "sync.write",
            "es.read", "es.reply", "es.write", "es.ack", "es.join", "es.join_reply")


def per_layer(raw):
    """Per-layer metrics of one traced perfbench_driver run (mode trace), split into
    the ones measured on every workload (returned first; these go into the
    result line) and the ones only some workloads can measure from outside
    (returned second, None where not measured; printed only)."""
    spans = raw["spans"]
    traced = raw["traced"]
    counts = traced["counts"]
    layers = raw["layers"]
    workers = raw["workers"]
    sharded = any(s[0] == "shard.run" for s in spans)

    def lsum(key):
        return sum(layer[key] for layer in layers)

    replica_ms = span_ms_by_replica([s for s in spans if s[3] < 0], "replica")
    if sharded:
        build = span_ms_by_replica(spans, "shard.build")
        full = span_ms_by_replica(spans, "shard.run")
        run = [f - b for f, b in zip(full, build)]
    else:
        build = span_ms_by_replica(spans, "harness.build")
        run = span_ms_by_replica(spans, "sim.run")
    events = lsum("events")
    sent, delivered = lsum("net_sent"), lsum("net_delivered")
    if sharded:
        delivered = deliveries(counts)
    created, recycled = lsum("arena_chunks_created"), lsum("arena_chunks_recycled")
    joins_started = total(counts, "joins_started")
    joins_completed = total(counts, "joins_completed")
    issued, completed = ops_issued(counts), ops_completed(counts)
    retries = total(counts, "retries")

    m = {
        "harness.replicas": (len(replica_ms), "count"),
        "harness.replica_ms_p50": (percentile(replica_ms, 0.5), "ms"),
        "harness.replica_ms_max": (max(replica_ms), "ms"),
        "harness.pool_util": (ratio(traced["cpu_s"], workers * traced["wall_s"]), "ratio"),
        "harness.build_ms": (median(build), "ms"),
        "harness.trace_overhead": (ratio(traced["wall_s"], raw["untraced"]["wall_s"]), "ratio"),
        "sim.events": (events, "count"),
        "sim.run_ms": (median(run), "ms"),
        "sim.events_per_delivery": (ratio(events, delivered), "ratio"),
        "sim.arena_chunks_created": (created, "count"),
        "sim.arena_recycle_ratio": (ratio(recycled, created + recycled), "ratio"),
        "sim.arena_reserved_mb": (
            max((layer["arena_bytes_reserved"] for layer in layers), default=0) / 2**20, "MB"),
        "net.sent": (sent, "count"),
        "net.delivered": (delivered, "count"),
        "net.dropped_departed": (lsum("net_dropped_departed"), "count"),
        "net.dropped_partition": (lsum("net_dropped_partition"), "count"),
        "net.dropped_loss": (lsum("net_dropped_loss"), "count"),
        "net.transformed": (lsum("net_transformed"), "count"),
        "net.useful_ratio": (ratio(delivered, sent), "ratio"),
    }
    for tag in NET_TAGS:
        m["net.delivered." + tag] = (total(counts, "delivered." + tag), "count")
    m.update({
        "churn.joins_started": (joins_started, "count"),
        "churn.join_useful_ratio": (ratio(joins_completed, joins_started), "ratio"),
        "dynreg.deliveries_per_op": (ratio(delivered, completed + joins_completed), "ratio"),
        "client.ops_issued": (issued, "count"),
        "client.ops_completed": (completed, "count"),
        "client.retries": (retries, "count"),
        "client.timeouts": (total(counts, "reads_timed_out") + total(counts, "writes_timed_out"),
                            "count"),
        "client.dropped": (total(counts, "reads_dropped") + total(counts, "writes_dropped"),
                           "count"),
        "client.retry_ratio": (ratio(retries, issued + retries), "ratio"),
        "consistency.reads_checked": (total(counts, "reads_checked"), "count"),
        "fault.crashes": (total(counts, "crashes"), "count"),
        "fault.recoveries": (total(counts, "recoveries"), "count"),
        "fault.partitions": (total(counts, "partitions"), "count"),
        "shard.ops_completed": (total(counts, "shard_ops_completed"), "count"),
        "shard.skew": (median(raw["shard_skew"]), "ratio"),
        "replay.trace_bytes": (raw["trace_bytes"], "count"),
    })

    # Only where the layer is reachable from outside on this workload.
    check = [r + a for r, a in zip(span_ms_by_replica(spans, "consistency.regularity"),
                                   span_ms_by_replica(spans, "consistency.atomicity"))]
    bootstrap = span_ms_by_replica(spans, "churn.bootstrap")
    variant = spans_ms(spans, "replay.variant")
    record, plain = spans_ms(spans, "replay.record"), spans_ms(spans, "harness.plain_run")
    encode, decode = spans_ms(spans, "replay.encode"), spans_ms(spans, "replay.decode")
    mb = raw["trace_bytes"] / 1e6
    extra = {
        "sim.ns_per_event": (ratio(sum(run) * 1e6, events) if events else None, "ns/event"),
        "churn.bootstrap_ms": (median(bootstrap) if bootstrap else None, "ms"),
        "consistency.check_ms": (median(check) if check else None, "ms"),
        "consistency.ns_per_read": (
            ratio(sum(check) * 1e6, total(counts, "reads_checked")) if check else None,
            "ns/read"),
        "shard.build_ms": (median(build) if sharded else None, "ms"),
        "shard.run_ms": (median(full) if sharded else None, "ms"),
        "replay.record_overhead": (ratio(median(record), median(plain)) if record else None,
                                   "ratio"),
        "replay.encode_mb_s": (ratio(mb, median(encode) / 1e3) if encode else None, "MB/s"),
        "replay.decode_mb_s": (ratio(mb, median(decode) / 1e3) if decode else None, "MB/s"),
        "replay.variant_ms_p50": (percentile(variant, 0.5) if variant else None, "ms"),
        "replay.variant_ms_p99": (percentile(variant, 0.99) if variant else None, "ms"),
    }
    return m, extra


# -------------------------------------------------------------------- gate --


def gate(raw, golden):
    """Correctness gate over one perfbench_driver run. Returns (failed replicas,
    list of problems). `golden` is the stored digest for this workload and
    seed, or None for a seed without one."""
    problems = []
    failed = set()
    counts = raw["counts"] if raw["mode"] == "e2e" else raw["untraced"]["counts"]
    if not raw["deterministic"]:
        problems.append("counts differ between rounds of the same replica set")
        failed.update(range(len(counts)))
    if raw["mode"] == "trace":
        mismatched = [i for i, (u, t) in enumerate(zip(counts, raw["traced"]["counts"]))
                      if u != t]
        if mismatched:
            problems.append(f"traced counts differ from run_experiment's on "
                            f"{len(mismatched)} replicas (first: {mismatched[0]})")
            failed.update(mismatched)
    violating = [i for i, c in enumerate(counts) if c.get("violations", 0)]
    if violating:
        problems.append(f"regularity violations on {len(violating)} replicas")
        failed.update(violating)
    search = raw.get("search")
    if search is not None:
        inverted = sum(1 for c in counts if c.get("inversions", 0))
        if (search["executed"] != len(counts) or search["violating"] != 0
                or search["inverted"] != inverted):
            problems.append(f"replay::search disagrees: {search} vs {len(counts)} variants, "
                            f"0 violating, {inverted} inverted")
            failed.update(range(len(counts)))
    if golden is not None and digest(counts) != golden:
        problems.append(f"count digest {digest(counts)} != golden {golden}")
        failed.update(range(len(counts)))
    return len(failed), problems


# ------------------------------------------------------------------ schema --

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def check_schema(doc):
    """Problems with a BENCHMARK.json document; empty when it is valid."""
    p = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != want:
        return [f"keys {sorted(doc)} != {sorted(want)}"]
    cmd = doc["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        p.append("command must be a list of 1..32 strings of <= 200 characters")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        p.append("paths must list 1..16 directories")
    else:
        for path in paths:
            if (not isinstance(path, str) or not PATH_RE.match(path) or path.startswith("/")
                    or ".." in path.split("/")):
                p.append(f"bad path {path!r}")
    for c in cmd if isinstance(cmd, list) else []:
        if isinstance(c, str) and (c.startswith("/") or ".." in c.split("/")):
            p.append(f"command argument {c!r} leaves the checkout")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        p.append("run_seconds must be a whole number in 1..60")
    names = []
    wl = doc["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        p.append("workloads must have 2..8 entries")
    else:
        for w in wl:
            if not isinstance(w, dict) or set(w) != {"name", "why"}:
                p.append(f"workload {w!r} must have exactly name and why")
                continue
            names.append(w["name"])
            if not isinstance(w["why"], str) or not w["why"] or len(w["why"]) > 200 \
                    or "\n" in w["why"]:
                p.append(f"workload {w['name']}: why must be one line of <= 200 characters")
    for key, lo, hi, keys in (("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
                              ("per_layer", 1, 128, {"name", "unit", "better"})):
        ms = doc[key]
        if not (isinstance(ms, list) and lo <= len(ms) <= hi):
            p.append(f"{key} must have {lo}..{hi} entries")
            continue
        for m in ms:
            if not isinstance(m, dict) or set(m) != keys:
                p.append(f"{key} entry {m!r} must have exactly {sorted(keys)}")
                continue
            names.append(m["name"])
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                p.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                p.append(f"{m['name']}: better must be lower or higher")
            if key == "end_to_end":
                b = m["bound"]
                if not (isinstance(b, (int, float)) and not isinstance(b, bool)
                        and 0 < b <= 0.25):
                    p.append(f"{m['name']}: bound must be in (0, 0.25]")
    for n in names:
        if not isinstance(n, str) or not NAME_RE.match(n):
            p.append(f"bad name {n!r}")
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        p.append(f"names used more than once: {dupes}")
    e2e = {m.get("name"): m for m in doc["end_to_end"] if isinstance(m, dict)}
    setup = e2e.get("setup_s")
    if not setup or setup.get("unit") != "s" or setup.get("better") != "lower":
        p.append("end_to_end must include setup_s in s, lower is better")
    if len(json.dumps(doc)) > 64 * 1024:
        p.append("document larger than 64 KiB")
    return p
