#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload lookup|churn_replay|store_churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. The script builds perfbench_bin (and the
p2p library under it) into .bench_build/perfbench, runs one workload, checks
its outputs, prints every metric with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A full report (metrics, diagnostics, host and parameters) is written beside
the build as report-<workload>-s<seed>-t<trace>.json.

Exit status: 0 when every output check passed, 1 when one failed (the
result line then says "correct": false), 2 when no result could be made.
See perfbench/README.md for the workloads, the timing rule and the metrics.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_bin")
BINARY_TIMEOUT_S = 170

WORKLOADS = ("lookup", "churn_replay", "store_churn")
# The kind of round each workload times end to end.
NATIVE = {"lookup": "lookup", "churn_replay": "replay", "store_churn": "store"}

END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fail_frac": "frac",
    "msgs_per_op": "msgs",
    "hops_p50": "hops",
    "hops_p99": "hops",
    "get_latency_ms_p50": "ms",
    "get_latency_ms_p99": "ms",
    "put_latency_ms_p50": "ms",
    "put_latency_ms_p99": "ms",
}

SELECT_VARIANTS = [
    f"{layout}.{mask}.{kernel}"
    for layout in ("standard", "compact")
    for mask in ("intact", "masked")
    for kernel in ("simd", "scalar")
]

PER_LAYER = {
    "graph.build_s": "s",
    "graph.bytes_per_node": "B",
    "core.ns_per_hop": "ns",
    **{f"core.select_ns.{v}": "ns" for v in SELECT_VARIANTS},
    "core.backtracks_per_op": "count",
    "failure.apply_ns_per_change": "ns",
    "churn.trace_gen_s": "s",
    "churn.ticks_per_s": "1/s",
    "churn.ticks_per_op": "count",
    "service.route_all_eff": "ratio",
    "service.run_all_eff": "ratio",
    "service.publish_us": "us",
    "store.install_s": "s",
    "store.placement_ns": "ns",
    "store.run_batch_us_per_op": "us",
    "store.writer_us": "us",
    "store.subqueries_per_op": "count",
    "store.failovers_per_op": "count",
    "store.ack_yield": "ratio",
    "store.stale_read_frac": "frac",
    "trace.overhead_frac": "frac",
    "model.gap_frac": "frac",
}


# --------------------------------------------------------------------------
# Build, host stamp, benchmark binary


def build():
    """Configures and builds the benchmark binary; build output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True,
        )
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench_bin", "-j", jobs],
            stdout=sys.stderr, check=True,
        )


def _read(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def host_stamp():
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = "unknown"
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"), "")
        kind = _read(os.path.join(base, entry, "type"), "")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, entry, "size"))
    thp = _read("/sys/kernel/mm/transparent_hugepage/enabled")
    if "[" in thp:
        thp = thp[thp.index("[") + 1 : thp.index("]")]
    return {
        "commit": commit,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "thp": thp,
    }


def run_binary(args, raw_path):
    cmd = [
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", raw_path,
    ]
    subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BINARY_TIMEOUT_S)
    with open(raw_path) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Spans


class Spans:
    """The benchmark binary's spans, grouped by name."""

    def __init__(self, doc):
        names = doc["names"]
        self.by_name = {}
        for name, parent, rnd, start, end, ops, units in doc["spans"]:
            self.by_name.setdefault(names[name], []).append(
                {"round": rnd, "s": (end - start) * 1e-9, "ops": ops, "units": units}
            )

    def get(self, name):
        spans = self.by_name.get(name)
        if not spans:
            raise ValueError(f"no spans named {name}")
        return spans

    def per_round(self, *names):
        """Seconds, ops and units summed per round over spans of `names`."""
        rounds = {}
        for name in names:
            for s in self.get(name):
                r = rounds.setdefault(s["round"], {"s": 0.0, "ops": 0.0, "units": 0.0})
                for key in r:
                    r[key] += s[key]
        return [rounds[k] for k in sorted(rounds)]

    def rate(self, name, key="ops"):
        rs = self.per_round(name)
        return m.fastest_rate([r[key] for r in rs], [r["s"] for r in rs])

    def seconds(self, *names):
        return m.fastest_seconds([r["s"] for r in self.per_round(*names)])


def round_diagnostics(spans, name):
    rs = spans.per_round(name)
    secs = sorted(r["s"] for r in rs)
    q = statistics.quantiles(secs, n=10) if len(secs) >= 2 else [secs[0]] * 9
    return {
        "rounds": len(secs),
        "round_ms_min": secs[0] * 1e3,
        "round_ms_p10": q[0] * 1e3,
        "round_ms_median": statistics.median(secs) * 1e3,
        "round_ms_p90": q[-1] * 1e3,
        "round_ms_max": secs[-1] * 1e3,
    }


# --------------------------------------------------------------------------
# Metrics


def end_to_end(doc, spans, diag):
    native = "round." + NATIVE[doc["workload"]]
    o = doc["outcomes"]
    get_ms, put_ms = o["get_latency_ms"], o["put_latency_ms"]
    diag.update(round_diagnostics(spans, native))
    diag["setups"] = len(spans.get("setup"))
    diag["hops_samples"] = sum(o["hops_hist"])
    diag["get_latency_samples"] = len(get_ms)
    diag["put_latency_samples"] = len(put_ms)
    diag["failed_quorums"] = o["failed_quorums"]
    diag["outcome_ops"] = o["ops"]
    diag["setup_peak_rss_mb"] = doc["setup_peak_rss_bytes"] / 2**20
    diag["anon_huge_mb"] = doc["anon_huge_bytes"] / 2**20
    return {
        "ops_per_s": spans.rate(native),
        "setup_s": spans.seconds("setup"),
        "peak_rss_mb": doc["peak_rss_bytes"] / 2**20,
        "fail_frac": o["undelivered"] / o["searches"],
        "msgs_per_op": o["messages"] / o["ops"],
        "hops_p50": m.grouped_percentile(o["hops_hist"], 0.50),
        "hops_p99": m.grouped_percentile(o["hops_hist"], 0.99),
        "get_latency_ms_p50": m.percentile(get_ms, 0.50),
        "get_latency_ms_p99": m.percentile(get_ms, 0.99),
        "put_latency_ms_p50": m.percentile(put_ms, 0.50),
        "put_latency_ms_p99": m.percentile(put_ms, 0.99),
    }


def per_layer(doc, spans, diag):
    c = doc["counters"]
    lk, rp, st = c["lookup"], c["replay"], c["store"]
    out = {
        "graph.build_s": spans.seconds("graph.build"),
        "graph.bytes_per_node": doc["bytes_per_node"],
        "core.ns_per_hop": 1e9 / spans.rate("core.route_batch", "units"),
        "core.backtracks_per_op": lk["backtracks"] / lk["routed"],
        "failure.apply_ns_per_change": 1e9 / spans.rate("failure.apply"),
        "churn.trace_gen_s": spans.seconds("churn.make_trace"),
        "churn.ticks_per_s": spans.rate("churn.replay", "units"),
        "churn.ticks_per_op": rp["ticks"] / rp["routed"],
        "service.route_all_eff": spans.rate("service.route_all")
        / (2 * spans.rate("core.route_batch")),
        "service.run_all_eff": spans.rate("service.run_all")
        / (2 * spans.rate("store.run_batch")),
        "service.publish_us": 1e6 * spans.seconds("service.publish"),
        "store.install_s": spans.seconds("store.install"),
        "store.placement_ns": 1e9 / spans.rate("store.placement"),
        "store.run_batch_us_per_op": 1e6 / spans.rate("store.run_batch"),
        "store.writer_us": 1e6 * spans.seconds("store.forget", "store.deliver_hints"),
        "store.subqueries_per_op": st["subqueries"] / st["ops"],
        "store.failovers_per_op": st["failovers"] / st["ops"],
        "store.ack_yield": st["answered"] / st["subqueries"],
        "store.stale_read_frac": st["stale"] / st["gets"],
    }
    for v in SELECT_VARIANTS:
        out[f"core.select_ns.{v}"] = 1e9 / spans.rate(f"core.select.{v}")

    # Tracing overhead: the workload's own rounds with layer spans off vs on,
    # interleaved in this one run.
    kind = NATIVE[doc["workload"]]
    bare = spans.rate(f"round.{kind}")
    traced = spans.rate(f"round.{kind}.traced")
    out["trace.overhead_frac"] = bare / traced - 1.0

    # Composition: predict the workload's round from its layers' numbers.
    if kind == "lookup":
        msgs = lk["messages"] / lk["routed"]
        predicted = 2 * out["service.route_all_eff"] / (out["core.ns_per_hop"] * 1e-9 * msgs)
        model = f"2 x route_all_eff / (ns_per_hop x msgs_per_op) = {predicted:.0f} ops/s"
        out["model.gap_frac"] = predicted / bare - 1.0
    elif kind == "replay":
        ticks = rp["ticks"] / rp["rounds"]
        predicted_s = (ticks * out["core.ns_per_hop"]
                       + rp["changes_per_round"] * out["failure.apply_ns_per_change"]) * 1e-9
        measured_s = spans.seconds(f"round.{kind}")
        model = (f"ticks x ns_per_hop + changes x apply_ns = {predicted_s * 1e3:.3f} ms "
                 f"per round vs {measured_s * 1e3:.3f} ms")
        out["model.gap_frac"] = predicted_s / measured_s - 1.0
    else:
        predicted_s = (out["store.writer_us"] * 1e-6 + spans.seconds("writer.apply")
                       + spans.seconds("service.publish") + spans.seconds("service.run_all"))
        measured_s = spans.seconds("round.store.traced")
        model = (f"writer + apply + publish + run_all = {predicted_s * 1e3:.3f} ms "
                 f"per round vs {measured_s * 1e3:.3f} ms")
        out["model.gap_frac"] = predicted_s / measured_s - 1.0
    diag["model"] = model
    diag["untraced_ops_per_s"] = bare
    diag["traced_ops_per_s"] = traced
    diag["simd_dispatched"] = doc["simd"]
    return out


# --------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    started = time.monotonic()
    build()
    host = host_stamp()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    doc = run_binary(args, os.path.join(BUILD_DIR, f"raw-{tag}.json"))
    spans = Spans(doc["spans"])
    diag = {}
    if args.trace:
        values = per_layer(doc, spans, diag)
        units = PER_LAYER
    else:
        values = end_to_end(doc, spans, diag)
        units = END_TO_END
    checks = doc["checks"]
    correct = bool(checks) and all(c["mismatches"] == 0 for c in checks)
    failed = sum(c["mismatches"] for c in checks)
    round_names = [n for n in spans.by_name if n.startswith("round.")]
    attempted = int(sum(r["ops"] for r in spans.per_round(*round_names)))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    print("params: " + json.dumps(doc["params"], sort_keys=True))
    for c in checks:
        status = "ok" if c["mismatches"] == 0 else "MISMATCH"
        detail = f" ({c['detail']})" if c["detail"] else ""
        print(f"check {status}: {c['name']}: {c['mismatches']} of {c['checked']}{detail}")
    for key, value in diag.items():
        print(f"diag {key}: {value:.6g}" if isinstance(value, float) else f"diag {key}: {value}")
    if args.trace:
        print(f"tracing overhead: {values['trace.overhead_frac']:+.4f} "
              f"(untraced vs traced {NATIVE[args.workload]} rounds)")
        print(f"model gap: {values['model.gap_frac']:+.4f} ({diag['model']})")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "params": doc["params"], "checks": checks,
        "diagnostics": diag, "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "wall_s": time.monotonic() - started,
    }
    with open(os.path.join(BUILD_DIR, f"report-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(m.result_line(correct, attempted, failed,
                        {k: (values[k], u) for k, u in units.items()}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, ValueError, KeyError, ArithmeticError, subprocess.SubprocessError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        sys.exit(2)
