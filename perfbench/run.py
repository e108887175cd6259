#!/usr/bin/env python3
"""The ADE benchmark: compiled-program speed (MEMOIR vs ADE) and serving.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite_translating --seed 0 \
        --seconds 25 --trace 0

It builds perfbench/adebench from ../src with CMake into .bench_build,
starts PROCESSES measurement processes one after another (each gets an
equal share of --seconds), pools their samples, and prints a report
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from a separate traced pass; never used end to end).
Metrics are defined for every workload; see perfbench/README.md for what
each one means on the suites and on the server.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "adebench")

# Fixed program lists, chosen from seed measurements and never recomputed,
# so a change that removes translations cannot move a program between
# workloads. Translating: 31% of ADE's ROI accesses are enc/dec/add at the
# benchmark's size. Direct: 2% (<1% at full size), so only the
# hash->bitset swap and dispatch matter.
SUITES = {
    "suite_translating": ["CC", "CD", "MST", "PP", "PTA"],
    "suite_direct": ["BC", "BFS", "BP", "FIM", "IS", "KC", "KT", "MCBM",
                     "PR", "SSSP", "TC"],
}
WORKLOADS = list(SUITES) + ["serve_mixed"]

# Samples are pooled across processes: interference can slow one process
# for its whole life, which repetitions inside it do not expose.
PROCESSES = 5

# Median seconds of adebench's calibration kernel on the 4-vCPU host the
# benchmark was tuned on. Set-up and suite times are reported in that
# host's seconds: each process's samples are scaled by CALIBRATION_S over
# its own median calibration time, which cancels the tens-of-percent drift
# of a shared host's speed that no repetition count removes. The kernel is
# benchmark-owned code, so no change to the repository moves it; ratios
# need no scaling (both sides share a process).
CALIBRATION_S = 0.0049

# Telemetry channels (collection kind, implementation); sequences have
# none.
CHANNELS = ["set.HashSet", "set.FlatSet", "set.SwissSet", "set.BitSet",
            "set.SparseBitSet", "map.HashMap", "map.SwissMap", "map.BitMap"]
OP_KINDS = ["read", "write", "insert", "remove", "has", "size", "clear",
            "iterate", "union"]
PASSES = ["cloning", "analysis", "planning", "absint", "transform",
          "selection", "verify"]
SUITE_COUNTS = {
    "vm.instructions": "ade.instructions",
    "enum.enc": "ade.op.enc",
    "enum.dec": "ade.op.dec",
    "enum.add": "ade.op.add",
    "coll.sparse": "ade.sparse",
    "coll.dense": "ade.dense",
    "coll.probes": "ade.probes",
    "coll.rehashes": "ade.rehashes",
    "coll.peak_bytes": "ade.peak_bytes",
    "memoir.instructions": "memoir.instructions",
    "memoir.probes": "memoir.probes",
}
SUITE_COUNTS.update({"coll.ops." + k: "ade.op." + k for k in OP_KINDS})
CORE_COUNTS = ["core.enumerations", "core.enc_sites", "core.dec_sites",
               "core.add_sites", "core.rte_skipped"]
SERVE_COUNTS = ["serve.admission.shed", "serve.shard.rehashes",
                "serve.engine.calls"]
SPANS = ["admission", "queue_wait", "table_op", "engine_exec", "epoch"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds adebench; returns False without sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no ADE sources next to perfbench/ (expected src/)")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "adebench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return True


def source_id():
    """The commit, or a digest of src/ when the checkout has no git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha1-" + digest.hexdigest()[:16]


def pinned_checksums(programs):
    """Expected checksums of the registry inputs (seed 0)."""
    with open(os.path.join(HERE, "reference.json")) as f:
        pinned = json.load(f)["checksums"]
    return ",".join("%s:%d" % (p, pinned[p]) for p in programs)


def measure(args):
    """Runs the measurement processes; returns their JSON documents."""
    if args.workload in SUITES:
        programs = SUITES[args.workload]
        cmd = [BINARY, "suite", "--programs=" + ",".join(programs)]
        # Other seeds get their reference from the tree-walker, computed
        # untimed inside each process.
        if args.seed == 0:
            cmd.append("--expect=" + pinned_checksums(programs))
        if args.max_depth is not None:
            cmd.append("--max-depth=%d" % args.max_depth)
    else:
        cmd = [BINARY, "serve"]
    cmd += ["--seed=%d" % args.seed,
            "--seconds=%g" % (args.seconds / PROCESSES)]
    if args.trace:
        cmd.append("--trace")
    docs = []
    for draw in range(PROCESSES):
        # Each suite process runs its own draw of the seed's inputs, so one
        # run averages over several inputs.
        extra = ["--draw=%d" % draw] if args.workload in SUITES else []
        out = subprocess.run(cmd + extra, capture_output=True, text=True,
                             check=True, timeout=170)
        doc = json.loads(out.stdout)
        calib = doc["samples"].get("calib")
        doc["scale"] = CALIBRATION_S / statistics.median(calib) if calib else 1
        docs.append(doc)
    return docs


def pooled(docs, name, scaled=False):
    """Samples of every process, optionally in calibration-host seconds."""
    return [v * (d["scale"] if scaled else 1)
            for d in docs for v in d["samples"].get(name, [])]


def med(docs, name, scaled=False):
    values = pooled(docs, name, scaled)
    return statistics.median(values) if values else 0.0


def geomean(values):
    """Over the programs that produced a ratio (failed ones have none)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(workload, docs, scaled=True):
    """Name -> (value, unit, pooled samples behind it). Set-up and suite
    times are in calibration-host seconds unless `scaled` is False; serve
    phase times are never scaled (see README.md)."""
    m = {"setup_s": (med(docs, "setup", scaled), "s",
                     pooled(docs, "setup", scaled))}
    if workload in SUITES:
        progs = SUITES[workload]
        m["roi_s"] = (sum(med(docs, p + ".ade.roi", scaled) for p in progs),
                      "s", None)
        m["memoir_roi_s"] = (sum(med(docs, p + ".memoir.roi", scaled)
                                 for p in progs), "s", None)
        m["roi_speedup_geo"] = (geomean([med(docs, p + ".roi_ratio")
                                         for p in progs]), "x", None)
        m["total_speedup_geo"] = (geomean([med(docs, p + ".total_ratio")
                                           for p in progs]), "x", None)
    else:
        for name, sample, unit in [
                ("roi_s", "serve.ade.roi", "s"),
                ("memoir_roi_s", "serve.memoir.roi", "s"),
                ("roi_speedup_geo", "serve.roi_ratio", "x"),
                ("total_speedup_geo", "serve.total_ratio", "x")]:
            m[name] = (med(docs, sample), unit, pooled(docs, sample))
    return m


def init_seconds(workload, docs):
    """Suites: sum of ADE @build medians (calibration-host seconds). Serve:
    closed-loop phase 1, which never runs @serve, so both servers' phase 1
    are samples of it."""
    if workload in SUITES:
        return sum(med(docs, p + ".ade.init", True) for p in SUITES[workload])
    values = pooled(docs, "serve.ade.init") + pooled(docs, "serve.memoir.init")
    return statistics.median(values) if values else 0.0


def layer_median(docs, name):
    values = [d["layer"][name] for d in docs if name in d["layer"]]
    return statistics.median(values) if values else 0.0


def per_layer(workload, docs, e2e):
    """Name -> (value, unit). Layers a workload does not exercise read 0.

    Counts and the ROI ledger come from the first process (draw 0), so
    they describe one input and repeat exactly for a given seed.
    """
    counts = docs[0]["counts"]
    first = docs[:1]
    m = {}
    m["parser.parse_ms"] = (med(docs, "parser.parse") * 1e3, "ms")
    m["core.ade_ms"] = (med(docs, "core.ade") * 1e3, "ms")
    for p in PASSES:
        m["core.pass.%s_ms" % p] = (med(docs, "core.pass." + p) * 1e3, "ms")
    for name in CORE_COUNTS:
        m[name] = (counts.get(name, 0), "count")
    m["vm.engine_init_ms"] = (med(docs, "vm.engine_init") * 1e3, "ms")
    m["serve.server_init_ms"] = (med(docs, "serve.server_init") * 1e3, "ms")
    for name, key in SUITE_COUNTS.items():
        unit = "bytes" if name == "coll.peak_bytes" else "count"
        m[name] = (counts.get(key, 0), unit)
    m["peak_mib"] = (counts.get("ade.peak_bytes", 0) / 2**20, "MiB")
    accesses = m["coll.sparse"][0] + m["coll.dense"][0]
    m["coll.dense_share"] = (m["coll.dense"][0] / accesses if accesses
                             else 0.0, "fraction")
    if workload in SUITES:
        roi = sum(med(first, p + ".ade.roi") for p in SUITES[workload])
    else:
        roi = e2e["roi_s"][0]
    instr = m["vm.instructions"][0]
    m["vm.ns_per_instr"] = (roi * 1e9 / instr if instr else 0.0, "ns")
    dispatch_ns = layer_median(docs, "vm.dispatch_ns_per_instr")
    m["vm.dispatch_ns_per_instr"] = (dispatch_ns, "ns")
    coll_s = 0.0
    for ch in CHANNELS:
        t = med(first, "coll.time." + ch)
        m["coll.time_ms." + ch] = (t * 1e3, "ms")
        coll_s += t
    # Each traced op's latency includes one clock read; take it out.
    coll_s -= (med(first, "trace.sampled_ops")
               * layer_median(first, "trace.clock_read_ns") * 1e-9)
    if workload in SUITES and roi > 0:
        dispatch = instr * dispatch_ns * 1e-9 / roi
        coll = coll_s / roi
        residual = 1.0 - dispatch - coll
        traced = sum(med(first, p + ".ade.roi_traced")
                     for p in SUITES[workload])
        overhead = traced / roi
    else:
        dispatch = coll = residual = 0.0
        overhead = (med(docs, "serve.ade.roi_traced") /
                    med(docs, "serve.ade.roi")) if roi > 0 else 0.0
    m["ledger.dispatch_share"] = (dispatch, "fraction")
    m["ledger.coll_share"] = (coll, "fraction")
    m["ledger.residual_share"] = (residual, "fraction")
    # ROADMAP item 1a's bar: the ledger must explain at least 75%.
    m["ledger.residual_flag"] = (1 if residual > 0.25 else 0, "flag")
    m["trace.overhead"] = (overhead, "x")

    serving = workload == "serve_mixed"
    p1 = counts.get("serve.requests.phase1", 0)
    p2 = counts.get("serve.requests.phase2", 0)
    m["serve.rps"] = (p2 / roi if serving and roi else 0.0, "1/s")
    init = init_seconds(workload, docs)
    m["init_s"] = (init, "s")
    m["serve.insert_rps"] = (p1 / init if serving and init else 0.0, "1/s")
    for name in SERVE_COUNTS:
        m[name] = (counts.get(name, 0), "count")
    for name in ["serve.admission.submit_ns_p50",
                 "serve.admission.submit_ns_p99"]:
        m[name] = (layer_median(docs, name), "ns")
    for name in ["serve.queue.depth_p50", "serve.queue.depth_p99"]:
        m[name] = (layer_median(docs, name), "count")
    # Open-loop latency from each request's due time: medians over windows
    # of the window's percentile.
    m["serve.latency_p50_us"] = (med(docs, "serve.latency_p50_us"), "us")
    m["serve.latency_p99_us"] = (med(docs, "serve.latency_p99_us"), "us")
    m["serve.shard.lock_wait_ms"] = (
        med(docs, "serve.shard.lock_wait") * 1e3, "ms")
    m["serve.epoch.retired_live"] = (
        med(docs, "serve.epoch.retired_live"), "count")
    m["gen.lag_us_p99"] = (layer_median(docs, "gen.lag_us_p99"), "us")
    for span in SPANS:
        for q in ["p50", "p99"]:
            name = "span.%s_ns_%s" % (span, q)
            m[name] = (layer_median(docs, name), "ns")
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    m["error_rate"] = (failed / attempted if attempted else 0.0, "fraction")
    return m


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Test hook: the suites' interpreter call-depth budget (plants
    # failures).
    parser.add_argument("--max-depth", type=int)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 2
    docs = measure(args)

    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    for d in docs:
        for why in d["failures"]:
            log("perfbench: FAILED " + why)
    # Deterministic counts must agree across processes that ran the same
    # inputs.
    if args.seed == 0 or args.workload not in SUITES:
        for d in docs[1:]:
            if d["counts"] != docs[0]["counts"]:
                log("perfbench: FAILED counts differ between processes")
                failed += 1
                break

    print("perfbench: workload=%s seed=%d commit=%s engine=vm nproc=%d "
          "processes=%d seconds=%g trace=%d" %
          (args.workload, args.seed, source_id(), os.cpu_count() or 0,
           PROCESSES, args.seconds, args.trace))
    e2e = end_to_end(args.workload, docs)
    raw = end_to_end(args.workload, docs, scaled=False)
    print("  calibration: this host %.6g s, tuning host %.6g s" %
          (statistics.median(pooled(docs, "calib")), CALIBRATION_S))
    for name, (value, unit, samples) in e2e.items():
        line = "  %-18s %14.6g %s" % (name, value, unit)
        if unit == "s":
            line += "  (raw %.6g)" % raw[name][0]
        if samples:
            q1, q3 = quartiles(samples)
            line += "  (q1 %.6g, q3 %.6g, n %d)" % (q1, q3, len(samples))
        print(line)
    if args.trace:
        metrics = per_layer(args.workload, docs, e2e)
        for name, (value, unit) in metrics.items():
            print("  %-34s %14.6g %s" % (name, value, unit))
    else:
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
