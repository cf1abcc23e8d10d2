#!/usr/bin/env python3
"""The repo's benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden   (re-pins golden.json)

Run from the root of a checkout. It builds perfbench/CMakeLists.txt
(Release) into $CARGO_TARGET_DIR or .bench_build, runs the harness for
the workload, checks the outputs and prints, as the last line of
stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer metrics with
--trace 1. The line before it is the full report: host descriptor,
sample counts, percentiles, ratio bases, failures. See
perfbench/BENCHMARK.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")
CAMPAIGNS = ("vgg_tiles", "bp_memsweep")
WORKLOADS = CAMPAIGNS + ("serve_mixed",)

# The latency tail each workload reports. The harness runs enough
# passes/blocks that at least ten samples lie beyond it (45 x 3 and
# 24 x 5 sweep points; 10 x 100 requests).
TAIL_PERCENTILE = {"vgg_tiles": 90.0, "bp_memsweep": 90.0,
                   "serve_mixed": 99.0}

SETUP_SPANS = ("system.build", "mem.stage", "kernels.gen", "pe.load",
               "isa.assemble")
LAYER_SPANS = SETUP_SPANS + ("simulation.run", "serve.parse", "serve.emit",
                             "serve.request")

# Ratio metric -> the metric holding its base.
RATIO_BASES = {
    "mem.row_hit_ratio": "mem.col_commands",
    "mem.req_latency_mean": "mem.requests",
    "noc.hops_mean": "noc.delivered",
    "noc.latency_mean": "noc.delivered",
    "pe.fastpath.uop_share": "pe.instructions",
    "system.ff_skip_ratio": "system.sim_cycles",
    "serve.cache_hit_ratio": "serve.run_requests",
    "fail_ratio": "checks.attempted",
    "trace.uncovered_share": "trace.wall_s",
}

# Exact simulated counts pinned per point in golden.json. Host-side
# strategy counters (fast path, fast-forward, request pool) may move
# with a perf change and are reported, not pinned.
PINNED_PREFIXES = ("pe.", "mem.", "noc.", "system.sim_cycles")
UNPINNED_PREFIXES = ("pe.fastpath.", "pe.request_allocs", "mem.staged_bytes")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---- build ---------------------------------------------------------------

def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out


def host_descriptor(report, seed):
    commit, dirty = "unknown", None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    root = os.path.dirname(HERE)
    for top in ("src", "bench", "tools", os.path.basename(HERE)):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cc", ".hh", ".py", ".txt", ".json")):
                    with open(os.path.join(d, f), "rb") as fh:
                        digest.update(f.encode() + fh.read())
    h = dict(report["host"])
    h.update({"commit": commit, "dirty": dirty,
              "source_sha1": digest.hexdigest(), "seed": seed})
    return h


def run_harness(out, args):
    cmd = [os.path.join(out, "vip-bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if args.trace else "0"]
    if args.workload == "serve_mixed":
        sock = os.path.join(out, "sock")
        os.makedirs(sock, exist_ok=True)
        cmd += ["--serve-bin", os.path.join(out, "vip-serve"),
                "--socket-dir", os.path.relpath(sock)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- checks --------------------------------------------------------------

def pinned(counts):
    return {k: v for k, v in counts.items()
            if k.startswith(PINNED_PREFIXES)
            and not k.startswith(UNPINNED_PREFIXES)}


def check_campaign(report, golden):
    """(attempted, failed, failure messages) for a campaign report."""
    attempted, failures = 0, []
    gold = golden.get(report["workload"], {})
    points = gold.get("points", {})
    passes = (report["passes"] + report.get("island_passes", [])
              + report.get("serial_passes", []))
    for i, p in enumerate(passes):
        for pt in p["points"]:
            attempted += 1
            name = pt["name"]
            want = points.get(name)
            if not pt["ok"]:
                failures.append(f"{name}: {pt.get('error')}")
            elif want is None:
                failures.append(f"{name}: no pinned counts")
            elif (pt["cycles"], pt["dram_bytes"]) != (
                    want["cycles"], want["dram_bytes"]):
                failures.append(f"{name}: cycles/bytes differ from pin "
                                f"({pt['cycles']}/{pt['dram_bytes']} vs "
                                f"{want['cycles']}/{want['dram_bytes']})")
            elif i == 0 and pinned(pt["counts"]) != want["counts"]:
                failures.append(f"{name}: simulated counts differ from pin")
    by_name = {pt["name"]: pt for pt in report["passes"][0]["points"]}
    for name, h in sorted(report["helpers"].items()):
        attempted += 1
        pt = by_name[name]
        if "error" in h:
            failures.append(f"{name}: bench helper failed: {h['error']}")
        elif (h["cycles"], h["dram_bytes"], h["work_items"]) != (
                pt["cycles"], pt["dram_bytes"], pt["work_items"]):
            failures.append(f"{name}: differs from the bench/common helper")
    attempted += 1
    hl = report["headline"]["simulated_ms"]
    if hl != gold.get("headline_ms"):
        failures.append(f"headline {hl} ms differs from pin "
                        f"{gold.get('headline_ms')}")
    return attempted, len(failures), failures


# ---- metrics -------------------------------------------------------------

def med(xs):
    return statistics.median(xs) if xs else 0.0


def count_metrics(c):
    """Per-layer metrics from summed exact counts."""
    m = {k: float(c.get(k, 0)) for k in (
        "pe.instructions", "pe.vector_ops", "pe.timing_hazards",
        "pe.stall_arc", "pe.stall_lsq", "pe.stall_vector_busy",
        "mem.col_commands", "mem.refreshes", "noc.delivered",
        "system.sim_cycles", "pe.request_allocs", "mem.staged_bytes")}
    m["pe.uops_translated"] = float(c.get("pe.fastpath.uops_translated", 0))
    m["mem.requests"] = float(c.get("mem.req_count", 0))
    cols = c.get("mem.col_commands", 0)
    m["mem.row_hit_ratio"] = benchlib.ratio(
        cols - c.get("mem.row_misses", 0), cols)[0]
    m["mem.req_latency_mean"] = benchlib.ratio(
        c.get("mem.req_latency_total", 0), c.get("mem.req_count", 0))[0]
    dlv = c.get("noc.delivered", 0)
    m["noc.hops_mean"] = benchlib.ratio(c.get("noc.hops_total", 0), dlv)[0]
    m["noc.latency_mean"] = benchlib.ratio(
        c.get("noc.latency_total", 0), dlv)[0]
    m["pe.fastpath.uop_share"] = benchlib.ratio(
        c.get("pe.fastpath.fast_uops", 0), c.get("pe.instructions", 0))[0]
    m["system.ff_skip_ratio"] = benchlib.ratio(
        c.get("system.ff_cycles", 0), c.get("system.sim_cycles", 0))[0]
    return m


def campaign_metrics(r):
    passes = r["passes"]
    lat = [pt["latency_s"] * 1e3 for p in passes for pt in p["points"]]
    t = benchlib.timing(lat, TAIL_PERCENTILE[r["workload"]])
    wall = [p["wall_s"] for p in passes]
    e2e = {
        "wall_s": med(wall),
        "setup_s": med([sum(p["span_totals"].get(k, 0.0)
                            for k in SETUP_SPANS) for p in passes]),
        "sim_cycles_per_s": med([p["sim_cycles"] / p["run_s"]
                                 for p in passes]),
        "peak_rss_mb": r["peak_rss_kb"] / 1024.0,
        "latency_p50_ms": t["p50"],
        "latency_tail_ms": t["tail"],
        "throughput_rps": len(lat) / sum(wall),
    }

    def span_med(name):
        return med([p["span_totals"].get(name, 0.0) for p in passes])

    counts = {}
    for pt in passes[0]["points"]:
        for k, v in pt["counts"].items():
            counts[k] = counts.get(k, 0) + v
    layer = count_metrics(counts)
    for name in SETUP_SPANS:
        layer[name + "_s"] = span_med(name)
    layer["system.run_s"] = span_med("system.run")
    layer["system.collect_s"] = med([
        p["span_totals"].get("simulation.run", 0.0)
        - p["span_totals"].get("system.run", 0.0) for p in passes])
    if r.get("island_passes"):
        layer["sim.island.run_speedup"] = (
            med([p["run_s"] for p in r["serial_passes"]])
            / med([p["run_s"] for p in r["island_passes"]]))
    hl = r["headline"]
    layer["paper_err_pct"] = (abs(hl["simulated_ms"] - hl["paper_ms"])
                              / hl["paper_ms"] * 100.0)
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    detail = {"latency": t, "headline": hl,
              "helper_gaps": r.get("helper_gaps", {})}
    return e2e, layer, traced, untraced, detail


def serve_metrics(r):
    blocks = r["blocks"]
    lat = [x * 1e3 for b in blocks for x in b["latency_s"]]
    t = benchlib.timing(lat, TAIL_PERCENTILE["serve_mixed"])
    wall = [b["wall_s"] for b in blocks]
    e2e = {
        "wall_s": med(wall),
        "setup_s": med(r["setups_s"]),
        "sim_cycles_per_s": r["sim_cycles"] / sum(wall),
        "peak_rss_mb": r["peak_rss_kb"] / 1024.0,
        "latency_p50_ms": t["p50"],
        "latency_tail_ms": t["tail"],
        "throughput_rps": len(lat) / sum(wall),
    }
    st = r["serve_stats"]["serve"]
    runs = st["cacheHits"] + st["cacheMisses"]
    layer = {"serve.run_requests": float(runs),
             "serve.cache_hit_ratio":
                 benchlib.ratio(st["cacheHits"], runs)[0]}
    replay = r.get("replay")
    if replay:
        layer.update(count_metrics(replay["counts"]))
        totals = {}
        for _, _, name, s, e in replay["spans"]:
            totals[name] = totals.get(name, 0.0) + (e - s)
        for name in SETUP_SPANS + ("serve.parse", "serve.emit"):
            layer[name + "_s"] = totals.get(name, 0.0)
        layer["system.run_s"] = totals.get("system.run", 0.0)
        layer["system.collect_s"] = benchlib.self_times(
            replay["spans"]).get("simulation.run", 0.0)
        layer["serve.wait_ms"] = med([
            (q["latency_s"] - q["inproc_s"]) * 1e3
            for q in replay["requests"]])
    traced = [b for b in blocks if b["traced"]]
    untraced = [b for b in blocks if not b["traced"]]
    detail = {"latency": t, "serve_stats": st,
              "replayed_requests": len(replay["requests"]) if replay else 0}
    return e2e, layer, traced, untraced, detail


def derive(r, golden, schema):
    if r["workload"] == "serve_mixed":
        e2e, layer, traced, untraced, detail = serve_metrics(r)
        attempted = r["checks"]["attempted"]
        failed = r["checks"]["failed"]
        failures = r["checks"]["failures"]
    else:
        e2e, layer, traced, untraced, detail = campaign_metrics(r)
        attempted, failed, failures = check_campaign(r, golden)
    layer["fail_ratio"] = benchlib.ratio(failed, attempted)[0]
    layer["checks.attempted"] = float(attempted)
    layer["latency.samples"] = float(detail["latency"]["samples"])
    if traced:
        tw = med([x["wall_s"] for x in traced])
        layer["trace.wall_s"] = tw
        layer["trace.overhead_s"] = tw - med([x["wall_s"] for x in untraced])
        layer["trace.uncovered_share"] = med([
            benchlib.uncovered_share(x["spans"], "rep", LAYER_SPANS)
            for x in traced])
    wanted = schema["per_layer"] if r["traced"] else schema["end_to_end"]
    source = layer if r["traced"] else e2e
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    detail["ratio_bases"] = {k: {"value": layer.get(k, 0.0),
                                 "base": v,
                                 "base_value": layer.get(v, 0.0)}
                             for k, v in RATIO_BASES.items()}
    detail["failures"] = failures[:20]
    detail["threads"] = r["threads"]
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, detail


# ---- entry points --------------------------------------------------------

def write_golden(out):
    golden = {}
    for w in CAMPAIGNS:
        ns = argparse.Namespace(workload=w, seed=1, seconds=0.1, trace=False)
        r = run_harness(out, ns)
        pts = {}
        for pt in r["passes"][0]["points"]:
            if not pt["ok"]:
                raise RuntimeError(f"{w}/{pt['name']}: {pt.get('error')}")
            pts[pt["name"]] = {"cycles": pt["cycles"],
                               "dram_bytes": pt["dram_bytes"],
                               "counts": pinned(pt["counts"])}
        golden[w] = {"headline_ms": r["headline"]["simulated_ms"],
                     "points": pts}
        log(f"pinned {len(pts)} points of {w}")
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()

    schema = benchlib.load_schema(
        os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    try:
        out = build()
        if args.write_golden:
            write_golden(out)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        report = run_harness(out, args)
        with open(GOLDEN, encoding="utf-8") as f:
            golden = json.load(f)
        result, detail = derive(report, golden, schema)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    detail["host"] = host_descriptor(report, args.seed)
    detail["workload"] = args.workload
    detail["trace"] = args.trace
    print(json.dumps({"report": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
