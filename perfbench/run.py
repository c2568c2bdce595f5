#!/usr/bin/env python3
"""Repository benchmark: builds the driver, runs one workload, checks it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The driver (perfbench_driver, built from
perfbench/ and ../src into .bench_build/) runs the workload for the given
wall-clock budget; this script turns its raw repetitions into metrics,
checks the outputs, and prints one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md for what each means and which layer moves which metric).
The line before it is a detail record: nproc, shard count, hashes and
every repetition's timings. Exits non-zero, without a result line, when
the build fails or the driver does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# One default seed per workload (any seed gives a valid run). The soaks
# default to soak_netco's k5 seed, the fleet to workload_slo's seed base.
DEFAULT_SEEDS = {
    "soak-k5-verify": 0xDECAFBAD ^ 5,
    "soak-k5-sampled": 0xDECAFBAD ^ 5,
    "fleet-flash": 0xF10F10,
}


def build():
    """Configures and builds the driver; returns its path."""
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % log_path)
    return os.path.join(BUILD, "perfbench_driver")


# The host probe's time (driver.cpp, host_probe_ns) that a soak's time
# metrics are scaled to: about its median on the 4-vCPU Xeon virtual
# machine the bounds were set on. A soak repetition's rate is multiplied
# by the mean of the probes on either side of it over this, so wall_pps
# and cpu_ns_per_pkt read as measured on a host where the probe takes this
# long. The constant sets the scale only; any value gives the same ratios
# between commits.
PROBE_REF_NS = 300e6


def host_scale(rep):
    """How much slower than the reference the host ran around `rep`; 1
    for a repetition without probes (the fleet's)."""
    if "probe_ns" not in rep:
        return 1.0
    return statistics.mean(rep["probe_ns"]) / PROBE_REF_NS


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def histogram(metrics, name, quantile):
    return metrics["histograms"].get(name, {}).get(quantile, 0.0)


def counter(metrics, name):
    return metrics["counters"].get(name, 0)


def check_outputs(raw, trace):
    """Returns (problems, attempted, failed) for the driver's repetitions."""
    problems = []
    ref = raw["reference"]
    reps = raw["reps"]
    if ref["violations"]:
        problems.append("reference run: %d invariant violations"
                        % ref["violations"])
    attempted = failed = 0
    fleet_hashes = set()
    fleet_metrics = set()
    for i, rep in enumerate(reps):
        where = "rep %d (%s)" % (i, rep["mode"])
        attempted += rep["sent"]
        failed += rep["sent"] if rep["violations"] else rep["duplicates"]
        if rep["violations"]:
            problems.append("%s: %d invariant violations"
                            % (where, rep["violations"]))
        if rep["delivered"] > rep["sent"]:
            problems.append("%s: delivered %d > offered %d"
                            % (where, rep["delivered"], rep["sent"]))
        if rep["mode"] == "fleet":
            # A fleet's circuit 0 runs the base seed exactly, so it must
            # reproduce scenario::run_soak on the base options.
            if rep["circuit_hashes"][0] != ref["stream_hash"]:
                problems.append("%s: circuit 0 hash %s != run_soak %s"
                                % (where, rep["circuit_hashes"][0],
                                   ref["stream_hash"]))
            # Each circuit must run in the fleet as it runs alone.
            if "solo" in raw and rep["circuit_hashes"] != \
                    raw["solo"]["stream_hashes"]:
                problems.append("%s: circuit hashes differ from the "
                                "circuits run alone" % where)
            fleet_hashes.add(rep["stream_hash"])
            fleet_metrics.add(json.dumps(rep["metrics"], sort_keys=True))
            continue
        # The driver's window loop, traced or not, must reproduce
        # scenario::run_soak bit for bit: the spans are trace-neutral.
        for key in ("stream_hash", "egress_hash", "sent", "delivered",
                    "trace_records", "audits", "metrics"):
            if rep[key] != ref[key]:
                problems.append("%s: %s differs from run_soak" % (where, key))
    if "solo" in raw and raw["solo"]["violations"]:
        problems.append("fleet circuits run alone: %d invariant violations"
                        % raw["solo"]["violations"])
    if len(fleet_hashes) > 1 or len(fleet_metrics) > 1:
        problems.append("fleet repetitions are not deterministic")
    if not reps or (trace and not any(r["mode"] == "traced" for r in reps)):
        problems.append("no measured repetitions")
    return problems, attempted, failed


def end_to_end(raw):
    reps = [r for r in raw["reps"] if r["mode"] in ("plain", "fleet")]
    if raw["workload"] == "fleet-flash":
        sim = reps[0]  # every fleet repetition is identical (checked)
        # From the circuits run alone, at 1% resolution: the engine's own
        # workload.fct_ms buckets are too coarse for a stable p99.
        fct_ms = raw["solo"]["fct_p99_ms"]
    else:
        sim = next(r for r in raw["reps"] if r["mode"] == "observed")
        # A soak is one flow: the stream completes with its last release
        # at the egress (the sender starts at sim time 0).
        fct_ms = sim["last_release_ns"] / 1e6
    m = sim["metrics"]
    return {
        "wall_pps": (median([r["sent"] / r["run_ns"] * 1e9 * host_scale(r)
                             for r in reps]), "1/s"),
        "cpu_ns_per_pkt": (median([r["cpu_ns"] / r["sent"] / host_scale(r)
                                   for r in reps]), "ns"),
        # Set-up samples sit between the probes too, a few per repetition;
        # they are scaled by the run's median probe.
        "setup_s": (median(raw["setup_ns"]) / 1e9
                    / median([host_scale(r) for r in reps]), "s"),
        # The lowest of the repetitions' peaks: in one process, repetitions
        # of the same circuit peak at 9.5 MB and, at some of them, at
        # 10.1 MB, as the allocator's heap drifts.
        "peak_rss_mb": (min(r["peak_rss_kb"] for r in reps) / 1024.0, "MB"),
        "goodput_ratio": (ratio(sim["delivered"], sim["sent"]), "ratio"),
        "verdict_p50_us": (histogram(m, "compare.verdict_latency_us", "p50"),
                           "us"),
        "verdict_p99_us": (histogram(m, "compare.verdict_latency_us", "p99"),
                           "us"),
        "fct_p99_ms": (fct_ms, "ms"),
    }


def load_spans(path):
    spans = {}
    with open(path) as f:
        for line in f:
            span = json.loads(line)
            spans.setdefault(span["run"], []).append(span)
    return spans


def per_layer(raw, spans_path):
    reps = raw["reps"]
    traced = [r for r in reps if r["mode"] == "traced"]
    plain = [r for r in reps if r["mode"] == "plain"]
    fleet = [r for r in reps if r["mode"] == "fleet"]
    runs = load_spans(spans_path)
    run_ids = [r["run"] for r in traced]

    def per_run(fn):
        return median([fn(runs[run_id]) for run_id in run_ids])

    def total(spans, name, key=None):
        return sum((s["end_ns"] - s["start_ns"]) if key is None else s[key]
                   for s in spans if s["name"] == name)

    def children(spans, key):
        return sum(s[key] for s in spans if s["parent"] != -1)

    def self_ns(spans, name):
        # A span's self time: its duration minus the checker time inside.
        return total(spans, name) - total(spans, name, "checker_ns")

    first = traced[0]
    m = first["metrics"]
    # The simulator's own sampler reads its raw heap and live event count
    # every simulated millisecond.
    queue = m["histograms"]["sim.queue_size"]
    pending = m["histograms"]["sim.events_pending"]
    kinds = first["kinds"]
    sent = first["sent"]
    events = first["sim_events"]
    ingested = counter(m, "compare.ingested")
    released = counter(m, "compare.released")
    lookups = counter(m, "switch.table_hits") + counter(m, "switch.table_misses")
    forwards = kinds.get("replica.forward", 0)
    evicts = sum(kinds.get(k, 0) for k in (
        "compare.evict_timeout", "compare.evict_capacity", "compare.evict_quota"))
    # Records handed to the circuit's sink, the ones its protocol filter
    # drops included.
    records = sum(kinds.values())
    sim_self = per_run(lambda s: self_ns(s, "sim.window"))
    checker_ns = per_run(lambda s: children(s, "checker_ns"))
    run_ns = median([r["run_ns"] for r in traced])
    out = {
        "sim.window_ns": (per_run(lambda s: total(s, "sim.window")), "ns"),
        "sim.self_ns": (sim_self, "ns"),
        "sim.events": (events, "count"),
        "sim.events_per_pkt": (ratio(events, sent), "ratio"),
        "sim.ns_per_event": (ratio(sim_self, events), "ns"),
        "sim.queue_peak": (queue["max"], "count"),
        "sim.tombstone_share": (1.0 - ratio(pending["sum"], queue["sum"]),
                                "ratio"),
        "sim.compactions": (first["sim_compactions"], "count"),
        "checker.ns": (checker_ns, "ns"),
        "checker.records": (records, "count"),
        "checker.ns_per_record": (ratio(checker_ns, records), "ns"),
        "checker.share": (ratio(checker_ns, run_ns), "ratio"),
        "audit.ns": (per_run(lambda s: self_ns(s, "faultinject.audit")), "ns"),
        "audit.calls": (sum(1 for s in runs[run_ids[0]]
                            if s["name"] == "faultinject.audit"), "count"),
        "compare.ingests": (ingested, "count"),
        "compare.release_per_ingest": (ratio(released, ingested), "ratio"),
        "compare.late_share": (ratio(kinds.get("compare.late", 0), ingested),
                               "ratio"),
        "compare.evict_share": (ratio(evicts, ingested), "ratio"),
        "compare.fastpath_share": (ratio(counter(m, "compare.fastpath"),
                                         released), "ratio"),
        "compare.sampled_share": (ratio(counter(m, "compare.sampled"),
                                        released), "ratio"),
        "openflow.forwards": (forwards, "count"),
        "openflow.table_miss_share": (ratio(counter(m, "switch.table_misses"),
                                            lookups), "ratio"),
        "link.loss_share": (ratio(kinds.get("link.loss", 0), forwards),
                            "ratio"),
        "link.drops": (kinds.get("link.drop", 0), "count"),
        "health.verdicts": (counter(m, "health.verdicts"), "count"),
        "health.quarantines": (counter(m, "health.quarantines"), "count"),
        "workload.timers_scheduled": (counter(m, "workload.timer_scheduled"),
                                      "count"),
        "workload.timer_cancel_share": (
            ratio(counter(m, "workload.timer_cancelled"),
                  counter(m, "workload.timer_scheduled")), "ratio"),
        "workload.retransmit_share": (
            ratio(counter(m, "workload.retransmit_packets"),
                  counter(m, "workload.packets_offered")), "ratio"),
        "workload.abort_share": (ratio(counter(m, "workload.flows_aborted"),
                                       counter(m, "workload.flows_started")),
                                 "ratio"),
        "workload.pool_peak_live": (counter(m, "workload.pool_peak_live"),
                                    "count"),
        "scenario.setup_ns": (median([r["setup_ns"] for r in traced]), "ns"),
        "scenario.finalize_ns": (per_run(lambda s: total(s, "scenario.finalize")),
                                 "ns"),
        "trace.overhead": (ratio(run_ns, median([r["run_ns"] for r in plain]))
                           - 1.0, "ratio"),
    }
    # The shard layer runs only in the fleet; zero elsewhere.
    f = fleet[0] if fleet else None
    shards = raw["shards"]
    out.update({
        "shard.rounds": (f["rounds"] if f else 0, "count"),
        "shard.cross_msgs": (f["cross_msgs"] if f else 0, "count"),
        "shard.cpu_util": (ratio(f["cpu_ns"], f["run_ns"] * shards)
                           if f else 0.0, "ratio"),
        "shard.us_per_round": (ratio(f["run_ns"] / 1e3, f["rounds"])
                               if f else 0.0, "us"),
    })
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=DEFAULT_SEEDS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    driver = build()
    spans_path = os.path.join(BUILD, "spans-%s-%d.jsonl" % (args.workload,
                                                            seed))
    proc = subprocess.run(
        [driver, "--workload", args.workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--spans", spans_path],
        stdout=subprocess.PIPE, cwd=ROOT, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench: driver exited with %d" % proc.returncode)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    problems, attempted, failed = check_outputs(raw, args.trace)
    metrics = per_layer(raw, spans_path) if args.trace else end_to_end(raw)
    for problem in problems:
        print("perfbench: CHECK FAILED: " + problem, file=sys.stderr)

    detail = {
        "workload": raw["workload"], "seed": seed, "nproc": raw["nproc"],
        "shards": raw["shards"], "reference_hash":
        raw["reference"]["stream_hash"],
        "reps": [{"mode": r["mode"], "run_s": r["run_ns"] / 1e9,
                  "cpu_s": r["cpu_ns"] / 1e9,
                  "probe_s": [ns / 1e9 for ns in r.get("probe_ns", [])],
                  "sent": r["sent"],
                  "peak_rss_kb": r["peak_rss_kb"],
                  "stream_hash": r["stream_hash"]} for r in raw["reps"]],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
