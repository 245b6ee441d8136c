#!/usr/bin/env python3
"""End-to-end benchmark of geonas: one seeded workload per run.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all [--seed N --seconds S --trace 0|1]

Builds the libraries and the e2ebench program from this checkout
(Release, into .bench_build/e2ebench), runs the workload in its own
process, checks its correctness gates, prints a readable report and, as
the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 installs the
library's metrics registry, records spans, and reports the per-layer
metrics instead. `--workload all` runs every workload, each in its own
process, and ends with a summary object keyed "<workload>/<metric>".
See e2ebench/README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
sys.path.insert(0, HERE)

import benchmath as bm  # noqa: E402

WORKLOADS = ("campaign_train", "serve_openloop", "campaign_net")

# serve_openloop: the p99 latency limit every fixed rate must meet. The
# outstanding-request count may grow across a phase by at most what
# arrives within one such limit; more than that is a growing backlog.
SLO_P99_S = 0.025
RUN_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("cpu_us_per_item", "us"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("data.snapshots_s", "s"),
    ("data.snapshots_weeks", "count"),
    ("pod.fit_s", "s"),
    ("pod.project_s", "s"),
    ("data.window_s", "s"),
    ("core.prepare_coverage", "ratio"),
    ("core.evaluate_s", "s"),
    ("core.evaluate_calls", "count"),
    ("core.evaluate_failed", "count"),
    ("core.error_rate", "ratio"),
    ("nn.forward_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.update_s", "s"),
    ("nn.train_gflop", "GFLOP"),
    ("nn.gflops", "GFLOP/s"),
    ("tensor.arena_high_water_bytes", "bytes"),
    ("search.ask_s", "s"),
    ("search.tell_s", "s"),
    ("search.best_reward", "R2"),
    ("search.eval_latency_tail_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.compute_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.submit_blocked_s", "s"),
    ("serve.batches", "count"),
    ("serve.rejected", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.latency_p50_us.low", "us"),
    ("loadgen.latency_p50_us.mid", "us"),
    ("loadgen.latency_p50_us.high", "us"),
    ("loadgen.latency_p99_us.low", "us"),
    ("loadgen.latency_p99_us.mid", "us"),
    ("loadgen.latency_p99_us.high", "us"),
    ("core.surrogate_evaluate_s", "s"),
    ("hpc.net.frames_per_eval", "count"),
    ("hpc.net.bytes_per_eval", "bytes"),
    ("hpc.net.worker_idle_frac", "ratio"),
    ("hpc.net.master_self_s", "s"),
    ("hpc.sim_s", "s"),
    ("io.checkpoints", "count"),
    ("io.checkpoint_bytes", "bytes"),
    ("hpc.net.redispatches", "count"),
    ("hpc.net.worker_deaths", "count"),
    ("obs.trace_overhead_pct", "%"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the e2ebench target; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 2)
    # Once configured, the build step re-runs CMake itself when a
    # CMakeLists.txt changes.
    steps = [["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    log("e2ebench: build failed:\n" + f.read()[-4000:])
                return False
    return True


def source_identity():
    """Commit of the checkout when it is a git tree, and a digest of the
    library sources either way (the checkout may not be a repository)."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_program(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, raw result or None)."""
    work = os.path.join(ROOT, ".bench_build", "work",
                        "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "result.json")
    cmd = [os.path.join(BUILD, "e2ebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", out,
           "--work-dir", os.path.join(work, "tmp")]
    # glibc slides its mmap threshold up after large frees, so which
    # training buffers stay on the heap, and the peak RSS, followed
    # allocation order (150-195 MB across identical campaign_train runs).
    # Fixing the threshold at glibc's starting value makes the peak
    # repeatable. Elsewhere it would only add page faults to set-up.
    env = dict(os.environ)
    if workload == "campaign_train":
        env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    try:
        code = subprocess.call(cmd, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log("e2ebench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S))
        code = 124
    raw = None
    if os.path.exists(out):
        with open(out) as f:
            raw = json.load(f)
        if trace and os.path.exists(out + ".spans"):
            spans = os.path.join(BUILD, "%s.spans.jsonl" % workload)
            shutil.move(out + ".spans", spans)
            log("spans written to %s" % os.path.relpath(spans, ROOT))
    shutil.rmtree(work, ignore_errors=True)
    return code, raw


def serve_phases(phases):
    """Summaries of the fixed-rate phases, by rate name."""
    return {p["name"]: (p["rate"], bm.phase_summary(
        p["due"], p["latency"], bm.lateness(p["due"], p["sent"]), SLO_P99_S,
        p["rate"] * SLO_P99_S)) for p in phases}


def end_to_end(raw):
    """End-to-end metric values plus the extra report lines."""
    m = {"setup_s": bm.median(raw["setup_s"]),
         "peak_rss_mb": raw["peak_rss_mb"]}
    notes = []
    if raw["workload"] == "serve_openloop":
        phases = serve_phases(raw["phases"])
        m["throughput_per_s"] = bm.max_rate_under_limit(phases.values())
        # User-mode CPU of the serving streams per request at the high
        # rate: system time here is mostly thread wake-ups, whose cost on
        # a virtual machine varies from run to run.
        high = next(p for p in raw["phases"] if p["name"] == "high")
        m["cpu_us_per_item"] = 1e6 * high["engine_user_s"] / len(high["due"])
        for name, (rate, s) in phases.items():
            notes.append(
                "  %-5s %6.0f req/s offered  %6d requests  p50 %8.1f us  "
                "p%.1f %9.1f us  late p%.1f %8.1f us  backlog %+6.1f  %s" % (
                    name, rate, s["requests"], s["p50_s"] * 1e6,
                    s["tail_q"] * 100, s["tail_s"] * 1e6,
                    s["late_tail_q"] * 100, s["late_tail_s"] * 1e6,
                    s["backlog_growth"],
                    "meets limit" if s["meets_limit"] else "MISSES LIMIT"))
        notes.append("  limit: p99 <= %.0f ms and backlog growth <= the "
                     "requests offered in %.0f ms; %d streams, max_batch %d"
                     % (SLO_P99_S * 1e3, SLO_P99_S * 1e3, raw["streams"],
                        raw["max_batch"]))
    else:
        lat = raw["latency_s"]
        # Medians over the run's campaigns, so a host stall during one
        # campaign does not move the run's figure.
        items = raw["campaign_items"]
        m["throughput_per_s"] = bm.median(
            [n / s for n, s in zip(items, raw["campaign_seconds"])])
        m["cpu_us_per_item"] = 1e6 * bm.median(
            [c / n for n, c in zip(items, raw["campaign_cpu_seconds"])])
        q, tail = bm.tail_percentile(lat)
        notes.append("  %d evaluations in %d campaigns; best_reward %.6f "
                     "(first campaign)" % (sum(items), len(items),
                                           raw["best_reward"]))
        notes.append("  evaluation latency (ask to tell) p50 %.1f us%s over "
                     "%d samples" % (
                         bm.median(lat) * 1e6,
                         "" if tail is None else ", p%.1f %.1f us" % (
                             q * 100, tail * 1e6), len(lat)))
        if "trajectory_digest" in raw:
            notes.append("  trajectory digest %s" % raw["trajectory_digest"])
    notes.append("  error_rate %.6f (%d failed or refused of %d attempted)"
                 % (bm.error_rate(raw["attempted"], raw["failed"]),
                    raw["failed"], raw["attempted"]))
    return m, notes


def per_layer(raw):
    """Per-layer metric values of a traced run; a layer the workload
    does not exercise reads 0."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update(raw["layers"])
    m["core.error_rate"] = bm.error_rate(raw["attempted"], raw["failed"])
    if raw["workload"] == "serve_openloop":
        plain = serve_phases(raw["phases"])
        traced = serve_phases(raw["traced_phases"])
        late = [x for p in raw["traced_phases"]
                for x in bm.lateness(p["due"], p["sent"])]
        m["loadgen.late_p99_us"] = bm.tail_percentile(late)[1] * 1e6
        for name, (_, s) in traced.items():
            m["loadgen.latency_p50_us.%s" % name] = s["p50_s"] * 1e6
            m["loadgen.latency_p99_us.%s" % name] = s["tail_s"] * 1e6
        m["obs.trace_overhead_pct"] = (
            traced["high"][1]["p50_s"] / plain["high"][1]["p50_s"] - 1) * 100
    else:
        m["search.best_reward"] = raw["best_reward"]
        tail = bm.tail_percentile(raw["latency_s"])[1]
        m["search.eval_latency_tail_us"] = (tail or 0.0) * 1e6
    return m


def report(raw, metrics, units, notes, trace):
    prov = raw["provenance"]
    print("== %s  seed %d  %s run" % (raw["workload"], raw["seed"],
                                       "traced" if trace else "untraced"))
    print("  provenance: " + ", ".join(
        "%s=%s" % kv for kv in sorted(prov.items())))
    for gate in raw["gates"]:
        print("  gate %-34s %s  %s" % (gate["name"],
                                       "PASS" if gate["ok"] else "FAIL",
                                       gate["detail"]))
    for name, unit in units:
        flag = ""
        if name == "core.prepare_coverage" and metrics[name] > 0 and not (
                0.95 <= metrics[name] <= 1.05):
            flag = "  <-- stages do not add up to prepare() wall time"
        print("  %-32s %16.6g %s%s" % (name, metrics[name], unit, flag))
    for line in notes:
        print(line)


def run_one(workload, seed, seconds, trace):
    """Runs and reports one workload; returns (exit code, result)."""
    code, raw = run_program(workload, seed, seconds, trace)
    if code != 0 or raw is None or not raw.get("correct"):
        log("e2ebench: %s failed (exit %d); no metrics" % (workload, code))
        return 1, None
    commit, digest = source_identity()
    raw["provenance"].update(commit=commit, source_digest=digest)
    if raw["provenance"]["build_type"].lower() != "release":
        log("e2ebench: refusing a %s build" % raw["provenance"]["build_type"])
        return 1, None
    if trace:
        metrics, units, notes = per_layer(raw), PER_LAYER, []
    else:
        (metrics, notes), units = end_to_end(raw), END_TO_END
    report(raw, metrics, units, notes, trace)
    result = {
        "correct": True,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }
    bad = [n for n, v in result["metrics"].items()
           if not math.isfinite(v["value"])]
    if bad:
        log("e2ebench: non-finite metrics: %s" % ", ".join(bad))
        return 1, None
    return 0, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        return 1

    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds,
                               args.trace)
        if result is not None:
            print(json.dumps(result))
        return code

    # Every workload in its own process: a fresh interpreter per run.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        if proc.returncode != 0 or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            summary["metrics"]["%s/%s" % (workload, name)] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
