#!/usr/bin/env python3
"""Repo benchmark: time to result, node-rounds/s, setup and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds libftgcs and the worker from the
checkout's sources (Release, under $CARGO_TARGET_DIR or .bench_build),
then runs one worker process per scenario run so each run's peak RSS is
its own. --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
split. The last stdout line is the JSON result; README.md beside this
file explains the metrics, the workloads and the checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("torus_flood", "torus_sharded", "line_byz", "torus_capture")
# A workload whose table and event count must equal another's at the same
# seed (the sharded backend against the single simulator).
REFERENCE = {"torus_sharded": "torus_flood"}

END_TO_END = (
    ("wall_s", "s"),
    ("node_rounds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    # setup layer
    ("exp.resolve_s", "s"),
    ("net.topology_s", "s"),
    ("par.plan_s", "s"),
    ("core.build_s", "s"),
    ("core.start_s", "s"),
    ("trace.monitor_build_s", "s"),
    ("core.teardown_s", "s"),
    ("net.topology_rss_mb", "MB"),
    ("core.build_rss_mb", "MB"),
    # engine layer
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.scheduled", "count"),
    ("sim.queue.bytes_per_event", "B"),
    ("sim.queue.unordered_share", "ratio"),
    ("sim.queue.reseeds", "count"),
    ("sim.queue.overflow_peak", "count"),
    ("net.messages", "count"),
    ("net.deliveries.cluster_pulse", "count"),
    ("net.deliveries.max_level", "count"),
    ("net.max_level_share", "ratio"),
    ("net.deliveries_per_node_round", "count"),
    ("core.violations", "count"),
    # shard layer
    ("par.merge_s", "s"),
    ("par.run_s", "s"),
    ("par.wait_s", "s"),
    ("par.wait_share", "ratio"),
    ("par.imbalance", "ratio"),
    ("par.windows", "count"),
    ("par.cut_edges", "count"),
    ("par.mailbox_peak", "count"),
    ("par.routed", "count"),
    # probe layer
    ("metrics.probes", "count"),
    ("metrics.snapshot_s", "s"),
    ("metrics.skew_s", "s"),
    ("trace.monitor_s", "s"),
    ("metrics.per_probe_us", "us"),
    # capture layer
    ("trace.capture_s", "s"),
    ("trace.commit_s", "s"),
    ("trace.records", "count"),
    ("trace.bytes_per_record", "B"),
    ("obs.sample_s", "s"),
    ("obs.series_bytes", "B"),
    # the split's own accounting
    ("bench.coverage", "ratio"),
    ("bench.span_overhead", "ratio"),
)

# Calling-thread spans of a traced run, each self time; their sum over the
# traced wall is bench.coverage.
COVERED_SPANS = (
    "exp.resolve_s", "net.topology_s", "par.plan_s", "core.build_s",
    "core.start_s", "trace.monitor_build_s", "sim.run_s", "trace.capture_s",
    "trace.commit_s", "metrics.snapshot_s", "metrics.skew_s",
    "trace.monitor_s", "obs.sample_s", "core.teardown_s",
)
MIN_COVERAGE = 0.9
# Result fields the traced run must reproduce exactly.
RESULT_FIELDS = ("max_local", "max_node_local", "max_intra", "max_global")

MIN_ITERATIONS = 3       # set-up + end-to-end pairs per --trace 0 run
MIN_TRACED = 2           # untraced + traced pairs per --trace 1 run
CHILD_TIMEOUT_S = 150


class Failure(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


# ---- arithmetic (pinned by tests/test_arithmetic.py) ------------------------

def node_rounds_per_s(nodes, horizon_rounds, wall_s, setup_s):
    """Simulated node-rounds per host second past set-up."""
    if wall_s <= setup_s:
        raise ValueError("wall_s %g is not above setup_s %g"
                         % (wall_s, setup_s))
    return nodes * horizon_rounds / (wall_s - setup_s)


def coverage(layers):
    """Share of the traced wall the covered layer spans account for."""
    wall = layers["traced_wall_s"]
    if wall <= 0.0:
        raise ValueError("traced wall must be positive")
    return sum(layers[name] for name in COVERED_SPANS) / wall


def span_overhead(traced_wall_s, e2e_wall_s):
    """How much longer the traced run took than the untraced one."""
    return traced_wall_s / e2e_wall_s - 1.0


# ---- build and host context -------------------------------------------------

def build(targets):
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "src", "ftgcs.h")):
        raise Failure("no ftgcs sources under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        raise Failure("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", build_dir, "-j",
                     str(os.cpu_count() or 1), "--target"] + targets):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise Failure("build step failed: %s" % " ".join(command))
    return build_dir


def read_text(path, default="unknown"):
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return default


def host_context(worker):
    cpu = "unknown"
    for line in read_text("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    indexes = os.listdir(cache_dir) if os.path.isdir(cache_dir) else []
    for index in sorted(indexes):
        level = read_text(os.path.join(cache_dir, index, "level"), "")
        if level in ("2", "3"):
            caches["l%s" % level] = read_text(
                os.path.join(cache_dir, index, "size"))
    info = child([worker, "info"])
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "ndebug": info.get("ndebug", False),
    }


# ---- one worker process per run ---------------------------------------------

def child(command):
    """Runs the worker; returns its JSON line with ok=False on any failure."""
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": "timed out"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "why": "no result (exit %d): %s"
                % (done.returncode, done.stderr.strip()[-300:])}
    if done.returncode != 0:
        result["ok"] = False
    return result


class Run:
    """One benchmark invocation: the runs it made and the checks on them."""

    def __init__(self, worker, workload, seed, tmp_dir):
        self.worker = worker
        self.workload = workload
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, why):
        self.problems.append(why)

    def launch(self, mode, workload=None, extra=()):
        self.attempted += 1
        result = child([self.worker, mode, workload or self.workload,
                        str(self.seed), self.tmp_dir] + list(extra))
        if not result.get("ok"):
            self.failed += 1
            self.fail("%s %s: %s" % (mode, workload or self.workload,
                                     result.get("why", "failed")))
            return None
        return result

    def same_output(self, results, label):
        """Later runs of the same code and seed must match the first."""
        first = results[0]
        for other in results[1:]:
            if (other["digest"], other["events"]) != (first["digest"],
                                                      first["events"]):
                self.failed += 1
                self.fail("%s: table or event count differs between runs"
                          % label)

    @staticmethod
    def timed_loop(seconds, least, step):
        """Calls step() until another call would pass `seconds` (`least`
        calls at least); step returns False when a run failed."""
        started = time.monotonic()
        durations = []
        while len(durations) < least or (
                time.monotonic() - started + statistics.median(durations)
                <= seconds):
            begun = time.monotonic()
            if not step():
                break
            durations.append(time.monotonic() - begun)

    def check_reference(self, result):
        reference = REFERENCE.get(self.workload)
        if reference is None or result is None:
            return
        other = self.launch("e2e", workload=reference)
        if other is not None and (other["digest"], other["events"]) != (
                result["digest"], result["events"]):
            self.failed += 1
            self.fail("table or event count differs from %s" % reference)


def end_to_end(run, seconds):
    """Alternates a set-up run and an end-to-end run at the same seed, so
    both samples span the same stretch of host time."""
    setups = []
    walls = []

    def step():
        setup = run.launch("e2e", extra=["--zero-horizon"])
        result = run.launch("e2e")
        if setup is None or result is None:
            return False
        setups.append(setup)
        walls.append(result)
        return True

    run.timed_loop(seconds, MIN_ITERATIONS, step)
    if walls:
        run.same_output(setups, "setup")
        run.same_output(walls, "end-to-end")
        run.check_reference(walls[0])
    if not walls:
        return {}
    for label, runs in (("wall_s", walls), ("setup_s", setups)):
        times = sorted(r["wall_s"] for r in runs)
        print("samples %s: n=%d min=%.6g median=%.6g max=%.6g" % (
            label, len(times), times[0], statistics.median(times), times[-1]))
        print("raw %s %s" % (label, json.dumps([r["wall_s"] for r in runs])),
              file=sys.stderr)
    # The fastest run: host contention only ever adds time (README.md).
    # node_rounds_per_s pairs it with the fastest set-up.
    wall_s = min(r["wall_s"] for r in walls)
    try:
        rate = node_rounds_per_s(walls[0]["nodes"], walls[0]["horizon_rounds"],
                                 wall_s, min(r["wall_s"] for r in setups))
    except ValueError as error:
        run.fail(str(error))
        return {}
    return {
        "wall_s": wall_s,
        "node_rounds_per_s": rate,
        "setup_s": statistics.median(r["wall_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in walls),
    }


def derived_layers(layers):
    """Ratios of one traced run's raw values."""
    total = layers["net.deliveries.total"]
    node_rounds = layers["nodes"] * layers["horizon_rounds"]
    probes = layers["metrics.probes"]
    probe_s = (layers["metrics.snapshot_s"] + layers["metrics.skew_s"]
               + layers["trace.monitor_s"])
    records = layers["trace.records"]
    layers["net.max_level_share"] = (
        layers["net.deliveries.max_level"] / total if total else 0.0)
    layers["net.deliveries_per_node_round"] = (
        total / node_rounds if node_rounds else 0.0)
    layers["metrics.per_probe_us"] = probe_s / probes * 1e6 if probes else 0.0
    layers["trace.bytes_per_record"] = (
        layers["trace.bytes"] / records if records else 0.0)
    layers["bench.coverage"] = coverage(layers)
    return layers


def per_layer(run, seconds):
    """Alternates untraced and traced runs of the workload; the medians of
    the traced runs are the split, the untraced ones its baseline."""
    walls = []
    traced = []

    def step():
        result = run.launch("e2e")
        layers = run.launch("traced")
        if result is None or layers is None:
            return False
        walls.append(result)
        traced.append(layers)
        for name in RESULT_FIELDS + ("events",):
            key = "sim.events" if name == "events" else name
            if layers[key] != result[name]:
                run.failed += 1
                run.fail("traced %s differs from the end-to-end run" % name)
        if result["trace_records"] != layers["trace.records"]:
            run.failed += 1
            run.fail("traced trace.records differs from the end-to-end run")
        if layers["core.violations"] or layers["trace.monitor_violations"]:
            run.failed += 1
            run.fail("traced run reports violations")
        return True

    run.timed_loop(seconds, MIN_TRACED, step)
    if not traced:
        return {}
    run.same_output(walls, "end-to-end")
    reference = REFERENCE.get(run.workload)
    if reference is not None:
        # The sharded backend has no public delivery tap: its kind counts
        # come from the reference workload's traced run at the same seed,
        # whose events and skew maxima must match.
        kinds = run.launch("traced", workload=reference)
        if kinds is None:
            return {}
        if kinds["sim.events"] != walls[0]["events"] or any(
                kinds[name] != walls[0][name] for name in RESULT_FIELDS):
            run.failed += 1
            run.fail("%s differs from %s" % (run.workload, reference))
        for layers in traced:
            for key in ("net.deliveries.cluster_pulse",
                        "net.deliveries.max_level", "net.deliveries.total"):
                layers[key] = kinds[key]
    for layers in traced:
        derived_layers(layers)
    metrics = {name: statistics.median(layers[name] for layers in traced)
               for name, _ in PER_LAYER if not name.startswith("bench.")}
    metrics["bench.coverage"] = statistics.median(
        layers["bench.coverage"] for layers in traced)
    metrics["bench.span_overhead"] = span_overhead(
        statistics.median(layers["traced_wall_s"] for layers in traced),
        statistics.median(r["wall_s"] for r in walls))
    if metrics["bench.coverage"] < MIN_COVERAGE:
        run.fail("bench.coverage %.3f is below %.2f"
                 % (metrics["bench.coverage"], MIN_COVERAGE))
    return metrics


# ---- entry points -----------------------------------------------------------

def self_test():
    try:
        build_dir = build(["perfbench_selftest"])
    except Failure as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    tmp_dir = os.path.join(build_dir, "tmp-selftest-%d" % os.getpid())
    os.makedirs(tmp_dir, exist_ok=True)
    try:
        code = subprocess.run([os.path.join(build_dir, "perfbench_selftest"),
                               tmp_dir], cwd=ROOT).returncode
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    suite = unittest.defaultTestLoader.discover(os.path.join(HERE, "tests"))
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if code == 0 and ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        parser.error("--workload, a seed >= 0 and --seconds >= 1 are required")

    try:
        build_dir = build(["perfbench_worker"])
        worker = os.path.join(build_dir, "perfbench_worker")
        host = host_context(worker)
    except Failure as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    if host["build_type"] != "Release" or not host["ndebug"]:
        print("perfbench: refusing to report from a %s build of libftgcs"
              % host["build_type"], file=sys.stderr)
        return 3
    print("host: " + " ".join("%s=%s" % (k, json.dumps(v))
                              for k, v in host.items()))

    tmp_dir = os.path.join(build_dir, "tmp-%d" % os.getpid())
    os.makedirs(tmp_dir, exist_ok=True)
    run = Run(worker, args.workload, args.seed, tmp_dir)
    try:
        if args.trace:
            metrics = per_layer(run, args.seconds)
            catalogue = PER_LAYER
        else:
            metrics = end_to_end(run, args.seconds)
            catalogue = END_TO_END
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    for problem in run.problems:
        print("FAILED: %s" % problem)
    if len(metrics) != len(catalogue):
        metrics = {}
        if not run.problems:
            run.fail("no metrics")
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in catalogue if name in metrics}
    for name, unit in catalogue:
        if name in metrics:
            print("%-32s %16.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
