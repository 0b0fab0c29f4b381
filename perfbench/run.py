#!/usr/bin/env python3
"""The repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload box_day --seed 1 --seconds 30 --trace 0

Builds perfbench_driver from the checkout's sources on first use, then runs
repetitions of the workload — each one a fresh driver process on one thread —
for --seconds seconds, checks every repetition, and prints one JSON object as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: host-time medians over the
repetitions plus the simulated results, which repeat exactly. With --trace 1
they are the per-layer ones: deterministic counters, the set-up split, and
per-layer shares of host time from the SIGPROF sampler, whose repetitions
alternate with untraced ones so the tracing overhead is measured too.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402  (perfbench/layers.py)

WORKLOADS = ("box_day", "box_io", "cluster_day")

# name -> unit. End-to-end metrics (--trace 0).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "cpu_util": "frac",
    "secondary_util": "frac",
    "served_frac": "frac",
}

# name -> unit. Per-layer metrics (--trace 1).
PER_LAYER = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.cancelled_frac": "frac",
    "sim.wheel_cascades": "count",
    "sim.overflow_pulls": "count",
    "sim.callback_heap_allocs": "count",
    "machine.dispatches": "count",
    "machine.preemptions": "count",
    "machine.steals": "count",
    "disk.ssd_ops": "count",
    "disk.hdd_ops": "count",
    "disk.secondary_ops": "count",
    "disk.primary_wait_p99_us": "us",
    "indexserve.queries": "count",
    "indexserve.hedges": "count",
    "indexserve.dropped": "count",
    "indexserve.log_stalls": "count",
    "perfiso.polls": "count",
    "perfiso.affinity_updates": "count",
    "perfiso.io_polls": "count",
    "perfiso.rate_updates": "count",
    "perfiso.io_adjustments": "count",
    "net.flows": "count",
    "net.bytes": "B",
    "net.chunks": "count",
    "net.flow_p99_ms": "ms",
    "cluster.mla_p99_ms": "ms",
    "cluster.failed": "count",
    "client.arrivals": "count",
    "setup.build_s": "s",
    "setup.trace_s": "s",
    "setup.warmup_s": "s",
    "trace.samples": "count",
    "trace.unattributed_share": "frac",
    "trace.overhead_frac": "frac",
    "runtime.self_share": "frac",
}
PER_LAYER.update({"%s.self_share" % layer: "frac" for layer in layers.LAYERS})

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Traced runs also sample one partner workload, for the bypass checks.
PARTNER = {"box_day": "box_io", "box_io": "box_day", "cluster_day": "box_day"}
PARTNER_REPS = 2
MIN_REPS = 3


def valid_metric_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# --- Build ---------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the driver; returns its path, or None."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs]]
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        steps.insert(0, configure)
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(out, "perfbench_driver")


# --- Repetitions ---------------------------------------------------------------

def run_rep(driver, workload, seed, samples_path=None):
    """Runs one driver process; returns (record or None, host seconds)."""
    cmd = [driver, "--workload", workload, "--seed", str(seed)]
    if samples_path:
        cmd += ["--samples", samples_path]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        log("%s seed %d: driver exited %d: %s" % (workload, seed, proc.returncode,
                                                  proc.stderr.strip()[-2000:]))
        return None, elapsed
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), elapsed
    except (IndexError, ValueError):
        log("%s seed %d: unreadable driver output" % (workload, seed))
        return None, elapsed


def rep_problems(rec):
    """Checks one repetition on its own; returns a list of problems."""
    problems = list(rec["violations"])
    v = rec["values"]
    for name in ("p50_ms", "p99_ms"):
        if v.get(name) is None or not v[name] > 0:
            problems.append("%s is not a positive finite latency" % name)
    if not 0 < v["secondary_util"] < v["cpu_util"] <= 1:
        problems.append("utilization out of range: cpu %r secondary %r"
                        % (v["cpu_util"], v["secondary_util"]))
    if not v["primary.submitted"] > 0 or v["client.arrivals"] < v["primary.submitted"]:
        problems.append("query conservation: %r arrivals, %r submitted in the window"
                        % (v["client.arrivals"], v["primary.submitted"]))
    if rec["workload"] != "cluster_day":
        # Bypass check: a single box never touches the fabric.
        for name in ("net.flows", "net.bytes", "net.chunks"):
            if v[name] != 0:
                problems.append("%s is %r on a single box" % (name, v[name]))
    return problems


def fingerprint(rec):
    """Everything that must repeat exactly for a (workload, seed)."""
    values = {k: x for k, x in rec["values"].items() if k != "sim.ns_per_event"}
    return json.dumps([values, rec["digests"]], sort_keys=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Campaign:
    """Repetitions of one workload and seed, checked as they come in."""

    def __init__(self, driver, workload, seed):
        self.driver = driver
        self.workload = workload
        self.seed = seed
        self.records = []
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.durations = []

    def run(self, samples_path=None):
        self.attempted += 1
        rec, elapsed = run_rep(self.driver, self.workload, self.seed, samples_path)
        self.durations.append(elapsed)
        if rec is None:
            self.failed += 1
            return None
        problems = rep_problems(rec)
        fp = fingerprint(rec)
        if self.reference is None:
            self.reference = fp
        elif fp != self.reference:
            problems.append("results differ from the first repetition of this seed")
        if problems:
            self.failed += 1
            for p in problems:
                log("%s seed %d: %s" % (self.workload, self.seed, p))
            return None
        rec["traced"] = samples_path is not None
        self.records.append(rec)
        return rec

    def rep_seconds(self):
        return median(self.durations)

    def timing(self, name, traced=False):
        return median([r["timing"][name] for r in self.records if r["traced"] == traced])


def run_untraced(driver, workload, seed, seconds):
    c = Campaign(driver, workload, seed)
    start = time.monotonic()
    while c.attempted < MIN_REPS or (
            time.monotonic() - start + c.rep_seconds() <= seconds):
        c.run()
    return c


def run_traced(driver, workload, seed, seconds, scratch):
    """Alternates untraced and traced repetitions, then samples the partner
    workload; returns (campaign, workload sample files, partner campaign,
    partner sample files)."""
    c = Campaign(driver, workload, seed)
    partner = Campaign(driver, PARTNER[workload], seed)
    files = []
    start = time.monotonic()
    # Reserve time for the partner's repetitions (box repetitions, ~1 s each).
    budget = seconds - PARTNER_REPS * 1.5
    while c.attempted < 2 or (time.monotonic() - start + c.rep_seconds() <= budget):
        if c.attempted % 2 == 0:
            c.run()
        else:
            path = os.path.join(scratch, "%s-%d.samples" % (workload, c.attempted))
            if c.run(path) is not None:
                files.append(path)
    partner_files = []
    for i in range(PARTNER_REPS):
        path = os.path.join(scratch, "partner-%s-%d.samples" % (partner.workload, i))
        if partner.run(path) is not None:
            partner_files.append(path)
    return c, files, partner, partner_files


# --- Reports -------------------------------------------------------------------

def end_to_end_metrics(c):
    rec = c.records[0]["values"]
    values = {name: c.timing(name) for name in ("setup_s", "wall_s", "peak_rss_mb")}
    for name in ("p50_ms", "p99_ms", "cpu_util", "secondary_util", "served_frac"):
        values[name] = rec[name]
    return values


def bypass_problems(workload, shares, partner_shares):
    """The traced run's check that each workload still stresses the layers it
    was chosen for."""
    problems = []
    if workload in ("box_day", "box_io"):
        day, io = ((shares, partner_shares) if workload == "box_day"
                   else (partner_shares, shares))
        if not io["cpu_set.self_share"] < day["cpu_set.self_share"]:
            problems.append("cpu_set.self_share is not lower on box_io (%.4f) than on "
                            "box_day (%.4f)" % (io["cpu_set.self_share"],
                                                day["cpu_set.self_share"]))
    else:
        control = lambda s: s["perfiso.self_share"] + s["platform.self_share"]
        if not control(shares) > control(partner_shares):
            problems.append("perfiso+platform share is not higher on cluster_day (%.4f) "
                            "than on box_day (%.4f)" % (control(shares),
                                                        control(partner_shares)))
    return problems


def per_layer_metrics(driver, c, files, partner, partner_files):
    """Returns (metrics, problems)."""
    problems = []
    values = {k: x for k, x in c.records[0]["values"].items()
              if k in PER_LAYER and k != "sim.ns_per_event"}
    values["sim.ns_per_event"] = median(
        [r["values"]["sim.ns_per_event"] for r in c.records if not r["traced"]])
    for name in ("setup.build_s", "setup.trace_s", "setup.warmup_s"):
        values[name] = c.timing(name)
    shares, samples = layers.layer_shares(driver, files, ROOT)
    partner_shares, partner_samples = layers.layer_shares(driver, partner_files, ROOT)
    values.update(shares)
    values["trace.samples"] = samples
    untraced, traced = c.timing("wall_s"), c.timing("wall_s", traced=True)
    values["trace.overhead_frac"] = traced / untraced - 1 if untraced else 0.0
    if samples == 0 or partner_samples == 0:
        problems.append("the sampler recorded no samples")
    else:
        problems += bypass_problems(c.workload, shares, partner_shares)
    log("%s: %d samples, partner %s %d samples" % (c.workload, samples, partner.workload,
                                                   partner_samples))
    return values, problems


def result(correct, attempted, failed, values, units):
    metrics = {}
    for name, unit in units.items():
        if not valid_metric_name(name) or not valid_unit(unit):
            raise ValueError("invalid metric %r / unit %r" % (name, unit))
        if name not in values:
            raise ValueError("metric %r was not measured" % name)
        metrics[name] = {"value": values[name], "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    driver = build()
    if driver is None:
        return 1

    if args.trace == 0:
        c = run_untraced(driver, args.workload, args.seed, args.seconds)
        if not c.records:
            log("no repetition succeeded")
            return 1
        values = end_to_end_metrics(c)
        out = result(c.failed == 0, c.attempted, c.failed, values, END_TO_END)
    else:
        scratch = tempfile.mkdtemp(prefix="samples-", dir=os.path.dirname(build_dir()))
        try:
            c, files, partner, partner_files = run_traced(
                driver, args.workload, args.seed, args.seconds, scratch)
            if not c.records or not partner.records:
                log("no repetition succeeded")
                return 1
            values, problems = per_layer_metrics(driver, c, files, partner, partner_files)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        for p in problems:
            log("bypass check failed: " + p)
        failed = c.failed + partner.failed
        correct = failed == 0 and not problems
        out = result(correct, c.attempted + partner.attempted, failed, values, PER_LAYER)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
