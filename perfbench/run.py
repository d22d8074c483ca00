#!/usr/bin/env python3
"""The repository benchmark: reference workloads of the Presto simulator,
host-time end-to-end metrics, and a per-layer split measured from outside
the simulator.

    python3 perfbench/run.py --workload stride --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

A run builds the `perfbench` package beside this file, then starts one
fresh `perfbench run` process after another until --seconds have passed.
Every process's digest is checked against pins.json. The end-to-end times
are medians over the processes of each one's time divided by a
calibration kernel timed in it, so that the host's drift in speed
cancels. Lines before the last print every metric by name and unit; the
last line is one JSON object. The exit status is non-zero when any
process failed or reported a digest other than the pinned one.
README.md explains the workloads, the metrics and the layer map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["stride", "skew_prequal", "threetier_8192"]

# End-to-end times are reported in seconds of a host on which the
# calibration kernel takes CALIBRATE_REF_S: the median over processes of
# measured time × CALIBRATE_REF_S / that process's kernel time. The host's
# fast and slow spells last seconds, so a process's kernel runs at the
# same speed as its simulation; the median of plain times would follow
# the share of slow spells in the run instead.
CALIBRATE_REF_S = 0.03

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# The event kinds any workload schedules during a run.
EVENT_KINDS = ["Net", "NicPoll", "GroTimer", "CpuDone", "Rto", "EgressDrain",
               "PathFeedback", "IncastNext", "ProbeRound"]

PER_LAYER = {
    "simcore.events": "count",
    "simcore.events_per_s": "1/s",
    "simcore.queue_high_water": "count",
    **{f"simcore.events.{k}": "count" for k in EVENT_KINDS},
    "netsim.topology_s": "s",
    "netsim.tx_packets": "count",
    "netsim.drops": "count",
    "netsim.max_queue_bytes": "bytes",
    "testbed.build_rest_s": "s",
    "endhost.tx_segments": "count",
    "endhost.egress_staged": "count",
    "endhost.ring_drops": "count",
    "gro.s": "s",
    "gro.calls": "count",
    "gro.allocs": "count",
    "gro.merge_ratio": "pkt/seg",
    "gro.flush.loss": "count",
    "gro.flush.reorder": "count",
    "gro.reorders_masked": "count",
    "gro.timeout_fires": "count",
    "lb.s": "s",
    "lb.calls": "count",
    "lb.allocs": "count",
    "lb.flowcells": "count",
    "probe.rounds": "count",
    "transport.retransmissions": "count",
    "transport.timeouts": "count",
    "transport.fast_retransmits": "count",
    "metrics.digest_s": "s",
    "alloc.setup": "count",
    "alloc.run": "count",
    "engine.other_s": "s",
    "trace.overhead_s": "s",
}

# Counters that must repeat exactly between processes of one workload and
# seed: the deterministic figures later changes are gated on.
EXACT = ["simcore.events", "alloc.setup", "alloc.run"]
EXACT_TRACED = EXACT + ["gro.allocs", "lb.allocs"]

MIN_PLAIN = 3    # untraced processes per invocation, however short --seconds
MIN_TRACED = 2   # traced processes, so the exact counters are compared
CHILD_TIMEOUT_S = 170


def child_env():
    """The environment for cargo and the measured processes, without the
    simulator's deprecated PRESTO_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRESTO_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if res.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_once(binary, env, workload, seed, traced):
    """One measured process. Returns (measurements, None) or (None, error)."""
    cmd = [binary, "run", workload, str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if res.returncode != 0:
        return None, f"exit status {res.returncode}: {res.stderr.strip()[-400:]}"
    try:
        return json.loads(res.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"unreadable output: {res.stdout[-200:]!r}"


def pinned_digest(workload):
    """Every workload is seed-invariant, so one digest is pinned for all
    seeds (README.md, "Seed invariance")."""
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)[workload]["digest"]


class Measurement:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.expected = pinned_digest(workload)
        self.plain, self.traced, self.problems = [], [], []
        self.attempted = self.failed = 0

    def one(self, binary, env, traced):
        self.attempted += 1
        out, err = run_once(binary, env, self.workload, self.seed, traced)
        kind = "traced" if traced else "untraced"
        if out is None:
            self.failed += 1
            self.problems.append(f"{kind} process failed: {err}")
            return
        if out["digest"] != self.expected:
            self.failed += 1
            self.problems.append(f"{kind} digest {out['digest']} != expected {self.expected}")
            return
        (self.traced if traced else self.plain).append(out)

    def enough(self, trace):
        return len(self.plain) >= MIN_PLAIN and (not trace or len(self.traced) >= MIN_TRACED)

    def self_test(self):
        """Exact counters must repeat between processes."""
        for runs, keys in ((self.plain, EXACT), (self.traced, EXACT_TRACED)):
            for key in keys:
                values = sorted({r[key] for r in runs})
                if len(values) > 1:
                    self.problems.append(f"{key} differs between processes: {values}")

    @property
    def correct(self):
        return self.failed == 0 and not self.problems and bool(self.plain)


def measure(binary, env, workload, seed, seconds, trace):
    m = Measurement(workload, seed)
    start = time.monotonic()
    while True:
        m.one(binary, env, False)
        if trace:
            m.one(binary, env, True)
        if time.monotonic() - start >= seconds and (m.enough(trace) or m.failed):
            break
    m.self_test()
    return m


def med(runs, key):
    return statistics.median(r.get(key, 0) for r in runs)


def calibrated(runs, key):
    """The median over processes of `key` in calibration-kernel units."""
    return statistics.median(r[key] / r["calibrate_s"] for r in runs) * CALIBRATE_REF_S


def end_to_end(m):
    return {"run_s": calibrated(m.plain, "run_s"),
            "setup_s": calibrated(m.plain, "setup_s"),
            "peak_rss_mb": med(m.plain, "peak_rss_mb")}


def per_layer(m):
    out = {}
    for name in PER_LAYER:
        if name == "simcore.events_per_s":
            out[name] = med(m.traced, "simcore.events") / end_to_end(m)["run_s"]
        elif name == "trace.overhead_s":
            out[name] = med(m.traced, "run_s") - med(m.plain, "run_s")
        elif name == "gro.merge_ratio":
            out[name] = med(m.traced, "gro.packets_in") / max(med(m.traced, "gro.segments_out"), 1)
        else:
            out[name] = med(m.traced, name)
    return out


def print_result(m, trace):
    print(f"# {m.workload} seed {m.seed}: {len(m.plain)} untraced + {len(m.traced)} traced "
          f"processes, pinned digest {m.expected}")
    for problem in m.problems:
        print(f"# FAIL {problem}")
    metrics = {}
    if m.plain and (not trace or m.traced):
        units = dict(END_TO_END, **PER_LAYER)
        shown = end_to_end(m)
        metrics = per_layer(m) if trace else dict(shown)
        shown.update(metrics)
        for name, value in shown.items():
            print(f"{name:<32} {value!r:>24} {units[name]}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": m.correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return m.correct


def check_benchmark_json():
    """The metric lists here and in BENCHMARK.json must agree."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        bench = json.load(f)
    problems = [f"BENCHMARK.json workload {e['name']} is not in run.py"
                for e in bench["workloads"] if e["name"] not in WORKLOADS]
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = [e["name"] for e in bench[key]]
        if sorted(theirs) != sorted(ours):
            problems.append(f"BENCHMARK.json {key} {theirs} != run.py {list(ours)}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="for every workload, run untraced and traced processes and check "
                         "digests and exact counters; exit non-zero on any mismatch")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    env = child_env()
    binary = build(env)
    if args.self_test:
        ok = True
        for problem in check_benchmark_json():
            print(f"# FAIL {problem}")
            ok = False
        for workload in WORKLOADS:
            ok &= print_result(measure(binary, env, workload, args.seed, 0, True), True)
        sys.exit(0 if ok else 1)
    m = measure(binary, env, args.workload, args.seed, args.seconds, args.trace == 1)
    sys.exit(0 if print_result(m, args.trace == 1) else 1)


if __name__ == "__main__":
    main()
