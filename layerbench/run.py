#!/usr/bin/env python3
"""Layer-ledger benchmark for jrs: build, run, check, report.

    python3 layerbench/run.py --workload sweep_cold --seed 1 \
        --seconds 20 --trace 0

Run from the root of a jrs checkout. The first run builds the jrs
library and the layerbench binary (RelWithDebInfo) into
.bench_build/layerbench; later runs reuse that build.

Every repetition runs in a fresh layerbench process, so peak RSS is that
repetition's own. With --trace 0 the script repeats the workload until
--seconds have passed, tops the set-up samples up with set-up-only
launches, and reports the median of each end-to-end metric. With
--trace 1 it runs one untraced and one traced repetition and reports
the traced run's per-layer ledger plus the tracing overhead.

Every operation's output is checked: stream checksums and simulated
statistics against golden.json (pinned from a known-good build), the
profilers' cycle conservation, and zero fuzz divergences. The last line
of stdout is the JSON result; everything before it is the report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "layerbench")
BINARY = os.path.join(BUILD_DIR, "layerbench")
WORKLOADS = ("sweep_cold", "profile_replay", "check_fuzz")
# Set-up samples per untraced run: every repetition gives one, and
# set-up-only launches fill in the rest.
MIN_SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150


def log(*parts):
    print(*parts, flush=True)


def build():
    """Configure (first time) and build the binary; exit 1 on failure."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("layerbench: run from the root of a jrs checkout "
                 "(src/CMakeLists.txt not found)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "layerbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("layerbench: build failed: " + " ".join(cmd))


def git_revision():
    if not os.path.exists(".git"):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def launch(workload, seed, extra=()):
    """One layerbench process; returns its parsed JSON, or None on failure."""
    cmd = [BINARY, workload, "--seed", str(seed)] + list(extra)
    cmd += ["--launched-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"repetition timed out after {CHILD_TIMEOUT_S} s")
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"repetition failed: exit {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("repetition printed no result")
        return None


class Checker:
    """Counts operations attempted and failed against golden.json."""

    def __init__(self, workload):
        with open(os.path.join(HERE, "golden.json")) as f:
            golden = json.load(f)
        self.workload = workload
        self.golden = golden[workload]
        self.attempted = 0
        self.failed = 0

    def check(self, rep):
        """Check one repetition's operations; None counts all as failed."""
        expected = self.golden["ops"]
        if rep is None:
            self.attempted += expected
            self.failed += expected
            return
        ops = rep["ops"]
        self.attempted += max(expected, len(ops))
        bad = max(0, expected - len(ops))
        pinned = self.golden.get("values", {})
        for op in ops:
            why = None
            if not op["ok"]:
                why = op["error"] or "not ok"
            elif pinned:
                want = pinned.get(op["id"])
                if want is None:
                    why = "no golden values"
                elif op["values"] != want:
                    diff = sorted(k for k in set(want) | set(op["values"])
                                  if want.get(k) != op["values"].get(k))
                    why = "differs from golden in " + ", ".join(diff)
            if why is not None:
                bad += 1
                log(f"FAILED {self.workload} {op['id']}: {why}")
        if len(ops) != expected:
            log(f"FAILED {self.workload}: {len(ops)} operations, "
                f"expected {expected}")
        self.failed += bad


def spread(values):
    """(median, IQR / median) of a sample; IQR is 0 below two values."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def run_untraced(args, spec, checker, context):
    reps = []
    attempts = 0
    start = time.monotonic()
    while attempts == 0 or time.monotonic() - start < args.seconds:
        attempts += 1
        rep = launch(args.workload, args.seed)
        checker.check(rep)
        if rep is not None:
            reps.append(rep)
            context.update(rep["context"])
            log(f"rep {len(reps)}: setup_s={rep['setup_s']:.6f} "
                f"wall_s={rep['wall_s']:.4f} cpu_s={rep['cpu_s']:.4f} "
                f"peak_rss_mb={rep['peak_rss_mb']:.1f}")
    if not reps:
        sys.exit("layerbench: every repetition failed")
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        rep = launch(args.workload, args.seed, ["--setup-only"])
        if rep is None:
            sys.exit("layerbench: set-up-only launch failed")
        setups.append(rep["setup_s"])

    metrics = {}
    log(f"\n{len(reps)} repetitions, {len(setups)} set-up samples; "
        "median, IQR/median, min, max:")
    for m in spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        values = setups if name == "setup_s" else [r[name] for r in reps]
        med, iqr = spread(values)
        log(f"  {name:<12} {med:.6g} {unit}  iqr {100 * iqr:.2f}%  "
            f"min {min(values):.6g}  max {max(values):.6g}")
        metrics[name] = {"value": med, "unit": unit}
    walls = [r["wall_s"] for r in reps]
    if len(walls) >= 3:
        rest = statistics.median(walls[1:])
        if walls[0] > 1.1 * rest:
            log(f"  warm-up: first repetition {walls[0]:.4f} s vs "
                f"median of the rest {rest:.4f} s")
        else:
            log("  warm-up: none detected (first repetition within 10% "
                "of the rest)")
    return metrics


def run_traced(args, spec, checker, context):
    plain = launch(args.workload, args.seed)
    checker.check(plain)
    trace_json = os.path.join(
        ".bench_build", f"layerbench-trace-{args.workload}-{args.seed}.json")
    log("traced repetition, self-time tables:")
    traced = launch(args.workload, args.seed,
                    ["--trace", "1", "--trace-json", trace_json])
    checker.check(traced)
    if plain is None or traced is None:
        sys.exit("layerbench: traced run failed")
    context.update(traced["context"])
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    log(f"\nuntraced wall_s {plain['wall_s']:.4f}, traced wall_s "
        f"{traced['wall_s']:.4f}, tracing overhead "
        f"{layers['trace.overhead_s']:+.4f} s; Chrome trace: {trace_json}")
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] not in layers:
            sys.exit(f"layerbench: traced run lacks {m['name']}")
        metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
        log(f"  {m['name']:<20} {layers[m['name']]:.6g} {m['unit']}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    checker = Checker(args.workload)
    context = {"workload": args.workload, "seed": args.seed,
               "tracing": bool(args.trace), "git_revision": git_revision()}
    if args.trace:
        metrics = run_traced(args, spec, checker, context)
    else:
        metrics = run_untraced(args, spec, checker, context)
    log("context: " + json.dumps(context, sort_keys=True))
    log(f"operations: {checker.attempted} attempted, {checker.failed} failed")
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
