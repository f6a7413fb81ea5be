#!/usr/bin/env python3
"""Regression gate on one layerbench run.

    python3 layerbench/run.py --workload profile_replay --seed 1 \
        --seconds 5 > layerbench.out
    python3 bench/layerbench_gate.py bench/layerbench_baseline.json \
        layerbench.out

RESULT is layerbench's stdout, whose last line is the JSON result;
BASELINE is such a result from a known-good build. The gate exits 1
when the run is not correct, counts a failed operation, takes more
than 4x the baseline's wall_s or cpu_s, or peaks above 1.10x its
peak_rss_mb, and 2 when an input cannot be read. The time ratio is
generous on purpose: CI hardware varies, and the regressions worth
stopping here (an accidental quadratic loop, logging left on) are far
past it. Peak memory varies little between hosts: on profile_replay it
is almost all the two recorded streams, so 10% is a real regression
(a wider trace record, a stream held twice).
"""

import json
import sys

# Metric -> (unit, largest allowed ratio to the baseline).
GATED = {
    "wall_s": ("s", 4.0),
    "cpu_s": ("s", 4.0),
    "peak_rss_mb": ("MB", 1.10),
}


def last_line(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    return json.loads(lines[-1])


def value(result, name):
    return float(result["metrics"][name]["value"])


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} BASELINE RESULT", file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            base = json.load(f)
        result = last_line(argv[2])
        ratios = {name: value(result, name) / value(base, name)
                  for name in GATED}
    except (OSError, ValueError, KeyError, TypeError,
            ZeroDivisionError) as e:
        print(f"layerbench_gate: unreadable input: {e!r}", file=sys.stderr)
        return 2

    problems = []
    if result.get("correct") is not True:
        problems.append("the run's output check failed")
    if result.get("failed", 1) != 0:
        problems.append(f"{result.get('failed')} failed operations")
    for name, ratio in ratios.items():
        unit, limit = GATED[name]
        print(f"{name}: {value(result, name):.3f} {unit} vs baseline "
              f"{value(base, name):.3f} {unit} ({ratio:.2f}x, "
              f"limit {limit:g}x)")
        if ratio > limit:
            problems.append(f"{name} is {ratio:.2f}x the baseline")
    for p in problems:
        print(f"FAIL: {p}")
    print("gate: " + ("FAIL" if problems else "pass"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
