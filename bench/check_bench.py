#!/usr/bin/env python3
"""Bench-trajectory guard: diff a fresh micro_ops JSON against the
checked-in baseline.

  python3 bench/check_bench.py BENCH_micro_ops.json
  python3 bench/check_bench.py --update BENCH_micro_ops.json  # re-baseline

Checks, in order:

  1. Coverage — every benchmark in the baseline must appear in the current
     run.  A missing benchmark (renamed, deleted, silently skipped) is a
     hard failure regardless of timing.
  2. Wall-time trajectory — per-benchmark real_time must stay within
     --tolerance (default +/-25%) of the baseline *after correcting for
     machine speed*: each ratio current/baseline is divided by the median
     ratio across all benchmarks, so a uniformly slower/faster runner
     cancels out and only relative regressions (one benchmark drifting
     against the rest) trip the guard.  The band is one-sided for
     failures: a benchmark that got *faster* than the band is reported
     (FAST) so the win shows up in the CI log and can be folded into the
     baseline with --update, but it never fails the check.  --absolute
     disables the correction for same-machine comparisons.

Benchmarks whose name matches a skip pattern (default: thread-autodetect
variants, an argument of 0 written "/0" or "/threads:0", whose timing
depends on the runner's core count) are excluded from both the baseline
and the check.

Benchmarks present only in the current run are reported but do not fail
the check; run with --update to fold them into the baseline.
"""

import argparse
import json
import re
import statistics
import sys

# thread-count-0 = autodetect: machine-shaped.  google-benchmark writes an
# argument as "/0", or "/threads:0" when the benchmark names its arguments.
DEFAULT_SKIP = [r"/(threads:)?0($|/)"]

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path, skip_patterns):
    """name -> real_time ns.  With --benchmark_repetitions the median is
    used (the library's median aggregate when present, otherwise computed
    over the repetitions), which is what makes a tight tolerance workable
    on noisy shared runners."""
    with open(path) as f:
        data = json.load(f)
    raw, medians = {}, {}
    for b in data.get("benchmarks", []):
        name = b.get("run_name", b.get("name", ""))
        if not name or any(re.search(p, name) for p in skip_patterns):
            continue
        # Entries without a real_time (e.g. error_occurred stubs from a
        # crashed fixture) and unknown time units are skipped, not fatal.
        if "real_time" not in b or b.get("time_unit", "ns") not in UNIT_NS:
            continue
        t = b["real_time"] * UNIT_NS[b.get("time_unit", "ns")]
        if b.get("aggregate_name") == "median":
            medians[name] = t
        elif b.get("run_type") != "aggregate" and "aggregate_name" not in b:
            raw.setdefault(name, []).append(t)
    out = {n: statistics.median(ts) for n, ts in raw.items()}
    out.update(medians)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="fresh google-benchmark JSON output")
    ap.add_argument("--baseline", default="bench/BENCH_baseline.json")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional drift per benchmark")
    ap.add_argument("--absolute", action="store_true",
                    help="skip the median machine-speed correction")
    ap.add_argument("--skip", action="append", default=None,
                    metavar="REGEX", help="extra name patterns to ignore")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the current run")
    args = ap.parse_args()

    skip = DEFAULT_SKIP + (args.skip or [])
    current = load(args.current, skip)
    if not current:
        print("check_bench: no benchmarks in", args.current)
        return 1

    if args.update:
        doc = {
            "comment": "micro_ops wall-time baseline for check_bench.py; "
                       "regenerate with: python3 bench/check_bench.py "
                       "--update <fresh BENCH_micro_ops.json>",
            "benchmarks": [
                {"name": n, "real_time": t, "time_unit": "ns"}
                for n, t in sorted(current.items())
            ],
        }
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"check_bench: baseline updated with {len(current)} "
              f"benchmarks -> {args.baseline}")
        return 0

    baseline = load(args.baseline, skip)
    missing = sorted(set(baseline) - set(current))
    extra = sorted(set(current) - set(baseline))
    failures = []
    if missing:
        failures.append(f"missing from current run: {', '.join(missing)}")

    shared = sorted(set(baseline) & set(current))
    if not shared:
        failures.append("no overlapping benchmarks between runs")
        ratios = {}
    else:
        # A (near-)zero baseline time cannot anchor a ratio; report it as a
        # broken baseline entry instead of dividing by it.
        degenerate = sorted(n for n in shared if baseline[n] <= 1e-9)
        if degenerate:
            failures.append("baseline entries with non-positive real_time "
                            "(re-baseline with --update): "
                            + ", ".join(degenerate))
        ratios = {n: current[n] / baseline[n] for n in shared
                  if baseline[n] > 1e-9}
    if not ratios:
        if shared:
            failures.append("no usable benchmark ratios (every baseline "
                            "entry was non-positive)")
    else:
        speed = 1.0 if args.absolute else statistics.median(ratios.values())
        print(f"check_bench: {len(ratios)} benchmarks, machine-speed factor "
              f"{speed:.3f}, tolerance +/-{args.tolerance:.0%}")
        improvements = []
        for n in sorted(ratios):
            drift = ratios[n] / speed - 1.0
            if drift > args.tolerance:
                marker = "FAIL"
            elif drift < -args.tolerance:
                marker = "FAST"  # improvement beyond the band: report only
            else:
                marker = "ok"
            print(f"  {marker:4} {n:48} base {baseline[n]:12.1f}ns "
                  f"cur {current[n]:12.1f}ns drift {drift:+7.1%}")
            if marker == "FAIL":
                failures.append(f"{n}: normalized drift {drift:+.1%} exceeds "
                                f"+{args.tolerance:.0%}")
            elif marker == "FAST":
                improvements.append(f"{n}: {drift:+.1%}")
        if improvements:
            print("check_bench: improvements beyond the band (fold into the "
                  "baseline with --update): " + "; ".join(improvements))

    if extra:
        print("check_bench: unguarded new benchmarks (add with --update): "
              + ", ".join(extra))
    if failures:
        print("\ncheck_bench: FAILED")
        for f in failures:
            print("  -", f)
        return 1
    print("check_bench: bench trajectory OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
