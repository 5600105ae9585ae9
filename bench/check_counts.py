#!/usr/bin/env python3
"""Exact-count gate: the benchmark's simulated outputs must not move.

  python3 bench/check_counts.py            # check against bench/exact_counts.json
  python3 bench/check_counts.py --update   # re-record the file

Builds the end-to-end benchmark through perfbench/run.py, as
perfbench/selftest.py does, and runs it on probe-size inputs (seed 5):
the sim digests of `serve` and `hammer` from untraced runs, and the digest
plus the simulated per-layer values of one traced `chaos` run.  Any
difference from the recorded file fails the check.

These values are exact for a seed on any host, so unlike wall times they
can be compared with ==.  Left out: every host-time value (a time unit, or
a ratio of host times such as parallel.speedup), and the nn.* and attack.*
metrics, whose BFA results depend on the compiler's floating-point code
generation.  A change that is meant to move a value re-records the file
with --update and says why.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402  (perfbench/run.py)

COUNTS = ROOT / "bench" / "exact_counts.json"
SEED = 5
UNTRACED = ("serve", "hammer")
TRACED = "chaos"
SIM_UNITS = {"count", "frac", "ratio"}
SKIP_LAYERS = {"nn", "attack"}
HOST_RATIOS = {"parallel.speedup", "scenario.serial_frac"}


def perfbench(workload, trace):
    """(digest, metrics) of one probe-size run."""
    cmd = [str(run.BINARY), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--size", "probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, DL_THREADS=run.THREADS),
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (cmd, proc.returncode,
                                                  proc.stderr))
    digest = re.search(r"^sim digest: \S+ ([0-9a-f]{8})$", proc.stdout, re.M)
    if digest is None:
        raise RuntimeError("%s printed no sim digest" % cmd)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    return digest.group(1), result["metrics"]


def simulated(metrics):
    return {name: m["value"] for name, m in sorted(metrics.items())
            if m["unit"] in SIM_UNITS and name not in HOST_RATIOS
            and name.split(".")[0] not in SKIP_LAYERS}


def measure():
    digests = {w: perfbench(w, trace=0)[0] for w in UNTRACED}
    digests[TRACED], metrics = perfbench(TRACED, trace=1)
    return {
        "comment": "exact simulated outputs of perfbench at probe size; "
                   "check or re-record with bench/check_counts.py",
        "seed": SEED,
        "digests": dict(sorted(digests.items())),
        "traced_workload": TRACED,
        "per_layer": simulated(metrics),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true",
                    help="re-record bench/exact_counts.json")
    args = ap.parse_args()
    if not run.build():
        return 1
    current = measure()
    if args.update:
        COUNTS.write_text(json.dumps(current, indent=2) + "\n")
        print("recorded %s" % COUNTS.relative_to(ROOT))
        return 0

    recorded = json.loads(COUNTS.read_text())
    failures = 0
    for section in ("digests", "per_layer"):
        want, got = recorded[section], current[section]
        for name in sorted(set(want) | set(got)):
            ok = want.get(name) == got.get(name)
            failures += not ok
            print("%s  %s: recorded %s, now %s" % (
                "ok  " if ok else "FAIL", name, want.get(name, "(absent)"),
                got.get(name, "(absent)")))
    print("%d value(s) differ" % failures if failures else "all exact")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
