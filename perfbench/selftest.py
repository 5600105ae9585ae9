#!/usr/bin/env python3
"""The benchmark's own tests: determinism and the output contract.

    python3 perfbench/selftest.py

Builds the benchmark like run.py, then, on probe-size inputs:
  1. for every workload, a traced and an untraced run print the same
     simulated digest, and each result line carries exactly the metrics
     BENCHMARK.json names (per_layer when traced, end_to_end otherwise);
  2. short serve and hammer runs write byte-identical reports at
     DL_THREADS=1 and DL_THREADS=2.
Prints one line per check and exits non-zero if any fails.
"""
import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def perfbench(workload, trace, threads=run.THREADS, report=None):
    cmd = [str(run.BINARY), "--workload", workload, "--seed", "5",
           "--seconds", "0", "--trace", str(trace), "--size", "probe"]
    if report:
        cmd += ["--report", str(report)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          env=dict(os.environ, DL_THREADS=str(threads)),
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (cmd, proc.returncode,
                                                  proc.stderr))
    digest = re.search(r"^sim digest: \S+ ([0-9a-f]{8})$", proc.stdout, re.M)
    return digest.group(1), json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    if not run.build():
        return 1
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for workload in run.WORKLOADS:
        plain, plain_result = perfbench(workload, trace=0)
        traced, traced_result = perfbench(workload, trace=1)
        check(plain == traced,
              "%s: traced digest %s == untraced %s" % (workload, traced, plain))
        for result, key in ((plain_result, "end_to_end"),
                            (traced_result, "per_layer")):
            want = sorted(m["name"] for m in SPEC[key])
            check(sorted(result["metrics"]) == want,
                  "%s: result carries exactly the %s metrics" % (workload, key))

    for workload in ("serve", "hammer"):
        reports = []
        for threads in (1, 2):
            path = run.BUILD / ("selftest-%s-t%d.json" % (workload, threads))
            perfbench(workload, trace=0, threads=threads, report=path)
            reports.append(path.read_bytes())
        check(reports[0] == reports[1],
              "%s: report byte-identical at DL_THREADS=1 and 2" % workload)

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
