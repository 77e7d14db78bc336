#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny counts.

    python3 autobench/test/smoke.py        # from the repository root

For each workload of BENCHMARK.json, and for serve_columns, which runs
the same way but is left out of BENCHMARK.json (see README.md), the
timed run (--trace 0) must print every end-to-end metric of
BENCHMARK.json and the traced run (--trace 1) every per-layer metric,
each with its unit, and both must pass their correctness gates.  A
tampered synthesis fingerprint or daemon reply must trip the gate:
non-zero exit and "correct": false.  Exits 1 on any failure.
"""

import json
import subprocess
import sys


def run(workload, trace, *extra):
    cmd = [sys.executable, "autobench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "16", "--trace", str(trace),
           "--smoke"] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def main():
    bench = json.load(open("BENCHMARK.json"))
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in [w["name"] for w in bench["workloads"]] + ["serve_columns"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, r, out = run(w, trace)
            label = "%s --trace %d" % (w, trace)
            check(code == 0 and r is not None and r["correct"] is True,
                  label + " passes its gates")
            if r is None:
                print(out[-2000:])
                continue
            check(r["attempted"] >= 1 and r["failed"] == 0,
                  label + " answers everything it attempts")
            wanted = {m["name"]: m["unit"] for m in bench[section]}
            got = r["metrics"]
            check(set(got) == set(wanted),
                  label + " prints exactly the %s metrics" % section)
            for name, unit in wanted.items():
                m = got.get(name, {})
                check(m.get("unit") == unit
                      and isinstance(m.get("value"), (int, float)),
                      "%s prints %s in %s" % (label, name, unit))

    for w, trace, tamper in (("synth", 0, "fingerprint"),
                             ("synth", 1, "fingerprint"),
                             ("serve_small", 0, "reply"),
                             ("serve_columns", 1, "reply")):
        code, r, out = run(w, trace, "--tamper", tamper)
        check(code != 0 and r is not None and r["correct"] is False
              and "GATE FAILED" in out,
              "a tampered %s trips the gate (%s --trace %d)" % (tamper, w, trace))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
