#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload majority --seeds 1-10

For every metric it prints the median of the per-seed values and the
distance between their first and third quartiles (Python's
statistics.quantiles, n=4) as a share of that median — the spread the
bounds in BENCHMARK.json are checked against. Run it from the root of a
checkout; raw result lines are appended to
.bench_build/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)
    log = open(os.path.join(".bench_build", "spread-%s.jsonl" % a.workload), "a")
    values = {}
    for s in seeds(a.seeds):
        t0 = time.time()
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", a.workload,
                            "--seed", str(s), "--seconds", a.seconds, "--trace", a.trace],
                           capture_output=True, text=True)
        wall = time.time() - t0
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0:
            print("seed %d: exit %d\n%s" % (s, p.returncode, p.stderr), file=sys.stderr)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            continue
        log.write(json.dumps({"seed": s, "result": res}) + "\n")
        log.flush()
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        host = [l for l in lines if l.startswith("host:")]
        print("seed %d: correct=%s attempted=%d failed=%d wall=%.1fs %s"
              % (s, res["correct"], res["attempted"], res["failed"], wall, host[-1] if host else ""),
              flush=True)
    print("%-34s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        flag = ""
        if name in bounds and not spread < bounds[name] / 3:
            flag = "  <-- above a third of the bound"
        print("%-34s %12.6g %8.4f %8s%s" % (name, med, spread, bounds.get(name, ""), flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
