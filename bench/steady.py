#!/usr/bin/env python3
"""Steadiness check: run workloads several times, one run at a time.

    python3 bench/steady.py [--workload NAME ...] [--seeds 1-10] [--sets 2]

For every end-to-end metric it prints the median, the quartiles and the
spread (interquartile distance over the median) of each set of runs, next
to the metric's bound from BENCHMARK.json.  With two or more sets it also
prints how far each later set's median moved from the first set's.  The
failed share of operations must be identical in every run.  Raw results
go to bench/results/steady-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seeds", default="1-10", help="seed list such as 1-10 or 3,5,8")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs over the same seeds")
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    seeds = parse_seeds(args.seeds)
    ok = True
    for name in names:
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in seeds:
                res = run_once(name, seed, args.seconds)
                print(f"{name} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
                    + f", failed {res['failed']}/{res['attempted']}, correct {res['correct']}",
                    flush=True)
                runs.append(res)
            sets.append(runs)
        out = ROOT / "bench" / "results" / f"steady-{name}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"seeds": seeds, "sets": sets}, indent=1) + "\n",
                       encoding="utf-8")

        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        share_set = {f / a for f, a in shares}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{name}: failed share {sorted(share_set)} "
              f"({'identical' if len(share_set) == 1 else 'DIFFERS'}), all correct: {correct}")
        ok &= len(share_set) == 1 and correct
        print(f"{'metric':<14}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'moved':>9}{'bound':>8}")
        for m in manifest["end_to_end"]:
            first = None
            for i, runs in enumerate(sets):
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                first = med if first is None else first
                moved = (med - first) / first if m["better"] == "lower" else (first - med) / first
                flag = ""
                if m["name"] != "setup_s" and spread > m["bound"]:
                    flag = "  SPREAD > BOUND"
                if moved > m["bound"]:
                    flag += "  WORSE > BOUND"
                ok &= not flag
                print(f"{m['name']:<14}{i + 1:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.3f}{moved:>9.3f}{m['bound']:>8.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
