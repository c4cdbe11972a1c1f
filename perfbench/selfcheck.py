"""Check that the traced run's exact counts repeat, and that a second seed runs clean.

    python3 perfbench/selfcheck.py [--seed A] [--other-seed B] [WORKLOAD ...]

For each workload (default: the ones in BENCHMARK.json) this makes two
traced runs on seed A and one on seed B.  It fails when a run is not
correct or when the two seed-A runs disagree on any exact count.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT = ["lp.pivots_per_solve", "lp.solves_per_op", "dictionaries.rows_per_op",
         "functional.rows_per_op", "dictionaries.calls_per_op", "functional.calls_per_op",
         "rmd.gram_calls_per_op", "dml.folds_per_op", "lp.rows", "lp.cols"]


def traced(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["correct"], {k: out["metrics"][k]["value"] for k in EXACT}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads
    if not names:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]

    ok = True
    for name in names:
        ok_a, a = traced(name, args.seed)
        ok_b, b = traced(name, args.seed)
        ok_c, c = traced(name, args.other_seed)
        same = a == b
        ok = ok and ok_a and ok_b and ok_c and same
        print(f"{name}: correct {ok_a}/{ok_b}/{ok_c}, seed {args.seed} counts repeat: {same}")
        for k in EXACT:
            print(f"  {k:28s} seed {args.seed}: {a[k]:<10g} {b[k]:<10g} "
                  f"seed {args.other_seed}: {c[k]:g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
