"""Set a workload up in a fresh interpreter and report how long the parts took.

    python3 perfbench/probe.py WORKLOAD [SEED]

Prints one JSON line once the first op could start: the time of a fresh
``import rieszdml.cli`` and the set-up timings of the workload.  The caller
times the whole process from launch to that line.
"""

import json
import sys
import time


def main():
    name = sys.argv[1]
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else None
    t = time.perf_counter()
    import rieszdml.cli  # noqa: F401  (timed: the import cost every CLI run pays)
    import_s = time.perf_counter() - t

    import workloads

    wl = workloads.setup(name, seed)
    print(json.dumps(dict(wl.timings, import_s=import_s)), flush=True)


if __name__ == "__main__":
    main()
