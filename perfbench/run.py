"""rieszdml benchmark: one closed-loop workload per run, one client, fresh interpreter.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the run times untraced ops for S seconds and reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
runs of the same op and reports the per-layer split measured by the span
recorder (spans.py).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it record the
environment and the figures that are not metrics.  NOTES.md explains the
workloads and metrics.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 3  # fresh interpreters per run; setup_s is their median
P90_MIN_OPS = 100  # p90 is printed only with at least ten samples beyond it
# Traced ops whose exact counts are compared across runs (the first ones of a run).
COUNT_OPS = {"mc_sparse_p50": 20, "mc_ate_n8000": 8, "mc_pool2": 1, "cli_estimate": 3}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="default: the study config's seed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "rieszdml", "__init__.py")):
        sys.stderr.write("perfbench: src/rieszdml not found; run from a full checkout\n")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.workload not in workloads.SPECS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.SPECS)}\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    for stale in glob.glob(os.path.join(OUT_DIR, "spans-*.json")):
        os.remove(stale)

    env = workloads.child_env()
    probes = [run_probe(args.workload, args.seed, env) for _ in range(SETUP_PROBES)]
    wl = workloads.setup(args.workload, args.seed)
    print("env " + json.dumps(environment()))
    if args.trace:
        out = traced_run(args, wl, probes)
    else:
        out = timed_run(args, wl, probes)
    print(json.dumps(out))
    return 0


# -- runs -----------------------------------------------------------------------

def timed_run(args, wl, probes):
    if args.workload.startswith("mc_") and wl.workers == 1:
        wl.op(0)  # warm-up: lazy imports and first-call allocation
    cpu0 = cpu_seconds()
    lat_ms, done, failed, i = [], 0, 0, 0
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        n, bad = wl.op(i)
        lat_ms.append((time.perf_counter() - t) * 1e3 / n)
        done, failed, i = done + n, failed + bad, i + 1
        if time.perf_counter() - t0 >= args.seconds:
            break
    wall = time.perf_counter() - t0
    cpu_ms = (cpu_seconds() - cpu0) * 1e3
    if wl.workers > 1:
        failed += sum(wl.verify_pool(b) for b in sorted({0, i - 1}))
    failed = min(failed, done)

    report = {"ops": done, "op_calls": i, "wall_s": wall, "failed_frac": failed / done}
    if len(lat_ms) >= P90_MIN_OPS:
        report["op_ms_p90"] = percentile(lat_ms, 0.9)
    print("report " + json.dumps(report))
    values = {
        "ops_per_s": done / wall,
        "op_ms_p50": statistics.median(lat_ms),
        "cpu_ms_per_op": cpu_ms / done,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": peak_rss_mb(),
    }
    return result(failed == 0, done, failed, values, "end_to_end")


def traced_run(args, wl, probes):
    from spans import Recorder, read_spans, write_spans

    rec = Recorder(OUT_DIR)
    cli_spans = os.path.join(OUT_DIR, "cli-op-spans.json")
    is_cli = args.workload == "cli_estimate"
    groups = []
    plain_s = traced_s = 0.0
    done = failed = i = 0
    t0 = time.perf_counter()
    while True:
        # Same input traced and untraced; alternate which goes first.
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                t = time.perf_counter()
                n, bad = wl.op(i)
                plain_s += time.perf_counter() - t
                done, failed = done + n, failed + bad
                continue
            rec.install()
            try:
                with rec.timed("bench.op"):
                    n, bad = wl.op(i, cli_spans) if is_cli else wl.op(i)
            finally:
                rec.uninstall()
            spans = rec.drain()
            traced_s += spans[0][2] - spans[0][1]
            if is_cli and os.path.exists(cli_spans):
                graft(spans, read_spans(cli_spans), 0)
                os.remove(cli_spans)
            group = {"ops": n, "spans": spans, "workers": rec.collect_workers()}
            lp_bad = any(s[0] == "lp.solve" and s[4]["status"] != "optimal"
                         for proc in [spans] + group["workers"] for s in proc)
            if lp_bad:
                bad = n
            done, failed = done + n, failed + bad
            groups.append(group)
        i += 1
        if time.perf_counter() - t0 >= args.seconds and len(groups) >= COUNT_OPS[args.workload]:
            break
    if wl.workers > 1:
        failed += wl.verify_pool(0)
    failed = min(failed, done)
    write_spans(os.path.join(OUT_DIR, f"trace-{args.workload}.json"), groups)

    from rieszdml import simulation

    values = layer_metrics(groups, COUNT_OPS[args.workload],
                           simulation.resolve_workers(wl.workers) if wl.workers > 1 else 0)
    values.update({
        "simulation.true_theta_s": probe_median(probes, "true_theta_s"),
        "cli.import_s": probe_median(probes, "import_s"),
        "cli.config_ms": probe_median(probes, "config_ms"),
        "cli.load_csv_ms": probe_median(probes, "load_csv_ms"),
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    })
    print("report " + json.dumps({"ops": done, "traced_ops": sum(g["ops"] for g in groups),
                                  "wall_s": time.perf_counter() - t0}))
    return result(failed == 0, done, failed, values, "per_layer")


def graft(spans, child, parent):
    """Append a child process's spans below span ``parent`` (it ran inside it)."""
    offset = len(spans)
    for s in child:
        s[3] = parent if s[3] < 0 else s[3] + offset
    spans.extend(child)


# -- per-layer split ------------------------------------------------------------

def tally(groups):
    """Sums over the spans of the given ops; times in seconds."""
    from spans import self_times

    t = defaultdict(float)
    lp_s = []
    for g in groups:
        t["ops"] += g["ops"]
        for proc in [g["spans"]] + g["workers"]:
            for s, self_s in zip(proc, self_times(proc)):
                name, dur = s[0], s[2] - s[1]
                layer = name.split(".")[0]
                caller = proc[s[3]][0].split(".")[0] if s[3] >= 0 else None
                t["self." + layer] += self_s
                t["self." + name] += self_s
                t["calls." + name] += 1
                t["dur." + name] += dur
                if layer == "dictionaries" and caller in ("rmd", "dml"):
                    # b(X) passes the estimator asks for; evaluations made
                    # inside m(X, b) or data generation are not counted
                    t["dict_calls"] += 1
                    t["dict_rows"] += s[4]["rows"]
                if layer == "functional" and caller != "functional":
                    t["func_calls"] += 1
                    t["func_rows"] += s[4]["rows"]
                if name == "rmd.solve":
                    t["optimal"] += s[4]["status"] == "optimal"
                if name == "lp.solve":
                    lp_s.append(dur)
                    for k in ("pivots", "rows", "cols"):
                        t["lp_" + k] += s[4][k]
    return t, lp_s


def layer_metrics(groups, count_ops, workers):
    t, lp_s = tally(groups)
    c, _ = tally(groups[:count_ops])  # exact counts: the first ops of the run only
    ops, c_ops = t["ops"], c["ops"]
    solves = c["calls.lp.solve"]
    busy = t["dur.simulation.replicate"]
    pool_wall = t["dur.simulation.monte_carlo"]
    op_dur = t["dur.bench.op"]
    return {
        "dictionaries.calls_per_op": c["dict_calls"] / c_ops,
        "dictionaries.rows_per_op": c["dict_rows"] / c_ops,
        "dictionaries.self_ms_per_op": t["self.dictionaries"] * 1e3 / ops,
        "functional.calls_per_op": c["func_calls"] / c_ops,
        "functional.rows_per_op": c["func_rows"] / c_ops,
        "functional.self_ms_per_op": t["self.functional"] * 1e3 / ops,
        "rmd.gram_calls_per_op": c["calls.rmd.gram"] / c_ops,
        "rmd.gram_self_ms_per_op": t["self.rmd.gram"] * 1e3 / ops,
        "rmd.solve_self_ms_per_op": t["self.rmd.solve"] * 1e3 / ops,
        "rmd.fit_self_ms_per_op": t["self.rmd.fit"] * 1e3 / ops,
        "rmd.optimal_frac": c["optimal"] / max(c["calls.rmd.solve"], 1),
        "lp.solves_per_op": solves / c_ops,
        "lp.pivots_per_solve": c["lp_pivots"] / max(solves, 1),
        "lp.ms_per_solve_p50": statistics.median(lp_s) * 1e3 if lp_s else 0.0,
        "lp.ms_per_pivot": sum(lp_s) * 1e3 / max(t["lp_pivots"], 1),
        "lp.self_ms_per_op": t["self.lp"] * 1e3 / ops,
        "lp.rows": c["lp_rows"] / max(solves, 1),
        "lp.cols": c["lp_cols"] / max(solves, 1),
        "dml.self_ms_per_op": t["self.dml"] * 1e3 / ops,
        "dml.folds_per_op": c["calls.dml.fold"] / c_ops,
        "simulation.generate_ms_per_op": t["dur.simulation.generate"] * 1e3 / ops,
        "simulation.worker_busy_frac": busy / (workers * pool_wall) if workers else 0.0,
        "simulation.pool_overhead_ms_per_op":
            (pool_wall - busy / workers) * 1e3 / ops if workers else 0.0,
        "cli.emit_ms": t["dur.cli.emit"] * 1e3 / ops,
        "trace.attributed_frac": 1.0 - t["self.bench.op"] / op_dur,
    }


# -- measurement helpers --------------------------------------------------------

def run_probe(name, seed, env):
    """Launch probe.py in a fresh interpreter; setup_s is launch to its ready line."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), name]
    if seed is not None:
        cmd.append(str(seed))
    t = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t
        proc.wait(timeout=120)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
    out = json.loads(line)
    out["setup_s"] = setup_s
    return out


def probe_median(probes, key):
    return statistics.median(p.get(key, 0.0) for p in probes)


def cpu_seconds():
    """User plus system CPU of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def result(correct, attempted, failed, values, kind):
    """The final line: every metric BENCHMARK.json declares under ``kind``, with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }


def environment():
    """What the figures depend on, read and never set."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "RIESZ_DML_THREADS": os.environ.get("RIESZ_DML_THREADS"),
        "commit": git_commit(),
    }


def blas_threads(numpy):
    """OpenBLAS's current thread count, by a read-only query of numpy's bundled library."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
