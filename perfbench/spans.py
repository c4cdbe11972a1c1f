"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each rieszdml module from
outside the package: nothing under ``src/`` knows it exists.  Each call
through a wrapper appends one span ``[name, start, end, parent, attrs]`` to
an in-memory list; ``parent`` is the index of the enclosing span in the same
process (-1 at the top).  The layer of a span is the part of its name before
the first dot.

The modules import each other's functions by name (``from .dml import
dml_estimate``), so patching the defining module is not enough: ``install``
replaces every binding of the original function in every loaded rieszdml
module, plus the methods the subclasses define themselves
(``evaluate_rows``, ``m_rows``, ``generate``).  ``uninstall`` puts the
originals back, so untraced and traced operations can alternate.

Pool workers are forked and inherit the installed wrappers.  Each forked
worker starts with an empty span list and writes its spans to its own
``spans-<pid>.json`` when it exits.
"""

import functools
import glob
import json
import os
import sys
import time
from contextlib import contextmanager
from multiprocessing import util as mp_util


def _rows_arg(pos):
    """attrs hook: the row count of positional argument ``pos``."""
    return lambda args, out: {"rows": len(args[pos])}


def _lp_attrs(args, res):
    rows, cols = args[0].shape
    return {"rows": rows, "cols": cols, "pivots": res.iterations, "status": res.status}


def _status_attrs(args, sol):
    return {"status": sol.status}


class Recorder:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.spans = []
        self.stack = []
        self.installed = False
        self._patches = []
        mp_util.register_after_fork(self, Recorder._after_fork)

    # -- recording -------------------------------------------------------

    @contextmanager
    def timed(self, name):
        """Record one span around a block; yields the span so attrs can be added."""
        idx = len(self.spans)
        entry = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.spans.append(entry)
        self.stack.append(idx)
        entry[1] = time.perf_counter()
        try:
            yield entry
        finally:
            entry[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.timed(name) as entry:
                out = fn(*args, **kwargs)
            if attrs is not None:
                entry[4] = attrs(args, out)
            return out

        return wrapper

    def drain(self):
        """Hand over the spans recorded so far and start a fresh list."""
        out, self.spans = self.spans, []
        return out

    # -- patching --------------------------------------------------------

    def install(self):
        from rieszdml import cli, dictionaries, dml, functional, lp, rmd, simulation

        functions = [
            ("dictionaries.design_matrix", dictionaries.design_matrix, _rows_arg(2)),
            ("functional.m_hat_vector", functional.m_hat_vector, _rows_arg(3)),
            ("rmd.gram", rmd.gram_and_moments, None),
            ("rmd.fit", rmd.estimate_blp, None),
            ("rmd.fit", rmd.estimate_riesz, None),
            ("rmd.solve", rmd.solve_rmd, _status_attrs),
            ("lp.solve", lp.solve_standard_form, _lp_attrs),
            ("dml.estimate", dml.dml_estimate, None),
            ("dml.fold_plan", dml.make_fold_plan, None),
            ("dml.fold", dml.fit_and_score_fold, None),
            ("dml.score", dml._fold_contributions, None),
            ("simulation.true_theta", simulation.true_theta_info, None),
            ("simulation.replicate", simulation._replicate, None),
            ("simulation.monte_carlo", simulation.run_monte_carlo, None),
            ("cli.load_csv", dictionaries.load_csv, None),
            ("cli.emit", cli._emit, None),
            ("cli.run", cli.run, None),
        ]
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "rieszdml" or k.startswith("rieszdml."))]
        for name, fn, attrs in functions:
            wrapper = self._wrap(name, fn, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)

        methods = [
            ("dictionaries.evaluate_rows", "evaluate_rows",
             _subclasses(dictionaries.Dictionary), _rows_arg(1)),
            ("functional.m_rows", "m_rows", _subclasses(functional.Functional), _rows_arg(2)),
            ("simulation.generate", "generate",
             [simulation.SparseLinearDgp, simulation.AteLogisticDgp], None),
        ]
        for name, meth, classes, attrs in methods:
            for cls in classes:
                if meth in vars(cls):
                    self._patch(cls, meth, self._wrap(name, vars(cls)[meth], attrs))
        load = vars(cli.Config)["load"].__func__
        self._patch(cli.Config, "load", classmethod(self._wrap("cli.config", load, None)))
        self.installed = True

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.installed = False

    # -- forked workers --------------------------------------------------

    def _after_fork(self):
        self.spans = []
        self.stack = []
        if self.installed:
            mp_util.Finalize(self, self._dump_worker, exitpriority=10)

    def _dump_worker(self):
        if self.spans:
            write_spans(os.path.join(self.out_dir, f"spans-{os.getpid()}.json"), self.spans)

    def collect_workers(self):
        """Span lists written by exited workers, one per process; the files are removed."""
        out = []
        for path in sorted(glob.glob(os.path.join(self.out_dir, "spans-*.json"))):
            out.append(read_spans(path))
            os.remove(path)
        return out


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def write_spans(path, spans):
    with open(path, "w") as fh:
        json.dump(spans, fh)


def read_spans(path):
    with open(path) as fh:
        return json.load(fh)


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out
