"""Deterministic JSON rendering: fixed float format, stable key order.

Floats are written with 17 significant digits so two runs with the same
seed produce byte-identical output; dict insertion order is preserved.
NaN and +-inf are written as null, so the output is strict JSON.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _render(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(format(x, ".17g") if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for k, v in obj.items():
            if not first:
                out.append(", ")
            first = False
            out.append(json.dumps(str(k)))
            out.append(": ")
            _render(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        first = True
        for v in seq:
            if not first:
                out.append(", ")
            first = False
            _render(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def dumps(obj):
    out = []
    _render(obj, out)
    return "".join(out)
