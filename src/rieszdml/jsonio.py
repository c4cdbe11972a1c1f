"""Deterministic strict JSON: the standard library's writer on plain Python values.

Every float is written as Python's repr, the shortest string that reads back
to the same double, so output is exact and the same on every run; a float
that is a whole number keeps its ``.0``.  Dict insertion order is preserved.
NaN and +-inf are written as null, so the output is strict JSON.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _plain(obj):
    """``obj`` with numpy arrays and scalars as Python values and non-finite floats as None."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def dumps(obj):
    return json.dumps(_plain(obj), allow_nan=False)
