"""The one writer of the package's JSON outputs.

Outputs are strict JSON: a non-finite float (an undefined standard error,
correlation or percentage, an infinite condition number) is written as
``null``, never as the ``NaN`` or ``Infinity`` tokens that strict parsers
reject. Finite values keep their ``repr``, so outputs stay byte-identical.
"""

from __future__ import annotations

import json
import math


def _finite_or_none(value):
    """``value`` with every non-finite float in it, at any depth, made None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(item) for item in value]
    return value


def write_json(path, payload):
    """Write ``payload`` to ``path`` as indented, key-sorted strict JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_none(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
