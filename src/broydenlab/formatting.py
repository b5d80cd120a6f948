"""Number serialization for CSV output.

Display columns use scientific notation with six significant digits
("6.18034e-01"), close to how the experiment tables print values.
Full-precision dumps keep every working digit.  Both take a defined
number: an undefined value (None) is written as -1 by the CSV writer
(``cli._cell``), never here.
"""
from __future__ import annotations

import mpmath.libmp as libmp
from mpmath import mpf


def format_metric(x) -> str:
    """Scientific notation with six significant digits, e.g. 2.50000e-06."""
    if x == 0:
        return "0.00000e+00"
    raw = x._mpf_ if hasattr(x, "_mpf_") else mpf(x)._mpf_
    s = libmp.to_str(raw, 6, strip_zeros=False, min_fixed=1, max_fixed=0)
    mant, _, exp = s.partition("e")
    if "." not in mant:
        mant += ".00000"
    return f"{mant}e{int(exp or 0):+03d}"


def format_full(x, digits: int) -> str:
    """Full-precision decimal dump (round-trips at the same precision)."""
    if hasattr(x, "_mpf_"):
        return libmp.to_str(x._mpf_, digits, strip_zeros=True)
    return repr(x)
