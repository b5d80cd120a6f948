"""Number serialization for CSV output: six significant digits
("6.18034e-01") or every working digit.  An undefined value (None) is
written as -1 by the CSV writer (``cli._cell``), never here.
"""
from __future__ import annotations

import mpmath.libmp as libmp

#: mantissas longer than this are cut toward zero before printing
_MAX_BITS = 4000


def _six(raw) -> str:
    # beyond 2**±3500 to_digits_exp prints an integer of about bc / 3.3 digits,
    # past Python's limit of 4300 for bc > 14,000.  Within, it reads |x| down
    # to 2**min(e - 39, 0), e = exp + bc, above the cut, so no cell changes;
    # and no mantissa of 1,200 digits or fewer is cut.
    if raw[3] > _MAX_BITS:
        raw = libmp.normalize(*raw, _MAX_BITS, libmp.round_down)
    s = libmp.to_str(raw, 6, strip_zeros=False, min_fixed=1, max_fixed=0)
    mant, _, exp = s.partition("e")
    if "." not in mant:
        mant += ".00000"
    return f"{mant}e{int(exp or 0):+03d}"


def format_metric(x) -> str:
    """An mpf to six significant digits, e.g. 2.50000e-06."""
    if x == 0:
        return "0.00000e+00"
    return _six(x._mpf_)


def interval_cell(lo, hi):
    """``format_metric``'s cell of every value in [lo, hi] (raw tuples), or
    None when the ends are zero, of two signs, more than one binade apart,
    or may print apart.

    Proof: for |x| in one binade [2**(e-1), 2**e), e = exp + bc, |e| <=
    3500, mpmath 1.3.0's ``to_str(x, 6)`` takes sf = floor(|x| 2**f) and
    sd = floor(sf 10**d / 2**f) for f and d fixed by e, and prints sd's L
    digits rounded half-up to six: round(sd / 10**(L-6)) 10**(L-6-d), which
    a carry or a longer sd only moves up.  So the printed value is monotone
    in |x| within a binade, and ``_six`` cuts a longer mantissa toward zero,
    which is monotone and keeps the binade: a cell printed at both ends of
    one binade holds every x between.  At a binade edge f and d change, so
    an interval across one power of two 2**E is split there: [2**E, the
    larger |end|] is one binade, and ``_six`` prints every |x| < 2**E as a
    value of at most 4000 bits, so at most M = (2**4000 - 1) 2**(E - 4000),
    in the binade below.  Both ends, 2**E and M printing alike then certify
    the cell.  Past |e| = 3500 a rounded power of ten scales x, which keeps
    no order."""
    if not (lo[1] and hi[1]) or lo[0] != hi[0]:
        return None
    e, f = lo[2] + lo[3], hi[2] + hi[3]
    if abs(e - f) > 1 or max(abs(e), abs(f)) > 3500:
        return None
    ends = [hi]
    if e != f:
        top = min(e, f)
        ends += [(lo[0], 1, top, 1),
                 (lo[0], (1 << _MAX_BITS) - 1, top - _MAX_BITS, _MAX_BITS)]
    cell = _six(lo)
    return cell if all(_six(x) == cell for x in ends) else None


def format_full(x, digits: int) -> str:
    """An mpf's full-precision decimal dump (round-trips at its precision)."""
    return libmp.to_str(x._mpf_, digits, strip_zeros=True)
