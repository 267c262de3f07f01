"""Correctness comparator: a command's CSV output against its reference.

Identical bytes pass.  Otherwise both files are parsed; they must agree on
the header, the row count and every non-numeric cell, and the largest
relative deviation over the numeric cells is reported.  An output passes when
that deviation is at most ``TOLERANCE``, which admits last-digit rounding
from a different summation order but no change of a Monte Carlo count.
"""

import csv
import io
import math
from dataclasses import dataclass

TOLERANCE = 1e-9


@dataclass(frozen=True)
class Comparison:
    identical: bool
    max_rel_dev: float  # inf when the files differ in structure
    detail: str = ""

    @property
    def ok(self):
        return self.identical or self.max_rel_dev <= TOLERANCE


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def rel_dev(a, b):
    """Symmetric relative deviation of two floats; NaN equals only NaN, inf only itself."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    if math.isinf(a) or math.isinf(b):
        return 0.0 if a == b else math.inf
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare_csv(got, ref):
    """Compare CSV ``got`` against ``ref`` (both bytes)."""
    if got == ref:
        return Comparison(True, 0.0)
    try:
        got_rows = list(csv.reader(io.StringIO(got.decode())))
        ref_rows = list(csv.reader(io.StringIO(ref.decode())))
    except (UnicodeDecodeError, csv.Error) as exc:
        return Comparison(False, math.inf, f"unparsable output: {exc}")
    if not got_rows or not ref_rows or got_rows[0] != ref_rows[0]:
        return Comparison(False, math.inf, "header differs")
    if len(got_rows) != len(ref_rows):
        return Comparison(False, math.inf, f"{len(got_rows) - 1} rows, reference has {len(ref_rows) - 1}")
    worst = 0.0
    for line, (g_row, r_row) in enumerate(zip(got_rows, ref_rows), start=1):
        if len(g_row) != len(r_row):
            return Comparison(False, math.inf, f"line {line}: cell count differs")
        for column, g, r in zip(got_rows[0], g_row, r_row):
            g_num, r_num = _number(g), _number(r)
            if g_num is None or r_num is None:
                if g != r:
                    return Comparison(False, math.inf, f"line {line}: {column} {g!r} != {r!r}")
                continue
            worst = max(worst, rel_dev(g_num, r_num))
    return Comparison(False, worst, "numeric cells differ")
