"""Check that two `rbto run` output directories hold the same results.

    python scripts/same_outputs.py DIR_A DIR_B [--rtol R]

Without --rtol, history.csv, design.csv and design.pgm (when either directory
has one) must match byte for byte, and summary.json must match with its
wall_time_s left out, the one field that differs between reruns of a run.

With --rtol R, a change that moves results only at the rounding level can be
told from one that changes them: the numeric cells of history.csv and
design.csv, and the floats of summary.json (still without wall_time_s), must
agree within relative R. A printed cell cannot resolve less than one unit of
its last digit, so a CSV cell may also differ by exactly that unit; such
cells are counted. Integer cells (iteration, failure_update, counts), empty
cells (p_f between refreshes) and text must match exactly, and design.pgm,
the 8-bit image of design.csv, is not compared. The largest relative
difference found is printed.

Exits 0 when all match; otherwise prints the first file that differs and
exits 1.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from decimal import Decimal
from pathlib import Path

BYTE_FILES = ("history.csv", "design.csv", "design.pgm")
INTEGER = re.compile(r"[+-]?\d+")


class Differs(Exception):
    pass


class Within:
    """Comparison of decoded values within relative rtol.

    Counts the CSV cells that differ by one unit of their last printed digit
    and keeps the largest relative difference among the other numbers.
    """

    def __init__(self, rtol: float):
        self.rtol = rtol
        self.largest = 0.0
        self.last_digit = 0

    def floats(self, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        if not (math.isfinite(a) and math.isfinite(b)):
            raise Differs
        scale = max(abs(a), abs(b))
        self.largest = max(self.largest, abs(a - b) / scale)
        if abs(a - b) > self.rtol * scale:
            raise Differs

    def cells(self, a: str, b: str) -> None:
        if a == b:
            return
        if not a or not b or INTEGER.fullmatch(a) or INTEGER.fullmatch(b):
            raise Differs
        try:
            da, db = Decimal(a), Decimal(b)
        except ArithmeticError:
            raise Differs from None  # text
        if not (da.is_finite() and db.is_finite()):
            raise Differs
        if abs(da - db) == Decimal(1).scaleb(max(da.as_tuple().exponent, db.as_tuple().exponent)):
            self.last_digit += 1
        else:
            self.floats(float(da), float(db))

    def csv_files(self, fa: Path, fb: Path) -> None:
        rows_a = list(csv.reader(fa.read_text().splitlines()))
        rows_b = list(csv.reader(fb.read_text().splitlines()))
        if len(rows_a) != len(rows_b):
            raise Differs
        for ra, rb in zip(rows_a, rows_b):
            if len(ra) != len(rb):
                raise Differs
            for a, b in zip(ra, rb):
                self.cells(a, b)

    def json_values(self, a, b) -> None:
        if type(a) is not type(b):
            raise Differs
        if isinstance(a, float):
            self.floats(a, b)
        elif isinstance(a, dict):
            if a.keys() != b.keys():
                raise Differs
            for key in a:
                self.json_values(a[key], b[key])
        elif isinstance(a, list):
            if len(a) != len(b):
                raise Differs
            for va, vb in zip(a, b):
                self.json_values(va, vb)
        elif a != b:
            raise Differs


def _summary(path: Path) -> dict:
    summary = json.loads(path.read_text())
    summary.pop("wall_time_s", None)
    return summary


def _same(name: str, fa: Path, fb: Path, within: Within | None) -> bool:
    if within is None:
        if name == "summary.json":
            return json.dumps(_summary(fa), sort_keys=True) == json.dumps(_summary(fb), sort_keys=True)
        return fa.read_bytes() == fb.read_bytes()
    try:
        if name == "summary.json":
            within.json_values(_summary(fa), _summary(fb))
        else:
            within.csv_files(fa, fb)
    except Differs:
        return False
    return True


def first_difference(a: Path, b: Path, within: Within | None = None) -> str | None:
    """The name of the first output file that differs between run directories a and b, or None.

    Byte for byte when `within` is None, else cell by cell within `within.rtol`.
    """
    for name in (*BYTE_FILES, "summary.json"):
        fa, fb = a / name, b / name
        if name == "design.pgm" and (within is not None or not (fa.exists() or fb.exists())):
            continue  # truss runs write no image; the image only quantizes design.csv
        if not (fa.is_file() and fb.is_file()):
            return f"{name} (missing in {a if not fa.is_file() else b})"
        if not _same(name, fa, fb, within):
            return name
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check that two rbto run directories hold the same results.")
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--rtol", type=float, default=None,
                        help="compare numbers within this relative tolerance instead of byte for byte")
    args = parser.parse_args(argv)
    if args.rtol is not None and not args.rtol >= 0.0:
        parser.error("--rtol must be a number >= 0")
    within = None if args.rtol is None else Within(args.rtol)
    diff = first_difference(args.dir_a, args.dir_b, within)
    if diff is not None:
        print(f"differs: {diff}")
        return 1
    if within is None:
        print("same outputs")
    else:
        print(f"same outputs within rtol {args.rtol:g} (largest relative difference "
              f"{within.largest:.2e}; {within.last_digit} cells differ in their last digit)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
