"""Check that two `rbto run` output directories hold the same results.

    python scripts/same_outputs.py DIR_A DIR_B

history.csv, design.csv and design.pgm (when either directory has one) must
match byte for byte, and summary.json must match with its wall_time_s left
out, the one field that differs between reruns of a run. Exits 0 when all
match; otherwise prints the first file that differs and exits 1.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BYTE_FILES = ("history.csv", "design.csv", "design.pgm")


def _summary(path: Path) -> str:
    summary = json.loads(path.read_text())
    summary.pop("wall_time_s", None)
    return json.dumps(summary, sort_keys=True)


def first_difference(a: Path, b: Path) -> str | None:
    """The name of the first output file that differs between run directories a and b, or None."""
    for name in (*BYTE_FILES, "summary.json"):
        fa, fb = a / name, b / name
        if name == "design.pgm" and not (fa.exists() or fb.exists()):
            continue  # truss runs write no image
        if not (fa.is_file() and fb.is_file()):
            return f"{name} (missing in {a if not fa.is_file() else b})"
        read = _summary if name == "summary.json" else Path.read_bytes
        if read(fa) != read(fb):
            return name
    return None


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python scripts/same_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    diff = first_difference(Path(args[0]), Path(args[1]))
    if diff is not None:
        print(f"differs: {diff}")
        return 1
    print("same outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
