"""File output: CSV/JSON writers and the per-run manifest.

CSV uses comma separators, '.' decimal points, LF line endings, UTF-8 and a
header row.  Floats are written with repr (shortest round-trip form), so
re-reading a report reproduces the numbers bit for bit, and integers are
written with every digit, however long.  Existing files are never appended
to and only overwritten when ``force`` is set.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import PreconditionError

__all__ = ["ensure_writable", "fmt_cell", "fraction_fields", "write_csv", "write_json",
           "sha256_file", "RunManifest"]


def ensure_writable(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise PreconditionError(
            f"refusing to overwrite {path!r} (pass --force to allow)")
    parent = os.path.dirname(os.path.abspath(path))
    if parent and not os.path.isdir(parent):
        raise PreconditionError(f"output directory {parent!r} does not exist")


def _int_text(v: int) -> str:
    """Every digit of v.  str() refuses an int longer than
    sys.get_int_max_str_digits() digits (4300 by default); Decimal does not."""
    try:
        return str(v)
    except ValueError:
        return str(Decimal(v))


def _fraction_text(x: Fraction) -> str:
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def fmt_cell(v) -> str:
    t = type(v)
    if t is int:
        return _int_text(v)
    if t is float:
        return repr(v)
    if isinstance(v, np.generic):  # a numpy scalar is written as its Python value
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return _int_text(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return _fraction_text(v)
    return str(v)


def write_csv(path: str, header: list[str], rows, force: bool = False) -> None:
    ensure_writable(path, force)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(fmt_cell, row)) + "\n" for row in rows)


def fraction_fields(x) -> dict:
    """A probability as {"fraction": "p/q", "float": p/q}; a value that is
    not a Fraction (a float, as mode float256 reports, or None) has
    fraction None."""
    if isinstance(x, Fraction):
        return {"fraction": _fraction_text(x), "float": float(x)}
    return {"fraction": None, "float": None if x is None else float(x)}


def jsonable(obj):
    """Recursively convert report objects to plain JSON types."""
    if isinstance(obj, Fraction):
        return fraction_fields(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalars
        return obj.item()
    return obj


def write_json(path: str, obj, force: bool = False) -> None:
    ensure_writable(path, force)
    data = jsonable(obj)
    # json writes an int through int.__repr__, which has the digit limit of
    # str(); lift the limit for this dump only (0 means none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        try:
            if limit:
                sys.set_int_max_str_digits(0)
            json.dump(data, fh, indent=2, sort_keys=True)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        fh.write("\n")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Everything needed to re-run a CLI invocation and check its outputs."""

    tool: str
    version: str
    subcommand: str
    argv: list[str]
    parameters: dict
    seed: int | None
    started_at: str
    finished_at: str
    outputs: dict[str, str] = field(default_factory=dict)  # path -> sha256

    def write(self, path: str, force: bool = False) -> None:
        write_json(path, asdict(self), force=force)
