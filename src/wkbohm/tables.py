"""Bit-stable delimited tables.

Floats are written with 17 significant digits, which round-trips any
double exactly, so identical numerics produce identical bytes. Line
endings are plain line feeds. Each column declares a unit in its
header cell.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import WkbohmError

DELIMITER = ","


def format_value(value) -> str:
    if type(value) is float:  # the common cell, tested first
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, str):
        if DELIMITER in value or "\n" in value:
            raise WkbohmError(f"string cell may not contain delimiter or newline: {value!r}")
        return value
    try:
        return format(float(value), ".17g")
    except (TypeError, ValueError):
        raise WkbohmError(f"cannot format table cell {value!r}")


def emit_table(path, columns: list[tuple[str, str]], rows) -> Path:
    """Write rows under a `name [unit]` header; returns the path.

    `columns` is a list of (name, unit) pairs; every row must have one
    cell per column. An empty row list yields a header-only file. A cell
    reading nan, inf or -inf is refused: nothing is written, and the
    `WkbohmError` names the file, the row (from 0) and the column.
    """
    out = Path(path)
    header = DELIMITER.join(f"{name} [{unit}]" for name, unit in columns)
    lines = [header]
    for row in rows:
        if len(row) != len(columns):
            raise WkbohmError(f"row has {len(row)} cells for {len(columns)} columns")
        lines.append(DELIMITER.join(map(format_value, row)))
    text = "\n".join(lines) + "\n"
    if text.find("nan", len(header)) >= 0 or text.find("inf", len(header)) >= 0:
        for i, line in enumerate(lines[1:]):
            for (name, _), cell in zip(columns, line.split(DELIMITER)):
                if cell in ("nan", "inf", "-inf"):  # a float that is not finite
                    raise WkbohmError(f"non-finite cell in {out}: row {i}, column {name!r}: {cell}")
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise WkbohmError(f"cannot write table to {out}: {exc}") from exc
    return out


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
