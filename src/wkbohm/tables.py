"""Bit-stable delimited tables, written column by column.

A table is a list of `(name, unit, values)` columns, one cell per row in
each. Each column is taken as one 1-D numpy array and formatted by its
dtype kind alone, each distinct value once:

- floats (any float dtype, widened to float64) with 17 significant
  digits, which round-trips any double exactly, so identical numerics
  produce identical bytes. Each bit pattern counts as its own value, so
  `-0.0` reads `-0` and `0.0` reads `0`. A non-finite cell is refused;
- integers and strings by `str`. A string may not hold the delimiter
  or a newline.

Any other column (bools, objects, complex numbers, nested or ragged
sequences, a scalar) is refused. Line endings are plain line feeds.
Each column declares a unit in its header cell.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import WkbohmError

DELIMITER = ","


def _column_array(out: Path, name: str, values) -> np.ndarray:
    """The column's cells as one 1-D array: floats (as float64), integers or strings."""
    try:
        cells = np.asarray(values)
    except ValueError:  # a ragged nesting of sequences
        cells = None
    if cells is None or cells.ndim != 1 or cells.dtype.kind not in "fiuU":
        raise WkbohmError(f"column {name!r} of {out} is not a 1-D array of floats, integers or strings")
    return np.ascontiguousarray(cells, dtype=np.float64) if cells.dtype.kind == "f" else cells


def _format_column(cells: np.ndarray) -> list[str]:
    """Each cell's text, one shared string per distinct value (per bit pattern for floats)."""
    if cells.dtype.kind == "f":
        patterns, where = np.unique(cells.view(np.int64), return_inverse=True)
        texts = list(map("%.17g".__mod__, patterns.view(np.float64).tolist()))
    else:
        distinct, where = np.unique(cells, return_inverse=True)
        texts = list(map(str, distinct.tolist()))
        for text in texts:
            if DELIMITER in text or "\n" in text:
                raise WkbohmError(f"string cell may not contain delimiter or newline: {text!r}")
    return np.array(texts, dtype=object)[where].tolist()


def emit_table(path, columns) -> Path:
    """Write the columns under a `name [unit]` header; returns the path.

    `columns` is a list of `(name, unit, values)` triples; every column
    must hold one cell per row. Zero rows yield a header-only file. A
    column of unequal length or of a kind the writer does not format,
    or a non-finite cell, is refused and nothing is written. The
    `WkbohmError` names the file and the column, and for a non-finite
    cell the first such row (from 0) in row-major order.
    """
    out = Path(path)
    header = DELIMITER.join(f"{name} [{unit}]" for name, unit, _ in columns)
    arrays = [_column_array(out, name, values) for name, _, values in columns]
    for (name, _, _), cells in zip(columns, arrays):
        if cells.size != arrays[0].size:
            raise WkbohmError(
                f"column {name!r} of {out} has {cells.size} cells, "
                f"but column {columns[0][0]!r} has {arrays[0].size}"
            )
    texts = [_format_column(cells) for cells in arrays]
    finite = np.array([np.isfinite(c) if c.dtype.kind == "f" else np.full(c.size, True) for c in arrays])
    if not finite.all():
        row, j = np.argwhere(~finite.T)[0]  # the first in row-major order
        cell = arrays[j][row]
        raise WkbohmError(f"non-finite cell in {out}: row {row}, column {columns[j][0]!r}: {cell:.17g}")
    text = "\n".join([header, *map(DELIMITER.join, zip(*texts))]) + "\n"
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
