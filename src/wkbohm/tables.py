"""Bit-stable delimited tables, written column by column.

A table is a list of `(name, unit, values)` columns, one cell per row in
each. Each column is taken as one numpy array and formatted by its kind:

- a float column (any float dtype, widened to float64) with 17
  significant digits, which round-trips any double exactly, so identical
  numerics produce identical bytes. Each distinct bit pattern is
  formatted once, so `-0.0` reads `-0` and `0.0` reads `0`;
- an integer column in full (`%d`, exact up to 2**64 - 1);
- a bool column as `true` / `false`;
- a string column as given. A string may not hold the delimiter or a
  newline, and one reading exactly `nan`, `inf` or `-inf` is refused as
  a non-finite cell, as a float would be.

Any other column (objects, None, nested sequences) is refused. The bytes
are those of formatting each cell on its own. Line endings are plain
line feeds. Each column declares a unit in its header cell.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import WkbohmError

DELIMITER = ","
_NON_FINITE_TEXT = ("nan", "inf", "-inf")
_SCALARS = (str, bool, int, float, np.bool_, np.integer, np.floating)


def _refused(cells) -> WkbohmError:
    """The error for a column that no cell kind fits, naming its first odd cell."""
    cells = list(cells)
    odd = next((c for c in cells if not isinstance(c, _SCALARS)), cells[0] if cells else cells)
    return WkbohmError(f"cannot format table cell {odd!r}")


def _column_array(name: str, values) -> np.ndarray:
    """The column's cells as one 1-D array of a kind the writer formats."""
    try:
        cells = np.asarray(values)
    except ValueError:  # a ragged nesting of sequences
        raise _refused(values) from None
    if cells.ndim != 1:
        if cells.ndim == 0:
            raise WkbohmError(f"table column {name!r} is not a sequence of cells: {values!r}")
        raise _refused(cells.tolist())
    if cells.dtype.kind == "U" and not isinstance(values, np.ndarray):
        # numpy turns a list mixing strings and numbers into strings.
        if any(not isinstance(v, str) for v in values):
            raise WkbohmError(f"table column {name!r} mixes strings with other cells")
    elif cells.dtype.kind not in "fiubU" and cells.size:
        raise _refused(cells.tolist())
    return cells


def _spread(texts: list[str], where: np.ndarray) -> list[str]:
    """Each cell's text from its distinct value's, one shared string per distinct value."""
    return np.array(texts, dtype=object)[where].tolist()


def _format_floats(values: np.ndarray) -> tuple[list[str], int | None]:
    """Each cell at 17 significant digits, and the first non-finite row (or None)."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    finite = np.isfinite(v)
    if not finite.all():
        return [], int(np.argmin(finite))
    patterns, where = np.unique(v.view(np.int64), return_inverse=True)
    return _spread(list(map("%.17g".__mod__, patterns.view(np.float64).tolist())), where), None


def _format_strings(values: np.ndarray) -> tuple[list[str], int | None]:
    """Each cell as given, and the first row reading nan, inf or -inf (or None)."""
    distinct, where = np.unique(values, return_inverse=True)
    distinct = distinct.tolist()
    for cell in distinct:
        if DELIMITER in cell or "\n" in cell:
            raise WkbohmError(f"string cell may not contain delimiter or newline: {cell!r}")
    spelled = [i for i, cell in enumerate(distinct) if cell in _NON_FINITE_TEXT]
    first = int(np.argmax(np.isin(where, spelled))) if spelled else None
    return _spread(distinct, where), first


def _format_column(values: np.ndarray) -> tuple[list[str], int | None]:
    """The column's cell texts, and its first row that is not finite (or None)."""
    kind = values.dtype.kind
    if kind == "f":
        return _format_floats(values)
    if kind == "U":
        return _format_strings(values)
    if kind == "b":
        return _spread(["false", "true"], values.astype(np.intp)), None
    return list(map("%d".__mod__, values.tolist())), None


def emit_table(path, columns) -> Path:
    """Write the columns under a `name [unit]` header; returns the path.

    `columns` is a list of `(name, unit, values)` triples; every column
    must hold one cell per row. Zero rows yield a header-only file. A
    column of unequal length, a cell the writer cannot format, or a cell
    reading nan, inf or -inf is refused and nothing is written. The
    `WkbohmError` names the file and the column, and for a non-finite
    cell the first such row (from 0) in row-major order.
    """
    out = Path(path)
    header = DELIMITER.join(f"{name} [{unit}]" for name, unit, _ in columns)
    arrays = [_column_array(name, values) for name, _, values in columns]
    for (name, _, _), cells in zip(columns, arrays):
        if cells.size != arrays[0].size:
            raise WkbohmError(
                f"column {name!r} of {out} has {cells.size} cells, "
                f"but column {columns[0][0]!r} has {arrays[0].size}"
            )
    texts, bad = [], []
    for (name, _, _), cells in zip(columns, arrays):
        formatted, row = _format_column(cells)
        texts.append(formatted)
        if row is not None:
            bad.append((row, name, cells[row]))
    if bad:
        row, name, cell = min(bad, key=lambda b: b[0])
        cell = cell if isinstance(cell, str) else format(float(cell), ".17g")
        raise WkbohmError(f"non-finite cell in {out}: row {row}, column {name!r}: {cell}")
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
