"""CSV ingestion and emission.

Input: comma or whitespace delimited numeric tables, optional header row,
optional label column; ``#`` lines are skipped, so every table this
package emits can be read back.  Errors carry row/column diagnostics.

Output: RFC-4180-style CSV with a ``#``-prefixed metadata header, ``\\n``
line endings and all floats printed with 9 significant digits.  Output is
byte-deterministic unless a timestamp line is requested.  Rows are rendered
in bulk, each column with the one %-format :func:`fmt_value` uses on all its
cells, so the bytes are those of :func:`fmt_value` applied cell by cell.
"""

from __future__ import annotations

import io
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice

import numpy as np

from .errors import DataError, UsageError, check_flag, check_number, check_path

__all__ = ["Dataset", "load_csv", "write_table", "fmt_value"]

# Rows that write_table renders with one %; bounds the cells held at once.
_CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class Dataset:
    """A rectangular numeric table split into points and optional labels."""

    points: np.ndarray
    labels: np.ndarray  # or None
    source: str

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


def load_csv(path, header=False, label_col=None):
    """Read a numeric table; nonzero values in ``label_col`` mark positives.

    The delimiter is sniffed per line (comma if present, else whitespace).
    Raises DataError with the offending row and column on ragged or
    non-numeric input, or on an empty file.
    """
    check_path(path)
    check_flag("header", header)
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = blob.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: row {row} is not UTF-8 text") from None
    rows = []
    first_data_line = True
    # newline=None splits lines as a text-mode file does: on \n, \r\n and \r.
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if first_data_line and header:
            first_data_line = False
            continue
        first_data_line = False
        cells = [c for c in (line.split(",") if "," in line else line.split()) if c != ""]
        values = []
        for col, cell in enumerate(cells, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: row {lineno}, column {col}: "
                    f"could not parse {cell.strip()!r} as a number") from None
        rows.append((lineno, values))
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0][1])
    for lineno, values in rows:
        if len(values) != width:
            raise DataError(
                f"{path}: row {lineno} has {len(values)} columns, expected {width}")
    table = np.asarray([v for _, v in rows], dtype=float)
    if not np.all(np.isfinite(table)):
        bad = np.argwhere(~np.isfinite(table))[0]
        raise DataError(
            f"{path}: non-finite value at row {rows[bad[0]][0]}, column {bad[1] + 1}")
    labels = None
    if label_col is not None:
        check_number("label column must be an integer", label_col, integral=True)
        if not 0 <= label_col < width:   # a column the file does not have
            raise DataError(
                f"{path}: label column {label_col} out of range for {width} columns")
        labels = table[:, label_col] != 0.0
        table = np.delete(table, label_col, axis=1)
        if table.shape[1] == 0:
            raise DataError(f"{path}: no feature columns left after removing labels")
    return Dataset(points=table, labels=labels, source=str(path))


def _format_of(kind):
    """The %-format of a CSV cell of type ``kind``: ints verbatim, bools as
    0/1, strings as they are, any other real number a float with %.9g."""
    if issubclass(kind, (bool, np.bool_, numbers.Integral)):
        return "%d"
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, numbers.Real):
        return "%.9g"
    raise UsageError(f"a table cell must be a bool, an integer, a string or a real number, "
                     f"got a {kind.__name__}")


def fmt_value(v):
    """Render one CSV cell with the %-format of its type."""
    return _format_of(type(v)) % (v,)


def _render_rows(rows, width):
    """CSV lines for a list of rows, with one % over all their cells."""
    # A string has a width too, so its rows are refused first.
    if any(issubclass(kind, (str, bytes)) for kind in set(map(type, rows))):
        bad = next(row for row in rows if isinstance(row, (str, bytes)))
        raise UsageError(f"a table row must be a sequence of cells, got {bad!r}")
    if set(map(len, rows)) - {width}:
        bad = next(n for n in map(len, rows) if n != width)
        raise UsageError(f"row width {bad} does not match header {width}")
    formats, columns = [], []
    for column in zip(*rows):
        kinds = {_format_of(kind) for kind in set(map(type, column))}
        mixed = len(kinds) > 1   # such a column goes through fmt_value cell by cell
        formats.append("%s" if mixed else kinds.pop())
        columns.append(map(fmt_value, column) if mixed else column)
    cells = tuple(chain.from_iterable(zip(*columns)))
    return "\n".join([",".join(formats)] * len(rows)) % cells


def _check_lines(*texts):
    """Refuse a table title, meta or footer entry or column name that is not a
    str or that holds a line break, so each stays within its one line."""
    for text in texts:
        if not isinstance(text, str) or "\n" in text or "\r" in text:
            raise UsageError("a table title, meta or footer entry and column name must be "
                             f"a str with no line break, got {text!r}")


def write_table(path, title, meta, columns, rows, timestamp=True, footer=None):
    """Write a CSV table with a ``#`` metadata header.

    ``meta`` is a list of key=value strings recorded as comments;
    ``rows`` yields tuples matching ``columns``; ``footer`` lines (e.g.
    summary fractions computed after the rows) are appended as comments.
    The title and every meta entry, column name and footer entry is a ``str``
    with no ``\\n`` or ``\\r``, so each stays on its own header or footer line.
    """
    check_path(path)
    check_flag("timestamp", timestamp)
    footer = () if footer is None else footer
    if (any(isinstance(part, (str, bytes)) for part in (meta, columns, footer))
            or not all(isinstance(part, Iterable) for part in (meta, columns, footer, rows))):
        raise UsageError("table meta, columns and footer must be sequences of strings, "
                         "and rows an iterable")
    meta, columns, footer = tuple(meta), tuple(columns), tuple(footer)
    _check_lines(title, *meta, *columns, *footer)
    lines = [f"# {title}"]
    if timestamp:
        now = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"# generated={now}")
    lines.extend(f"# {entry}" for entry in meta)
    lines.append(",".join(columns))
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        lines.append(_render_rows(chunk, len(columns)))
    lines.extend(f"# {entry}" for entry in footer)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
