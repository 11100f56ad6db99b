"""CSV and JSON input/output.

Dialect: UTF-8 (a leading byte-order mark, as spreadsheets write, is
skipped), comma separator, '.' decimal point, optional single header row
(auto-detected: a first row with any cell that does not parse as a float is
a header); a malformed quote is an error that names its line.  A dataset
converts in one pass, ``float`` on every cell into one array; only a table
that fails that pass is walked cell by cell, to name the first offending
row in its error.  Floats are written with repr so every emitted file
reads back to the exact same values.  All writes go to a temporary file in
the target directory and are renamed into place, so consumers never see
partial files.
"""

from __future__ import annotations

import csv
import errno
import io
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "MalformedTable",
    "Dataset",
    "read_rows",
    "read_dataset",
    "write_rows",
    "write_json",
    "csv_text",
    "json_text",
    "format_cell",
]


class MalformedTable(ValueError):
    """A CSV file violates the dataset contract; messages carry 1-based
    file coordinates."""


@dataclass(frozen=True)
class Dataset:
    """A rectangular all-numeric table: n rows of d finite reals."""

    values: NDArray[np.float64]
    columns: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise MalformedTable("dataset must be a nonempty 2-d table")
        if not np.all(np.isfinite(values)):
            raise MalformedTable("dataset cells must all be finite")
        if self.columns is not None and len(self.columns) != values.shape[1]:
            raise MalformedTable("header width disagrees with the data width")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _parse_float(cell: str) -> float | None:
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return value


def read_rows(path: str | Path) -> tuple[list[str] | None, list[list[str]]]:
    """Dialect-level read: optional header plus raw string rows."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, strict=True)
            rows = [row for row in reader if row]
    except UnicodeDecodeError:
        raise MalformedTable(f"{path}: not UTF-8 text") from None
    except csv.Error as err:  # e.g. a quote left open at the end of the file
        raise MalformedTable(f"{path}: line {reader.line_num}: {err}") from None
    if not rows:
        raise MalformedTable(f"{path}: file contains no rows")
    first_numeric = all(_parse_float(cell) is not None for cell in rows[0])
    if first_numeric:
        return None, rows
    return rows[0], rows[1:]


def read_dataset(path: str | Path) -> Dataset:
    """Read and validate an all-numeric dataset.

    The table converts in one pass: ``float`` of every cell into one array,
    one check of the row widths, and :class:`Dataset`'s own finiteness
    check.  Only a table that fails them is walked cell by cell, for the
    first offending row's error, whose message uses 1-based file
    coordinates, counting the header row.
    """
    header, rows = read_rows(path)
    if not rows:
        raise MalformedTable(f"{path}: no data rows below the header")
    offset = 2 if header is not None else 1
    width = len(rows[0])
    columns = tuple(h.strip() for h in header) if header is not None else None
    try:
        values = np.fromiter(map(float, itertools.chain.from_iterable(rows)), float)
    except ValueError:  # a cell that is no float
        values = None
    if values is not None and all(len(row) == width for row in rows):
        try:
            return Dataset(values.reshape(len(rows), width), columns)
        except MalformedTable as err:  # a non-finite cell, or a header of another width
            raise (_first_fault(path, rows, offset) or err) from None
    raise _first_fault(path, rows, offset)


def _first_fault(path: str | Path, rows: list[list[str]], offset: int) -> MalformedTable | None:
    """The error for the first row, counted from ``offset``, whose width
    differs from the first row's or that holds a cell that is no finite
    real; ``None`` if every row is sound."""
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            return MalformedTable(f"{path}: row {i + offset} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            value = _parse_float(cell)
            if value is None or not math.isfinite(value):
                return MalformedTable(
                    f"{path}: row {i + offset}, column {j + 1}: "
                    f"{cell.strip()!r} is not a finite real"
                )
    return None


def format_cell(value: object) -> str:
    """Lossless cell text: repr for floats, empty for ``None``, str for everything else."""
    if value is None:
        return ""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def csv_text(rows: Iterable[Sequence[object]], header: Sequence[str] | None = None) -> str:
    """CSV text of ``rows`` under ``header``; cells formatted with :func:`format_cell`."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    if header is not None:
        out.writerow([str(h) for h in header])
    for row in rows:
        out.writerow([format_cell(cell) for cell in row])
    return buf.getvalue()


def json_text(payload: dict) -> str:
    """A JSON document in the payload's key order, ending in a newline."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _atomic_write(path: str | Path, text: str) -> None:
    target = Path(path)
    if target.is_dir():  # os.replace would name the temporary file, not the target
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


def write_rows(
    path: str | Path,
    rows: Iterable[Sequence[object]],
    header: Sequence[str] | None = None,
) -> None:
    """Write :func:`csv_text` atomically."""
    _atomic_write(path, csv_text(rows, header))


def write_json(path: str | Path, payload: dict) -> None:
    """Write :func:`json_text` atomically."""
    _atomic_write(path, json_text(payload))
