"""Deterministic CSV tables with '#'-prefixed unit headers.

Format contract:
  - lines starting with '#' are comments; the last comment line before
    the first data row names the columns as ``name (unit)`` entries,
  - one header-free data block, comma-separated; '#' lines after its
    first row are comments, kept in file order,
  - floats rendered with %.17g so re-ingesting and re-emitting a table
    is byte-identical.

``read_table`` parses a file in one pass, into one buffer of doubles
that the table's data views, and refuses a defective table with a
``ConfigError`` naming the file.  A command reads its input tables
before it computes anything: ``calibrate`` loads ``power_csv`` and
``reflection_csv`` first, so a bad table exits before any fit.
"""

from __future__ import annotations

import json
import os
from array import array
from typing import Mapping, Sequence

import numpy as np

from ._record import Record
from .errors import ConfigError


# Rows formatted and written at a time: memory stays bounded by a chunk,
# not by the table.
WRITE_CHUNK_ROWS = 1024


def format_float(x: float) -> str:
    return "%.17g" % float(x)


class Table(Record):
    columns: list[str]          # "name (unit)" labels
    data: np.ndarray            # shape (n_rows, n_cols)
    comments: list[str]         # comment lines without '#' prefix

    def column(self, name: str) -> np.ndarray:
        for i, label in enumerate(self.columns):
            if label == name or label.split(" (")[0] == name:
                return self.data[:, i]
        raise KeyError(f"no column named {name!r}")


def write_table(path: str, columns: Sequence[str],
                data: np.ndarray | Sequence[Sequence[float]],
                comments: Sequence[str] = ()) -> None:
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != len(columns):
        raise ValueError("column count does not match data width")
    # one format per row: "%.17g" of each Python float, as format_float
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write("# " + ", ".join(columns) + "\n")
        for start in range(0, len(data), WRITE_CHUNK_ROWS):
            chunk = data[start:start + WRITE_CHUNK_ROWS].tolist()
            fh.write("".join(row_format % tuple(row) for row in chunk))


def read_table(path: str) -> Table:
    comments: list[str] = []
    header = None       # how many comments precede the first data row
    values = array("d")     # every row's floats, in file order
    widths: set[int] = set()
    malformed = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for line in filter(None, map(str.strip, fh)):
                if line.startswith("#"):
                    comments.append(line[1:].strip())
                    continue
                if header is None:
                    header = len(comments)
                fields = line.split(",")
                widths.add(len(fields))
                try:
                    values.extend(map(float, fields))
                except ValueError as exc:
                    # raised once the whole file has decoded
                    malformed = malformed or (line, exc)
    except OSError as exc:
        raise ConfigError(
            f"cannot read table {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:       # open refuses a NUL in the path
        raise ConfigError(f"cannot read table {path!r}: {exc}") from exc
    if malformed:
        line, exc = malformed
        raise ConfigError(f"{path}: malformed data line {line!r}") from exc
    if header is None:
        header = len(comments)
    if not header:
        raise ConfigError(f"{path}: missing '#' column header")
    columns = [c.strip() for c in comments.pop(header - 1).split(",")]
    if not widths:
        raise ConfigError(f"{path}: no data rows")
    if len(widths) != 1 or widths.pop() != len(columns):
        raise ConfigError(f"{path}: ragged rows or header/data mismatch")
    # a view of the buffer, not a copy: 8 bytes a value, held once
    data = np.frombuffer(values, dtype=float).reshape(-1, len(columns))
    return Table(columns=columns, data=data, comments=comments)


def write_json(path: str, payload: Mapping) -> None:
    """Write ``payload`` as indented, key-sorted JSON and a final newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sidecar(path: str, resolved: Mapping) -> str:
    """Write `<path>.meta.json` with the fully-resolved run parameters."""
    meta_path = path + ".meta.json"
    write_json(meta_path, resolved)
    return meta_path


def ensure_parent_dir(path: str) -> None:
    """ConfigError unless ``path`` and its sidecar can be written as files:
    the directory must exist, neither may be a directory itself, and the
    path may hold no NUL, which ``open`` refuses."""
    if "\0" in path:
        raise ConfigError(f"output path {path!r} holds a NUL character")
    parent = os.path.dirname(os.path.abspath(path))
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"output directory does not exist: {parent}")
    for target in (path, path + ".meta.json"):
        if os.path.isdir(target):
            raise ConfigError(f"output path is a directory: {target}")
