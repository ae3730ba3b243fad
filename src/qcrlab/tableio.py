"""Deterministic CSV tables with '#'-prefixed unit headers.

Format contract:
  - lines starting with '#' are comments; the last comment line before
    the data names the columns as ``name (unit)`` entries,
  - one header-free data block, comma-separated,
  - floats rendered with %.17g so re-ingesting and re-emitting a table
    is byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError


def format_float(x: float) -> str:
    return "%.17g" % float(x)


@dataclass
class Table:
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
    lines = [f"# {c}" for c in comments]
    lines.append("# " + ", ".join(columns))
    for row in data:
        lines.append(",".join(format_float(x) for x in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path: str) -> Table:
    comments: list[str] = []
    rows: list[list[float]] = []
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise ConfigError(
            f"cannot read table {path!r}: {exc.strerror or exc}") from exc
    with fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ConfigError(f"{path}: malformed data line {line!r}") \
                    from exc
    if not comments:
        raise ConfigError(f"{path}: missing '#' column header")
    columns = [c.strip() for c in comments[-1].split(",")]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1 or widths.pop() != len(columns):
        raise ConfigError(f"{path}: ragged rows or header/data mismatch")
    return Table(columns=columns, data=np.array(rows, dtype=float),
                 comments=comments[:-1])


def write_sidecar(path: str, resolved: Mapping) -> str:
    """Write `<path>.meta.json` with the fully-resolved run parameters."""
    meta_path = path + ".meta.json"
    with open(meta_path, "w", newline="\n") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta_path


def ensure_parent_dir(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"output directory does not exist: {parent}")
