"""File formats used by the command line: CSV matrices and labels, binary
PGM heatmaps, JSON run reports.

All numeric CSV output uses 17 significant digits so values round-trip
bit-exactly; identical inputs therefore produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .core import as_matrix

__all__ = [
    "read_matrix_csv",
    "write_matrix_csv",
    "read_weights_csv",
    "read_labels_csv",
    "write_labels_csv",
    "export_heatmap",
    "RunReport",
]

_FMT = "%.17g"
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read_lines(path, parse, what: str, kind: str) -> list:
    """``parse`` of each stripped, non-blank line of ``path``. A line that
    ``parse`` rejects is reported as not ``what``; a file without one line,
    as an empty ``kind`` file."""
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(parse(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not {what} ({exc})") from exc
    if not values:
        raise ValueError(f"{path}: empty {kind} file")
    return values


def read_matrix_csv(path) -> np.ndarray:
    """Headerless comma-separated matrix, one row per line."""
    rows = _read_lines(path, lambda line: [float(tok) for tok in line.split(",")],
                       "a numeric row", "matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows (expected {width} columns everywhere)")
    return as_matrix(np.asarray(rows), str(path))


def write_matrix_csv(path, matrix) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in matrix:
            fh.write(",".join(_FMT % x for x in row))
            fh.write("\n")


def read_weights_csv(path) -> np.ndarray:
    """Single-column CSV of strictly positive weights, one per line; any
    other shape raises ``ValueError``."""
    matrix = read_matrix_csv(path)
    if matrix.shape[1] != 1:
        raise ValueError(f"{path}: weights must be a single column, got shape {matrix.shape}")
    return matrix[:, 0]


def read_labels_csv(path) -> np.ndarray:
    """One integer class per line; -1 denotes an unlabeled sample."""
    return np.asarray(_read_lines(path, int, "an integer label", "label"), dtype=np.int64)


def write_labels_csv(path, labels) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for value in np.asarray(labels).reshape(-1):
            fh.write(f"{int(value)}\n")


def export_heatmap(matrix, path) -> None:
    """Write a binary PGM (magic P5, maxval 255) rendering of the matrix.

    Values are min-max normalized to 0..255 with one pixel per entry and
    matrix row i on image row i. A constant matrix renders as mid-gray (128).
    """
    m = as_matrix(matrix, "heatmap matrix")
    lo, hi = float(m.min()), float(m.max())
    if hi > lo:
        pixels = np.rint((m - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pixels = np.full(m.shape, 128, dtype=np.uint8)
    rows, cols = m.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))


@dataclass
class RunReport:
    """Machine-readable record of one CLI run.

    Re-running the echoed command with the same seed reproduces the cost
    field to 1e-12 (artifacts are byte-identical). The ``blas`` entry names
    numpy's BLAS library and echoes the BLAS thread variables (null when
    unset), which can change the bytes of entropic plans.
    """

    command: str
    seed: Optional[int]
    cost: Optional[float]
    iterations: int
    converged: bool
    wall_millis: float
    outputs: List[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        payload = {
            "command": self.command,
            "seed": self.seed,
            "cost": self.cost,
            "iterations": self.iterations,
            "converged": self.converged,
            "wallMillis": self.wall_millis,
            "outputs": self.outputs,
            "config": self.config,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     **{var: os.environ.get(var) for var in _BLAS_THREADS}},
        }
        payload.update(self.extra)
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="ascii")
