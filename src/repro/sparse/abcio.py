"""The mcl/HipMCL "abc" edge-list format.

Protein-similarity pipelines feed mcl and HipMCL label-pair files: one
``source <tab> target <tab> weight`` line per similarity hit, with
free-form string labels (protein accessions).  This module reads/writes
that format, maintaining the label ↔ index dictionary the way mcl's
``--abc`` mode does (first appearance order).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..errors import FormatError
from .construct import csc_from_triples
from .csc import CSCMatrix
from . import _compressed as _c


def write_abc(
    mat: CSCMatrix,
    path,
    labels: list[str] | None = None,
    *,
    directed: bool = True,
) -> None:
    """Write a matrix as abc lines.

    ``labels[i]`` names vertex i (defaults to the numeric id).  With
    ``directed=False`` only the lower triangle is emitted (the usual
    similarity-file convention; :func:`read_abc`'s symmetrize option
    restores the rest).
    """
    if mat.nrows != mat.ncols:
        raise FormatError(f"abc files need a square matrix: {mat.shape}")
    if labels is not None and len(labels) != mat.nrows:
        raise FormatError(
            f"{len(labels)} labels for {mat.nrows} vertices"
        )
    name = (
        (lambda v: labels[v]) if labels is not None else (lambda v: str(v))
    )
    cols = _c.expand_major(mat.indptr, mat.ncols)
    with open(path, "w", encoding="utf-8") as fh:
        # Column j holds vertex j's out-edges, so the column is the
        # *source* label and the row the *target* (mcl's reading).
        for r, c, v in zip(mat.indices.tolist(), cols.tolist(), mat.data):
            if not directed and r < c:
                continue
            fh.write(f"{name(c)}\t{name(r)}\t{v:.12g}\n")


def read_abc(
    path,
    *,
    symmetrize: bool = False,
    default_weight: float = 1.0,
) -> tuple[CSCMatrix, list[str]]:
    """Read an abc file into a matrix plus the label dictionary.

    Labels are numbered in first-appearance order (mcl's convention).
    Lines may omit the weight (``default_weight`` applies); blank lines
    and ``#`` comments are skipped.  Duplicate pairs are summed.  With
    ``symmetrize=True`` the element-wise max of the matrix and its
    transpose is returned (similarity semantics).
    """
    path = Path(path)
    ids: dict[str, int] = {}
    rows, cols, vals = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 2:
                s, t = parts
                w = default_weight
            elif len(parts) == 3:
                s, t = parts[0], parts[1]
                try:
                    w = float(parts[2])
                except ValueError:
                    raise FormatError(
                        f"{path}:{lineno}: bad weight {parts[2]!r}"
                    ) from None
            else:
                raise FormatError(
                    f"{path}:{lineno}: expected 2 or 3 fields, got "
                    f"{len(parts)}"
                )
            if not math.isfinite(w):
                raise FormatError(
                    f"{path}:{lineno}: non-finite weight {w}"
                )
            if w < 0:
                raise FormatError(
                    f"{path}:{lineno}: negative weight {w}"
                )
            for label in (s, t):
                if label not in ids:
                    ids[label] = len(ids)
            rows.append(ids[t])  # column = source, row = target: column
            cols.append(ids[s])  # j holds the out-edges of vertex j
            vals.append(w)
    n = len(ids)
    mat = csc_from_triples(
        (n, n),
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals),
    )
    if symmetrize:
        from .ops import symmetrize_max

        mat = symmetrize_max(mat)
    labels = [None] * n
    for label, idx in ids.items():
        labels[idx] = label
    return mat, list(labels)


def write_clusters_with_labels(
    clusters: list[list[int]], labels: list[str], path
) -> None:
    """Write mcl-style cluster lines using the label dictionary."""
    with open(path, "w", encoding="utf-8") as fh:
        for cluster in clusters:
            fh.write("\t".join(labels[v] for v in cluster) + "\n")
