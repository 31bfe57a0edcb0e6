"""Symmetric-matrix helpers shared by the estimators.

Laplace noise can push a covariance or scaled gram matrix off the positive
semidefinite cone; the estimators repair it by clipping eigenvalues at a small
floor relative to the matrix scale, and flag the repair as degenerate when the
total eigenvalue shift exceeds a fraction of the trace.

The helpers take an (F, k, k) stack as well as one matrix: a release of F
data sets is repaired by one ``eigh``, and a bootstrap takes its covariance
roots with one :func:`sym_sqrt` of the repaired stack, the only root path of
both models.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

PSD_FLOOR_SCALE = 1e-8
REPAIR_BUDGET_FRACTION = 0.10
_ABSOLUTE_FLOOR = 1e-12


class RepairResult(NamedTuple):
    """One repair; :func:`psd_repair_stack` fills each field per matrix."""

    matrix: np.ndarray
    shift: float        # total eigenvalue mass added by clipping
    floor: float
    degenerate: bool    # shift exceeded the repair budget


def psd_floor(matrix: np.ndarray):
    """Eigenvalue floor of a symmetric matrix, or of each one in a (..., k, k) stack."""
    k = matrix.shape[-1]
    tr = np.trace(matrix, axis1=-2, axis2=-1)
    return np.maximum(PSD_FLOOR_SCALE * np.maximum(tr, 0.0) / k, _ABSOLUTE_FLOOR)


def psd_repair_stack(matrices: np.ndarray) -> RepairResult:
    """:func:`psd_repair` applied to each matrix of an (F, k, k) stack.

    One ``eigh`` serves the whole stack.  The repair's fields hold one entry
    per matrix.
    """
    m = np.asarray(matrices, dtype=float)
    floor = psd_floor(m)
    eigvals, eigvecs = np.linalg.eigh(m)
    clipped = np.maximum(eigvals, floor[:, None])
    shift = np.sum(clipped - eigvals, axis=-1)
    repaired = m.copy()
    clip = eigvals[:, 0] < floor  # unclipped matrices are returned unchanged
    if clip.any():
        vecs = eigvecs[clip]
        r = (vecs * clipped[clip, None, :]) @ np.swapaxes(vecs, -1, -2)
        repaired[clip] = 0.5 * (r + np.swapaxes(r, -1, -2))
    budget = REPAIR_BUDGET_FRACTION * np.maximum(np.trace(m, axis1=-2, axis2=-1), 0.0)
    return RepairResult(repaired, shift, floor, shift > budget)


def psd_repair(matrix: np.ndarray) -> RepairResult:
    """Clip the eigenvalues of a symmetric matrix below at a relative floor.

    A no-op (the input is returned unchanged) when all eigenvalues already sit
    at or above the floor.
    """
    m = np.asarray(matrix, dtype=float)
    repaired, shift, floor, degenerate = (a[0] for a in psd_repair_stack(m[None]))
    return RepairResult(repaired if shift > 0.0 else m, float(shift), float(floor), bool(degenerate))


def sym_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a matrix, or of each one in a (..., k, k)
    stack; tiny negative eigenvalues are treated as 0."""
    eigvals, eigvecs = np.linalg.eigh(np.asarray(matrix, dtype=float))
    root = np.sqrt(np.maximum(eigvals, 0.0))
    return (eigvecs * root[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)
