"""Symmetric-matrix helpers shared by the estimators.

Laplace noise can push a covariance or scaled gram matrix off the positive
semidefinite cone; the estimators repair it by clipping eigenvalues at a small
floor relative to the matrix scale, and flag the repair as degenerate when the
total eigenvalue shift exceeds a fraction of the trace.
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

    def at(self, f: int) -> "RepairResult":
        """The repair of matrix ``f`` of a stacked repair."""
        return RepairResult(
            self.matrix[f], float(self.shift[f]), float(self.floor[f]), bool(self.degenerate[f])
        )


def psd_floor(matrix: np.ndarray, floor_scale: float = PSD_FLOOR_SCALE):
    """Eigenvalue floor of a symmetric matrix, or of each one in a (..., k, k) stack."""
    k = matrix.shape[-1]
    tr = np.trace(matrix, axis1=-2, axis2=-1)
    return np.maximum(floor_scale * np.maximum(tr, 0.0) / k, _ABSOLUTE_FLOOR)


def psd_repair_stack(
    matrices: np.ndarray,
    floor_scale: float = PSD_FLOOR_SCALE,
    budget_fraction: float = REPAIR_BUDGET_FRACTION,
) -> tuple[RepairResult, np.ndarray, np.ndarray]:
    """:func:`psd_repair` applied to each matrix of an (F, k, k) stack.

    One ``eigh`` serves the whole stack.  Returns the repair, whose fields hold
    one entry per matrix, and the clipped eigenvalues and eigenvectors of the
    repaired matrices, from which square roots need no second decomposition.
    """
    m = np.asarray(matrices, dtype=float)
    floor = psd_floor(m, floor_scale)
    eigvals, eigvecs = np.linalg.eigh(m)
    clipped = np.maximum(eigvals, floor[:, None])
    shift = np.sum(clipped - eigvals, axis=-1)
    repaired = m.copy()
    clip = eigvals[:, 0] < floor  # unclipped matrices are returned unchanged
    if clip.any():
        vecs = eigvecs[clip]
        r = (vecs * clipped[clip, None, :]) @ np.swapaxes(vecs, -1, -2)
        repaired[clip] = 0.5 * (r + np.swapaxes(r, -1, -2))
    budget = budget_fraction * np.maximum(np.trace(m, axis1=-2, axis2=-1), 0.0)
    return RepairResult(repaired, shift, floor, shift > budget), clipped, eigvecs


def psd_repair(
    matrix: np.ndarray,
    floor_scale: float = PSD_FLOOR_SCALE,
    budget_fraction: float = REPAIR_BUDGET_FRACTION,
) -> RepairResult:
    """Clip the eigenvalues of a symmetric matrix below at a relative floor.

    A no-op (the input is returned unchanged) when all eigenvalues already sit
    at or above the floor.
    """
    m = np.asarray(matrix, dtype=float)
    repair = psd_repair_stack(m[None], floor_scale, budget_fraction)[0].at(0)
    return repair if repair.shift > 0.0 else repair._replace(matrix=m)


def eigen_sqrt(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """Symmetric square root from an eigendecomposition, of one matrix or a stack.

    Tiny negative eigenvalues are treated as 0.
    """
    root = np.sqrt(np.maximum(eigvals, 0.0))
    return (eigvecs * root[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)


def sym_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are treated as 0."""
    return eigen_sqrt(*np.linalg.eigh(np.asarray(matrix, dtype=float)))
