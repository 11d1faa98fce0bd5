"""Principal component projection for patch descriptors.

Covariance is the population form (divide by N), so duplicating the
sample set leaves the model unchanged.  Component signs follow a fixed
convention: the largest-magnitude entry of each component is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray         # (d,)
    components: np.ndarray   # (d', d), rows orthonormal
    eigenvalues: np.ndarray  # (d',), non-increasing
    energy_kept: float

    @property
    def n_components(self) -> int:
        return len(self.eigenvalues)

    @property
    def input_dim(self) -> int:
        return len(self.mean)


def fit(samples: np.ndarray, energy: float = 0.95, fixed_dims: int | None = None) -> PcaModel:
    """Eigendecomposition of the sample covariance, keeping either the
    smallest dimension count reaching the energy fraction or exactly
    fixed_dims."""
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError("need at least 2 samples of equal dimension")
    n, d = x.shape
    if fixed_dims is not None and not 1 <= fixed_dims <= d:
        raise DataError(f"fixed_dims {fixed_dims} outside [1, {d}]")
    if fixed_dims is None and not 0.0 < energy <= 1.0:
        raise DataError("energy fraction must be in (0, 1]")

    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / n
    evals, evecs = np.linalg.eigh(cov)
    evals = np.maximum(evals[::-1], 0.0)
    evecs = evecs[:, ::-1]
    total = evals.sum()
    if total == 0.0:
        raise DataError("zero total variance: all samples identical")

    if fixed_dims is not None:
        keep = fixed_dims
    else:
        frac = np.cumsum(evals) / total
        reached = np.flatnonzero(frac >= energy)
        keep = int(reached[0]) + 1 if reached.size else d

    components = evecs[:, :keep].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=components,
        eigenvalues=evals[:keep].copy(),
        energy_kept=float(evals[:keep].sum() / total),
    )


def project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Center and rotate; accepts one vector or a batch of rows."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != model.input_dim:
        raise DataError(
            f"input dimension {arr.shape[-1]} does not match model dimension {model.input_dim}"
        )
    return (arr - model.mean) @ model.components.T

