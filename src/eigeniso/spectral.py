"""Symmetric eigendecomposition, shared eigenvalue groups, eigenspace projectors.

Two tolerances matter here and are easy to conflate:

* ``DEFAULT_EPS`` (1e-6) is the algorithmic tolerance: eigenvalues closer
  than this are treated as equal and clustered into one group.
* ``delta_eig`` is the far smaller numerical accuracy budget of the
  eigensolver itself; invariants of decompositions and projectors are
  asserted against it, not against the algorithmic tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

DEFAULT_EPS = 1e-6


class EigensolverError(RuntimeError):
    """The eigensolver failed to converge; results would be meaningless."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix, without grouping.

    ``values`` ascend; column k of ``vectors`` is the unit eigenvector of
    ``values[k]``.  Groups belong to a pair (:func:`group_eigenvalues`).
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


def delta_eig(m) -> float:
    """Eigensolver accuracy budget for matrix (or Graph) ``m``."""
    a = m.adj if isinstance(m, Graph) else np.asarray(m)
    return 1e-10 * a.shape[0] * float(np.abs(a).max())


def group_eigenvalues(wa, wb, eps: float) -> list[int]:
    """Start columns of the eigenvalue groups shared by two ascending spectra.

    A group ends only where both spectra have a gap of at least ``eps``, so
    the partition depends on the two spectra alone and each side is cut
    alike.  Within one spectrum this is single linkage: chains of sub-eps
    gaps merge even when the total spread exceeds ``eps``.  Grouping a
    spectrum with itself gives its own single-linkage groups.
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    wa, wb = np.asarray(wa, dtype=float), np.asarray(wb, dtype=float)
    if wa.ndim != 1 or wa.shape[0] < 1 or wa.shape != wb.shape:
        raise ValueError("spectra must be nonempty 1-d arrays of one length")
    cuts = (np.diff(wa) >= eps) & (np.diff(wb) >= eps)
    return [0, *(np.flatnonzero(cuts) + 1).tolist()]


def eigendecompose(g: Graph) -> SpectralDecomposition:
    """Eigendecompose a graph's adjacency matrix.

    Uses the dense symmetric solver; its convergence failure is raised as
    :class:`EigensolverError`, never returned as garbage.
    """
    try:
        w, v = np.linalg.eigh(g.adj)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigensolver failed: {exc}") from exc
    return SpectralDecomposition(w, v)


def projection(d: SpectralDecomposition, start: int, stop: int) -> np.ndarray:
    """Orthogonal projector onto the span of columns ``start:stop``.

    For a group of :func:`group_eigenvalues` that is its eigenspace.  Basis
    rotation invariant: any orthonormal basis of the eigenspace gives the
    same matrix up to the eigensolver budget.  Explicitly symmetrized.
    """
    vk = d.vectors[:, start:stop]
    e = vk @ vk.T
    return (e + e.T) * 0.5


def spectral_distance(da: SpectralDecomposition, db: SpectralDecomposition) -> float:
    """Frobenius distance between the sorted eigenvalue vectors."""
    if da.n != db.n:
        raise ValueError(f"size mismatch: {da.n} vs {db.n}")
    return float(np.linalg.norm(da.values - db.values))


def reconstruct(d: SpectralDecomposition) -> np.ndarray:
    """Rebuild the source matrix: group projectors times their mean eigenvalue."""
    starts = group_eigenvalues(d.values, d.values, DEFAULT_EPS)
    out = np.zeros((d.n, d.n))
    for start, stop in zip(starts, [*starts[1:], d.n]):
        out += d.values[start:stop].mean() * projection(d, start, stop)
    return out
