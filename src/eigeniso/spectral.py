"""Symmetric eigendecomposition, eigenvalue grouping, and eigenspace projectors.

Two tolerances matter here and are easy to conflate:

* ``DEFAULT_EPS`` (1e-6) is the algorithmic tolerance: eigenvalues closer
  than this are treated as equal and clustered into one group.
* ``delta_eig`` is the far smaller numerical accuracy budget of the
  eigensolver itself; invariants of decompositions and projectors are
  asserted against it, not against the algorithmic tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Graph

DEFAULT_EPS = 1e-6


class EigensolverError(RuntimeError):
    """The eigensolver failed to converge; results would be meaningless."""


class EigenGroup(NamedTuple):
    """A cluster of numerically equal eigenvalues.

    ``value`` is the mean of the members, ``start``/``length`` the column
    range into the eigenvector matrix; ``length`` is the multiplicity.
    """

    value: float
    start: int
    length: int


@dataclass(frozen=True)
class SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix plus eigenvalue grouping.

    ``values`` ascend; column k of ``vectors`` is the unit eigenvector of
    ``values[k]``; ``groups`` partitions the columns into eigenspaces.
    """

    values: np.ndarray
    vectors: np.ndarray
    groups: tuple[EigenGroup, ...]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(g.length for g in self.groups)


def delta_eig(m) -> float:
    """Eigensolver accuracy budget for matrix (or Graph) ``m``."""
    a = m.adj if isinstance(m, Graph) else np.asarray(m)
    return 1e-10 * a.shape[0] * float(np.abs(a).max())


def group_eigenvalues(values, eps: float = DEFAULT_EPS) -> tuple[EigenGroup, ...]:
    """Cluster ascending eigenvalues into groups by single linkage.

    Consecutive values with a gap below ``eps`` land in the same group, so
    chains of sub-eps gaps merge even when the total spread exceeds ``eps``.
    """
    w = np.asarray(values, dtype=float)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if w.ndim != 1 or w.shape[0] < 1:
        raise ValueError("values must be a nonempty 1-d array")
    cuts = (np.flatnonzero(np.diff(w) >= eps) + 1).tolist()
    starts, ends = [0, *cuts], [*cuts, w.shape[0]]
    sums = np.add.reduceat(w, starts).tolist()
    return tuple(
        EigenGroup(t / (e - s), s, e - s) for t, s, e in zip(sums, starts, ends)
    )


def eigendecompose(g: Graph, eps: float = DEFAULT_EPS) -> SpectralDecomposition:
    """Eigendecompose a graph's adjacency matrix and group its eigenvalues.

    Uses the dense symmetric solver; its convergence failure is raised as
    :class:`EigensolverError`, never returned as garbage.
    """
    try:
        w, v = np.linalg.eigh(g.adj)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigensolver failed: {exc}") from exc
    return SpectralDecomposition(w, v, group_eigenvalues(w, eps))


def projection(d: SpectralDecomposition, k: int) -> np.ndarray:
    """Orthogonal projector onto the eigenspace of group ``k``.

    Basis-rotation invariant: any orthonormal basis of the eigenspace gives
    the same matrix up to the eigensolver budget.  Explicitly symmetrized.
    """
    grp = d.groups[k]
    vk = d.vectors[:, grp.start : grp.start + grp.length]
    e = vk @ vk.T
    return (e + e.T) * 0.5


def spectral_distance(da: SpectralDecomposition, db: SpectralDecomposition) -> float:
    """Frobenius distance between the sorted eigenvalue vectors."""
    if da.n != db.n:
        raise ValueError(f"size mismatch: {da.n} vs {db.n}")
    return float(np.linalg.norm(da.values - db.values))


def reconstruct(d: SpectralDecomposition) -> np.ndarray:
    """Rebuild the source matrix as the projector-weighted sum over groups."""
    out = np.zeros((d.n, d.n))
    for k, grp in enumerate(d.groups):
        out += grp.value * projection(d, k)
    return out
