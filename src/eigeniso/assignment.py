"""Reference assignments: the Hungarian optimum and a uniqueness check.

Neither is on the solve path.  The search decides a cost matrix by its
sub-eps mask ``c < eps`` alone, with :func:`eigeniso.solver.perfect_matching`;
the tests check that decision against :func:`solve_lap`, the optimum, and
:func:`is_unique_zero_assignment`, built on the same matcher.

:func:`solve_lap` is the shortest-augmenting-path formulation of the
Hungarian method with row/column potentials, O(n^3) overall, exact for the
given floating-point costs (no approximation step).  Ties between equally
cheap columns resolve toward the lowest column index, which keeps runs
reproducible; on an all-zero matrix the result is the identity.

:func:`solve_lap` and the search's decision both add costs first to last
(:func:`eigeniso.solver._sequential_sum`), so an accepted cost compares
with the optimum.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph import Permutation
from .solver import _sequential_sum, perfect_matching


class LapSolution(NamedTuple):
    """An optimal assignment and its cost, summed in row order."""

    assignment: Permutation
    cost: float


def solve_lap(c: np.ndarray) -> LapSolution:
    """Solve the dense linear assignment problem min over P of tr(C^T P).

    ``c`` is a square nonnegative cost matrix; entry (i, j) is the cost of
    assigning row object i to column object j.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if c.ndim != 2 or c.shape != (n, n):
        raise ValueError("cost matrix must be square")
    if not np.isfinite(c).all():
        raise ValueError("cost matrix contains non-finite entries")

    # 1-based arrays with column 0 as the sentinel of the augmenting search.
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)  # p[j] = row matched to column j
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        way = np.zeros(n + 1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            reduced = c[i0 - 1, :] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (reduced < minv[1:])
            minv[1:][better] = reduced[better]
            way[1:][better] = j0
            candidates = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(candidates)) + 1  # argmin -> lowest column index
            delta = candidates[j1 - 1]
            u[p[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    row_to_col = np.empty(n, dtype=int)
    row_to_col[p[1:] - 1] = np.arange(n)
    return LapSolution(Permutation(row_to_col), _sequential_sum(c[np.arange(n), row_to_col]))


def is_unique_zero_assignment(mask: np.ndarray) -> bool:
    """Whether a square boolean mask admits exactly one perfect matching.

    Takes one matching from :func:`perfect_matching`, then for each of its
    pairs (i, j) asks for a matching of the mask without entry (i, j).  Any
    second matching differs from the first in some pair, so the first is
    unique exactly when none of these calls finds one.  A mask without a
    perfect matching gives False.
    """
    m = np.array(mask, dtype=bool)
    match = perfect_matching(m)
    if match is None:
        return False
    for i, j in enumerate(match.tolist()):
        m[i, j] = False
        if perfect_matching(m) is not None:
            return False
        m[i, j] = True
    return True
