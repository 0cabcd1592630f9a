"""Dense linear assignment: Hungarian method plus zero-structure analysis.

The search decides a cost matrix by its sub-eps mask ``c < eps`` alone:
does it hold a perfect matching (:func:`perfect_matching`)?  The Hungarian
solver :func:`solve_lap` and :func:`is_unique_zero_assignment` are off that
path; they are the reference optimum and uniqueness check.

:func:`solve_lap` is the shortest-augmenting-path formulation of the
Hungarian method with row/column potentials, O(n^3) overall, exact for the
given floating-point costs (no approximation step).  Ties between equally
cheap columns resolve toward the lowest column index, which keeps runs
reproducible; on an all-zero matrix the result is the identity.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph import Permutation


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
    for j in range(1, n + 1):
        row_to_col[p[j] - 1] = j - 1
    cost = 0.0
    for i in range(n):
        cost += c[i, row_to_col[i]]
    return LapSolution(Permutation(row_to_col), float(cost))


def perfect_matching(mask: np.ndarray) -> np.ndarray | None:
    """A perfect matching inside a square boolean mask, or None if none exists.

    Returns ``col`` with ``mask[i, col[i]]`` for every row i, a bijection.
    Rows are first matched greedily to their lowest free column; each row
    left over is then matched along a shortest augmenting path (a
    breadth-first search over alternating paths, Hopcroft–Karp 1973 with
    one path per phase).  A row with no augmenting path proves that no
    perfect matching exists (Berge), so the search stops there.  Plain
    Python lists: at the sizes the search meets (n of a few dozen) this is
    cheaper than any dense O(n^3) solve.
    """
    m = np.asarray(mask, dtype=bool)
    n = m.shape[0]
    if m.ndim != 2 or m.shape != (n, n):
        raise ValueError("mask must be square")
    ii, jj = np.nonzero(m)
    cols = jj.tolist()
    ends = np.cumsum(np.bincount(ii, minlength=n)).tolist()
    adj = [cols[s:e] for s, e in zip([0] + ends[:-1], ends)]
    row_of = [-1] * n  # row matched to each column
    col_of = [-1] * n  # column matched to each row
    for i in range(n):
        for j in adj[i]:
            if row_of[j] < 0:
                row_of[j], col_of[i] = i, j
                break
    for i in range(n):
        if col_of[i] >= 0:
            continue
        came_from = [-1] * n  # the row from which the search reached a column
        frontier, end = [i], -1
        while frontier and end < 0:
            reached = []
            for r in frontier:
                for j in adj[r]:
                    if came_from[j] < 0:
                        came_from[j] = r
                        if row_of[j] < 0:
                            end = j
                            break
                        reached.append(row_of[j])
                if end >= 0:
                    break
            frontier = reached
        if end < 0:
            return None
        while end >= 0:  # flip the path back to row i
            r = came_from[end]
            row_of[end], col_of[r], end = r, end, col_of[r]
    return np.array(col_of)


def is_unique_zero_assignment(mask: np.ndarray) -> bool:
    """Decide whether a feasibility mask admits exactly one perfect matching.

    Works by repeatedly eliminating a row or column that has a single
    candidate left (such a pair lies in every perfect matching).  If
    elimination consumes the whole mask the matching is provably unique;
    if it stalls with every remaining line offering two or more candidates
    the answer is False.  Assumes the mask has at least one perfect
    matching; without one the stall answer False is returned as well.

    Row and column counts are computed once and decremented as lines are
    removed, so the work after the first count is one scan of the removed
    row and column per step plus one update per removed entry.
    """
    m = np.array(mask, dtype=bool)
    n = m.shape[0]
    if m.ndim != 2 or m.shape != (n, n):
        raise ValueError("mask must be square")
    row_counts = m.sum(axis=1)
    col_counts = m.sum(axis=0)
    # Lines with one candidate left; an entry can go stale once its line
    # is removed, so each is checked again when popped.
    forced = [(0, int(i)) for i in np.flatnonzero(row_counts == 1)]
    forced += [(1, int(j)) for j in np.flatnonzero(col_counts == 1)]
    removed = 0
    while forced:
        axis, line = forced.pop()
        if axis == 0:
            if row_counts[line] != 1:
                continue
            i, j = line, int(np.argmax(m[line]))
        else:
            if col_counts[line] != 1:
                continue
            i, j = int(np.argmax(m[:, line])), line
        cols = np.flatnonzero(m[i])
        rows = np.flatnonzero(m[:, j])
        m[i, cols] = False
        m[rows, j] = False
        col_counts[cols] -= 1
        row_counts[rows] -= 1
        row_counts[i] = col_counts[j] = 0
        removed += 1
        forced += [(0, int(r)) for r in rows if row_counts[r] == 1]
        forced += [(1, int(c)) for c in cols if col_counts[c] == 1]
    return removed == n
