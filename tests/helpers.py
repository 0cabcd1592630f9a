"""Shared test utilities: exhaustive enumerations, tiny oracles and graph facts."""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from eigeniso import DEFAULT_EPS, Graph, Permutation, group_eigenvalues, projection


# Base graphs of CFI pairs (generators.cfi), as edge lists.
K4_EDGES = list(itertools.combinations(range(4), 2))
K33_EDGES = [(u, v) for u in range(3) for v in range(3, 6)]


class SearchSpy:
    """Stands in for ``solver.search`` and records every call, the inner
    searches for automorphisms included.

    ``active`` counts the searches running now; ``calls`` holds one
    (depth, a, b, items) per ended search, inner ones before their caller,
    with depth 0 for a search nothing else started and items its events
    followed by its report.
    """

    def __init__(self, search) -> None:
        self.search = search
        self.active = 0
        self.calls: list[tuple[int, Graph, Graph, list]] = []

    def __call__(self, a, b, opts):
        depth = self.active
        self.active += 1
        try:
            items = list(self.search(a, b, opts))
        finally:
            self.active -= 1
        self.calls.append((depth, a, b, items))
        yield from items


def disjoint_edges(k: int) -> Graph:
    """k·K2: k disjoint edges (a perfect matching) on 2k vertices.

    The search pins k - 1 vertices before one map is forced, so its path,
    and its depth of nested calls, grows with k.
    """
    adj = np.zeros((2 * k, 2 * k))
    adj[2 * np.arange(k), 2 * np.arange(k) + 1] = 1.0
    return Graph(adj + adj.T)


def chang_4k2() -> Graph:
    """The Chang graph switched from T(8) on a perfect matching of K8.

    T(8)'s vertices are the 28 edges of K8; Seidel switching on the four
    edges {0,1}, {2,3}, {4,5}, {6,7} toggles every adjacency between them
    and the rest.  SRG(28, 12, 6, 4), the parameters of T(8), and not
    isomorphic to it.
    """
    edges = list(itertools.combinations(range(8), 2))
    switched = np.isin(np.arange(28), [edges.index(e) for e in ((0, 1), (2, 3), (4, 5), (6, 7))])
    adj = np.array([[float(len(set(e) & set(f)) == 1) for f in edges] for e in edges])
    cut = np.outer(switched, ~switched) | np.outer(~switched, switched)
    adj[cut] = 1.0 - adj[cut]
    return Graph(adj)


def all_graphs(n: int) -> list[Graph]:
    """Every labeled simple graph on n vertices (2^(n choose 2) of them)."""
    vertex_pairs = list(itertools.combinations(range(n), 2))
    graphs = []
    for bits in range(1 << len(vertex_pairs)):
        adj = np.zeros((n, n))
        for k, (u, v) in enumerate(vertex_pairs):
            if bits >> k & 1:
                adj[u, v] = adj[v, u] = 1.0
        graphs.append(Graph(adj))
    return graphs


class Group(NamedTuple):
    """Columns start:stop of a decomposition; value is their eigenvalues' mean."""

    value: float
    start: int
    stop: int

    @property
    def length(self) -> int:
        return self.stop - self.start


def eigen_groups(d, eps: float = DEFAULT_EPS) -> list[Group]:
    """The eigenvalue groups of one decomposition, grouped with itself."""
    starts = group_eigenvalues(d.values, d.values, eps)
    stops = [*starts[1:], d.n]
    return [Group(float(d.values[s:e].mean()), s, e) for s, e in zip(starts, stops)]


def reconstruct(d) -> np.ndarray:
    """Rebuild the source matrix: group projectors times their mean eigenvalue."""
    out = np.zeros((d.n, d.n))
    for g in eigen_groups(d):
        out += g.value * projection(d, g.start, g.stop)
    return out


def delta_eig(m) -> float:
    """Eigensolver accuracy budget for matrix (or Graph) ``m``.

    Far below the algorithmic tolerance ``DEFAULT_EPS``; invariants of
    decompositions and projectors are asserted against it.
    """
    a = m.adj if isinstance(m, Graph) else np.asarray(m)
    return 1e-10 * a.shape[0] * float(np.abs(a).max())


def degrees(g: Graph) -> np.ndarray:
    """Off-diagonal row sums (vertex degrees for plain graphs)."""
    return g.adj.sum(axis=1) - np.diag(g.adj)


def edge_count(g: Graph) -> int:
    """Number of off-diagonal nonzero entries / 2 (plain graphs)."""
    return int(np.count_nonzero(np.triu(g.adj, k=1)))


def inverse(p: Permutation) -> Permutation:
    """The permutation that undoes ``p``."""
    return Permutation(np.argsort(p.map))


def sorted_row_distance(u_a, u_b) -> float:
    """Euclidean distance between ascending-sorted copies of two vectors.

    Zero exactly when one vector is a permutation of the other, which makes
    it a relabeling-invariant comparison of projector rows; the definition
    each cost-matrix entry is checked against.
    """
    u_a = np.asarray(u_a, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    if u_a.shape != u_b.shape:
        raise ValueError("length mismatch")
    return float(np.linalg.norm(np.sort(u_a) - np.sort(u_b)))


def dense_norm_bound(da, db, starts: list[int]) -> np.ndarray:
    """The row-norm bound of a cost matrix, one dense n x n pass per group.

    LB(i, j) = sum_k | |Va_k[i]| - |Vb_k[j]| |, summed in group order over
    every pair; the reference for the solver's staged filter.
    """
    norms_a = np.sqrt(np.add.reduceat(da.vectors**2, starts, axis=1))
    norms_b = np.sqrt(np.add.reduceat(db.vectors**2, starts, axis=1))
    lb = np.zeros((da.n, db.n))
    for k in range(len(starts)):
        lb += np.abs(np.subtract.outer(norms_a[:, k], norms_b[:, k]))
    return lb


def lap_brute_force(c: np.ndarray) -> float:
    """Exact LAP optimum by enumerating all permutations (small n only)."""
    n = c.shape[0]
    best = float("inf")
    for perm in itertools.permutations(range(n)):
        cost = sum(c[i, perm[i]] for i in range(n))
        best = min(best, cost)
    return best


def perfect_matchings(mask: np.ndarray) -> int:
    """Count perfect matchings of a boolean bipartite mask (small n only)."""
    n = mask.shape[0]
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(mask[i, perm[i]] for i in range(n)):
            count += 1
    return count


def arc_consistency_reference(mask: np.ndarray, a: Graph, b: Graph) -> np.ndarray:
    """Ullmann's refinement of ``mask`` run pair by pair to its fixpoint.

    A pair (x, y) stays while the mask restricted to the neighbours of x
    (rows) and of y (columns) has no empty row and no empty column; any
    nonzero off-diagonal weight is an edge.  The largest such submask is
    unique, so the order pairs are visited in does not matter.  The
    reference for the solver's matrix form; empty lines are kept, not
    reported.
    """
    def neighbours(g: Graph) -> list[np.ndarray]:
        off = (g.adj != 0) & ~np.eye(g.n, dtype=bool)
        return [np.flatnonzero(row) for row in off]

    na, nb = neighbours(a), neighbours(b)
    m = np.array(mask, dtype=bool)
    changed = True
    while changed:
        changed = False
        for x, y in zip(*np.nonzero(m)):
            sub = m[np.ix_(na[x], nb[y])]
            if not (sub.any(axis=1).all() and sub.any(axis=0).all()):
                m[x, y] = False
                changed = True
    return m


def char_poly_spectrum(adj: np.ndarray) -> np.ndarray:
    """Eigenvalues via the characteristic polynomial, as an independent oracle."""
    coeffs = np.poly(adj)
    return np.sort(np.roots(coeffs).real)
