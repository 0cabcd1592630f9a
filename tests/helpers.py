"""Shared test utilities: exhaustive enumerations and tiny oracles."""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from eigeniso import DEFAULT_EPS, Graph, group_eigenvalues


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


def char_poly_spectrum(adj: np.ndarray) -> np.ndarray:
    """Eigenvalues via the characteristic polynomial, as an independent oracle."""
    coeffs = np.poly(adj)
    return np.sort(np.roots(coeffs).real)
