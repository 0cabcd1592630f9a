"""Benchmark graph families, a brute-force oracle, and non-isomorphic fixtures.

Everything here is deterministic: the random family takes an explicit seed
and the constructions are closed-form, so generated graphs (and therefore
benchmarks built on them) reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .graph import Graph, Permutation

@dataclass(frozen=True)
class GeneratorSpec:
    """A family name, its size parameter, and a seed for the random family."""

    family: str
    parameter: int
    seed: int | None = None


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return Graph(adj)


def path(n: int) -> Graph:
    """Path on n vertices."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    adj = np.zeros((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    return Graph(adj)


def complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    adj = np.ones((n, n)) - np.eye(n)
    return Graph(adj)


def star(k: int) -> Graph:
    """Star with k leaves (k+1 vertices, vertex 0 is the center)."""
    if k < 1:
        raise ValueError("star needs at least 1 leaf")
    adj = np.zeros((k + 1, k + 1))
    adj[0, 1:] = adj[1:, 0] = 1.0
    return Graph(adj)


def paley(q: int) -> Graph:
    """Paley graph on a prime q = 1 (mod 4): u ~ v iff u-v is a nonzero square.

    Strongly regular with degree (q-1)/2.  Prime powers are not supported.
    """
    if not _is_prime(q) or q % 4 != 1:
        raise ValueError(f"paley parameter must be a prime = 1 (mod 4), got {q}")
    residues = {(x * x) % q for x in range(1, q)}
    adj = np.zeros((q, q))
    for u in range(q):
        for v in range(u + 1, q):
            if (u - v) % q in residues:
                adj[u, v] = adj[v, u] = 1.0
    return Graph(adj)


def lattice(k: int) -> Graph:
    """Rook's graph on a k x k grid: cells adjacent iff same row or column."""
    if k < 2:
        raise ValueError("lattice needs k >= 2")
    n = k * k
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if i // k == j // k or i % k == j % k:
                adj[i, j] = adj[j, i] = 1.0
    return Graph(adj)


def triangular(k: int) -> Graph:
    """Triangular graph: vertices are 2-subsets of {1..k}, adjacent iff they meet."""
    if k < 3:
        raise ValueError("triangular needs k >= 3")
    pairs = list(combinations(range(k), 2))
    n = len(pairs)
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if set(pairs[i]) & set(pairs[j]):
                adj[i, j] = adj[j, i] = 1.0
    return Graph(adj)


def random_gnp(n: int, seed: int | None, p: float = 0.5) -> Graph:
    """Erdos-Renyi G(n, p) with a seeded generator."""
    if n < 1:
        raise ValueError("random graph needs at least 1 vertex")
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    adj = (upper | upper.T).astype(float)
    return Graph(adj)


# Family name -> builder of one size parameter; random_gnp also takes the seed.
FAMILIES = {
    "cycle": cycle,
    "paley": paley,
    "lattice": lattice,
    "triangular": triangular,
    "complete": complete,
    "path": path,
    "star": star,
    "random_gnp": random_gnp,
}


def generate(spec: GeneratorSpec) -> Graph:
    """Build the graph described by a :class:`GeneratorSpec`."""
    build = FAMILIES.get(spec.family)
    if build is None:
        known = ", ".join(FAMILIES)
        raise ValueError(f"unknown family {spec.family!r}; expected one of {known}")
    if build is random_gnp:
        return build(spec.parameter, spec.seed)
    return build(spec.parameter)


# ---------------------------------------------------------------------------
# Fixtures: pairs that stress the solver's rejection paths.
# ---------------------------------------------------------------------------


def cospectral_fixture() -> tuple[Graph, Graph]:
    """Smallest standard cospectral non-isomorphic pair (5 vertices).

    A 4-leaf star versus a 4-cycle plus an isolated vertex: both have
    spectrum {-2, 0, 0, 0, 2}, so the eigenvalue quick-reject cannot tell
    them apart, but their degree sequences (and graphs) differ.
    """
    c4_k1 = np.zeros((5, 5))
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        c4_k1[u, v] = c4_k1[v, u] = 1.0
    return star(4), Graph(c4_k1)


def shrikhande() -> Graph:
    """The Shrikhande graph: vertices Z4 x Z4, differences {10, 01, 11} up to sign.

    Strongly regular with the same parameters (16, 6, 2, 2) as the 4x4
    rook's graph yet not isomorphic to it; the pair is indistinguishable
    by spectra and by unperturbed projector costs.
    """
    diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    adj = np.zeros((16, 16))
    for i in range(16):
        for j in range(16):
            if i != j and ((i // 4 - j // 4) % 4, (i % 4 - j % 4) % 4) in diffs:
                adj[i, j] = 1.0
    return Graph(adj)


def srg_fixture() -> tuple[Graph, Graph]:
    """Same-parameter strongly-regular pair: rook's 4x4 graph vs Shrikhande.

    The hardest small non-isomorphic pair for this method: every round of
    the search stays spectrally feasible, so rejection must come from the
    perturbation search itself (with backtracking), not from a certificate.
    """
    return lattice(4), shrikhande()


def cfi(base_edges, twist: bool = False) -> Graph:
    """Cai-Fuerer-Immerman graph over a base graph given by its edge list.

    A base vertex of degree d becomes 2^(d-1) middle vertices, one per
    even-size subset S of its edges, and two ends (e, 0) and (e, 1) per
    incident edge e; middle vertex S is joined to (e, 1) for e in S and to
    (e, 0) otherwise.  Base edge e = {u, v} joins u's end (e, b) to v's end
    (e, b), except that ``twist`` crosses the first base edge, joining
    (e, b) to (e, 1 - b).  Over a connected base graph the twisted graph is
    not isomorphic to the untwisted one, though the two are hard to tell
    apart by refinement or spectra.
    """
    edges = [tuple(e) for e in base_edges]
    if any(u == v for u, v in edges) or len(set(map(frozenset, edges))) < len(edges):
        raise ValueError("base graph must be simple: no loops or repeated edges")
    incident: dict[int, list[int]] = {}
    for k, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(k)
        incident.setdefault(v, []).append(k)
    end: dict[tuple[int, int, int], int] = {}  # (base vertex, edge, bit) -> vertex
    links = []
    n = 0
    for v, ks in incident.items():
        for k in ks:
            end[v, k, 0], end[v, k, 1] = n, n + 1
            n += 2
        for bits in product((0, 1), repeat=len(ks)):
            if sum(bits) % 2 == 0:
                links += [(n, end[v, k, bit]) for k, bit in zip(ks, bits)]
                n += 1
    for k, (u, v) in enumerate(edges):
        cross = int(twist and k == 0)
        links += [(end[u, k, bit], end[v, k, bit ^ cross]) for bit in (0, 1)]
    adj = np.zeros((n, n))
    for x, y in links:
        adj[x, y] = adj[y, x] = 1.0
    return Graph(adj)


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


def _degree_signatures(adj: np.ndarray) -> list[tuple]:
    deg = adj.sum(axis=1).astype(int)
    return [
        (int(deg[i]), tuple(sorted(int(deg[j]) for j in np.flatnonzero(adj[i]))))
        for i in range(adj.shape[0])
    ]


def brute_force_isomorphism(a: Graph, b: Graph) -> Permutation | None:
    """Exhaustive isomorphism search with degree pruning; oracle for tests.

    Returns some witness permutation if one exists, else None.  Guarded to
    n <= 10 because the search is factorial in the worst case.
    """
    if a.n > 10 or b.n > 10:
        raise ValueError("brute-force oracle limited to n <= 10")
    if a.n != b.n:
        return None
    n = a.n
    aa = (a.adj != 0).astype(np.int8)
    bb = (b.adj != 0).astype(np.int8)
    np.fill_diagonal(aa, 0)
    np.fill_diagonal(bb, 0)
    sig_a = _degree_signatures(aa)
    sig_b = _degree_signatures(bb)
    if sorted(sig_a) != sorted(sig_b):
        return None

    # Map rare signatures first; candidate lists shrink accordingly.
    order = sorted(range(n), key=lambda i: sig_b.count(sig_a[i]))
    mapping = np.full(n, -1, dtype=int)
    used = np.zeros(n, dtype=bool)

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        u = order[depth]
        for v in range(n):
            if used[v] or sig_a[u] != sig_b[v]:
                continue
            if any(aa[u, w] != bb[v, mapping[w]] for w in order[:depth]):
                continue
            mapping[u] = v
            used[v] = True
            if extend(depth + 1):
                return True
            used[v] = False
            mapping[u] = -1
        return False

    return Permutation(mapping) if extend(0) else None
