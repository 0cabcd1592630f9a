"""Benchmark graph families, a brute-force oracle, and non-isomorphic fixtures.

Everything here is deterministic: the random family takes an explicit seed
and the constructions are closed-form, so generated graphs (and therefore
benchmarks built on them) reproduce exactly.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from .graph import Graph, Permutation


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _graph(n: int, adjacent) -> Graph:
    """The graph on 0..n-1 joining u != v iff ``adjacent(u, v)`` or ``adjacent(v, u)``.

    The rule maps the two n x n index grids to a boolean matrix.
    """
    rule = adjacent(*np.indices((n, n)))
    adj = (rule | rule.T).astype(float)
    np.fill_diagonal(adj, 0.0)
    return Graph(adj)


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return _graph(n, lambda u, v: (v - u) % n == 1)


def path(n: int) -> Graph:
    """Path on n vertices."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return _graph(n, lambda u, v: v - u == 1)


def complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return _graph(n, lambda u, v: u != v)


def star(k: int) -> Graph:
    """Star with k leaves (k+1 vertices, vertex 0 is the center)."""
    if k < 1:
        raise ValueError("star needs at least 1 leaf")
    return _graph(k + 1, lambda u, v: u == 0)


def paley(q: int) -> Graph:
    """Paley graph on a prime q = 1 (mod 4): u ~ v iff u-v is a nonzero square.

    Strongly regular with degree (q-1)/2.  Prime powers are not supported.
    """
    if not _is_prime(q) or q % 4 != 1:
        raise ValueError(f"paley parameter must be a prime = 1 (mod 4), got {q}")
    square = np.zeros(q, dtype=bool)
    square[np.arange(1, q) ** 2 % q] = True
    return _graph(q, lambda u, v: square[(u - v) % q])


def lattice(k: int) -> Graph:
    """Rook's graph on a k x k grid: cells adjacent iff same row or column."""
    if k < 2:
        raise ValueError("lattice needs k >= 2")
    return _graph(k * k, lambda u, v: (u // k == v // k) | (u % k == v % k))


def triangular(k: int) -> Graph:
    """Triangular graph: vertices are 2-subsets of {1..k}, adjacent iff they meet."""
    if k < 3:
        raise ValueError("triangular needs k >= 3")
    pairs = np.array(list(combinations(range(k), 2)))  # vertex i is the subset pairs[i]
    return _graph(len(pairs), lambda u, v: (pairs[u, :, None] == pairs[v, None]).any(axis=(2, 3)))


def random_gnp(n: int, seed: int) -> Graph:
    """Erdos-Renyi G(n, 1/2) with a seeded generator."""
    if n < 1:
        raise ValueError("random graph needs at least 1 vertex")
    draws = np.random.default_rng(seed).random((n, n)) < 0.5
    return _graph(n, lambda u, v: (u < v) & draws[u, v])


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


def generate(family: str, parameter: int, seed: int = 0) -> Graph:
    """Build a graph of the named family; only random_gnp reads the seed."""
    build = FAMILIES.get(family)
    if build is None:
        known = ", ".join(FAMILIES)
        raise ValueError(f"unknown family {family!r}; expected one of {known}")
    if build is random_gnp:
        return build(parameter, seed)
    return build(parameter)


# ---------------------------------------------------------------------------
# Fixtures: pairs that stress the solver's rejection paths.
# ---------------------------------------------------------------------------


def cospectral_fixture() -> tuple[Graph, Graph]:
    """Smallest standard cospectral non-isomorphic pair (5 vertices).

    A 4-leaf star versus a 4-cycle plus an isolated vertex: both have
    spectrum {-2, 0, 0, 0, 2}, so the eigenvalue quick-reject cannot tell
    them apart, but their degree sequences (and graphs) differ.
    """
    return star(4), Graph(np.pad(cycle(4).adj, (0, 1)))


def shrikhande() -> Graph:
    """The Shrikhande graph: vertices Z4 x Z4, differences {10, 01, 11} up to sign.

    Strongly regular with the same parameters (16, 6, 2, 2) as the 4x4
    rook's graph yet not isomorphic to it; the pair is indistinguishable
    by spectra and by unperturbed projector costs.
    """
    step = np.zeros((4, 4), dtype=bool)
    step[[1, 0, 1], [0, 1, 1]] = True  # 10, 01 and 11; _graph adds their negatives
    return _graph(16, lambda u, v: step[(u // 4 - v // 4) % 4, (u % 4 - v % 4) % 4])


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
    linked = np.zeros((n, n), dtype=bool)
    linked[tuple(zip(*links))] = True
    return _graph(n, lambda u, v: linked[u, v])


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


def _degree_signatures(adj: np.ndarray) -> list[tuple]:
    pattern = adj != 0  # the edges, whatever their weights; loops left out
    np.fill_diagonal(pattern, False)
    deg = pattern.sum(axis=1)
    return [
        (int(deg[i]), tuple(sorted(int(deg[j]) for j in np.flatnonzero(pattern[i]))))
        for i in range(adj.shape[0])
    ]


def brute_force_isomorphism(a: Graph, b: Graph) -> Permutation | None:
    """Exhaustive isomorphism search with degree pruning; oracle for tests.

    Returns some witness permutation if one exists, else None; every witness
    passes :func:`is_exact_isomorphism`, weights and loops included.  Guarded
    to n <= 10 because the search is factorial in the worst case.
    """
    if a.n > 10 or b.n > 10:
        raise ValueError("brute-force oracle limited to n <= 10")
    if a.n != b.n:
        return None
    n = a.n
    aa, bb = a.adj, b.adj
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
            if used[v] or sig_a[u] != sig_b[v] or aa[u, u] != bb[v, v]:
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
