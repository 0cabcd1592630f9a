"""Graph and permutation types, permutation application, and graph file I/O.

Graphs are stored as dense symmetric matrices of floats.  Plain input graphs
have 0/1 off-diagonal entries and a zero diagonal; the diagonal is reserved
for self-loop weights added by :func:`perturb` during the solver's search.
"""

from __future__ import annotations

import numpy as np


class GraphFormatError(ValueError):
    """Raised for malformed graph or permutation files."""


class Graph:
    """Undirected weighted graph as a dense symmetric adjacency matrix.

    Parameters
    ----------
    adj : array_like
        Square, finite, symmetric matrix; entry (i, j) is the weight of edge
        {v_i, v_j}, the diagonal holds self-loop weights.

    Instances are immutable: the underlying array is copied and marked
    read-only, so graphs can be shared freely.
    """

    __slots__ = ("adj", "n")

    def __init__(self, adj) -> None:
        a = np.array(adj, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("graph needs at least one vertex")
        if not np.isfinite(a).all():
            raise ValueError("adjacency matrix must be finite")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency matrix must be exactly symmetric")
        a.setflags(write=False)
        self.adj = a
        self.n = a.shape[0]

    def degrees(self) -> np.ndarray:
        """Off-diagonal row sums (vertex degrees for plain graphs)."""
        return self.adj.sum(axis=1) - np.diag(self.adj)

    def edge_count(self) -> int:
        """Number of off-diagonal nonzero entries / 2 (plain graphs)."""
        return int(np.count_nonzero(np.triu(self.adj, k=1)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, edges={self.edge_count()})"


class Permutation:
    """A bijection on {0, ..., n-1}; ``map[i]`` is the image of vertex i."""

    __slots__ = ("map",)

    def __init__(self, mapping) -> None:
        m = np.array(mapping, dtype=int)
        if m.ndim != 1:
            raise ValueError("permutation must be a flat sequence")
        n = m.shape[0]
        if n < 1 or not np.array_equal(np.sort(m), np.arange(n)):
            raise ValueError("not a bijection on 0..n-1")
        m.setflags(write=False)
        self.map = m

    def __len__(self) -> int:
        return self.map.shape[0]

    def __getitem__(self, i: int) -> int:
        return int(self.map[i])

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.map)
        inv[self.map] = np.arange(len(self))
        return Permutation(inv)

    def to_line(self) -> str:
        """One-line file form: n space-separated 1-based images."""
        return " ".join(str(int(x) + 1) for x in self.map)

    @classmethod
    def from_line(cls, text: str) -> "Permutation":
        try:
            images = [int(tok) - 1 for tok in text.split()]
        except ValueError as exc:
            raise GraphFormatError(f"bad permutation line: {exc}") from exc
        return cls(images)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Permutation({self.map.tolist()})"


def random_permutation(n: int, seed: int) -> Permutation:
    """Uniform random permutation of {0..n-1}, reproducible for a fixed seed."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    return Permutation(rng.permutation(n))


def apply_permutation(g: Graph, p: Permutation) -> Graph:
    """Relabel ``g`` by ``p``: returns B with B[p(i)][p(j)] = A[i][j]."""
    if len(p) != g.n:
        raise ValueError(f"permutation length {len(p)} != graph size {g.n}")
    out = np.empty_like(g.adj)
    out[np.ix_(p.map, p.map)] = g.adj
    return Graph(out)


def is_exact_isomorphism(a: Graph, b: Graph, p: Permutation) -> bool:
    """Whether B[p(i)][p(j)] == A[i][j] for every i and j, diagonal included.

    The full matrices are compared, so loop weights (the pins of a search)
    must map onto each other as well as the edges.
    """
    if a.n != b.n or len(p) != a.n:
        raise ValueError("size mismatch")
    return np.array_equal(b.adj.take(p.map, 0).take(p.map, 1), a.adj)


def perturb(g: Graph, i: int, w: float) -> Graph:
    """Return ``g`` with a self-loop of weight ``w`` added at vertex ``i``."""
    if not 0 <= i < g.n:
        raise IndexError(f"vertex {i} out of range for n={g.n}")
    if w == 0:
        raise ValueError("perturbation weight must be nonzero")
    adj = g.adj.copy()
    adj[i, i] += w
    return Graph(adj)


# ---------------------------------------------------------------------------
# File formats.
#
# DIMACS-style:   c comment        Plain edge list:   <n>
#                 p edge <n> <m>                      <u> <v>
#                 e <u> <v>                           ...
# Vertex indices are 1-based in both formats and 0-based in memory.
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse a DIMACS-style or plain edge-list document into a Graph.

    The first meaningful line decides the format: a ``p edge n m`` header
    (possibly after ``c`` comment lines) selects DIMACS, a lone integer
    selects the plain format.  Duplicate edges collapse; self-loops are
    rejected (input graphs are plain).
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise GraphFormatError("empty graph document")
    if lines[0].startswith(("c", "p")):
        return _parse_dimacs(lines)
    return _parse_plain(lines)


def _add_edge(adj: np.ndarray, u: int, v: int, lineno: int) -> None:
    n = adj.shape[0]
    if not (1 <= u <= n and 1 <= v <= n):
        raise GraphFormatError(f"line {lineno}: vertex index out of range 1..{n}")
    if u == v:
        raise GraphFormatError(f"line {lineno}: self-loops not allowed in input graphs")
    adj[u - 1, v - 1] = adj[v - 1, u - 1] = 1.0


def _parse_dimacs(lines: list[str]) -> Graph:
    adj = None
    for no, ln in enumerate(lines, start=1):
        parts = ln.split()
        if parts[0] == "c":
            continue
        if parts[0] == "p":
            if adj is not None:
                raise GraphFormatError(f"line {no}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(f"line {no}: expected 'p edge <n> <m>'")
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError as exc:
                raise GraphFormatError(f"line {no}: {exc}") from exc
            if n < 1:
                raise GraphFormatError(f"line {no}: vertex count must be positive")
            adj = np.zeros((n, n))
        elif parts[0] == "e":
            if adj is None:
                raise GraphFormatError(f"line {no}: edge before problem line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {no}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {no}: {exc}") from exc
            _add_edge(adj, u, v, no)
        else:
            raise GraphFormatError(f"line {no}: unknown line type {parts[0]!r}")
    if adj is None:
        raise GraphFormatError("missing problem line")
    return Graph(adj)


def _parse_plain(lines: list[str]) -> Graph:
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise GraphFormatError(f"line 1: expected a vertex count, got {lines[0]!r}") from exc
    if n < 1:
        raise GraphFormatError("line 1: vertex count must be positive")
    adj = np.zeros((n, n))
    for no, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {no}: expected '<u> <v>'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {no}: {exc}") from exc
        _add_edge(adj, u, v, no)
    return Graph(adj)


def format_graph(g: Graph, comment: str | None = None) -> str:
    """Serialize a plain graph in DIMACS-style form."""
    out = []
    if comment:
        out.extend(f"c {ln}" for ln in comment.splitlines())
    edges = np.argwhere(np.triu(g.adj, k=1) != 0)
    out.append(f"p edge {g.n} {len(edges)}")
    out.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(out) + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g, comment))
