"""Seeded input pairs for the benchmark workloads.

A workload is one list of graph pairs (a *pass*) built from the seed.  The
timed loop repeats whole passes, so every run measures the same mix of
pairs and per-pair operation counts are exact.  Ground truth is known by
construction, except for ``small_mixed``, where the brute-force oracle
supplies it after timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from eigeniso.generators import (
    brute_force_isomorphism,
    lattice,
    paley,
    random_gnp,
    srg_fixture,
    triangular,
)
from eigeniso.graph import Graph, Permutation, apply_permutation


@dataclass(frozen=True)
class Pair:
    """One solver input; ``isomorphic`` is None when the oracle decides it."""

    a: Graph
    b: Graph
    label: str
    isomorphic: bool | None


def _relabel(g: Graph, rng: np.random.Generator) -> Graph:
    return apply_permutation(g, Permutation(rng.permutation(g.n)))


def _random_adjacency(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` uniform labelled graphs on n vertices, as a (count, n, n) stack."""
    upper = np.triu(rng.random((count, n, n)) < 0.5, k=1)
    return (upper | upper.transpose(0, 2, 1)).astype(float)


# Pairs per graph.  A relabeling changes how many pins a pair needs, so a
# pass holds many (88 pairs, about 18 s at the baseline); with 44 pairs the
# median solve time still spread 19% of its value over ten seeds.
SRG_RELABEL_REPEATS = 8


def srg_relabel(rng: np.random.Generator) -> list[Pair]:
    graphs = (
        [(f"paley({q})", paley(q)) for q in (29, 37, 41, 53, 61)]
        + [(f"lattice({k})", lattice(k)) for k in (6, 7)]
        + [(f"triangular({k})", triangular(k)) for k in (9, 10, 11, 12)]
    )
    return [
        Pair(_relabel(g, rng), _relabel(g, rng), name, True)
        for _ in range(SRG_RELABEL_REPEATS)
        for name, g in graphs
    ]


GNP_N = 150
GNP_PAIRS = 5


def gnp_root(rng: np.random.Generator) -> list[Pair]:
    pairs = []
    for _ in range(GNP_PAIRS):
        g = random_gnp(GNP_N, seed=int(rng.integers(2**32)))
        pairs.append(Pair(g, _relabel(g, rng), f"random_gnp({GNP_N})", True))
    return pairs


SMALL_SIZES = (5, 6, 7)
SMALL_PAIRS_PER_KIND = 1000
# Graphs sampled per size to find cospectral non-isomorphic classes; at
# 2000 samples every seed tried yields dozens of class pairs on n = 6, 7.
COSPECTRAL_SAMPLES = 2000
# Members of one spectrum bucket sorted into classes by the oracle; most
# buckets are relabelings of one class, so a cap bounds the generation time.
COSPECTRAL_BUCKET_CAP = 24


def _cospectral_classes(rng: np.random.Generator, n: int) -> list[tuple[Graph, Graph]]:
    """Pairs of non-isomorphic graphs on n vertices with equal spectra."""
    adj = _random_adjacency(rng, COSPECTRAL_SAMPLES, n)
    spectra = np.linalg.eigvalsh(adj)
    buckets: dict[tuple, list[int]] = {}
    for k in range(COSPECTRAL_SAMPLES):
        buckets.setdefault(tuple(np.round(spectra[k], 6)), []).append(k)
    found = []
    for members in buckets.values():
        reps: list[int] = []
        for k in members[:COSPECTRAL_BUCKET_CAP]:
            g = Graph(adj[k])
            if all(brute_force_isomorphism(g, Graph(adj[r])) is None for r in reps):
                reps.append(k)
        for i, j in combinations(reps, 2):
            if np.linalg.norm(spectra[i] - spectra[j]) < 1e-9:
                found.append((Graph(adj[i]), Graph(adj[j])))
    return found


def small_mixed(rng: np.random.Generator) -> list[Pair]:
    """Equal thirds, interleaved: relabelings, cospectral pairs, random pairs."""
    cospectral = [c for n in SMALL_SIZES for c in _cospectral_classes(rng, n)]
    if not cospectral:
        raise RuntimeError("no cospectral pair found; raise COSPECTRAL_SAMPLES")
    pairs = []
    for k in range(SMALL_PAIRS_PER_KIND):
        n = SMALL_SIZES[k % len(SMALL_SIZES)]
        g = Graph(_random_adjacency(rng, 1, n)[0])
        pairs.append(Pair(g, _relabel(g, rng), f"relabeled(n={n})", None))
        x, y = cospectral[int(rng.integers(len(cospectral)))]
        pairs.append(
            Pair(_relabel(x, rng), _relabel(y, rng), f"cospectral(n={x.n})", None)
        )
        while True:
            # Spectra this far apart are a certificate, so the pair is
            # non-isomorphic and meant for the spectral quick reject.
            two = _random_adjacency(rng, 2, n)
            gap = np.linalg.norm(np.diff(np.linalg.eigvalsh(two), axis=0))
            if gap > 1e-3:
                break
        pairs.append(Pair(Graph(two[0]), Graph(two[1]), f"random(n={n})", None))
    return pairs


def _cycle_edges(vertices) -> list[tuple[int, int]]:
    vs = list(vertices)
    return [tuple(sorted((u, v))) for u, v in zip(vs, vs[1:] + vs[:1])]


def chang_graphs() -> list[tuple[str, Graph]]:
    """The three Chang graphs: Seidel switches of T(8), SRG(28, 12, 6, 4).

    Vertices of T(8) are the edges of K8; switching on the vertex set of a
    perfect matching, an 8-cycle or a triangle plus a 5-cycle of K8 toggles
    every adjacency between the switched set and the rest.
    """
    t8 = triangular(8)
    index = {e: v for v, e in enumerate(combinations(range(8), 2))}
    switch_sets = {
        "4K2": [(0, 1), (2, 3), (4, 5), (6, 7)],
        "C8": _cycle_edges(range(8)),
        "C3+C5": _cycle_edges(range(3)) + _cycle_edges(range(3, 8)),
    }
    out = []
    for name, edges in switch_sets.items():
        s = np.zeros(t8.n, dtype=bool)
        s[[index[e] for e in edges]] = True
        adj = t8.adj.copy()
        cut = np.outer(s, ~s) | np.outer(~s, s)
        adj[cut] = 1.0 - adj[cut]
        out.append((f"chang_{name}", Graph(adj)))
    return out


# Labelings of the fixture's A side, fixed for every seed.  A rejection by
# exhaustion visits the same search tree for every relabeling of B, so the
# seed (which relabels B) leaves the op counts of a pair unchanged, while
# the A labeling sets the pin order: these two take 64 and 16 backtracks
# (other labelings take up to 448).
FIXTURE_A_LABELINGS = (0, 1)


def srg_reject(rng: np.random.Generator) -> list[Pair]:
    # The A sides are fixed because relabeling A spreads the cost of one
    # Chang pair from 2 s to 18 s (28 to 472 backtracks), more than one run
    # can average out; the seed relabels every B side.
    t8 = triangular(8)
    pairs = [
        Pair(t8, _relabel(g, rng), f"triangular(8) vs {name}", False)
        for name, g in chang_graphs()
    ]
    rook, shrikhande = srg_fixture()
    pairs += [
        Pair(
            _relabel(rook, np.random.default_rng(k)),
            _relabel(shrikhande, rng),
            f"rook4x4#{k} vs shrikhande",
            False,
        )
        for k in FIXTURE_A_LABELINGS
    ]
    return pairs


# Pair generator and round size of each workload.  A pass is a sequence of rounds
# with the same mix of pairs: one relabeling of every SRG, one gnp pair,
# 100 pairs of each small kind, the whole srg_reject pass.
WORKLOADS = {
    "srg_relabel": (srg_relabel, 11),
    "gnp_root": (gnp_root, 1),
    "small_mixed": (small_mixed, 300),
    "srg_reject": (srg_reject, 5),
}


def build(name: str, seed: int) -> tuple[list[Pair], int]:
    """The pass of workload ``name`` for ``seed`` and its round size.

    The same seed gives the same pairs.
    """
    make_pairs, round_pairs = WORKLOADS[name]
    pairs = make_pairs(np.random.default_rng([seed, list(WORKLOADS).index(name)]))
    assert len(pairs) % round_pairs == 0
    return pairs, round_pairs
