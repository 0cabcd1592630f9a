"""Hard families with ground truth by construction, and the colour refinement
the pins run on: its label independence and its start from the diagonal."""

import numpy as np
import pytest

from eigeniso import (
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    Graph,
    SolverOptions,
    apply_permutation,
    is_exact_isomorphism,
    is_isomorphic,
    random_permutation,
    srg_fixture,
)
from eigeniso import solver
from eigeniso.generators import cfi
from helpers import (
    K33_EDGES,
    PETERSEN_EDGES,
    cayley_table,
    chang_4k2,
    cyclic,
    dihedral,
    direct_product,
    latin_square_graph,
)


def relabelled(g: Graph, seed: int = 1) -> Graph:
    return apply_permutation(g, random_permutation(g.n, seed))


def cliques_through(g: Graph, v: int, size: int) -> int:
    """The number of cliques of ``size`` vertices that contain vertex v."""
    adj = g.adj != 0

    def count(candidates: list[int], need: int) -> int:
        if need == 0:
            return 1
        return sum(
            count([w for w in candidates[k + 1 :] if adj[u, w]], need - 1)
            for k, u in enumerate(candidates)
        )

    return count(np.flatnonzero(adj[v]).tolist(), size - 1)


LATIN_GROUPS = {
    "Z6": cyclic(6),
    "S3": dihedral(3),
    "Z4xZ2": direct_product(cyclic(4), cyclic(2)),
    "D4": dihedral(4),
}


class TestGroundTruth:
    """The facts the expected answers rest on, checked without the solver."""

    @pytest.mark.parametrize("name", LATIN_GROUPS)
    def test_latin_square_graph_is_strongly_regular_with_three_lines_per_cell(self, name):
        table = cayley_table(LATIN_GROUPS[name])
        k = len(table)
        g = latin_square_graph(table)
        adj = g.adj
        common = adj @ adj
        assert g.n == k * k and set(adj.sum(axis=1)) == {3 * (k - 1)}
        assert set(common[adj == 1]) == {k} and set(common[(adj == 0) & ~np.eye(g.n, dtype=bool)]) == {6}
        # for k >= 5 the k-cliques are the 3k lines, so the graph gives back the
        # square up to paratopy, and isotopic groups are isomorphic (Albert 1943)
        assert cliques_through(g, 0, k) == 3

    def test_paired_groups_differ(self):
        # one of each pair commutes and the other does not, so the groups
        # are not isomorphic
        commutes = {name: np.array_equal(t := np.array(cayley_table(gens)), t.T) for name, gens in LATIN_GROUPS.items()}
        assert commutes == {"Z6": True, "S3": False, "Z4xZ2": True, "D4": False}


class TestHardFamilies:
    """Each answer is known by construction; each solve decomposes the root only."""

    @staticmethod
    def solve(a, b):
        report = is_isomorphic(a, b)
        assert report.decompositions == 2
        if report.outcome == ISOMORPHIC:
            assert is_exact_isomorphism(a, b, report.permutation)
        return report

    @pytest.mark.parametrize("base", [K33_EDGES, PETERSEN_EDGES], ids=["K3,3", "Petersen"])
    def test_cfi_twist_rejected_and_relabelling_accepted(self, base):
        g = cfi(base)
        twisted = self.solve(g, relabelled(cfi(base, twist=True)))
        assert (twisted.outcome, twisted.reason) == (NOT_ISOMORPHIC, "exhaustion")
        assert self.solve(g, relabelled(g)).outcome == ISOMORPHIC

    @pytest.mark.parametrize("x, y", [("Z6", "S3"), ("Z4xZ2", "D4")])
    def test_latin_squares_of_different_groups_rejected(self, x, y):
        a = latin_square_graph(cayley_table(LATIN_GROUPS[x]))
        b = relabelled(latin_square_graph(cayley_table(LATIN_GROUPS[y])))
        report = self.solve(a, b)
        assert (report.outcome, report.reason) == (NOT_ISOMORPHIC, "exhaustion")

    def test_latin_square_relabelling_accepted(self):
        g = latin_square_graph(cayley_table(LATIN_GROUPS["Z6"]))
        assert self.solve(g, relabelled(g)).outcome == ISOMORPHIC


def _summary(a, b):
    """Outcome, reason, backtracks, pruned count and each accepted event's
    level and mask size, in order."""
    *events, report = solver.search(a, b, SolverOptions())
    sizes = [(e.level, int(e.mask.sum())) for e in events if e.accepted]
    return report.outcome, report.reason, report.backtrack_steps, report.pruned, sizes


class TestLabelIndependence:
    def test_refinement_follows_a_relabelling_and_a_swap(self):
        # the colour a vertex gets does not depend on the labels: relabelling
        # A moves its colours with its vertices, and swapping A and B swaps
        # the halves
        a, b = cfi(K33_EDGES), relabelled(cfi(K33_EDGES, twist=True))
        n = a.n
        keys = np.random.default_rng(3).integers(2**64, size=(2, 2 * n + 1), dtype=np.uint64)
        start = np.zeros(2 * n, dtype=np.intp)
        start[[0, n + 5]] = 1  # one pin
        p = random_permutation(n, 4)
        pa, pb = solver._pattern(a), solver._pattern(b)
        colours = solver._refine(pa, pb, start.copy(), keys)
        moved = start.copy()
        moved[p.map] = start[:n]
        after = solver._refine(solver._pattern(relabelled(a, 4)), pb, moved, keys)
        assert colours is not None and len(set(colours.tolist())) > 2
        assert np.array_equal(after[p.map], colours[:n]) and np.array_equal(after[n:], colours[n:])
        swapped = solver._refine(pb, pa, np.concatenate([start[n:], start[:n]]), keys)
        assert np.array_equal(swapped, np.concatenate([colours[n:], colours[:n]]))

    def test_srg_fixture_search_ignores_labels_and_sides(self):
        a, b = srg_fixture()
        want = _summary(a, b)
        assert want[:4] == (NOT_ISOMORPHIC, "exhaustion", 1, 15)
        for seed in range(4):
            assert _summary(relabelled(a, seed), b) == want, seed
        assert _summary(b, a) == want

    def test_cfi_outcome_ignores_labels_and_sides(self):
        # the counts can move here: ties between rows of equal size are broken
        # by A's index, and candidates are scanned in B's order
        a, b = cfi(K33_EDGES), relabelled(cfi(K33_EDGES, twist=True))
        outcomes = {_summary(relabelled(a, seed), b)[:2] for seed in range(4)}
        outcomes.add(_summary(b, a)[:2])
        assert outcomes == {(NOT_ISOMORPHIC, "exhaustion")}


class TestLoops:
    """search() on inputs with loops: the colours start from the diagonal's classes."""

    @staticmethod
    def looped(g: Graph, v: int) -> Graph:
        adj = g.adj.copy()
        adj[v, v] = 1.0
        return Graph(adj)

    @staticmethod
    def pins_keep_the_loop(events, u, v_image):
        # every mask below the root pairs the looped A-vertex with the looped
        # B-vertex alone
        masks = [e.mask for e in events[1:] if e.mask is not None]
        assert masks and all(np.flatnonzero(m[u]).tolist() == [v_image] for m in masks)

    def test_looped_graph_against_its_relabelling_is_isomorphic(self):
        g = self.looped(chang_4k2(), 0)
        p = random_permutation(g.n, 3)
        *events, report = solver.search(g, apply_permutation(g, p), SolverOptions())
        assert report.outcome == ISOMORPHIC
        assert is_exact_isomorphism(g, apply_permutation(g, p), report.permutation)
        self.pins_keep_the_loop(events, 0, p[0])

    def test_loop_moved_to_another_orbit_is_rejected(self):
        # vertices 0 and 1 of the Chang graph lie on 32 and 36 triangles of
        # their neighbourhoods, so no automorphism maps one onto the other;
        # the graph is walk-regular, so both loops give one spectrum, and the
        # root accepts
        g = chang_4k2()
        triangles = [np.trace(np.linalg.matrix_power(g.adj[np.ix_(nb, nb)], 3)) / 6
                     for nb in (np.flatnonzero(g.adj[v]) for v in (0, 1))]
        assert triangles == [32, 36]
        p = random_permutation(g.n, 3)
        *events, report = solver.search(self.looped(g, 0), apply_permutation(self.looped(g, 1), p), SolverOptions())
        assert events[0].accepted
        assert (report.outcome, report.reason) == (NOT_ISOMORPHIC, "exhaustion")
        self.pins_keep_the_loop(events, 0, p[1])
