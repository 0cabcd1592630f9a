"""Graph type, permutations, perturbation, and file formats."""

import itertools

import numpy as np
import pytest

from eigeniso import (
    Graph,
    GraphFormatError,
    Permutation,
    apply_permutation,
    format_graph,
    is_exact_isomorphism,
    load_graph,
    parse_graph,
    perturb,
    random_permutation,
    save_graph,
)
from eigeniso.generators import complete, cycle, path, random_gnp

DIMACS_K3 = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


class TestGraphType:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Graph([[0, 1, 0], [1, 0, 0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Graph([[0, 1], [0, 0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((0, 0)))

    def test_rejects_non_finite_weights(self):
        # an infinite weight once made a graph not isomorphic to itself, and
        # a nan one was reported as asymmetric
        for bad in (np.inf, -np.inf, np.nan):
            for adj in ([[0, bad], [bad, 0]], [[bad, 1], [1, 0]]):
                with pytest.raises(ValueError, match="must be finite"):
                    Graph(adj)

    def test_adjacency_is_read_only(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            g.adj[0, 1] = 5.0

    def test_symmetry_is_exact_everywhere(self):
        for g in (cycle(7), complete(5), perturb(cycle(5), 2, 3.0)):
            assert np.array_equal(g.adj, g.adj.T)

    def test_degrees_and_edge_count(self):
        g = complete(4)
        assert g.edge_count() == 6
        assert list(g.degrees()) == [3, 3, 3, 3]
        # self-loops do not count toward degree
        assert list(perturb(g, 0, 2.0).degrees()) == [3, 3, 3, 3]


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 2])
        with pytest.raises(ValueError):
            Permutation([1, 2, 3])

    def test_inverse(self):
        p = Permutation([2, 0, 1, 3])
        q = p.inverse()
        assert [q[p[i]] for i in range(4)] == [0, 1, 2, 3]

    def test_line_round_trip_is_one_based(self):
        p = Permutation([1, 2, 0])
        assert p.to_line() == "2 3 1"
        assert np.array_equal(Permutation.from_line("2 3 1").map, p.map)

    def test_from_line_rejects_garbage(self):
        with pytest.raises(GraphFormatError):
            Permutation.from_line("1 two 3")


class TestRandomPermutation:
    def test_single_element(self):
        assert list(random_permutation(1, 123).map) == [0]

    def test_deterministic_for_fixed_seed(self):
        a = random_permutation(40, 7)
        b = random_permutation(40, 7)
        assert np.array_equal(a.map, b.map)
        assert not np.array_equal(a.map, random_permutation(40, 8).map)

    def test_uniform_over_s5(self):
        # 10^4 draws over the 120 permutations of 5 elements; every
        # permutation must appear within 5 sigma of the uniform count.
        index = {p: k for k, p in enumerate(itertools.permutations(range(5)))}
        counts = np.zeros(120)
        for seed in range(10_000):
            counts[index[tuple(random_permutation(5, seed).map)]] += 1
        expected = 10_000 / 120
        sigma = np.sqrt(10_000 * (1 / 120) * (119 / 120))
        assert np.all(np.abs(counts - expected) <= 5 * sigma)


class TestApplyPermutation:
    def test_identity(self):
        g = cycle(6)
        assert np.array_equal(apply_permutation(g, Permutation(np.arange(6))).adj, g.adj)

    def test_path_reversal_is_automorphism(self):
        g = path(3)
        rev = Permutation([2, 1, 0])
        assert np.array_equal(apply_permutation(g, rev).adj, g.adj)

    def test_cycle_rotation_matches_matrix_conjugation(self):
        g = cycle(6)
        rot = Permutation([(i + 1) % 6 for i in range(6)])
        b = apply_permutation(g, rot)
        # oracle: B = P^T A P with the explicit permutation matrix
        pm = np.zeros((6, 6))
        for i in range(6):
            pm[i, rot[i]] = 1.0
        assert np.array_equal(b.adj, pm.T @ g.adj @ pm)
        # a rotation is an automorphism of the cycle
        assert np.array_equal(b.adj, g.adj)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_permutation(cycle(5), Permutation(np.arange(4)))

    def test_inverse_round_trip_exact(self):
        g = perturb(cycle(8), 3, 2.5)
        p = random_permutation(8, 11)
        back = apply_permutation(apply_permutation(g, p), p.inverse())
        assert np.array_equal(back.adj, g.adj)

    def test_perturb_commutes_with_relabeling(self):
        g = cycle(7)
        p = random_permutation(7, 3)
        left = apply_permutation(perturb(g, 2, 4.0), p)
        right = perturb(apply_permutation(g, p), p[2], 4.0)
        assert np.array_equal(left.adj, right.adj)


class TestIsExactIsomorphism:
    def test_identity_on_itself(self):
        g = cycle(6)
        assert is_exact_isomorphism(g, g, Permutation(np.arange(6)))

    def test_adjacent_transposition_breaks_cycle(self):
        g = cycle(6)
        swapped = Permutation([1, 0, 2, 3, 4, 5])
        assert not is_exact_isomorphism(g, g, swapped)

    def test_complete_graph_accepts_all_permutations(self):
        g = complete(3)
        for p in itertools.permutations(range(3)):
            assert is_exact_isomorphism(g, g, Permutation(p))

    def test_witness_property_random(self):
        for seed in range(20):
            g = random_gnp(9, seed)
            p = random_permutation(9, 100 + seed)
            assert is_exact_isomorphism(g, apply_permutation(g, p), p)

    def test_loops_are_compared(self):
        g = cycle(5)
        identity = Permutation(np.arange(5))
        assert not is_exact_isomorphism(perturb(g, 0, 1.0), perturb(g, 3, 2.0), identity)
        assert is_exact_isomorphism(perturb(g, 3, 2.0), perturb(g, 3, 2.0), identity)
        rotate = Permutation([(i + 3) % 5 for i in range(5)])  # an automorphism of C5
        assert is_exact_isomorphism(perturb(g, 0, 2.0), perturb(g, 3, 2.0), rotate)
        assert not is_exact_isomorphism(perturb(g, 0, 1.0), perturb(g, 3, 2.0), rotate)

    def test_matches_double_loop_on_weighted_graphs_with_loops(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            w = np.triu(rng.integers(0, 3, (n, n)).astype(float))  # diagonal included
            a = Graph(w + np.triu(w, 1).T)
            p = Permutation(rng.permutation(n))
            b = apply_permutation(a, p) if rng.random() < 0.5 else a
            holds = all(b.adj[p[i], p[j]] == a.adj[i, j] for i, j in np.ndindex(n, n))
            assert is_exact_isomorphism(a, b, p) == holds

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            is_exact_isomorphism(cycle(5), cycle(6), Permutation(np.arange(5)))


class TestPerturb:
    def test_basic_diagonal_write(self):
        g = Graph(np.zeros((2, 2)))
        assert np.array_equal(perturb(g, 0, 3.0).adj, [[3, 0], [0, 0]])

    def test_additivity(self):
        g = cycle(4)
        gg = perturb(perturb(g, 0, 1.0), 0, 1.0)
        assert gg.adj[0, 0] == 2.0

    def test_does_not_mutate_input(self):
        g = cycle(4)
        perturb(g, 1, 9.0)
        assert g.adj[1, 1] == 0.0

    def test_index_and_weight_validation(self):
        with pytest.raises(IndexError):
            perturb(cycle(4), 4, 1.0)
        with pytest.raises(ValueError):
            perturb(cycle(4), 0, 0.0)

    def test_loop_on_cycle_splits_all_eigenvalues(self):
        # one self-loop breaks every degeneracy of the 6-cycle
        w = np.linalg.eigvalsh(perturb(cycle(6), 0, 1.0).adj)
        assert np.min(np.diff(w)) > 1e-3


class TestFileFormats:
    def test_dimacs_k3(self):
        g = parse_graph(DIMACS_K3)
        assert np.array_equal(g.adj, complete(3).adj)

    def test_dimacs_edgeless(self):
        g = parse_graph("p edge 2 0\n")
        assert g.n == 2 and g.edge_count() == 0

    def test_dimacs_comments_ignored(self):
        g = parse_graph("c hello\nc world\np edge 3 1\ne 1 2\n")
        assert g.edge_count() == 1

    def test_dimacs_out_of_range(self):
        with pytest.raises(GraphFormatError):
            parse_graph("p edge 3 1\ne 1 5\n")

    def test_dimacs_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            parse_graph("p edge 3 1\ne 2 2\n")

    def test_dimacs_duplicate_edges_collapse(self):
        g = parse_graph("p edge 3 3\ne 1 2\ne 1 2\ne 2 1\n")
        assert g.edge_count() == 1
        assert g.adj[0, 1] == 1.0

    def test_dimacs_malformed(self):
        for text in (
            "p edge 3\ne 1 2\n",
            "p edge 3 1\ne 1\n",
            "p edge 3 1\nx 1 2\n",
            "e 1 2\n",
            "p edge 0 0\n",
            "p edge 3 0\np edge 3 0\n",
            "",
        ):
            with pytest.raises(GraphFormatError):
                parse_graph(text)

    def test_plain_format(self):
        g = parse_graph("4\n1 2\n3 4\n")
        assert g.n == 4 and g.edge_count() == 2
        assert g.adj[0, 1] == 1.0 and g.adj[2, 3] == 1.0

    def test_plain_malformed(self):
        for text in ("abc\n", "3\n1 2 3\n", "3\n1 9\n", "0\n"):
            with pytest.raises(GraphFormatError):
                parse_graph(text)

    def test_writer_round_trip(self, tmp_path):
        g = cycle(9)
        text = format_graph(g, comment="nine cycle")
        assert text.startswith("c nine cycle\np edge 9 9\n")
        assert np.array_equal(parse_graph(text).adj, g.adj)
        p = tmp_path / "g.dimacs"
        save_graph(g, p)
        assert np.array_equal(load_graph(p).adj, g.adj)
