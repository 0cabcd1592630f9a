"""Graph family generators, fixtures, and the brute-force oracle."""

from itertools import combinations

import numpy as np
import pytest

from eigeniso import (
    Graph,
    Permutation,
    apply_permutation,
    brute_force_isomorphism,
    build_cost_matrix,
    cospectral_fixture,
    eigendecompose,
    generate,
    is_exact_isomorphism,
    perturb,
    srg_fixture,
)
from eigeniso.generators import (
    cfi,
    complete,
    cycle,
    lattice,
    paley,
    path,
    random_gnp,
    shrikhande,
    star,
    triangular,
)
from helpers import K4_EDGES, K33_EDGES, char_poly_spectrum, degrees, edge_count, eigen_groups


class TestFamilies:
    def test_cycle(self):
        g = cycle(6)
        assert g.n == 6 and edge_count(g) == 6
        assert tuple(grp.length for grp in eigen_groups(eigendecompose(g))) == (1, 2, 2, 1)
        with pytest.raises(ValueError):
            cycle(2)

    def test_path_star_complete(self):
        assert edge_count(path(5)) == 4
        assert star(4).n == 5 and edge_count(star(4)) == 4
        assert list(degrees(star(4))) == [4, 1, 1, 1, 1]
        assert edge_count(complete(6)) == 15
        for bad in (lambda: path(0), lambda: star(0), lambda: complete(0)):
            with pytest.raises(ValueError):
                bad()

    def test_paley_17(self):
        g = paley(17)
        assert g.n == 17
        assert np.all(degrees(g) == 8)
        assert edge_count(g) == 17 * 16 // 4  # q(q-1)/4 = 68
        groups = eigen_groups(eigendecompose(g))
        assert tuple(grp.length for grp in groups) == (8, 8, 1)

    def test_paley_rejects_bad_parameters(self):
        for q in (15, 7, 9, 4, 1):  # composite, 3 mod 4, prime power, even, unit
            with pytest.raises(ValueError):
                paley(q)

    def test_paley_is_strongly_regular(self):
        g = paley(13)
        a = g.adj
        a2 = a @ a
        # adjacent pairs share (q-5)/4 = 2 neighbors, non-adjacent (q-1)/4 = 3
        off = ~np.eye(13, dtype=bool)
        assert np.all(a2[off][a[off] == 1] == 2)
        assert np.all(a2[off][a[off] == 0] == 3)

    def test_lattice_4(self):
        g = lattice(4)
        assert g.n == 16
        assert np.all(degrees(g) == 6)
        groups = eigen_groups(eigendecompose(g))
        assert len(groups) == 3
        assert tuple(grp.length for grp in groups) == (9, 6, 1)
        assert [round(grp.value) for grp in groups] == [-2, 2, 6]

    def test_triangular_7(self):
        g = triangular(7)
        assert g.n == 21
        assert np.all(degrees(g) == 10)
        groups = eigen_groups(eigendecompose(g))
        assert len(groups) == 3
        assert tuple(grp.length for grp in groups) == (14, 6, 1)
        assert [round(grp.value) for grp in groups] == [-2, 3, 10]

    def test_strongly_regular_families_have_three_groups(self):
        for g in (lattice(3), lattice(5), triangular(5), triangular(6)):
            assert len(eigen_groups(eigendecompose(g))) == 3

    def test_random_gnp_seeded(self):
        a = random_gnp(20, 3)
        b = random_gnp(20, 3)
        assert np.array_equal(a.adj, b.adj)
        assert not np.array_equal(a.adj, random_gnp(20, 4).adj)
        assert np.all(np.diag(a.adj) == 0)
        # edge density sanity for p = 0.5
        assert 0.3 < edge_count(a) / 190 < 0.7

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: lattice(1), "lattice needs k >= 2"),
            (lambda: triangular(2), "triangular needs k >= 3"),
            (lambda: random_gnp(0, 1), "random graph needs at least 1 vertex"),
        ],
        ids=["lattice", "triangular", "random_gnp"],
    )
    def test_too_small_is_error(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_generate_dispatch(self):
        assert generate("cycle", 6).n == 6
        assert generate("paley", 13).n == 13
        assert generate("random_gnp", 8, seed=1).n == 8
        with pytest.raises(ValueError):
            generate("hypercube", 3)

    def test_generate_deterministic(self):
        a, b = generate("random_gnp", 10, seed=9), generate("random_gnp", 10, seed=9)
        assert np.array_equal(a.adj, b.adj)

    def test_generate_without_seed_reproduces(self):
        # the default seed is the CLI's, 0, not a fresh draw
        a, b = generate("random_gnp", 8), generate("random_gnp", 8)
        assert np.array_equal(a.adj, b.adj)
        assert np.array_equal(a.adj, random_gnp(8, 0).adj)


def _reference(n, joined):
    """The 0/1 matrix joining each pair u < v for which ``joined(u, v)`` holds."""
    adj = np.zeros((n, n))
    for u, v in combinations(range(n), 2):
        if joined(u, v):
            adj[u, v] = adj[v, u] = 1.0
    return adj


class TestFamiliesMatchDefinitions:
    """Each builder against its definition, evaluated pair by pair."""

    @staticmethod
    def _check(g, n, joined):
        assert g.adj.dtype == float
        assert np.array_equal(g.adj, _reference(n, joined))

    def test_cycle(self):
        for n in range(3, 13):  # C3 is where a modular rule slips
            edges = {frozenset((i, (i + 1) % n)) for i in range(n)}
            self._check(cycle(n), n, lambda u, v: {u, v} in edges)

    def test_path(self):
        for n in range(1, 13):
            self._check(path(n), n, lambda u, v: v == u + 1)

    def test_complete_and_star(self):
        for n in range(1, 9):
            self._check(complete(n), n, lambda u, v: True)
            self._check(star(n), n + 1, lambda u, v: u == 0)

    def test_paley(self):
        for q in (5, 13, 17, 29):
            residues = {x * x % q for x in range(1, q)}
            self._check(paley(q), q, lambda u, v: (v - u) % q in residues)

    def test_lattice(self):
        for k in range(2, 7):  # cell u is (row, column) = divmod(u, k)
            self._check(
                lattice(k), k * k, lambda u, v: 0 in np.subtract(divmod(u, k), divmod(v, k))
            )

    def test_triangular(self):
        for k in range(3, 9):
            subsets = [set(s) for s in combinations(range(k), 2)]
            self._check(triangular(k), len(subsets), lambda u, v: bool(subsets[u] & subsets[v]))

    def test_shrikhande(self):
        # Z4 x Z4, vertex i = (i // 4, i % 4); differences 10, 01, 11 and their negatives
        diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
        self._check(
            shrikhande(), 16, lambda u, v: ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in diffs
        )

    def test_random_gnp(self):
        # each pair u < v is joined when its draw of one seeded n x n sample is below 1/2
        for n in (1, 2, 7, 150):
            for seed in range(5):
                draws = np.random.default_rng(seed).random((n, n))
                self._check(random_gnp(n, seed), n, lambda u, v: draws[u, v] < 0.5)

    def test_cospectral_fixture(self):
        a, b = cospectral_fixture()
        self._check(a, 5, lambda u, v: u == 0)  # K1,4
        c4 = {(0, 1), (1, 2), (2, 3), (0, 3)}  # vertex 4 is isolated
        self._check(b, 5, lambda u, v: (u, v) in c4)


class TestPaleySelfCost:
    def test_unperturbed_self_cost_matrix_is_zero(self):
        # vertex-transitivity: every projector row sorts identically
        for q in (13, 17, 29):
            g = paley(q)
            c = build_cost_matrix(eigendecompose(g), eigendecompose(g))
            assert np.max(c) < 1e-6


class TestCospectralFixture:
    def test_spectra_match(self):
        a, b = cospectral_fixture()
        # characteristic polynomial oracle: both x^5 - 4x^3
        for g in (a, b):
            assert np.allclose(np.poly(g.adj), [1, 0, -4, 0, 0, 0], atol=1e-9)
            assert np.allclose(char_poly_spectrum(g.adj), [-2, 0, 0, 0, 2], atol=1e-9)

    def test_degree_sequences_differ(self):
        a, b = cospectral_fixture()
        assert sorted(degrees(a)) == [1, 1, 1, 1, 4]
        assert sorted(degrees(b)) == [0, 2, 2, 2, 2]

    def test_not_isomorphic_by_oracle(self):
        a, b = cospectral_fixture()
        assert brute_force_isomorphism(a, b) is None


class TestSrgFixture:
    def test_same_parameters(self):
        for g in srg_fixture():
            a = g.adj
            assert g.n == 16 and np.all(degrees(g) == 6)
            a2 = a @ a
            off = ~np.eye(16, dtype=bool)
            assert np.all(a2[off][a[off] == 1] == 2)  # common neighbors, adjacent
            assert np.all(a2[off][a[off] == 0] == 2)  # common neighbors, non-adjacent

    def test_cospectral(self):
        a, b = srg_fixture()
        assert np.allclose(
            np.linalg.eigvalsh(a.adj), np.linalg.eigvalsh(b.adj), atol=1e-9
        )

    def test_not_isomorphic_by_local_structure(self):
        # neighborhoods differ: two triangles in the rook's graph vs a
        # 6-cycle in the Shrikhande graph; triangle counts through an edge
        # of the neighborhood subgraph separate them
        def neighborhood_edge_count(g):
            nbrs = np.flatnonzero(g.adj[0])
            sub = g.adj[np.ix_(nbrs, nbrs)]
            return int(sub.sum()) // 2, int(np.trace(np.linalg.matrix_power(sub, 3)) / 6)

        a, b = srg_fixture()
        edges_a, triangles_a = neighborhood_edge_count(a)
        edges_b, triangles_b = neighborhood_edge_count(b)
        assert edges_a == edges_b == 6
        assert triangles_a == 2 and triangles_b == 0


class TestCfi:
    def test_sizes_and_degrees(self):
        # a cubic base vertex gives 4 middle and 6 end vertices, all of degree 3
        for base, n in ((K4_EDGES, 40), (K33_EDGES, 60)):
            for g in (cfi(base), cfi(base, twist=True)):
                assert g.n == n and np.all(degrees(g) == 3)

    def test_twist_crosses_one_edge_and_keeps_the_spectrum(self):
        g, h = cfi(K4_EDGES), cfi(K4_EDGES, twist=True)
        assert np.count_nonzero(np.triu(g.adj != h.adj)) == 4  # 2 links out, 2 in
        assert np.allclose(np.linalg.eigvalsh(g.adj), np.linalg.eigvalsh(h.adj), atol=1e-9)

    def test_base_must_be_simple(self):
        for base in ([(0, 0), (0, 1)], [(0, 1), (1, 0)]):
            with pytest.raises(ValueError, match="simple"):
                cfi(base)


class TestBruteForceOracle:
    def test_finds_witness_on_complete_graphs(self):
        p = brute_force_isomorphism(complete(3), complete(3))
        assert p is not None
        assert is_exact_isomorphism(complete(3), complete(3), p)

    def test_finds_rotation_witness(self):
        g = cycle(6)
        b = apply_permutation(g, Permutation([1, 2, 3, 4, 5, 0]))
        p = brute_force_isomorphism(g, b)
        assert p is not None
        assert is_exact_isomorphism(g, b, p)

    def test_absent_for_cospectral_pair(self):
        a, b = cospectral_fixture()
        assert brute_force_isomorphism(a, b) is None

    def test_weights_and_loops_are_compared(self):
        # each pair has one 0/1 pattern; only the entries tell them apart
        for a, b in (
            (Graph([[0, 2], [2, 0]]), Graph([[0, 1], [1, 0]])),
            (perturb(cycle(6), 0, 1.0), perturb(cycle(6), 0, 2.0)),
        ):
            assert brute_force_isomorphism(a, b) is None
        a, b = perturb(cycle(6), 0, 2.0), perturb(cycle(6), 3, 2.0)
        assert is_exact_isomorphism(a, b, brute_force_isomorphism(a, b))

    def test_size_mismatch_is_negative(self):
        assert brute_force_isomorphism(cycle(4), cycle(5)) is None

    def test_guard_on_large_inputs(self):
        with pytest.raises(ValueError):
            brute_force_isomorphism(cycle(11), cycle(11))

    def test_agrees_with_witness_property(self):
        for seed in range(15):
            g = random_gnp(7, seed)
            p0 = Permutation(np.random.default_rng(900 + seed).permutation(7))
            b = apply_permutation(g, p0)
            p = brute_force_isomorphism(g, b)
            assert p is not None
            assert is_exact_isomorphism(g, b, p)

    def test_shrikhande_is_vertex_transitive_construction(self):
        # difference-set construction: translations are automorphisms
        g = shrikhande()
        shift = Permutation([(i + 4) % 16 for i in range(16)])  # +1 in the first torus axis
        assert np.array_equal(apply_permutation(g, shift).adj, g.adj)
