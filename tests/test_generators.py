"""Graph family generators, fixtures, and the brute-force oracle."""

import numpy as np
import pytest

from eigeniso import (
    GeneratorSpec,
    Permutation,
    apply_permutation,
    brute_force_isomorphism,
    build_cost_matrix,
    cospectral_fixture,
    eigendecompose,
    generate,
    is_exact_isomorphism,
    srg_fixture,
)
from eigeniso.generators import (
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
from helpers import char_poly_spectrum, eigen_groups


class TestFamilies:
    def test_cycle(self):
        g = cycle(6)
        assert g.n == 6 and g.edge_count() == 6
        assert tuple(grp.length for grp in eigen_groups(eigendecompose(g))) == (1, 2, 2, 1)
        with pytest.raises(ValueError):
            cycle(2)

    def test_path_star_complete(self):
        assert path(5).edge_count() == 4
        assert star(4).n == 5 and star(4).edge_count() == 4
        assert list(star(4).degrees()) == [4, 1, 1, 1, 1]
        assert complete(6).edge_count() == 15
        for bad in (lambda: path(0), lambda: star(0), lambda: complete(0)):
            with pytest.raises(ValueError):
                bad()

    def test_paley_17(self):
        g = paley(17)
        assert g.n == 17
        assert np.all(g.degrees() == 8)
        assert g.edge_count() == 17 * 16 // 4  # q(q-1)/4 = 68
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
        assert np.all(g.degrees() == 6)
        groups = eigen_groups(eigendecompose(g))
        assert len(groups) == 3
        assert tuple(grp.length for grp in groups) == (9, 6, 1)
        assert [round(grp.value) for grp in groups] == [-2, 2, 6]

    def test_triangular_7(self):
        g = triangular(7)
        assert g.n == 21
        assert np.all(g.degrees() == 10)
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
        assert 0.3 < a.edge_count() / 190 < 0.7

    def test_generate_dispatch(self):
        assert generate(GeneratorSpec("cycle", 6)).n == 6
        assert generate(GeneratorSpec("paley", 13)).n == 13
        assert generate(GeneratorSpec("random_gnp", 8, seed=1)).n == 8
        with pytest.raises(ValueError):
            generate(GeneratorSpec("hypercube", 3))

    def test_generate_deterministic(self):
        s = GeneratorSpec("random_gnp", 10, seed=9)
        assert np.array_equal(generate(s).adj, generate(s).adj)


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
        assert sorted(a.degrees()) == [1, 1, 1, 1, 4]
        assert sorted(b.degrees()) == [0, 2, 2, 2, 2]

    def test_not_isomorphic_by_oracle(self):
        a, b = cospectral_fixture()
        assert brute_force_isomorphism(a, b) is None


class TestSrgFixture:
    def test_same_parameters(self):
        for g in srg_fixture():
            a = g.adj
            assert g.n == 16 and np.all(g.degrees() == 6)
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
