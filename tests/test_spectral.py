"""Eigendecomposition, grouping, projectors, and the spectral distance."""

import numpy as np
import pytest

from eigeniso import (
    Graph,
    apply_permutation,
    eigendecompose,
    group_eigenvalues,
    perturb,
    projection,
    random_permutation,
    spectral_distance,
)
from eigeniso.generators import complete, cycle, lattice, paley, path, random_gnp
from helpers import char_poly_spectrum, delta_eig, eigen_groups, reconstruct


class TestEigendecompose:
    def test_cycle6_spectrum_and_multiplicities(self):
        d = eigendecompose(cycle(6))
        assert np.allclose(d.values, [-2, -1, -1, 1, 1, 2], atol=1e-9)
        groups = eigen_groups(d)
        assert tuple(g.length for g in groups) == (1, 2, 2, 1)
        assert [round(g.value) for g in groups] == [-2, -1, 1, 2]

    def test_paley17_spectrum(self):
        d = eigendecompose(paley(17))
        s = np.sqrt(17.0)
        groups = eigen_groups(d)
        assert tuple(g.length for g in groups) == (8, 8, 1)
        assert abs(groups[0].value - (-1 - s) / 2) < 1e-9
        assert abs(groups[1].value - (-1 + s) / 2) < 1e-9
        assert abs(groups[2].value - 8.0) < 1e-9

    def test_zero_matrix(self):
        d = eigendecompose(Graph(np.zeros((3, 3))))
        assert np.array_equal(d.values, [0, 0, 0])
        assert tuple(g.length for g in eigen_groups(d)) == (3,)
        assert np.allclose(d.vectors @ d.vectors.T, np.eye(3), atol=1e-15)

    def test_residual_and_orthonormality_within_budget(self):
        for seed in range(10):
            g = random_gnp(14, seed)
            d = eigendecompose(g)
            tol = delta_eig(g)
            assert np.max(np.abs(g.adj @ d.vectors - d.vectors * d.values)) <= tol
            assert np.max(np.abs(d.vectors.T @ d.vectors - np.eye(14))) <= tol
            assert np.all(np.diff(d.values) >= 0)
            # groups partition the columns in order
            spans = [(grp.start, grp.stop) for grp in eigen_groups(d)]
            assert spans[0][0] == 0 and spans[-1][1] == 14
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_deterministic(self):
        g = random_gnp(12, 3)
        d1, d2 = eigendecompose(g), eigendecompose(g)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.vectors, d2.vectors)

    def test_connected_top_group_is_simple_and_positive(self):
        for g in (cycle(9), paley(13), lattice(3), path(6)):
            d = eigendecompose(g)
            top = eigen_groups(d)[-1]
            assert top.length == 1
            v = d.vectors[:, -1]
            v = v if v[np.argmax(np.abs(v))] > 0 else -v
            assert np.all(v > 0)


class TestGroupEigenvalues:
    @staticmethod
    def lengths(w, eps=1e-6):
        w = np.array(w)
        return tuple(np.diff([*group_eigenvalues(w, w, eps), w.shape[0]]).tolist())

    def test_cycle_multiplicities(self):
        assert self.lengths([-2.0, -1, -1, 1, 1, 2]) == (1, 2, 2, 1)

    def test_sub_eps_gap_merges(self):
        assert self.lengths([1.0, 1.0 + 1e-9, 5.0]) == (2, 1)

    def test_single_linkage_chains(self):
        assert self.lengths([0.0, 0.5e-6, 1.0e-6]) == (3,)

    def test_rejects_bad_eps(self):
        for eps in (0.0, -1e-6, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                group_eigenvalues([1.0, 2.0], [1.0, 2.0], eps)

    def test_rejects_spectra_of_different_lengths(self):
        with pytest.raises(ValueError):
            group_eigenvalues([1.0, 2.0], [1.0, 2.0, 3.0], 1e-6)

    def test_matches_loop_reference(self):
        def loop_starts(w, eps):
            return {0} | {k for k in range(1, w.shape[0]) if w[k] - w[k - 1] >= eps}

        rng = np.random.default_rng(4)
        eps = 1e-6
        choices = [0.0, 0.3e-6, 0.99e-6, 1e-6, 2e-6, 1.0]
        for trial in range(300):
            # gaps drawn around eps, so chains of sub-eps gaps occur; without
            # an offset some gaps come out exactly eps
            size = rng.integers(1, 40)
            offset = rng.normal() if trial % 2 else 0.0
            wa = np.cumsum(rng.choice(choices, size=size)) + offset
            wb = np.cumsum(rng.choice(choices, size=size)) + offset
            assert group_eigenvalues(wa, wa, eps) == sorted(loop_starts(wa, eps))
            # a pair is cut where both spectra alone are cut
            want = loop_starts(wa, eps) & loop_starts(wb, eps)
            assert group_eigenvalues(wa, wb, eps) == sorted(want)


class TestProjection:
    def test_rank_one_projector(self):
        g = path(4)
        d = eigendecompose(g)
        top = eigen_groups(d)[-1]
        v = d.vectors[:, top.start]
        e = projection(d, top.start, top.stop)
        assert np.allclose(e, np.outer(v, v), atol=1e-14)
        assert abs(np.trace(e) - 1.0) < 1e-12

    def test_completeness(self):
        g = cycle(6)
        d = eigendecompose(g)
        total = sum(projection(d, grp.start, grp.stop) for grp in eigen_groups(d))
        assert np.max(np.abs(total - np.eye(6))) <= 10 * delta_eig(g)

    def test_cycle6_top_projector_is_constant(self):
        # the top eigenvector of the 6-cycle is all-ones normalized
        d = eigendecompose(cycle(6))
        top = eigen_groups(d)[-1]
        e = projection(d, top.start, top.stop)
        assert np.allclose(e, np.full((6, 6), 1 / 6), atol=1e-12)

    def test_invariants_idempotent_symmetric_trace(self):
        for g in (cycle(6), paley(13), random_gnp(10, 5), perturb(cycle(6), 0, 1.0)):
            d = eigendecompose(g)
            tol = 10 * delta_eig(g)
            for grp in eigen_groups(d):
                e = projection(d, grp.start, grp.stop)
                assert np.array_equal(e, e.T)
                assert np.max(np.abs(e @ e - e)) <= tol
                assert abs(np.trace(e) - grp.length) <= tol

    def test_basis_rotation_invariance(self):
        d = eigendecompose(cycle(6))
        grp = eigen_groups(d)[1]  # a multiplicity-2 group
        vk = d.vectors[:, grp.start : grp.stop]
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(grp.length, grp.length)))
        rotated = (vk @ q) @ (vk @ q).T
        assert np.max(np.abs(rotated - projection(d, grp.start, grp.stop))) <= 1e-12

    def test_permutation_equivariance(self):
        g = cycle(6)
        p = random_permutation(6, 4)
        b = apply_permutation(g, p)
        da, db = eigendecompose(g), eigendecompose(b)
        pm = np.zeros((6, 6))
        for i in range(6):
            pm[i, p[i]] = 1.0
        tol = 10 * delta_eig(g)
        for grp in eigen_groups(da):
            pa, pb = projection(da, grp.start, grp.stop), projection(db, grp.start, grp.stop)
            assert np.max(np.abs(pb - pm.T @ pa @ pm)) <= tol


class TestSpectralDistance:
    def test_self_distance_zero(self):
        d = eigendecompose(cycle(8))
        assert spectral_distance(d, d) == 0.0

    def test_triangle_vs_path(self):
        # oracle via characteristic polynomials: spectra {-1,-1,2} and
        # {-sqrt 2, 0, sqrt 2}; the gap certifies non-isomorphism
        k3, p3 = complete(3), path(3)
        assert np.allclose(char_poly_spectrum(k3.adj), [-1, -1, 2], atol=1e-9)
        assert np.allclose(char_poly_spectrum(p3.adj), [-np.sqrt(2), 0, np.sqrt(2)], atol=1e-9)
        dist = spectral_distance(eigendecompose(k3), eigendecompose(p3))
        assert abs(dist - np.sqrt(10 - 6 * np.sqrt(2))) < 1e-12
        assert dist > 1.0

    def test_conjugation_invariance(self):
        for seed in range(10):
            g = random_gnp(11, seed)
            p = random_permutation(11, 50 + seed)
            dist = spectral_distance(
                eigendecompose(g), eigendecompose(apply_permutation(g, p))
            )
            assert dist <= 10 * delta_eig(g)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            spectral_distance(eigendecompose(cycle(5)), eigendecompose(cycle(6)))


class TestReconstruct:
    def test_zero_matrix(self):
        assert np.array_equal(reconstruct(eigendecompose(Graph(np.zeros((3, 3))))), np.zeros((3, 3)))

    def test_cycle_and_paley(self):
        for g in (cycle(6), paley(17)):
            err = np.max(np.abs(reconstruct(eigendecompose(g)) - g.adj))
            assert err <= 10 * delta_eig(g) * max(1.0, np.abs(g.adj).max())

    def test_random_round_trip(self):
        for seed in range(25):
            g = random_gnp(12, seed)
            err = np.max(np.abs(reconstruct(eigendecompose(g)) - g.adj))
            assert err <= 10 * delta_eig(g) * max(1.0, np.abs(g.adj).max())


class TestEigensolverFailure:
    def test_linalg_error_propagates(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            eigendecompose(cycle(5))
