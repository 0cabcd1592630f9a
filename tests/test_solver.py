"""The perturbation search: cost matrices, rounds, backtracking, reports."""

import numpy as np
import pytest

from eigeniso import (
    INCONCLUSIVE,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    Graph,
    Permutation,
    SolverOptions,
    apply_permutation,
    build_cost_matrix,
    cospectral_fixture,
    eigendecompose,
    group_eigenvalues,
    is_exact_isomorphism,
    is_isomorphic,
    perturb,
    projection,
    random_permutation,
    spectral_distance,
    srg_fixture,
)
from eigeniso import assignment, solver
from eigeniso.generators import (
    brute_force_isomorphism,
    cfi,
    complete,
    cycle,
    lattice,
    paley,
    path,
    random_gnp,
    star,
    triangular,
)
from eigeniso.assignment import is_unique_zero_assignment, solve_lap
from eigeniso.solver import _evaluate
from eigeniso.spectral import SpectralDecomposition
from helpers import (
    K4_EDGES,
    K33_EDGES,
    arc_consistency_reference,
    cayley_table,
    chang_4k2,
    cyclic,
    dense_norm_bound,
    dihedral,
    disjoint_edges,
    eigen_groups,
    individualise_reference,
    lap_brute_force,
    latin_square_graph,
    sorted_row_distance,
)


def rotated(g, shift=1, n=None):
    n = n or g.n
    return apply_permutation(g, Permutation([(i + shift) % n for i in range(n)]))


class TestSortedRowDistance:
    def test_permuted_vector_has_zero_distance(self):
        assert sorted_row_distance([1.0, 2, 3], [3.0, 1, 2]) == 0.0

    def test_unit_difference(self):
        assert sorted_row_distance([1.0, 2, 3], [1.0, 2, 4]) == 1.0

    def test_cycle_top_projector_rows(self):
        d = eigendecompose(cycle(6))
        top = eigen_groups(d)[-1]
        e = projection(d, top.start, top.stop)
        assert sorted_row_distance(e[0], e[3]) < 1e-14

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sorted_row_distance([1.0, 2], [1.0, 2, 3])


class TestBuildCostMatrix:
    def test_self_pair_diagonal_near_zero(self):
        for g in (cycle(6), path(5), random_gnp(8, 1)):
            c = build_cost_matrix(eigendecompose(g), eigendecompose(g))
            assert np.max(np.diag(c)) < 1e-6
            assert np.min(c) >= 0.0

    def test_unperturbed_cycle_pair_all_zero(self):
        g = cycle(6)
        c = build_cost_matrix(eigendecompose(g), eigendecompose(rotated(g)))
        assert np.max(c) < 1e-6

    def test_cospectral_pair_has_no_cheap_assignment(self):
        a, b = cospectral_fixture()
        c = build_cost_matrix(eigendecompose(a), eigendecompose(b))
        best = lap_brute_force(c)  # exhaustive over all 120 assignments
        assert best > 1e-6
        assert abs(best - 6.42917749433882) < 1e-9

    def test_mismatch_is_failed_check_upstream(self):
        # eigenvalues agree within eps overall, yet single-linkage chaining
        # merges one side into a single group: the pair must not fail the
        # check, as both sides share that group and get a cost
        da = SpectralDecomposition(np.array([0.0, 0.5e-6, 1.0e-6]), np.eye(3))
        db = SpectralDecomposition(np.array([0.0, 0.0, 1.0e-6]), np.eye(3))
        assert tuple(g.length for g in eigen_groups(da)) == (3,)
        assert tuple(g.length for g in eigen_groups(db)) == (2, 1)
        assert group_eigenvalues(da.values, db.values, 1e-6) == [0]  # one group of 3
        assert np.array_equal(build_cost_matrix(da, db), np.zeros((3, 3)))
        e, lap, mask = _evaluate(da, db, 1e-6)
        assert e == 0.0 and lap is not None and mask.all()

    def test_partition_cut_only_where_both_spectra_have_a_gap(self):
        # A cuts after 1 and 3, B after 2 and 3: only the cut after 3 is shared
        va, vb = [0.0, 1.0, 1.0, 2.0, 2.0], [0.0, 0.0, 1.0, 2.0, 2.0]
        da = SpectralDecomposition(np.array(va), np.eye(5))
        db = SpectralDecomposition(np.array(vb), np.eye(5))
        assert [(g.start, g.length) for g in eigen_groups(da)] == [(0, 1), (1, 2), (3, 2)]
        assert [(g.start, g.length) for g in eigen_groups(db)] == [(0, 2), (2, 1), (3, 2)]
        assert group_eigenvalues(va, vb, 1e-6) == group_eigenvalues(vb, va, 1e-6) == [0, 3]
        # With unit eigenvectors a sorted projector row is e_4 inside its
        # group and zero outside, so groups 0:3 and 3:5 give costs 0 or 2.
        side = np.arange(5) < 3
        want = 2.0 * (side[:, None] != side[None, :])
        assert np.array_equal(build_cost_matrix(da, db), want)
        # Filtered, a cost-2 entry may keep a partial sum of the row-norm
        # bound (group 0's term alone is 1, already at least 2 * eps).
        fil = build_cost_matrix(da, db, 1e-6)
        assert np.array_equal(fil < 1e-6, want < 1e-6)
        bound = want > 0
        assert np.array_equal(fil[~bound], want[~bound])
        assert np.all((2e-6 <= fil[bound]) & (fil[bound] <= want[bound]))


def _pairs_for_equivalence():
    """(name, A, B) on the acceptance families, the SRG and cospectral pairs."""
    cases = [
        ("paley(13)", paley(13)),
        ("lattice(4)", lattice(4)),
        ("triangular(6)", triangular(6)),
        ("random_gnp(24)", random_gnp(24, 3)),
    ]
    pairs = [(name, g, apply_permutation(g, random_permutation(g.n, 8))) for name, g in cases]
    return pairs + [("srg_fixture", *srg_fixture()), ("cospectral", *cospectral_fixture())]


class TestFilteredCostMatrix:
    """build_cost_matrix(da, db, eps) against its exact eps=None reference."""

    EPS = 1e-6

    @pytest.mark.parametrize("pins", [0, 1, 2])
    def test_same_mask_and_never_above_reference(self, pins):
        for name, a, b in _pairs_for_equivalence():
            # pin vertices 0..pins-1 of A and, in turn, every vertex of B
            for j in range(b.n if pins else 1):
                pa, pb = a, b
                for level in range(pins):
                    pa = perturb(pa, level, level + 1.0)
                    pb = perturb(pb, (j + level) % b.n, level + 1.0)
                da, db = eigendecompose(pa), eigendecompose(pb)
                ref = build_cost_matrix(da, db)
                fil = build_cost_matrix(da, db, self.EPS)
                assert np.array_equal(fil < self.EPS, ref < self.EPS), (name, pins, j)
                if [g.length for g in eigen_groups(da)] == [g.length for g in eigen_groups(db)]:
                    assert np.all(fil <= ref), (name, pins, j)
                else:
                    # sides whose own groups differ: the bound's sum may
                    # round a few ulps above the exact cost
                    assert np.all(fil <= ref * (1 + 1e-12)), (name, pins, j)

    def test_bound_exceeds_exact_cost_only_by_rounding(self):
        # The cospectral pair pinned at A-vertices 0, 1 and B-vertices 0, 1:
        # the full row-norm sum at entry (0, 4) has been seen 2 ulps above
        # the exact cost.
        a, b = cospectral_fixture()
        pa = perturb(perturb(a, 0, 1.0), 1, 2.0)
        pb = perturb(perturb(b, 0, 1.0), 1, 2.0)
        da, db = eigendecompose(pa), eigendecompose(pb)
        starts = group_eigenvalues(da.values, db.values, self.EPS)
        ref = build_cost_matrix(da, db)
        fil = build_cost_matrix(da, db, self.EPS)
        assert np.array_equal(fil < self.EPS, ref < self.EPS)
        assert dense_norm_bound(da, db, starts)[0, 4] <= ref[0, 4] * (1 + 1e-12)
        assert fil[0, 4] <= ref[0, 4] * (1 + 1e-12)

    @staticmethod
    def _transitive_roots():
        """Vertex-transitive roots: group 0's norms are constant, so stage 1
        keeps every pair.  lattice(10) has n^2 * G = 30,000 > _PAIR_BLOCK."""
        roots = [(g, apply_permutation(g, random_permutation(g.n, 8)))
                 for g in (paley(13), lattice(4), lattice(10))]
        return [(f"root of {a.n}", eigendecompose(a), eigendecompose(b)) for a, b in roots]

    def _staged_cases(self):
        """(name, da, db): pinned pairs, transitive roots, a stage-2 edge."""
        cases = []
        for name, a, b in _pairs_for_equivalence():
            for j in (0, 1, b.n - 1):
                pa = perturb(perturb(a, 0, 1.0), 1, 2.0)
                pb = perturb(perturb(b, j, 1.0), (j + 1) % b.n, 2.0)
                cases.append((f"{name} pins (0,{j}), (1,{(j + 1) % b.n})",
                              eigendecompose(pa), eigendecompose(pb)))
        # Group 0's term at (0, 0) is 1 - cos(t) = 1.5e-6, between eps and
        # 2 * eps, so the pair must reach stage 2; group 1 adds sin(t).
        t = np.arccos(1 - 1.5e-6)
        turn = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        values = np.array([0.0, 1.0])
        cases.append(("rotated basis", SpectralDecomposition(values, np.eye(2)),
                      SpectralDecomposition(values, turn)))
        return cases + self._transitive_roots()

    def test_staged_bound_against_dense_reference(self):
        eps = self.EPS
        for name, da, db in self._staged_cases():
            starts = group_eigenvalues(da.values, db.values, eps)
            dense = dense_norm_bound(da, db, starts)
            lb = solver._norm_lower_bound(da, db, starts, eps)
            kept = dense < 2 * eps
            assert np.array_equal(lb[kept], dense[kept]), name
            assert np.all((2 * eps <= lb[~kept]) & (lb[~kept] <= dense[~kept])), name
            # Entries the filter keeps are exact, the others stay bounds.
            ref = build_cost_matrix(da, db)
            fil = build_cost_matrix(da, db, eps)
            assert np.array_equal(fil < eps, ref < eps), name
            assert np.array_equal(fil[kept], ref[kept]), name
            assert np.all((2 * eps <= fil[~kept]) & (fil[~kept] <= dense[~kept])), name

    def test_stage_one_keeps_every_pair_of_a_vertex_transitive_root(self):
        sizes = []
        for name, da, db in self._transitive_roots():
            starts = group_eigenvalues(da.values, db.values, self.EPS)
            norm_a, norm_b = (np.linalg.norm(d.vectors[:, : starts[1]], axis=1) for d in (da, db))
            assert np.all(np.abs(np.subtract.outer(norm_a, norm_b)) < 2 * self.EPS), name
            lb = solver._norm_lower_bound(da, db, starts, self.EPS)
            assert np.array_equal(lb, dense_norm_bound(da, db, starts)), name
            sizes.append(da.n**2 * len(starts))
        assert max(sizes) > solver._PAIR_BLOCK  # more than one block of pairs

    def test_entries_match_sorted_row_definition(self):
        # the closed form for rank-1 groups against projector rows, sorted
        pairs = [(star(6), rotated(star(6), 2))]  # a rank-5 group, nonzero costs
        for g in (cycle(6), random_gnp(9, 1)):
            pairs.append((perturb(g, 3, 1.0), perturb(rotated(g, 2), 0, 1.0)))
        for g, h in pairs:
            da, db = eigendecompose(g), eigendecompose(h)
            groups = eigen_groups(da)
            assert [grp.length for grp in groups] == [grp.length for grp in eigen_groups(db)]
            want = np.zeros((g.n, g.n))
            for grp in groups:
                pa, pb = projection(da, grp.start, grp.stop), projection(db, grp.start, grp.stop)
                for i in range(g.n):
                    for j in range(g.n):
                        want[i, j] += sorted_row_distance(pa[i], pb[j])
            assert np.allclose(build_cost_matrix(da, db), want, rtol=0, atol=1e-13)

    def test_search_reports_unchanged(self, monkeypatch):
        def summary(report):
            return (
                report.outcome,
                report.decompositions,
                report.lap_solves,
                report.backtrack_steps,
                [(r.i, r.j, int(r.mask.sum())) for r in report.rounds],
                None if report.permutation is None else list(report.permutation.map),
            )

        pairs = _pairs_for_equivalence()
        filtered = [summary(is_isomorphic(a, b)) for _, a, b in pairs]
        exact = build_cost_matrix
        monkeypatch.setattr(solver, "build_cost_matrix", lambda da, db, eps=None: exact(da, db))
        reference = [summary(is_isomorphic(a, b)) for _, a, b in pairs]
        assert filtered == reference

    def test_reported_cost_is_lower_bound(self):
        a, b = cospectral_fixture()
        da, db = eigendecompose(a), eigendecompose(b)
        best = lap_brute_force(build_cost_matrix(da, db, self.EPS))
        assert self.EPS < best <= 6.42917749433882


class TestRankOneCosts:
    """solver._rank_one_costs against the sorted rows of v v^T, differenced."""

    @staticmethod
    def _columns(rng, n, groups, zeros):
        """Orthonormal columns with ``zeros`` rows of exact zeros, shuffled."""
        q, _ = np.linalg.qr(rng.standard_normal((n - zeros, groups)))
        return np.vstack([q, np.zeros((zeros, groups))])[rng.permutation(n)]

    @staticmethod
    def _direct(va, vb):
        """c[i][j] = sum_g |sort(va[i,g] va[:,g]) - sort(vb[j,g] vb[:,g])|."""
        c = 0.0
        for v, w in zip(va.T, vb.T):
            rows_a, rows_b = np.sort(np.outer(v, v), axis=1), np.sort(np.outer(w, w), axis=1)
            c = c + np.linalg.norm(rows_a[:, None, :] - rows_b[None, :, :], axis=2)
        return c

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sorted_row_definition(self, seed):
        rng = np.random.default_rng(seed)
        # 50^2 pairs over 6 groups is more than one block of _PAIR_BLOCK entries
        for n, groups, zeros in ((7, 3, 2), (12, 5, 0), (50, 6, 9)):
            va = self._columns(rng, n, groups, zeros)
            vb = va[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=groups)
            # perturb the nonzero entries by 1e-10 to 1e-4, keeping unit columns
            scale = 10.0 ** rng.uniform(-10, -4, size=groups)
            vb = vb + (vb != 0) * scale * rng.standard_normal(vb.shape)
            vb /= np.linalg.norm(vb, axis=0)
            ii, jj = np.indices((n, n)).reshape(2, -1)
            got = solver._rank_one_costs(va, vb, ii, jj).reshape(n, n)
            assert np.abs(got - self._direct(va, vb)).max() <= 1e-14, (n, groups)


@pytest.fixture
def hungarian_runs(monkeypatch):
    """Hungarian solves made by the code under test: the solver makes none."""
    runs = []

    def counted_solve_lap(c):
        runs.append(1)
        return solve_lap(c)

    monkeypatch.setattr(solver, "solve_lap", counted_solve_lap, raising=False)
    monkeypatch.setattr(assignment, "solve_lap", counted_solve_lap)
    return runs


def _lines_full(mask):
    return mask.any(axis=0).all() and mask.any(axis=1).all()


def _has_matching(mask):
    """Whether a boolean mask holds a perfect matching, by the Hungarian."""
    return solve_lap((~mask).astype(float)).cost == 0


def _optimum(c):
    """The Hungarian optimum over the finite entries of c, cost inf when every
    assignment meets an inf entry (one outside a pin's consistency fixpoint)."""
    finite = np.isfinite(c)
    lap = solve_lap(np.where(finite, c, c.shape[0] * c[finite].max(initial=0.0) + 1.0))
    if finite[np.arange(c.shape[0]), lap.assignment.map].all():
        return lap
    return lap._replace(cost=np.inf)


class TestMaskFirstDecision:
    """solver._decide, which decides by the sub-eps mask alone, against solve_lap."""

    EPS = 1e-6

    def _cost_matrix(self, rng, kind, n):
        eps = self.EPS
        if kind == "permutation_at_or_above_eps":
            n = max(n, 2)  # each mask entry below eps, their sum not
        if kind == "hall":
            n = max(n, 4)
        perm, rows = rng.permutation(n), np.arange(n)
        if kind == "empty_line":
            c = rng.uniform(0.0, 3 * eps, size=(n, n))
            line = rng.uniform(eps, 3 * eps, size=n)
            if rng.random() < 0.5:
                c[rng.integers(n)] = line
            else:
                c[:, rng.integers(n)] = line
        elif kind == "permutation_below_eps":
            c = rng.uniform(eps, 5 * eps, size=(n, n))
            c[rows, perm] = rng.uniform(0.0, eps / n, size=n)
        elif kind == "permutation_at_or_above_eps":
            c = rng.uniform(eps, 10.0, size=(n, n))
            c[rows, perm] = rng.uniform(1.01 * eps / n, eps, size=n)
        elif kind == "near_eps":  # many matchings, some summing past eps
            c = rng.uniform(eps, 5 * eps, size=(n, n))
            extra = rng.random((n, n)) < 0.6
            c[extra] = rng.uniform(0.3 * eps, eps, size=int(extra.sum()))
            c[rows, perm] = rng.uniform(0.3 * eps, eps, size=n)
            if rng.random() < 0.5:  # a planted cheap matching
                c[rows, rng.permutation(n)] = rng.uniform(0.0, eps / (2 * n), size=n)
        elif kind == "hall":  # rows 0 and 1 see only column 0, no line empty
            c = rng.uniform(eps, 5 * eps, size=(n, n))
            c[2:, :] = np.where(rng.random((n - 2, n)) < 0.5, 0.5 * eps, c[2:, :])
            c[2:, rng.permutation(n)[:1]] = 0.1 * eps
            c[2 + rows[: n - 2], perm[: n - 2]] = 0.2 * eps
            c[:2] = 3 * eps
            c[:2, 0] = 0.1 * eps
        else:  # several sub-eps entries in some line, lines all nonempty
            c = rng.uniform(eps, 5 * eps, size=(n, n))
            c[rows, perm] = rng.uniform(0.0, eps / n, size=n)
            extra = rng.random((n, n)) < rng.uniform(0.1, 0.6)
            c[extra] = rng.uniform(0.0, eps, size=int(extra.sum()))
        return c

    def test_agrees_with_hungarian(self, hungarian_runs):
        # accepted exactly when the mask holds a perfect matching, however
        # much that matching's entries add up to
        eps = self.EPS
        diagonal = np.full((3, 3), 10.0)
        np.fill_diagonal(diagonal, 0.4 * eps)
        # each entry below eps, their sum not: the identity is still taken
        cost, perm, _ = solver._decide(diagonal, eps)
        assert list(perm.map) == [0, 1, 2] and cost == 1.2e-6
        cases = [("permutation_at_or_above_eps", diagonal)]
        rng = np.random.default_rng(11)
        kinds = [
            "empty_line",
            "permutation_below_eps",
            "permutation_at_or_above_eps",
            "several",
            "near_eps",
            "hall",
        ]
        for t in range(1200):
            kind = kinds[t % len(kinds)]
            cases.append((kind, self._cost_matrix(rng, kind, 1 + t // len(kinds) % 8)))
        branches = ["empty_line", "permutation", "matching", "no_matching"]
        seen = dict.fromkeys(branches + ["expensive_permutation", "expensive_matching"], 0)
        for kind, c in cases:
            cost, perm, mask = solver._decide(c, eps)
            ref = solve_lap(c)
            n = c.shape[0]
            rows = np.arange(n)
            assert np.array_equal(mask, c < eps)
            assert (perm is not None) == _has_matching(mask), kind
            lines_full = mask.any(axis=0).all() and mask.any(axis=1).all()
            shape = "permutation" if mask.sum() == n else "matching"
            if not lines_full:
                branch = "empty_line"
            elif perm is None:
                branch = "no_matching"
            elif cost >= eps:
                branch = "expensive_" + shape
            else:
                branch = shape
            seen[branch] += 1
            if branch == "empty_line":  # the cost is a bound
                if not mask.any(axis=1).all():
                    assert eps <= cost <= ref.cost, kind
                else:  # a column sum may round a last bit above the optimum
                    assert eps <= cost <= ref.cost * (1 + 1e-15), kind
                continue
            if perm is None:  # every assignment leaves the mask
                assert cost == c[~mask].min(), kind
                assert eps <= cost <= ref.cost, kind
                continue
            # the mask's matching, its cost summed in row order
            assert mask[rows, perm.map].all(), kind
            assert cost == sum(c[rows, perm.map].tolist()), kind
            assert ref.cost <= cost < n * eps, kind
            if cost < eps and is_unique_zero_assignment(mask):
                assert cost == ref.cost, kind
                assert list(perm.map) == list(ref.assignment.map), kind
        assert min(seen.values()) > 20, seen
        assert not hungarian_runs

    def test_search_reports_unchanged(self, monkeypatch):
        # _decide decides the root alone; with the Hungarian in its place the
        # root's mask, and so every pin below it, stays the same
        def summary(report):
            return (
                report.outcome,
                report.backtrack_steps,
                report.pruned,
                [(r.i, r.j, int(r.mask.sum())) for r in report.rounds],
                None if report.permutation is None else list(report.permutation.map),
                report.spectral_rejection,
                report.heuristic_rejection,
            )

        decided = []

        def hungarian_only(c, eps):
            decided.append(c.shape)
            lap = _optimum(c)
            return lap.cost, lap.assignment if lap.cost < eps else None, c < eps

        def run(a, b):
            *events, report = solver.search(a, b, SolverOptions())
            return events, report

        def fields(e):
            mask = None if e.mask is None else e.mask.tolist()
            return e.level, e.i, e.j, e.accepted, e.pruned, mask

        pairs = _pairs_for_equivalence()
        mask_first = [run(a, b) for _, a, b in pairs]
        monkeypatch.setattr(solver, "_decide", hungarian_only)
        reference = [run(a, b) for _, a, b in pairs]
        assert len(decided) == len(pairs)  # one decision per search, the root's
        for (name, a, b), (got_events, got), (want_events, want) in zip(
            pairs, mask_first, reference
        ):
            assert got.outcome == want.outcome and got.reason == want.reason, name
            assert (got.decompositions, got.lap_solves) == (want.decompositions, want.lap_solves) == (2, 1), name
            if got.outcome != ISOMORPHIC:
                assert summary(got) == summary(want), name
                assert list(map(fields, got_events)) == list(map(fields, want_events)), name
                _assert_costs_by_contract(got, _costs(want), self.EPS, name)
                continue
            # The Hungarian's optimum can be another sub-eps assignment than
            # the mask's matching and hold where the matching fails.  Both
            # searches walk one tree, so one event stream is a prefix of the
            # other.
            assert is_exact_isomorphism(a, b, got.permutation), name
            assert is_exact_isomorphism(a, b, want.permutation), name
            for g, w in zip(got_events, want_events):
                assert fields(g) == fields(w), name
            assert want.root_cost <= got.root_cost, name
        assert any(want.root_cost >= self.EPS for _, want in reference)


def _costs(report):
    """(cost, accepted) of the root, then of the rounds."""
    root_accepted = report.reason not in ("size", "spectrum", "assignment")
    return [(report.root_cost, root_accepted)] + [(r.cost, True) for r in report.rounds]


def _assert_costs_by_contract(report, reference, eps, name):
    """A report's costs against the (optimum, accepted) pairs of a reference.

    Each pair is accepted or rejected alike in both.  An accepted cost is
    an assignment's inside the sub-eps mask, no lower than the optimum; a
    rejected cost is at least eps and no higher than the optimum.
    """
    for (got, accepted), (want, want_accepted) in zip(_costs(report), reference, strict=True):
        assert accepted == want_accepted, name
        if accepted:
            assert want <= got, name
        else:
            assert eps <= got <= want, name


def _fail_first(mask, rounds):
    """The A-vertex a level pins: the free row of the parent's mask offering
    the fewest unpinned B-vertices, at least two; None when no row offers two."""
    pinned_a = {i for i, *_ in rounds}
    pinned_b = {j for _, j, *_ in rounds}
    free = [i for i in range(mask.shape[0]) if i not in pinned_a]
    sizes = {i: sum(mask[i, j] for j in range(mask.shape[1]) if j not in pinned_b) for i in free}
    open_rows = [i for i in free if sizes[i] >= 2]
    return min(open_rows, key=lambda i: (sizes[i], i)) if open_rows else None


def _scan_all_search(a, b, eps=1e-6):
    """The search without mask-guided lists or pruning, with its own matching
    test, as a reference.

    Level L pins the A-vertex that :func:`_fail_first` picks from its
    parent mask and tries every B-vertex not yet pinned.  A pin is first
    refined on the parent mask by :func:`arc_consistency_reference`, and
    one that leaves a line empty is refuted with no decomposition.  A pin's
    costs outside its fixpoint are set to inf, so its sub-eps mask lies
    within the fixpoint.  A pair passes when its sub-eps mask holds a
    perfect matching, as a Hungarian solve on the mask's complement finds,
    and every cost is the Hungarian optimum of its finite entries (the
    root's of its exact costs) or a spectral distance.  The root verifies
    the assignment that solver._decide proposes, and an accepted pin the
    matching that solver.perfect_matching finds in its sub-eps mask, the
    next level's parent mask, as the search does; the first that holds ends
    the search.
    A failed witness with no row left to pin refutes the pin.  Returns the
    report's fields, its (cost, accepted) pairs (the root's, then the
    rounds'), and its operation counts.
    """
    n = a.n
    counts = {"dec": 2, "lap": 0, "bt": 0}
    rounds = []
    da, db = eigendecompose(a), eigendecompose(b)
    root_cost, proposed, root_mask = spectral_distance(da, db), None, None
    spectral = root_cost > eps
    if not spectral:
        c = build_cost_matrix(da, db, eps)
        # the optimum of the exact costs, which the filtered ones bound below
        root_cost, root_mask = solve_lap(build_cost_matrix(da, db)).cost, c < eps
        counts["lap"] += 1
        if _has_matching(root_mask):
            proposed = solver._decide(c, eps)[1]
            assert proposed is not None

    def result(outcome, perm=None, spectral=False, heuristic=False):
        fields = (
            outcome,
            None if perm is None else list(perm.map),
            [(i, j, zeros) for i, j, _, zeros in rounds],
            counts["bt"],
            spectral,
            heuristic,
        )
        costs = [(root_cost, proposed is not None)]
        return fields, costs + [(cost, True) for _, _, cost, _ in rounds], counts

    def descend(level, a_prev, b_prev, mask, i):
        a_pinned = perturb(a_prev, i, level + 1.0)
        da = eigendecompose(a_pinned)
        counts["dec"] += 1
        for j in range(n):
            if any(r[1] == j for r in rounds):
                continue
            pinned = mask.copy()
            pinned[i], pinned[:, j] = False, False
            pinned[i, j] = True
            consistent = arc_consistency_reference(pinned, a, b)
            if not _lines_full(consistent):
                continue
            b_pinned = perturb(b_prev, j, level + 1.0)
            db = eigendecompose(b_pinned)
            counts["dec"] += 1
            if spectral_distance(da, db) > eps:
                continue
            c = build_cost_matrix(da, db, eps)
            c[~consistent] = np.inf
            counts["lap"] += 1
            sub = c < eps
            if not _has_matching(sub):
                continue
            rounds.append((i, j, _optimum(c).cost, int(sub.sum())))
            witness = Permutation(solver.perfect_matching(sub))
            if is_exact_isomorphism(a, b, witness):
                return witness
            child = _fail_first(sub, rounds)
            if child is not None:
                found = descend(level + 1, a_pinned, b_pinned, sub, child)
                if found is not None:
                    return found
            counts["bt"] += 1
            rounds.pop()
        return None

    if proposed is None:
        return result(NOT_ISOMORPHIC, spectral=spectral)
    if is_exact_isomorphism(a, b, proposed):
        return result(ISOMORPHIC, proposed)
    i = _fail_first(root_mask, rounds)  # None: the mask is the failed matching
    found = None if i is None else descend(0, a, b, root_mask, i)
    if found is None:
        return result(NOT_ISOMORPHIC, heuristic=True)
    return result(ISOMORPHIC, found)


class TestMaskGuidedSearch:
    """Mask-guided candidate lists and the matching test below the root."""

    def test_reports_match_scan_all_reference(self, hungarian_runs):
        # The reference pins as the paper does, by loops and a decomposition
        # per pin; the search pins by colour refinement.  Both decide the
        # root alike and give the same answers, the search with the root's
        # two decompositions alone.
        for name, a, b in _pairs_for_equivalence() + _backtracking_rejections()[2:]:
            report = is_isomorphic(a, b)
            assert not hungarian_runs, name
            got = (report.outcome, report.spectral_rejection, report.heuristic_rejection)
            want, costs, counts = _scan_all_search(a, b)
            assert got == (want[0], *want[4:]), name
            if report.outcome == ISOMORPHIC:
                assert is_exact_isomorphism(a, b, report.permutation), name
            _assert_costs_by_contract(report, costs[:1] + [(0.0, True)] * len(report.rounds), 1e-6, name)
            assert (report.decompositions, report.lap_solves) == (2, 1), name
            assert counts["dec"] >= 2 and counts["lap"] >= 1, name
            if report.heuristic_rejection:
                assert report.backtrack_steps <= counts["bt"], name
                assert report.decompositions < counts["dec"], name

    def test_pinned_decision_agrees_with_hungarian(self, hungarian_runs):
        # below the root a pin's cost matrix is decided by solver._decide too:
        # a perfect matching in the mask is taken, whatever it sums to
        eps = 1e-6
        rng = np.random.default_rng(17)
        seen = {"matching": 0, "expensive_matching": 0, "no_matching": 0}
        for t in range(1000):
            n = 3 + t % 6
            kind = ("several", "near_eps", "hall", "empty_line")[t % 4]
            c = rng.uniform(eps, 5 * eps, size=(n, n))
            rows, perm = np.arange(n), rng.permutation(n)
            if kind == "several":
                c[rows, perm] = rng.uniform(0.0, eps / n, size=n)
                extra = rng.random((n, n)) < rng.uniform(0.1, 0.6)
                c[extra] = rng.uniform(0.0, eps, size=int(extra.sum()))
            elif kind == "near_eps":  # many matchings, some summing past eps
                extra = rng.random((n, n)) < 0.6
                c[extra] = rng.uniform(0.3 * eps, eps, size=int(extra.sum()))
                c[rows, perm] = rng.uniform(0.3 * eps, eps, size=n)
                if t % 8 < 4:  # a planted cheap matching
                    c[rows, rng.permutation(n)] = rng.uniform(0.0, eps / (2 * n), size=n)
            elif kind == "hall":  # rows 0 and 1 see only column 0, no line empty
                c[2:, :] = np.where(rng.random((n - 2, n)) < 0.5, 0.5 * eps, c[2:, :])
                c[2:, rng.permutation(n)[:1]] = 0.1 * eps
                c[2 + rows[: n - 2], perm[: n - 2]] = 0.2 * eps
                c[:2] = 3 * eps
                c[:2, 0] = 0.1 * eps
            else:
                c[rows, perm] = rng.uniform(0.0, eps / n, size=n)
                c[rng.integers(n)] = 2 * eps
            cost, match, mask = solver._decide(c, eps)
            ref = solve_lap(c)
            assert np.array_equal(mask, c < eps)
            assert (match is not None) == _has_matching(mask), (kind, t)
            if match is not None:
                assert mask[rows, match.map].all(), (kind, t)
                assert ref.cost <= cost < n * eps, (kind, t)
                if cost < eps and is_unique_zero_assignment(mask):
                    assert cost == ref.cost, (kind, t)
                    assert list(match.map) == list(ref.assignment.map)
                if mask.sum() > n:  # not a bare permutation mask
                    seen["matching" if cost < eps else "expensive_matching"] += 1
            elif mask.any(axis=0).all() and mask.any(axis=1).all():
                assert eps <= cost <= ref.cost, (kind, t)
                seen["no_matching"] += 1
        assert min(seen.values()) > 20, seen
        assert not hungarian_runs

    def test_accepted_masks_nest_and_the_level_below_scans_their_row(self):
        # an accepted pin's mask lies inside its parent's (the root's at
        # level 0), and the level below scans exactly that mask's row of its
        # vertex, in order, all of it unless the search ends there; lattice(5)
        # takes 7 rounds here (paley(17) ends in 2 since pins refine colours)
        g = lattice(5)
        b = apply_permutation(g, random_permutation(25, 1))
        *events, report = solver.search(g, b, SolverOptions())
        assert report.outcome == ISOMORPHIC
        masks = {}  # level -> the mask of its last accepted event, -1 the root
        for k, e in enumerate(events):
            if not e.accepted:
                continue
            level = -1 if e.level is None else e.level
            if level >= 0:
                assert not (e.mask & ~masks[level - 1]).any(), level
            masks[level] = e.mask
            # the level below's events, up to the next one at this level or above
            rest = events[k + 1 :]
            end = next((t for t, f in enumerate(rest) if f.level <= level), len(rest))
            scanned = [(f.i, f.j) for f in rest[:end] if f.level == level + 1]
            if scanned:
                i = scanned[0][0]
                row = [(i, j) for j in np.flatnonzero(e.mask[i]).tolist()]
                assert scanned == (row[: len(scanned)] if end == len(rest) else row), level
        assert len(report.rounds) >= 3

    def test_masks_never_offer_a_pinned_vertex(self):
        # a pinned B-vertex carries a loop of weight at least 1 and an
        # unpinned A-vertex none, which no sub-eps entry matches on 0/1 input
        offered = checked = 0
        for name, a, b in _pairs_for_equivalence():
            pins = []  # the pinned (A-vertex, B-vertex) pairs, by level
            for e in solver.search(a, b, SolverOptions()):
                if isinstance(e, solver.SearchEvent) and e.level is not None and e.accepted:
                    pins[e.level :] = [(e.i, e.j)]
                    free = np.ones(a.n, dtype=bool)
                    free[[i for i, _ in pins]] = False
                    offered += int(e.mask[free][:, [j for _, j in pins]].sum())
                    # and each pinned row offers its own pin alone, so a mask
                    # with no row to pin is the matching it holds
                    assert all(np.flatnonzero(e.mask[i]).tolist() == [j] for i, j in pins), name
                    checked += 1
        assert checked > 0 and offered == 0

    def test_accepted_event_cost_bounds_round_cost(self, monkeypatch):
        # the root's event carries its accepted assignment's cost, an upper
        # bound of its cost matrix's optimum, the optimum itself when the
        # sub-eps mask has one perfect matching; a pin's cost is exact, 0.0
        # when accepted and inf otherwise, and an accepted pin's event is
        # its round
        eps = 1e-6
        decided = []  # the cost matrices decided
        decide = solver._decide

        def recorded(c, eps):
            decided.append(c)
            return decide(c, eps)

        monkeypatch.setattr(solver, "_decide", recorded)
        strict = pins = 0
        for name, a, b in _pairs_for_equivalence():
            decided.clear()
            *events, report = solver.search(a, b, SolverOptions())
            (c,) = decided  # the root's alone
            root = events[0]
            if root.accepted:
                optimum = _optimum(c).cost
                assert optimum <= root.cost < a.n * eps, name
                if is_unique_zero_assignment(root.mask):
                    assert root.cost == optimum, name
                strict += optimum < root.cost
            last = {}  # level -> its last accepted event
            for e in events[1:]:
                assert e.cost == (0.0 if e.accepted else np.inf), name
                if e.accepted:
                    last[e.level] = e
                pins += 1
            for level, r in enumerate(report.rounds):
                assert r is last[level], name
        assert strict > 0 and pins > 0


class TestIsIsomorphicAccepts:
    def test_cycle_rotation_two_rounds(self):
        # the root's and the first pin's assignments fail verification; two
        # pins leave one sub-eps permutation, which holds
        g = cycle(6)
        b = apply_permutation(g, random_permutation(6, 42))
        report = is_isomorphic(g, b)
        assert report.outcome == ISOMORPHIC
        assert is_exact_isomorphism(g, b, report.permutation)
        assert [r.i for r in report.rounds] == [0, 1]
        assert report.rounds[-1].mask.sum() == 6  # single permutation pattern
        assert report.backtrack_steps == 0

    def test_cycle_rotation_ends_at_the_root(self):
        # a rotation is an automorphism of the cycle, so the root's sub-eps
        # assignment (the identity, on an all-true mask) already holds
        g = cycle(6)
        b = rotated(g)
        report = is_isomorphic(g, b)
        assert report.outcome == ISOMORPHIC
        assert list(report.permutation.map) == list(range(6))
        assert report.rounds == []
        assert (report.decompositions, report.lap_solves) == (2, 1)

    def test_first_verified_pin_ends_the_search(self):
        # the second pin's sub-eps assignment holds, while its uncut sub-eps
        # mask still holds more than one permutation; within the pin's
        # consistency fixpoint it is that assignment alone.  The second level
        # pins A-vertex 1, whose row of the refined mask offers the fewest
        # candidates
        g = paley(13)
        b = apply_permutation(g, random_permutation(13, 77))
        report = is_isomorphic(g, b)
        assert report.outcome == ISOMORPHIC
        assert is_exact_isomorphism(g, b, report.permutation)
        assert [r.i for r in report.rounds] == [0, 1]
        (i0, j0), (i1, j1) = [(r.i, r.j) for r in report.rounds]
        da = eigendecompose(perturb(perturb(g, i0, 1.0), i1, 2.0))
        db = eigendecompose(perturb(perturb(b, j0, 1.0), j1, 2.0))
        assert (build_cost_matrix(da, db, 1e-6) < 1e-6).sum() > 13
        assert report.rounds[-1].mask.sum() == 13
        assert report.backtrack_steps == 0

    def test_paley17_valid_permutation(self):
        g = paley(17)
        b = apply_permutation(g, random_permutation(17, 42))
        report = is_isomorphic(g, b)
        assert report.outcome == ISOMORPHIC
        assert len(report.permutation) == 17
        assert is_exact_isomorphism(g, b, report.permutation)
        assert report.backtrack_steps == 0

    def test_identity_pair(self):
        g = random_gnp(10, 2)
        report = is_isomorphic(g, g)
        assert report.outcome == ISOMORPHIC
        assert is_exact_isomorphism(g, g, report.permutation)

    def test_deep_path_of_disjoint_edges(self):
        # each level is one nested call; 40 disjoint edges pin 39 vertices,
        # one a level, before the mask is the matching it holds
        g = disjoint_edges(40)
        b = apply_permutation(g, random_permutation(g.n, 1))
        report = is_isomorphic(g, b)
        assert report.outcome == ISOMORPHIC
        assert [r.level for r in report.rounds] == list(range(39))
        assert is_exact_isomorphism(g, b, report.permutation)

    def test_single_vertex_and_empty_graphs(self):
        one = Graph(np.zeros((1, 1)))
        assert is_isomorphic(one, one).outcome == ISOMORPHIC
        empty = Graph(np.zeros((4, 4)))
        report = is_isomorphic(empty, empty)
        assert report.outcome == ISOMORPHIC
        assert is_exact_isomorphism(empty, empty, report.permutation)

    def test_complete_graphs(self):
        report = is_isomorphic(complete(5), complete(5))
        assert report.outcome == ISOMORPHIC

    def test_rigid_pair_exits_at_root(self):
        # an asymmetric graph pins a unique mask with no perturbation rounds
        g = random_gnp(12, 2)
        b = apply_permutation(g, random_permutation(12, 77))
        report = is_isomorphic(g, b)
        assert report.outcome == ISOMORPHIC
        assert report.rounds == []
        assert report.decompositions == 2
        assert report.lap_solves == 1

    def test_relabelled_cfi_found(self):
        for base in (K4_EDGES, K33_EDGES):
            g = cfi(base)
            b = apply_permutation(g, random_permutation(g.n, 2))
            report = is_isomorphic(g, b)
            assert report.outcome == ISOMORPHIC, base
            assert is_exact_isomorphism(g, b, report.permutation), base

    def test_witness_checked_through_the_solver_module_name(self, monkeypatch):
        # bench/tracing.py times the check by patching this name
        held = []

        def counted(a, b, p):
            ok = is_exact_isomorphism(a, b, p)
            if ok:
                held.append((a, b, p.map.tolist()))
            return ok

        monkeypatch.setattr(solver, "is_exact_isomorphism", counted)
        g = paley(13)
        for a, b in ((g, rotated(g)), (g, apply_permutation(g, random_permutation(13, 77)))):
            report = is_isomorphic(a, b)
            assert report.outcome == ISOMORPHIC
            assert (a, b, report.permutation.map.tolist()) in held

    def test_near_eps_eigenvalue_gap_grouped_alike_on_both_sides(self):
        # reweighting edge (0, 1) of cycle(6) opens gaps of about eps inside
        # its eigenvalue pairs; with each spectrum grouped on its own, 175 of
        # these relabelings came back not_isomorphic with a certificate
        adj = cycle(6).adj.copy()
        adj[0, 1] = adj[1, 0] = 1 + 1.5000006247101183e-06
        g = Graph(adj)
        for seed in range(300):
            b = apply_permutation(g, random_permutation(6, seed))
            report = is_isomorphic(g, b)
            assert report.outcome == ISOMORPHIC, seed
            assert is_exact_isomorphism(g, b, report.permutation), seed

    def test_equivariance_sample(self):
        for n, seed in [(8, 0), (12, 1), (16, 2), (20, 3)]:
            g = random_gnp(n, seed)
            p = random_permutation(n, 500 + seed)
            b = apply_permutation(g, p)
            report = is_isomorphic(g, b)
            assert report.outcome == ISOMORPHIC
            assert is_exact_isomorphism(g, b, report.permutation)


def _backtracking_rejections():
    """Non-isomorphic pairs whose searches backtrack and refute pins."""
    g = cfi(K33_EDGES)
    twist = apply_permutation(cfi(K33_EDGES, twist=True), random_permutation(g.n, 1))
    return [
        ("srg", *srg_fixture()),
        ("cfi(K3,3) twist", g, twist),
        ("T(8) vs chang_4K2", triangular(8), chang_4k2()),
    ]


class TestPinWitness:
    """A pin's witness is a perfect matching of the mask the level below reads.

    The first k checks of a relabelled cycle(6) answer False, inner searches'
    included.  The root's check is the first and the pins (0, 0) and (1, 2)
    make the next two; below (1, 2) every row of the mask offers one
    B-vertex, so that mask is the pin's witness alone and no level follows.
    """

    @staticmethod
    def run(monkeypatch, k, g, b, opts=None):
        calls = []

        def failing(a, b, p):
            calls.append(p.map.tolist())
            return len(calls) > k and is_exact_isomorphism(a, b, p)

        monkeypatch.setattr(solver, "is_exact_isomorphism", failing)
        *events, report = solver.search(g, b, opts or SolverOptions())
        return events, report, calls

    @staticmethod
    def cycle_pair():
        g = cycle(6)
        return g, apply_permutation(g, random_permutation(6, 4))

    def test_witness_that_holds_ends_the_search(self, monkeypatch):
        events, report, calls = self.run(monkeypatch, 2, *self.cycle_pair())
        assert len(calls) == 3
        witness = np.array(calls[2])
        # inside the pin's sub-eps mask, each pinned row to its pin
        assert events[-1].mask[np.arange(6), witness].all()
        assert witness[[r.i for r in report.rounds]].tolist() == [r.j for r in report.rounds]
        assert calls[2] == report.permutation.map.tolist()
        assert report.outcome == ISOMORPHIC
        assert [(r.i, r.j) for r in report.rounds] == [(0, 0), (1, 2)]
        assert all(e.level != 2 for e in events)

    def test_witness_that_fails_with_no_row_to_pin_is_a_dead_end(self, monkeypatch):
        g, b = self.cycle_pair()
        events, report, calls = self.run(monkeypatch, 4, g, b)
        # the third check, of the witness of the pin (1, 2), fails: no level
        # follows, one backtrack drops the pin and level 1 scans on (the
        # fourth check is an inner search's, which finds no automorphism)
        assert [(e.level, e.i, e.j) for e in events if e.level is not None] == [
            (0, 0, 0),
            (1, 1, 2),
            (1, 1, 5),
        ]
        assert len(calls) == 5
        assert report.backtrack_steps == 1
        assert report.outcome == ISOMORPHIC
        assert [(r.i, r.j) for r in report.rounds] == [(0, 0), (1, 5)]
        assert is_exact_isomorphism(g, b, report.permutation)

    def test_cap_at_a_failed_witness_drops_its_pin(self, monkeypatch):
        g, b = self.cycle_pair()
        events, report, calls = self.run(monkeypatch, 4, g, b, SolverOptions(max_backtrack_steps=0))
        assert len(calls) == 3  # the witness of (1, 2) was the last check
        assert (report.outcome, report.reason) == (INCONCLUSIVE, "backtrack_cap")
        assert [(r.i, r.j) for r in report.rounds] == [(0, 0)]

    def test_each_accepted_pair_checks_one_witness(self, monkeypatch):
        # every check fails, so the search walks its whole tree; the checks of
        # g against b made after an item belong to it, and each accepted
        # pair, the root and every accepted pin, makes exactly one, so no pin
        # checks one permutation twice
        g, b = self.cycle_pair()
        items, checked_after = [], []

        def failing(x, y, p):
            if x is g and y is b:
                checked_after.append(len(items))
            return False

        monkeypatch.setattr(solver, "is_exact_isomorphism", failing)
        for item in solver.search(g, b, SolverOptions()):
            items.append(item)
        assert (items[-1].outcome, items[-1].reason) == (NOT_ISOMORPHIC, "exhaustion")
        accepted = [k + 1 for k, e in enumerate(items[:-1]) if e.accepted]
        assert len(accepted) > 2
        assert checked_after == accepted

    def test_root_mask_with_one_failing_matching_is_exhausted(self, monkeypatch):
        # a simple spectrum leaves one B-vertex in every row of the root's mask
        g = random_gnp(12, 1)
        events, report, calls = self.run(monkeypatch, 1, g, apply_permutation(g, random_permutation(12, 3)))
        assert events[0].mask.sum(axis=1).max() == 1
        assert len(events) == len(calls) == 1
        assert (report.outcome, report.reason) == (NOT_ISOMORPHIC, "exhaustion")
        assert (report.decompositions, report.backtrack_steps) == (2, 0)

    def test_loose_eps_pin_is_decided_once_within_its_fixpoint(self):
        # at eps = 2 the sub-eps mask of the paper's pin (0, 1), a loop on
        # each side and a decomposition, holds a perfect matching; the colour
        # refinement refutes the pin exactly (A-vertex 0 has degree 2,
        # B-vertex 1 degree 1), at cost inf with no mask, no round, no
        # backtrack and no decomposition
        adj = np.zeros((5, 5))
        for u, v in ((0, 2), (0, 3), (1, 2), (1, 3), (1, 4)):
            adj[u, v] = adj[v, u] = 1.0
        g = Graph(adj)
        b = apply_permutation(g, random_permutation(5, 241))
        *events, report = solver.search(g, b, SolverOptions(eps=2.0, max_backtrack_steps=30))
        (pin,) = [e for e in events if (e.level, e.i, e.j) == (0, 0, 1)]
        assert (pin.cost, pin.mask, pin.accepted, pin.pruned) == (np.inf, None, False, False)
        da, db = eigendecompose(perturb(g, 0, 1.0)), eigendecompose(perturb(b, 1, 1.0))
        assert _has_matching(build_cost_matrix(da, db, 2.0) < 2.0)
        assert report.outcome == ISOMORPHIC and report.backtrack_steps == 0
        assert [(r.level, r.i, r.j) for r in report.rounds] == [(0, 0, 2)]
        assert report.consistency_rejects == 2  # the pins (0, 0) and (0, 1)
        assert report.decompositions == 2  # the root's two
        assert is_exact_isomorphism(g, b, report.permutation)

    def test_loose_eps_never_pins_a_b_vertex_twice(self):
        # at eps = 2 a pin's loop no longer sets its B-vertex apart, so the
        # paper's uncut sub-eps masks offer it again; the parent mask a pin is
        # refined on has the pinned columns cleared, so the stream never pins
        # one B-vertex at two levels at once
        g = path(3)
        b = apply_permutation(g, random_permutation(3, 0))
        *events, report = solver.search(g, b, SolverOptions(eps=2.0))
        offered = []  # A-vertices a first-level pin's uncut mask offers its B-vertex
        for e in events:
            if e.level == 0 and e.mask is not None:
                da, db = eigendecompose(perturb(g, e.i, 1.0)), eigendecompose(perturb(b, e.j, 1.0))
                offered.append(int((build_cost_matrix(da, db, 2.0)[:, e.j] < 2.0).sum()))
        assert max(offered) > 1
        pinned, pins = 0, []
        for e in events:
            if e.level is not None and not e.pruned:
                assert e.j not in pins[: e.level]
                pinned += 1
            if e.level is not None and e.accepted:
                pins[e.level :] = [e.j]
        assert pinned > 0
        assert report.outcome == ISOMORPHIC
        assert is_exact_isomorphism(g, b, report.permutation)


class TestArcConsistency:
    """solver._arc_consistency, which refutes a pin before its decomposition."""

    @staticmethod
    def cases():
        # random_gnp(10)'s edges weighted 1-3, and loops on every third vertex
        g = random_gnp(10, 5)
        weights = np.triu(g.adj * np.random.default_rng(5).integers(1, 4, size=(10, 10)), 1)
        weighted = weights + weights.T + np.diag([2.0 * (v % 3 == 0) for v in range(10)])
        return [
            ("paley(13)", paley(13)),
            ("lattice(4)", lattice(4)),
            ("triangular(6)", triangular(6)),
            ("cfi(K3,3)", cfi(K33_EDGES)),
            ("random_gnp(12)", random_gnp(12, 4)),
            ("weights and loops", Graph(weighted)),
        ]

    @staticmethod
    def pin(mask, i, j):
        mask[i], mask[:, j] = False, False
        mask[i, j] = True
        return mask

    def test_keeps_every_pair_of_an_isomorphism(self):
        # an isomorphism pi inside the mask supports each of its own pairs,
        # so the fixpoint under the pin (i, pi(i)) keeps every (x, pi(x))
        rng = np.random.default_rng(27)
        dropped = 0
        for name, g in self.cases():
            n = g.n
            for trial in range(10):
                pi = random_permutation(n, trial)
                b = apply_permutation(g, pi)
                mask = rng.random((n, n)) < rng.uniform(0.2, 0.9)
                mask[np.arange(n), pi.map] = True
                i = int(rng.integers(n))
                mask = self.pin(mask, i, pi[i])
                got = solver._arc_consistency(mask, solver._pattern(g), solver._pattern(b))
                assert got is not None, (name, trial)
                assert got[np.arange(n), pi.map].all(), (name, trial)
                assert np.array_equal(got, arc_consistency_reference(mask, g, b)), (name, trial)
                dropped += int(mask.sum() - got.sum())
        assert dropped > 0

    def test_matches_the_pair_by_pair_reference(self):
        # under pins that need not extend an isomorphism: None exactly when
        # the reference's fixpoint has an empty line, else that fixpoint
        rng = np.random.default_rng(28)
        outcomes = set()
        for name, g in self.cases():
            n = g.n
            for trial in range(10):
                pi = random_permutation(n, trial)
                b = apply_permutation(g, pi)
                mask = rng.random((n, n)) < rng.uniform(0.5, 1.0)
                mask[np.arange(n), pi.map] = True
                mask = self.pin(mask, *rng.integers(n, size=2))
                got = solver._arc_consistency(mask, solver._pattern(g), solver._pattern(b))
                want = arc_consistency_reference(mask, g, b)
                if got is None:
                    assert not _lines_full(want), (name, trial)
                else:
                    assert np.array_equal(got, want), (name, trial)
                outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_srg_fixture_refutes_pins_undecomposed(self, monkeypatch):
        # under the level-0 pin (0, 0) of the rook's graph, every candidate
        # of Shrikhande's is refuted, read lazily with no decomposition past
        # the root's two, and each by an exact test: unequal colour
        # histograms or an emptied line of the fixpoint
        a, b = srg_fixture()
        decomposed, unequal = [], []
        decompose, refine = solver.eigendecompose, solver._refine

        def counted(g):
            decomposed.append(g)
            return decompose(g)

        def refined(*args):
            colours = refine(*args)
            unequal.append(colours is None)
            return colours

        monkeypatch.setattr(solver, "eigendecompose", counted)
        monkeypatch.setattr(solver, "_refine", refined)
        refuted = 0
        for e in solver.search(a, b, SolverOptions()):
            if isinstance(e, solver.SearchEvent) and e.level == 1:
                assert (e.cost, e.mask, e.accepted, e.pruned) == (np.inf, None, False, False)
                assert decomposed == [a, b]
                refuted += 1
        assert e.outcome == NOT_ISOMORPHIC and refuted > 0
        assert e.consistency_rejects >= sum(unequal) > 0

    def test_report_counts_the_refuted_pins(self, monkeypatch):
        # consistency_rejects counts the pins refuted by their histograms or
        # fixpoint, those of the inner searches for automorphisms included:
        # the outer stream's refuted events (cost inf, mask None, not pruned)
        # and the rest
        refuted = []
        individualise = solver._individualise

        def recorded(*args):
            pinned = individualise(*args)
            refuted.append(pinned is None)
            return pinned

        monkeypatch.setattr(solver, "_individualise", recorded)
        inner = 0
        for name, a, b in _backtracking_rejections():
            refuted.clear()
            *events, report = solver.search(a, b, SolverOptions())
            outer = sum(e.cost == np.inf and e.mask is None and not e.pruned for e in events)
            assert report.consistency_rejects == sum(refuted) > 0, name
            assert outer <= report.consistency_rejects, name
            inner += report.consistency_rejects - outer
        assert inner > 0


def _cut_cubic():
    """A cubic graph on 10 vertices and its relabelling by random_permutation(10, 9),
    whose root mask cuts the first pin's mask of equal colours."""
    edges = [(0, 1), (0, 4), (0, 6), (1, 4), (1, 7), (2, 3), (2, 7), (2, 9), (3, 5), (3, 9),
             (4, 5), (5, 8), (6, 8), (6, 9), (7, 8)]
    adj = np.zeros((10, 10))
    adj[tuple(np.transpose(edges))] = 1.0
    c = Graph(adj + adj.T)
    return c, apply_permutation(c, random_permutation(10, 9))


class TestClosedFormPin:
    """solver._individualise decides a pin whose parent mask keeps every pair
    of equal colour by its colours alone, and runs the fixpoint otherwise."""

    @staticmethod
    def cases():
        latin = [latin_square_graph(cayley_table(group)) for group in (cyclic(6), dihedral(3))]
        return _backtracking_rejections() + [
            ("L(Z6) vs L(S3)", *latin),
            ("lattice(5)", lattice(5), apply_permutation(lattice(5), random_permutation(25, 1))),
            ("cut cubic", *_cut_cubic()),
            # its one pin's witness holds while its mask still offers 14 pairs
            ("cycle(8)", cycle(8), apply_permutation(cycle(8), random_permutation(8, 1))),
        ]

    @staticmethod
    def solve(a, b):
        """Every event, masks as bytes, and the report's fields and witness."""
        *events, r = solver.search(a, b, SolverOptions())
        stream = [
            (e.level, e.i, e.j, e.cost, e.accepted, e.pruned, None if e.mask is None else e.mask.tobytes())
            for e in events
        ]
        return stream, (
            r.outcome, r.reason, r.root_cost, r.backtrack_steps, r.decompositions, r.lap_solves,
            r.pruned, r.inner_searches, r.consistency_rejects, [(e.level, e.i, e.j) for e in r.rounds],
            None if r.permutation is None else r.permutation.map.tolist(),
        )

    def test_same_search_as_the_fixpoint_on_every_pin(self, monkeypatch):
        got = [self.solve(a, b) for _, a, b in self.cases()]
        monkeypatch.setattr(solver, "_individualise", individualise_reference)
        for (name, a, b), (stream, report) in zip(self.cases(), got):
            assert (stream, report) == self.solve(a, b), name
            assert len(stream) > 1, name

    def test_full_parent_masks_run_no_fixpoint(self, monkeypatch):
        # every pin of these pairs has a parent mask holding every pair of
        # equal colour, so the one matching is the root's
        calls = []
        for name in ("_arc_consistency", "perfect_matching"):
            monkeypatch.setattr(
                solver, name, lambda *args, _f=getattr(solver, name), _n=name: calls.append(_n) or _f(*args)
            )
        for a, b in (srg_fixture(), (triangular(8), chang_4k2())):
            calls.clear()
            report = is_isomorphic(a, b)
            assert report.outcome == NOT_ISOMORPHIC and report.backtrack_steps > 0
            assert calls == ["perfect_matching"]

    def test_a_cut_parent_mask_runs_the_fixpoint(self, monkeypatch):
        # the root's mask of the cubic pair cuts the first pin's mask of equal
        # colours, and the fixpoint refutes that pin
        refuted = []
        consistency = solver._arc_consistency

        def recorded(*args):
            fixpoint = consistency(*args)
            refuted.append(fixpoint is None)
            return fixpoint

        monkeypatch.setattr(solver, "_arc_consistency", recorded)
        report = is_isomorphic(*_cut_cubic())
        assert report.outcome == ISOMORPHIC
        assert report.consistency_rejects == 1 == refuted.count(True)

    def test_orbit_pruned_candidates_are_those_in_the_orbit(self, monkeypatch):
        # a candidate pruned before its pin is refined lies in the orbit of its
        # level's earlier candidates under the kept automorphisms fixing the
        # pins, recomputed here from scratch; no other candidate does
        created, refined = [], []
        init, individualise = solver._Levels.__init__, solver._individualise

        def recorded_init(levels, *args):
            init(levels, *args)
            created.append(levels)

        def recorded(pa, pb, mask, colours, i, j, keys):
            if pa is created[0].pa:  # the outer search's pins, not an inner search's
                refined.append((i, j))
            return individualise(pa, pb, mask, colours, i, j, keys)

        monkeypatch.setattr(solver._Levels, "__init__", recorded_init)
        monkeypatch.setattr(solver, "_individualise", recorded)
        in_orbit = pruned_after_refining = 0
        for name, a, b in self.cases()[:4]:
            created.clear()
            earlier, kept = {}, 0  # the js of each open level by depth; automorphisms before a candidate
            for e in solver.search(a, b, SolverOptions()):
                if not isinstance(e, solver.SearchEvent) or e.level is None:
                    continue
                levels = created[0]
                for depth in [d for d in earlier if d > e.level]:
                    del earlier[depth]
                js = earlier.setdefault(e.level, [])
                pins = [r.j for r in levels.rep.rounds]
                fixing = [s for s in levels.automorphisms[:kept] if (s[pins] == pins).all()]
                inside = np.zeros(b.n, dtype=bool)
                inside[js] = True
                solver._orbit(inside, fixing)
                assert inside[e.j] == (e.pruned and (e.i, e.j) not in refined), (name, e)
                in_orbit += inside[e.j]
                pruned_after_refining += e.pruned and not inside[e.j]
                js.append(e.j)
                refined.clear()
                kept = len(levels.automorphisms)
        assert in_orbit > 0 and pruned_after_refining > 0


class TestIsIsomorphicRejects:
    def test_vertex_count_mismatch(self):
        report = is_isomorphic(cycle(5), cycle(6))
        assert report.outcome == NOT_ISOMORPHIC
        assert report.spectral_rejection

    def test_spectral_certificate(self):
        report = is_isomorphic(complete(3), path(3))
        assert report.outcome == NOT_ISOMORPHIC
        assert report.spectral_rejection
        assert not report.heuristic_rejection
        assert report.lap_solves == 0
        assert abs(report.root_cost - 1.2307390567303165) < 1e-9

    def test_cospectral_pair_rejected_by_assignment_cost(self):
        a, b = cospectral_fixture()
        report = is_isomorphic(a, b)
        assert report.outcome == NOT_ISOMORPHIC
        assert not report.spectral_rejection
        assert not report.heuristic_rejection
        assert report.lap_solves == 1
        # the exact row minima (6.41), not their filtered partial sums (0.79)
        assert report.root_cost >= 2.93
        assert report.rounds == []

    def test_srg_pair_rejected_by_search_with_backtracking(self):
        a, b = srg_fixture()
        # indistinguishable spectrally, root assignment cost is zero
        assert spectral_distance(eigendecompose(a), eigendecompose(b)) < 1e-6
        assert np.max(build_cost_matrix(eigendecompose(a), eigendecompose(b))) < 1e-6
        report = is_isomorphic(a, b)
        assert report.outcome == NOT_ISOMORPHIC
        assert report.heuristic_rejection
        assert not report.spectral_rejection
        assert report.backtrack_steps > 0
        assert report.rounds == []

    def test_cfi_twist_rejected(self):
        # CFI pairs defeat spectra and refinement; the twisted side is
        # relabelled so that nothing rests on the construction's order
        for base in (K4_EDGES, K33_EDGES):
            a = cfi(base)
            b = apply_permutation(cfi(base, twist=True), random_permutation(a.n, 1))
            report = is_isomorphic(a, b)
            assert report.outcome == NOT_ISOMORPHIC, base
            assert report.reason == "exhaustion", base
            assert report.pruned > 0, base


class TestAutomorphismPruning:
    """Candidates skipped because a verified automorphism of B maps an
    exhausted candidate onto them."""

    def test_backtracks_do_not_depend_on_the_labelling_of_a(self):
        # in index order the pins took 16, 64 or 448 backtracks here
        a, b = srg_fixture()
        steps = {
            is_isomorphic(apply_permutation(a, random_permutation(a.n, k)), b).backtrack_steps
            for k in range(10)
        }
        assert steps == {1}

    def test_kept_automorphisms_fix_the_pins(self, monkeypatch):
        # an inner search runs from B individualised at an accepted j0 to B
        # individualised at j; the permutation it keeps maps B onto itself,
        # fixes the pins of its level and maps j0 to j
        kept = []
        finds = solver._Levels.finds_automorphism

        def recorded(levels, accepted, j, cb, pins):
            before = len(levels.automorphisms)
            found = finds(levels, accepted, j, cb, pins)
            kept.extend((levels.b, sigma, list(accepted), j, list(pins)) for sigma in levels.automorphisms[before:])
            return found

        monkeypatch.setattr(solver._Levels, "finds_automorphism", recorded)
        pairs = [srg_fixture(), (cfi(K4_EDGES), cfi(K4_EDGES, twist=True))]
        for a, b in pairs:
            kept.clear()
            report = is_isomorphic(a, b)
            assert report.outcome == NOT_ISOMORPHIC and report.pruned > 0
            assert kept
            for g, sigma, accepted, j, pins in kept:
                assert g is b
                assert np.array_equal(b.adj[np.ix_(sigma, sigma)], b.adj)
                assert sigma[pins].tolist() == pins
                assert any(sigma[j0] == j for j0 in accepted)

    def test_isomorphic_searches_run_no_inner_search(self):
        # an inner search starts from an exhausted accepted pin, so a
        # search that never backtracks starts none
        for g in (paley(101), lattice(10)):
            report = is_isomorphic(g, apply_permutation(g, random_permutation(g.n, 3)))
            assert report.outcome == ISOMORPHIC
            assert report.backtrack_steps == report.pruned == report.inner_searches == 0


class TestInputContract:
    def test_self_loops_rejected(self):
        # a relabeled loop graph once gave a corrupted-diagonal error or a
        # witness that does not map the diagonal
        g = Graph(np.array([[1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]))
        h = apply_permutation(g, Permutation([2, 0, 3, 1]))
        with pytest.raises(ValueError, match="self-loops"):
            is_isomorphic(g, h)
        with pytest.raises(ValueError, match="self-loops"):
            is_isomorphic(complete(4), h)

    def test_eps_must_be_positive_and_finite(self):
        # a nan eps once rejected a graph against itself by exhaustion, an
        # infinite one ran a relabeling into the backtrack cap, and a size
        # mismatch once answered before eps was checked
        g = paley(13)
        pairs = [(g, g), (g, apply_permutation(g, random_permutation(13, 1))), (cycle(5), cycle(6))]
        for a, b in pairs:
            for eps in (np.nan, np.inf, 0.0, -1e-6):
                with pytest.raises(ValueError, match="positive and finite"):
                    is_isomorphic(a, b, SolverOptions(eps=eps, max_backtrack_steps=100))

    def test_max_backtrack_steps_must_be_non_negative(self):
        # a negative cap once made the SRG pair inconclusive after 1 backtrack
        for steps in (-1, -5):
            with pytest.raises(ValueError, match="max_backtrack_steps"):
                is_isomorphic(*srg_fixture(), SolverOptions(max_backtrack_steps=steps))


class TestInconclusive:
    def test_backtrack_cap_yields_inconclusive(self):
        # exhausted after 6 backtracks without a cap
        a = cfi(K33_EDGES)
        b = apply_permutation(cfi(K33_EDGES, twist=True), random_permutation(a.n, 1))
        report = is_isomorphic(a, b, SolverOptions(max_backtrack_steps=3))
        assert report.outcome == INCONCLUSIVE
        assert report.permutation is None
        assert report.backtrack_steps == 4  # the step that crossed the cap

    def test_cap_reports_no_refuted_pin_as_a_round(self):
        # level 1 under the pin (0, 0) runs dry; that backtrack crosses the cap
        *events, report = solver.search(*srg_fixture(), SolverOptions(max_backtrack_steps=0))
        assert (report.outcome, report.reason) == (INCONCLUSIVE, "backtrack_cap")
        assert report.backtrack_steps == 1
        assert [(e.i, e.j) for e in events if e.accepted and e.level == 0] == [(0, 0)]
        assert report.rounds == []

    def test_capped_streams_are_prefixes_of_the_uncapped_one(self):
        # the cap stops the search where it stands: each capped stream is the
        # uncapped one cut at the backtrack that crossed the cap, and its
        # rounds are the path there, accepted events of that prefix
        def fields(e):
            mask = None if e.mask is None else e.mask.tobytes()
            return (e.level, e.i, e.j, float(e.cost).hex(), mask, e.accepted, e.pruned)

        for name, a, b in _backtracking_rejections():
            *full, uncapped = solver.search(a, b, SolverOptions())
            assert uncapped.outcome == NOT_ISOMORPHIC and uncapped.backtrack_steps > 0, name
            for cap in range(uncapped.backtrack_steps):
                *events, report = solver.search(a, b, SolverOptions(max_backtrack_steps=cap))
                assert (report.outcome, report.backtrack_steps) == (INCONCLUSIVE, cap + 1), (name, cap)
                assert len(events) < len(full), (name, cap)
                assert [fields(e) for e in events] == [fields(e) for e in full[: len(events)]], (name, cap)
                assert [r.level for r in report.rounds] == list(range(len(report.rounds))), (name, cap)
                assert all(any(r is e for e in events if e.accepted) for r in report.rounds), (name, cap)

    def test_cap_zero_still_solves_easy_pairs(self):
        g = cycle(6)
        report = is_isomorphic(g, rotated(g), SolverOptions(max_backtrack_steps=0))
        assert report.outcome == ISOMORPHIC


class TestOptions:
    def test_loose_eps_still_sound_on_isomorphic_pair(self):
        g = paley(13)
        b = apply_permutation(g, random_permutation(13, 6))
        report = is_isomorphic(g, b, SolverOptions(eps=1e-4))
        assert report.outcome == ISOMORPHIC
        assert is_exact_isomorphism(g, b, report.permutation)

    def test_loose_eps_answers_agree_with_the_oracle(self):
        # at eps 1, far above rounding, masks offer pinned B-vertices and
        # pins end on masks with no row to pin; no answer may be wrong, only
        # inconclusive
        opts = SolverOptions(eps=1.0, max_backtrack_steps=10)
        outcomes = []
        for seed in range(120):
            rng = np.random.default_rng(seed)
            n = 3 + seed % 5
            a = random_gnp(n, seed)
            if seed % 2:
                b = apply_permutation(a, random_permutation(n, seed))
            else:  # as many edges as a, placed anew
                pairs = np.transpose(np.triu_indices(n, 1))
                chosen = pairs[rng.permutation(len(pairs))[: int(a.adj.sum()) // 2]]
                adj = np.zeros((n, n))
                adj[chosen[:, 0], chosen[:, 1]] = adj[chosen[:, 1], chosen[:, 0]] = 1
                b = Graph(adj)
            report = is_isomorphic(a, b, opts)
            outcomes.append(report.outcome)
            if report.outcome == ISOMORPHIC:
                assert is_exact_isomorphism(a, b, report.permutation), seed
            elif report.outcome == NOT_ISOMORPHIC:
                assert brute_force_isomorphism(a, b) is None, seed
        assert {ISOMORPHIC, NOT_ISOMORPHIC} <= set(outcomes)


class TestSearchEvents:
    """solver.search: the event stream behind is_isomorphic and check."""

    @staticmethod
    def _fields(report):
        fields = dict(vars(report))
        perm = fields.pop("permutation")
        fields["permutation"] = None if perm is None else perm.map.tolist()
        # rounds hold numpy masks, which == cannot compare inside a tuple
        fields["rounds"] = [
            (r.level, r.i, r.j, float(r.cost).hex(), r.mask.tolist()) for r in report.rounds
        ]
        return fields

    def test_last_item_is_the_report(self, monkeypatch):
        # only the root decides a cost matrix, so lap_solves is 1 where its
        # event has a mask; each inner search runs its own levels
        created = []

        class Counted(solver._Levels):
            def __init__(self, *args):
                created.append(args[-1])  # the backtrack cap
                super().__init__(*args)

        monkeypatch.setattr(solver, "_Levels", Counted)
        inner = 0
        for name, a, b in _pairs_for_equivalence():
            created.clear()
            *events, last = solver.search(a, b, SolverOptions())
            built = created[:]
            report = is_isomorphic(a, b)
            assert self._fields(last) == self._fields(report), name
            assert events[0].level is events[0].i is events[0].j is None, name
            assert all(isinstance(e, solver.SearchEvent) for e in events), name
            assert all(e.level is not None for e in events[1:]), name
            assert report.lap_solves == int(events[0].mask is not None) == 1, name
            if built:  # the outer levels first, then one per inner search
                assert len(built) - 1 == report.inner_searches, name
            inner += report.inner_searches
        assert inner > 0

    def test_decompositions_add_up_from_the_events(self, monkeypatch):
        # each solve decomposes its two inputs at the root and nothing else,
        # whatever its pins, refutations and inner searches
        g = cfi(K33_EDGES)
        twist = apply_permutation(cfi(K33_EDGES, twist=True), random_permutation(g.n, 1))
        decomposed = []
        decompose = solver.eigendecompose

        def counted(x):
            decomposed.append(x)
            return decompose(x)

        monkeypatch.setattr(solver, "eigendecompose", counted)
        inner = 0
        for name, a, b in _pairs_for_equivalence() + [("cfi(K3,3) twist", g, twist)]:
            decomposed.clear()
            *events, report = solver.search(a, b, SolverOptions())
            assert decomposed == [a, b], name
            assert report.decompositions == 2, name
            inner += report.inner_searches
        assert inner > 0

    def test_rounds_are_the_accepted_events(self):
        # a round is the event its level accepted, one per level still on
        # the stack, and a rejection leaves no level, so no round
        cases = _pairs_for_equivalence() + [
            ("size", cycle(5), cycle(6)),
            ("spectrum", cycle(6), path(6)),
        ]
        outcomes, rounds = set(), 0
        for name, a, b in cases:
            *events, report = solver.search(a, b, SolverOptions())
            outcomes.add(report.outcome)
            rounds += len(report.rounds)
            accepted = [e for e in events if e.level is not None and e.accepted]
            assert [r.level for r in report.rounds] == list(range(len(report.rounds))), name
            assert all(any(r is e for e in accepted) for r in report.rounds), name
            if report.outcome == NOT_ISOMORPHIC:
                assert report.rounds == [], name
        assert outcomes == {ISOMORPHIC, NOT_ISOMORPHIC} and rounds > 0


class TestCounters:
    def test_round_indices_are_consecutive(self):
        # without backtracking, level k accepts one pin, which is round k
        g = triangular(6)
        b = apply_permutation(g, random_permutation(g.n, 9))
        *events, report = solver.search(g, b, SolverOptions())
        assert report.outcome == ISOMORPHIC
        assert len(report.rounds) > 1
        accepted = [e for e in events[1:] if e.accepted]
        assert [e.level for e in accepted] == list(range(len(report.rounds)))
        assert [(e.i, e.j) for e in accepted] == [(r.i, r.j) for r in report.rounds]
        assert len({r.i for r in report.rounds}) == len(report.rounds)

    def test_budgets_on_backtrack_free_runs(self):
        cases = [
            (cycle(6), rotated(cycle(6))),
            (paley(13), apply_permutation(paley(13), random_permutation(13, 1))),
            (random_gnp(10, 4), apply_permutation(random_gnp(10, 4), random_permutation(10, 5))),
        ]
        for g, b in cases:
            n = g.n
            report = is_isomorphic(g, b)
            assert report.outcome == ISOMORPHIC
            assert report.backtrack_steps == 0
            assert report.decompositions <= 2 * n * n + 2
            assert report.lap_solves <= n * (n + 1) // 2 + 1

    def test_soundness_asserted_before_return(self):
        # any isomorphic outcome must ship a working permutation
        for seed in range(6):
            g = random_gnp(9, seed)
            b = apply_permutation(g, random_permutation(9, 60 + seed))
            report = is_isomorphic(g, b)
            assert report.outcome == ISOMORPHIC
            assert is_exact_isomorphism(g, b, report.permutation)
