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
    SearchSpy,
    arc_consistency_reference,
    chang_4k2,
    dense_norm_bound,
    disjoint_edges,
    eigen_groups,
    lap_brute_force,
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


@pytest.fixture
def search_spy(monkeypatch):
    """solver.search, recording every call (see helpers.SearchSpy)."""
    spy = SearchSpy(solver.search)
    monkeypatch.setattr(solver, "search", spy)
    return spy


def _lines_full(mask):
    return mask.any(axis=0).all() and mask.any(axis=1).all()


def _has_matching(mask):
    """Whether a boolean mask holds a perfect matching, by the Hungarian."""
    return solve_lap((~mask).astype(float)).cost == 0


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

        def hungarian_only(c, eps):
            lap = solve_lap(c)
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
        exits_differ = 0
        for (name, a, b), (got_events, got), (want_events, want) in zip(
            pairs, mask_first, reference
        ):
            assert got.outcome == want.outcome and got.reason == want.reason, name
            if got.outcome != ISOMORPHIC:
                assert summary(got) == summary(want), name
                assert list(map(fields, got_events)) == list(map(fields, want_events)), name
                # An inner search for an automorphism of B ends at its first
                # verified assignment too, so only its outcome must agree.
                if not got.inner_searches:
                    assert got.decompositions == want.decompositions, name
                    assert got.lap_solves == want.lap_solves, name
                _assert_costs_by_contract(got, _costs(want), self.EPS, name)
                continue
            # The Hungarian's optimum can be another sub-eps assignment than
            # the mask's matching and hold at another pin.  Both searches
            # walk one tree, so one event stream is a prefix of the other.
            assert is_exact_isomorphism(a, b, got.permutation), name
            assert is_exact_isomorphism(a, b, want.permutation), name
            for g, w in zip(got_events, want_events):
                assert fields(g) == fields(w), name
                if w.accepted:
                    assert w.cost <= g.cost, name
                else:
                    assert self.EPS <= g.cost <= w.cost, name
            exits_differ += len(got_events) != len(want_events)
        assert exits_differ > 0
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


def _forced_map(mask, rounds):
    """The one map left when no free row offers two unpinned B-vertices: each
    pinned row to its pin, each free row to its unpinned entry; None unless
    that is a bijection."""
    images = {i: j for i, j, *_ in rounds}
    pinned_b = set(images.values())
    for x in range(mask.shape[0]):
        if x not in images:
            images[x] = next((j for j in np.flatnonzero(mask[x]) if j not in pinned_b), -1)
    values = [images[x] for x in range(mask.shape[0])]
    return Permutation(values) if sorted(values) == list(range(len(values))) else None


def _scan_all_search(a, b, eps=1e-6):
    """The search without mask-guided lists or pruning, with its own matching
    test, as a reference.

    Level L pins the A-vertex that :func:`_fail_first` picks from its
    parent mask and tries every B-vertex not yet pinned.  A pin is first
    refined on the parent mask by :func:`arc_consistency_reference`, and
    one that leaves a line empty is refuted with no decomposition.  A pair
    passes when its sub-eps mask holds a perfect matching, as a Hungarian
    solve on the mask's complement finds, and every cost is the Hungarian
    optimum of its cost matrix or a spectral distance.  Each accepted pair
    verifies the assignment that solver._decide proposes, as the search
    does, and the first that holds ends the search.  The next level's
    parent mask is the sub-eps mask cut to the fixpoint; a line empty there
    refutes the pin, and where no level follows, the :func:`_forced_map` is
    checked too, and a pin whose map fails is a dead end.  Returns the
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
        root_cost, root_mask = solve_lap(c).cost, c < eps
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
            counts["lap"] += 1
            if not _has_matching(c < eps):
                continue
            rounds.append((i, j, solve_lap(c).cost, int((c < eps).sum())))
            perm = solver._decide(c, eps)[1]
            if is_exact_isomorphism(a, b, perm):
                return perm
            consistent &= c < eps
            child = _fail_first(consistent, rounds) if _lines_full(consistent) else None
            if child is not None:
                found = descend(level + 1, a_pinned, b_pinned, consistent, child)
                if found is not None:
                    return found
            elif _lines_full(consistent):
                forced = _forced_map(consistent, rounds)
                if forced is not None and is_exact_isomorphism(a, b, forced):
                    return forced
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
        for name, a, b in _pairs_for_equivalence():
            report = is_isomorphic(a, b)
            assert not hungarian_runs, name
            got = (
                report.outcome,
                None if report.permutation is None else list(report.permutation.map),
                [(r.i, r.j, int(r.mask.sum())) for r in report.rounds],
                report.backtrack_steps,
                report.spectral_rejection,
                report.heuristic_rejection,
            )
            want, costs, counts = _scan_all_search(a, b)
            if report.pruned:
                # Skipping symmetric copies of exhausted subtrees keeps the
                # answer and saves backtracks.
                assert got[:3] + got[4:] == want[:3] + want[4:], name
                assert got[3] < want[3], name
            else:
                assert got == want, name
            _assert_costs_by_contract(report, costs, 1e-6, name)
            assert report.decompositions <= counts["dec"], name
            assert report.lap_solves <= counts["lap"], name
            if name == "srg_fixture":
                assert report.backtrack_steps > 0 and report.pruned > 0
                assert report.decompositions < counts["dec"]

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
                    # that forces the map forces the matching it holds
                    assert all(np.flatnonzero(e.mask[i]).tolist() == [j] for i, j in pins), name
                    checked += 1
        assert checked > 0 and offered == 0

    def test_accepted_event_cost_bounds_round_cost(self, monkeypatch, search_spy):
        # an accepted pin's event, which is its round, carries the accepted
        # assignment's cost: an upper bound of its cost matrix's optimum,
        # the optimum itself when the sub-eps mask has one perfect matching
        eps = 1e-6
        decided = []  # (searches running, cost matrix)
        decide = solver._decide

        def recorded(c, eps):
            decided.append((search_spy.active, c))
            return decide(c, eps)

        monkeypatch.setattr(solver, "_decide", recorded)
        strict = 0
        for name, a, b in _pairs_for_equivalence():
            decided.clear()
            *events, report = solver.search(a, b, SolverOptions())
            outer = [c for active, c in decided if active == 1]  # not an inner search's
            with_mask = [e for e in events if e.mask is not None]
            assert len(with_mask) == len(outer), name
            last = {}  # level -> its last accepted event
            for e, c in zip(with_mask, outer):
                if e.level is None or not e.accepted:
                    continue
                optimum = solve_lap(c).cost
                assert optimum <= e.cost < eps, name
                if is_unique_zero_assignment(e.mask):
                    assert e.cost == optimum, name
                strict += optimum < e.cost
                last[e.level] = e
            for level, r in enumerate(report.rounds):
                assert r is last[level], name
        assert strict > 0


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
        # the second pin's sub-eps assignment holds, while its mask still
        # holds more than one permutation; the second level pins A-vertex 1,
        # whose row of the refined mask offers the fewest candidates
        g = paley(13)
        b = apply_permutation(g, random_permutation(13, 77))
        report = is_isomorphic(g, b)
        assert report.outcome == ISOMORPHIC
        assert is_exact_isomorphism(g, b, report.permutation)
        assert [r.i for r in report.rounds] == [0, 1]
        assert report.rounds[-1].mask.sum() > 13
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
        # one a level, before the mask forces the map
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


class TestForcedMap:
    """A mask in which no free row offers two B-vertices forces the map.

    The first k checks of a relabelled cycle(6) answer False, inner searches'
    included.  The root's check is the first, the pins (0, 0) and (1, 2) make
    the next two, and after them every row of the mask offers one B-vertex,
    so the fourth check is of the map that mask forces.
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

    def test_forced_map_that_holds_ends_the_search(self, monkeypatch):
        events, report, calls = self.run(monkeypatch, 3, *self.cycle_pair())
        assert len(calls) == 4
        forced = events[-1].mask.argmax(axis=1)
        forced[[r.i for r in report.rounds]] = [r.j for r in report.rounds]
        assert calls[3] == forced.tolist() == report.permutation.map.tolist()
        assert report.outcome == ISOMORPHIC
        assert [(r.i, r.j) for r in report.rounds] == [(0, 0), (1, 2)]
        assert all(e.level != 2 for e in events)

    def test_forced_map_that_fails_is_a_dead_end(self, monkeypatch):
        g, b = self.cycle_pair()
        events, report, calls = self.run(monkeypatch, 5, g, b)
        # the fourth check, of the map forced below the pin (1, 2), fails: no
        # level follows, one backtrack drops the pin and level 1 scans on
        # (the fifth check is an inner search's, which finds no automorphism)
        assert [(e.level, e.i, e.j) for e in events if e.level is not None] == [
            (0, 0, 0),
            (1, 1, 2),
            (1, 1, 5),
        ]
        assert report.backtrack_steps == 1
        assert report.outcome == ISOMORPHIC
        assert [(r.i, r.j) for r in report.rounds] == [(0, 0), (1, 5)]
        assert is_exact_isomorphism(g, b, report.permutation)

    def test_cap_at_a_failed_forced_map_drops_its_pin(self, monkeypatch):
        g, b = self.cycle_pair()
        events, report, calls = self.run(monkeypatch, 5, g, b, SolverOptions(max_backtrack_steps=0))
        assert len(calls) == 4  # the forced map below (1, 2) was the last check
        assert (report.outcome, report.reason) == (INCONCLUSIVE, "backtrack_cap")
        assert [(r.i, r.j) for r in report.rounds] == [(0, 0)]

    def test_root_mask_with_one_failing_matching_is_exhausted(self, monkeypatch):
        # a simple spectrum leaves one B-vertex in every row of the root's mask
        g = random_gnp(12, 1)
        events, report, calls = self.run(monkeypatch, 1, g, apply_permutation(g, random_permutation(12, 3)))
        assert events[0].mask.sum(axis=1).max() == 1
        assert len(events) == len(calls) == 1
        assert (report.outcome, report.reason) == (NOT_ISOMORPHIC, "exhaustion")
        assert (report.decompositions, report.backtrack_steps) == (2, 0)

    def test_loose_eps_never_pins_a_b_vertex_twice(self, search_spy):
        # at eps = 2 a pin's loop no longer sets its B-vertex apart, so the
        # sub-eps masks offer it again; the parent mask a pin is refined on
        # has the pinned columns cleared, so no stream, an inner search's
        # included, pins one B-vertex at two levels at once
        g = path(3)
        b = apply_permutation(g, random_permutation(3, 0))
        report = is_isomorphic(g, b, SolverOptions(eps=2.0))
        assert any(
            e.mask[:, e.j].sum() > 1
            for *_, items in search_spy.calls
            for e in items[:-1]
            if e.level is not None and e.accepted
        )
        pinned = 0
        for *_, items in search_spy.calls:
            pins = []
            for e in items[:-1]:
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

    def test_srg_fixture_refutes_pins_undecomposed(self, monkeypatch, search_spy):
        # under the level-0 pin (0, 0) of the rook's graph, every candidate
        # of Shrikhande's is refuted: read lazily, the outer stream
        # decomposes no B between the event before a refuted pin and the
        # refuted pin's own event
        a, b = srg_fixture()
        off = ~np.eye(b.n, dtype=bool)
        outer = []  # the B-side graphs the outer search decomposes
        decompose = solver.eigendecompose

        def counted(g):
            if search_spy.active == 0 and np.array_equal(g.adj[off], b.adj[off]):
                outer.append(g)
            return decompose(g)

        monkeypatch.setattr(solver, "eigendecompose", counted)
        refuted = before = 0
        for e in search_spy.search(a, b, SolverOptions()):
            if isinstance(e, solver.SearchEvent) and e.level == 1:
                assert (e.cost, e.mask, e.accepted, e.pruned) == (np.inf, None, False, False)
                assert len(outer) == before
                refuted += 1
            before = len(outer)
        assert e.outcome == NOT_ISOMORPHIC and refuted > 0

    def test_report_counts_the_refuted_pins(self, search_spy):
        # consistency_rejects counts the refuted events (cost inf, mask None,
        # not pruned) of every stream, an inner search's included
        inner = 0
        for name, a, b in _backtracking_rejections():
            search_spy.calls.clear()
            report = is_isomorphic(a, b)
            refuted = [
                (depth, sum(e.cost == np.inf and e.mask is None and not e.pruned for e in items[:-1]))
                for depth, *_, items in search_spy.calls
            ]
            assert report.consistency_rejects == sum(k for _, k in refuted) > 0, name
            inner += sum(k for depth, k in refuted if depth > 0)
        assert inner > 0


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
        assert report.root_cost > 1e-6
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

    def test_kept_automorphisms_fix_the_pins(self, search_spy):
        # an inner search runs from B pinned at j0 to B pinned at j; the
        # permutation it verifies maps B, pins included, onto itself and j0 to j
        kept = 0
        pairs = [srg_fixture(), (cfi(K4_EDGES), cfi(K4_EDGES, twist=True))]
        for a, b in pairs:
            search_spy.calls.clear()
            report = is_isomorphic(a, b)
            assert report.outcome == NOT_ISOMORPHIC and report.pruned > 0
            for depth, x, y, items in search_spy.calls:
                if depth == 0 or items[-1].outcome != ISOMORPHIC:
                    continue
                sigma = items[-1].permutation.map
                loops = np.diag(x.adj) - np.diag(y.adj)
                j0, j = int(loops.argmax()), int(loops.argmin())
                pinned_b = x.adj.copy()
                pinned_b[j0, j0] -= loops[j0]
                assert np.array_equal(pinned_b[np.ix_(sigma, sigma)], pinned_b)
                assert sigma[j0] == j
                pins = np.flatnonzero(np.diag(pinned_b))
                assert np.array_equal(sigma[pins], pins)
                kept += 1
        assert kept > 0

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
        # levels end on forced maps; no answer may be wrong, only inconclusive
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

    def test_last_item_is_the_report(self, search_spy):
        inner = 0
        for name, a, b in _pairs_for_equivalence():
            search_spy.calls.clear()
            *events, last = solver.search(a, b, SolverOptions())
            calls = search_spy.calls[:]
            report = is_isomorphic(a, b)
            assert self._fields(last) == self._fields(report), name
            assert events[0].level is events[0].i is events[0].j is None, name
            assert all(isinstance(e, solver.SearchEvent) for e in events), name
            # every cost matrix decided, an inner search's too, is a mask
            # event of one stream
            streams = [items[:-1] for *_, items in calls]
            assert sum(e.mask is not None for s in streams for e in s) == report.lap_solves, name
            assert len(calls) - 1 == report.inner_searches, name
            inner += report.inner_searches
        assert inner > 0

    def test_decompositions_add_up_from_the_events(self, search_spy):
        # each stream decomposes both inputs at its root, B once per pin it
        # evaluates, and A once per new frame, whose first event is the
        # first one at a level above its predecessor's (the root's is -1);
        # a pruned or refuted pin has an infinite cost and no decomposition
        g = cfi(K33_EDGES)
        twist = apply_permutation(cfi(K33_EDGES, twist=True), random_permutation(g.n, 1))
        inner = 0
        for name, a, b in _pairs_for_equivalence() + [("cfi(K3,3) twist", g, twist)]:
            search_spy.calls.clear()
            report = is_isomorphic(a, b)
            total = 0
            for *_, items in search_spy.calls:
                levels = [-1 if e.level is None else e.level for e in items[:-1]]
                total += 2 + sum(e.level is not None and e.cost < np.inf for e in items[:-1])
                total += sum(hi > lo for lo, hi in zip(levels, levels[1:]))
            assert total == report.decompositions, name
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
