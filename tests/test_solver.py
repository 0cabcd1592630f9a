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
    dense_norm_bound,
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
                [(r.i, r.j, r.zero_count) for r in report.rounds],
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
                [(r.i, r.j, r.zero_count) for r in report.rounds],
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
    the fewest unpinned B-vertices, at least two, else the lowest free row."""
    pinned_a = {i for i, *_ in rounds}
    pinned_b = {j for _, j, *_ in rounds}
    free = [i for i in range(mask.shape[0]) if i not in pinned_a]
    sizes = {i: sum(mask[i, j] for j in range(mask.shape[1]) if j not in pinned_b) for i in free}
    open_rows = [i for i in free if sizes[i] >= 2]
    return min(open_rows, key=lambda i: (sizes[i], i)) if open_rows else free[0]


def _scan_all_search(a, b, eps=1e-6):
    """The search without mask-guided lists or pruning, with its own matching
    test, as a reference.

    Level L pins the A-vertex that :func:`_fail_first` picks from the last
    accepted mask and tries every B-vertex not yet pinned.  A pair passes
    when its sub-eps mask holds a perfect matching, as a Hungarian solve on the
    mask's complement finds, and every cost is the Hungarian optimum of its
    cost matrix or a spectral distance.  Each accepted pair verifies the
    assignment that solver._decide proposes, as the search does, and the
    first that holds ends the search.  Returns the report's fields, its
    (cost, accepted) pairs (the root's, then the rounds'), and its
    operation counts.
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

    def descend(level, a_prev, b_prev, mask):
        i = _fail_first(mask, rounds)
        a_pinned = perturb(a_prev, i, level + 1.0)
        da = eigendecompose(a_pinned)
        counts["dec"] += 1
        for j in range(n):
            if any(r[1] == j for r in rounds):
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
            if level + 1 < n:
                found = descend(level + 1, a_pinned, b_pinned, c < eps)
                if found is not None:
                    return found
            else:
                images = [0] * n
                for x, y, *_ in rounds:
                    images[x] = y
                if is_exact_isomorphism(a, b, Permutation(images)):
                    return Permutation(images)
            counts["bt"] += 1
            rounds.pop()
        return None

    if proposed is None:
        return result(NOT_ISOMORPHIC, spectral=spectral)
    if is_exact_isomorphism(a, b, proposed):
        return result(ISOMORPHIC, proposed)
    found = descend(0, a, b, root_mask)
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
                [(r.i, r.j, r.zero_count) for r in report.rounds],
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
                    checked += 1
        assert checked > 0 and offered == 0

    def test_accepted_event_cost_bounds_round_cost(self, monkeypatch, search_spy):
        # an accepted pin's event and round carry the accepted assignment's
        # cost: an upper bound of its cost matrix's optimum, the optimum
        # itself when the sub-eps mask has one perfect matching
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
                assert (last[level].i, last[level].j, last[level].cost) == (r.i, r.j, r.cost), name
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
        assert report.rounds[-1].zero_count == 6  # single permutation pattern
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
        # the third pin's sub-eps assignment holds, while its mask still
        # holds more than one permutation; the third level pins A-vertex 3,
        # whose row offers the fewest candidates
        g = paley(13)
        b = apply_permutation(g, random_permutation(13, 77))
        report = is_isomorphic(g, b)
        assert report.outcome == ISOMORPHIC
        assert is_exact_isomorphism(g, b, report.permutation)
        assert [r.i for r in report.rounds] == [0, 1, 3]
        assert report.rounds[-1].zero_count > 13
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


class TestSearchEvents:
    """solver.search: the event stream behind is_isomorphic and dump-cost."""

    @staticmethod
    def _fields(report):
        fields = dict(vars(report))
        perm = fields.pop("permutation")
        fields["permutation"] = None if perm is None else perm.map.tolist()
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
