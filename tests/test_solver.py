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
    find_permutation,
    group_eigenvalues,
    is_exact_isomorphism,
    is_isomorphic,
    perturb,
    projection,
    random_permutation,
    solve_lap,
    spectral_distance,
    srg_fixture,
)
from eigeniso import solver
from eigeniso.generators import (
    complete,
    cycle,
    lattice,
    paley,
    path,
    random_gnp,
    star,
    triangular,
)
from eigeniso.assignment import perfect_matching
from eigeniso.solver import _evaluate, sorted_row_distance
from eigeniso.spectral import SpectralDecomposition
from helpers import eigen_groups, lap_brute_force


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
        assert np.array_equal(build_cost_matrix(da, db, 1e-6), want)


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
                if [g.length for g in eigen_groups(da)] != [g.length for g in eigen_groups(db)]:
                    continue
                ref = build_cost_matrix(da, db)
                fil = build_cost_matrix(da, db, self.EPS)
                assert np.array_equal(fil < self.EPS, ref < self.EPS), (name, pins, j)
                assert np.all(fil <= ref), (name, pins, j)

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


class TestMaskFirstDecision:
    """solver._decide, which reads the sub-eps mask first, against solve_lap."""

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

    def test_agrees_with_hungarian(self, monkeypatch):
        eps = self.EPS
        hungarian_runs = []

        def counted_solve_lap(c, eps=None):
            hungarian_runs.append(1)
            return solve_lap(c, eps)

        monkeypatch.setattr(solver, "solve_lap", counted_solve_lap)
        diagonal = np.full((3, 3), 10.0)
        np.fill_diagonal(diagonal, 0.4 * eps)
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
        seen = dict.fromkeys(
            ["empty_line", "permutation", "matching", "no_matching", "expensive_matching"], 0
        )
        for kind, c in cases:
            hungarian_runs.clear()
            cost, lap, mask = solver._decide(c, eps)
            ref = solve_lap(c, eps)
            rows = np.arange(c.shape[0])
            assert np.array_equal(mask, c < eps)
            assert (cost < eps) == (ref.cost < eps), kind
            lines_full = mask.any(axis=0).all() and mask.any(axis=1).all()
            match = perfect_matching(mask) if lines_full else None
            if not lines_full:
                branch = "empty_line"
            elif mask.sum() == c.shape[0]:
                branch = "permutation"
            elif match is None:
                branch = "no_matching"
            elif sum(c[rows, match].tolist()) >= eps:  # in row order
                branch = "expensive_matching"
            else:
                branch = "matching"
            seen[branch] += 1
            # the Hungarian runs only where no step before it decides
            assert bool(hungarian_runs) == branch.endswith("_matching"), kind
            if lap is None:  # an empty line: the cost is a bound
                assert branch == "empty_line", kind
                if not mask.any(axis=1).all():
                    assert eps <= cost <= ref.cost, kind
                else:  # a column sum may round a last bit above the optimum
                    assert eps <= cost <= ref.cost * (1 + 1e-15), kind
                continue
            assert cost == lap.cost, kind
            if cost < eps:  # the accepted sub-eps assignment
                assert mask[rows, lap.assignment.map].all(), kind
                assert ref.cost <= cost and lap.unique == ref.unique, kind
            if cost >= eps or lap.unique:  # the optimum itself
                assert cost == ref.cost, kind
                assert list(lap.assignment.map) == list(ref.assignment.map), kind
        assert min(seen.values()) > 20, seen

    def test_search_reports_unchanged(self, monkeypatch):
        def summary(report):
            return (
                report.outcome,
                report.decompositions,
                report.lap_solves,
                report.backtrack_steps,
                [(r.i, r.j, r.zero_count) for r in report.rounds],
                None if report.permutation is None else list(report.permutation.map),
                report.spectral_rejection,
                report.heuristic_rejection,
            )

        def hungarian_only(c, eps):
            lap = solve_lap(c, eps)
            return lap.cost, lap, c < eps

        pairs = _pairs_for_equivalence()
        mask_first = [is_isomorphic(a, b) for _, a, b in pairs]
        monkeypatch.setattr(solver, "_decide", hungarian_only)
        reference = [is_isomorphic(a, b) for _, a, b in pairs]
        for (name, _, _), got, want in zip(pairs, mask_first, reference):
            assert summary(got) == summary(want), name
            _assert_costs_by_contract(got, _costs(want), self.EPS, name)
        assert any(want.root_cost >= self.EPS for want in reference)


def _costs(report):
    """The root's cost, then the rounds'."""
    return [report.root_cost] + [r.cost for r in report.rounds]


def _assert_costs_by_contract(report, reference, eps, name):
    """A report's costs against those of a search that runs the Hungarian.

    A cost of at least eps is the reference's optimum or a lower bound of
    it; a cost below eps is an accepted sub-eps assignment's, no lower than
    the optimum.
    """
    for got, want in zip(_costs(report), reference, strict=True):
        if want >= eps:
            assert eps <= got <= want, name
        else:
            assert want <= got < eps, name


def _scan_all_search(a, b, early, eps=1e-6):
    """The search without mask-guided lists or matching tests, as a reference.

    Level L tries every B-vertex not yet pinned, and the Hungarian solve
    decides every pair, so every cost is an optimum or a spectral distance.
    Returns the report's fields, its costs (the root's, then the rounds'),
    and its operation counts.
    """
    n = a.n
    counts = {"dec": 2, "lap": 0, "bt": 0}
    rounds = []
    da, db = eigendecompose(a), eigendecompose(b)
    root_cost, lap = spectral_distance(da, db), None
    if root_cost <= eps:
        lap = solve_lap(build_cost_matrix(da, db, eps), eps)
        root_cost = lap.cost
        counts["lap"] += 1

    def result(outcome, perm=None, spectral=False, heuristic=False):
        fields = (
            outcome,
            None if perm is None else list(perm.map),
            [(i, j, zeros) for i, j, _, zeros in rounds],
            counts["bt"],
            spectral,
            heuristic,
        )
        return fields, [root_cost] + [cost for _, _, cost, _ in rounds], counts

    def descend(level, a_prev, b_prev):
        a_pinned = perturb(a_prev, level, level + 1.0)
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
            lap = solve_lap(c, eps)
            if lap.cost >= eps:
                continue
            rounds.append((level, j, lap.cost, int((c < eps).sum())))
            if early and lap.unique and is_exact_isomorphism(a, b, lap.assignment):
                return lap.assignment
            if level + 1 < n:
                found = descend(level + 1, a_pinned, b_pinned)
                if found is not None:
                    return found
            else:
                witness = Permutation([r[1] for r in rounds])
                if is_exact_isomorphism(a, b, witness):
                    return witness
            counts["bt"] += 1
            rounds.pop()
        return None

    if root_cost > eps:
        return result(NOT_ISOMORPHIC, spectral=lap is None)
    if early and lap is not None and lap.unique and is_exact_isomorphism(a, b, lap.assignment):
        return result(ISOMORPHIC, lap.assignment)
    found = descend(0, a, b)
    if found is None:
        return result(NOT_ISOMORPHIC, heuristic=True)
    return result(ISOMORPHIC, found)


class TestMaskGuidedSearch:
    """Mask-guided candidate lists and the matching test below the root."""

    @pytest.mark.parametrize("early", [True, False])
    def test_reports_match_scan_all_reference(self, monkeypatch, early):
        hungarian_runs = []

        def counted_solve_lap(c, eps=None):
            hungarian_runs.append(1)
            return solve_lap(c, eps)

        monkeypatch.setattr(solver, "solve_lap", counted_solve_lap)
        for name, a, b in _pairs_for_equivalence():
            hungarian_runs.clear()
            report = is_isomorphic(a, b, SolverOptions(unique_early_exit=early))
            hungarian_count = len(hungarian_runs)
            got = (
                report.outcome,
                None if report.permutation is None else list(report.permutation.map),
                [(r.i, r.j, r.zero_count) for r in report.rounds],
                report.backtrack_steps,
                report.spectral_rejection,
                report.heuristic_rejection,
            )
            want, costs, counts = _scan_all_search(a, b, early)
            assert got == want, name
            _assert_costs_by_contract(report, costs, 1e-6, name)
            assert report.decompositions <= counts["dec"], name
            assert report.lap_solves <= counts["lap"], name
            if name == "srg_fixture":
                assert report.backtrack_steps > 0
                assert report.decompositions < counts["dec"]
                assert hungarian_count == 0

    def test_pinned_decision_agrees_with_hungarian(self, monkeypatch):
        # below the root a pin's cost matrix is decided by solver._decide too:
        # a sub-eps matching in the mask is taken without the Hungarian
        eps = 1e-6
        hungarian_runs = []

        def counted_solve_lap(c, eps=None):
            hungarian_runs.append(1)
            return solve_lap(c, eps)

        monkeypatch.setattr(solver, "solve_lap", counted_solve_lap)
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
            hungarian_runs.clear()
            cost, lap, mask = solver._decide(c, eps)
            ran = len(hungarian_runs)
            ref = solve_lap(c, eps)
            assert np.array_equal(mask, c < eps)
            assert (cost < eps) == (ref.cost < eps), (kind, t)
            if cost < eps:
                assert ref.cost <= cost and lap.unique == ref.unique, (kind, t)
                assert mask[rows, lap.assignment.map].all(), (kind, t)
                if lap.unique:
                    assert cost == ref.cost, (kind, t)
                    assert list(lap.assignment.map) == list(ref.assignment.map)
                if mask.sum() > n:  # not a bare permutation mask
                    seen["matching"] += ran == 0
            elif lap is not None:  # a permutation mask's or the Hungarian's optimum
                assert ran == (mask.sum() > n) and cost == ref.cost, (kind, t)
                assert list(lap.assignment.map) == list(ref.assignment.map)
            if ran and mask.any(axis=0).all() and mask.any(axis=1).all():
                seen["no_matching" if ref.cost >= eps else "expensive_matching"] += 1
        assert min(seen.values()) > 20, seen

    def test_masks_never_offer_a_pinned_vertex(self):
        # a pinned B-vertex carries a loop of weight at least 1 and an
        # unpinned A-vertex none, which no sub-eps entry matches on 0/1 input
        offered = checked = 0
        for name, a, b in _pairs_for_equivalence():
            pins = []  # the pinned B-vertices, by level
            for e in solver.search(a, b, SolverOptions(unique_early_exit=False)):
                if isinstance(e, solver.SearchEvent) and e.i is not None and e.accepted:
                    pins[e.i :] = [e.j]
                    offered += int(e.mask[e.i + 1 :, pins].sum())
                    checked += 1
        assert checked > 0 and offered == 0

    def test_accepted_event_cost_bounds_round_cost(self, monkeypatch):
        # an accepted pin's event and round carry the accepted assignment's
        # cost: the optimum of its cost matrix when unique, else a bound of it
        eps = 1e-6
        decided = []
        decide = solver._decide

        def recorded(c, eps):
            out = decide(c, eps)
            decided.append((c, out[1]))
            return out

        monkeypatch.setattr(solver, "_decide", recorded)
        strict = 0
        for name, a, b in _pairs_for_equivalence():
            decided.clear()
            *events, report = solver.search(a, b, SolverOptions(unique_early_exit=False))
            with_mask = [e for e in events if e.mask is not None]
            assert len(with_mask) == len(decided), name
            last = {}  # level -> its last accepted event
            for e, (c, lap) in zip(with_mask, decided):
                if e.i is None or not e.accepted:
                    continue
                optimum = solve_lap(c).cost
                assert optimum <= e.cost < eps, name
                if lap.unique:
                    assert e.cost == optimum, name
                strict += optimum < e.cost
                last[e.i] = e
            for r in report.rounds:
                assert (last[r.i].j, last[r.i].cost) == (r.j, r.cost), name
        assert strict > 0


class TestFindPermutation:
    def test_spectral_quick_reject(self):
        e, lap = find_permutation(complete(3), path(3))
        assert e > 1e-6
        assert lap is None

    def test_isomorphic_pair_passes(self):
        e, lap = find_permutation(cycle(6), rotated(cycle(6)))
        assert e < 1e-6
        assert lap is not None

    def test_paley_root_cost_matrix_all_zero(self):
        g = paley(17)
        b = apply_permutation(g, random_permutation(17, 5))
        c = build_cost_matrix(eigendecompose(g), eigendecompose(b))
        assert np.max(c) < 1e-6
        e, lap = find_permutation(g, b)
        assert e < 1e-6 and lap is not None

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            find_permutation(cycle(5), cycle(6))


class TestIsIsomorphicAccepts:
    def test_cycle_rotation_two_rounds(self):
        g = cycle(6)
        b = rotated(g)
        report = is_isomorphic(g, b)
        assert report.outcome == ISOMORPHIC
        assert is_exact_isomorphism(g, b, report.permutation)
        assert [r.i for r in report.rounds] == [0, 1]
        assert report.rounds[-1].zero_count == 6  # single permutation pattern
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
        # a nan eps once rejected a graph against itself by exhaustion, and
        # an infinite one ran a relabeling into the backtrack cap
        g = paley(13)
        for b in (g, apply_permutation(g, random_permutation(13, 1))):
            for eps in (np.nan, np.inf, 0.0, -1e-6):
                with pytest.raises(ValueError, match="positive and finite"):
                    is_isomorphic(g, b, SolverOptions(eps=eps, max_backtrack_steps=100))
                with pytest.raises(ValueError, match="positive and finite"):
                    find_permutation(g, b, eps)


class TestInconclusive:
    def test_backtrack_cap_yields_inconclusive(self):
        a, b = srg_fixture()
        report = is_isomorphic(a, b, SolverOptions(max_backtrack_steps=3))
        assert report.outcome == INCONCLUSIVE
        assert report.permutation is None
        assert report.backtrack_steps == 4  # the step that crossed the cap

    def test_cap_zero_still_solves_easy_pairs(self):
        g = cycle(6)
        report = is_isomorphic(g, rotated(g), SolverOptions(max_backtrack_steps=0))
        assert report.outcome == ISOMORPHIC


class TestOptions:
    def test_early_exit_off_runs_all_rounds(self):
        g = cycle(6)
        b = rotated(g)
        report = is_isomorphic(g, b, SolverOptions(unique_early_exit=False))
        assert report.outcome == ISOMORPHIC
        assert [r.i for r in report.rounds] == list(range(6))
        assert is_exact_isomorphism(g, b, report.permutation)

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

    @pytest.mark.parametrize("early", [True, False])
    def test_last_item_is_the_report(self, early):
        opts = SolverOptions(unique_early_exit=early)
        for name, a, b in _pairs_for_equivalence():
            *events, last = solver.search(a, b, opts)
            report = is_isomorphic(a, b, opts)
            assert self._fields(last) == self._fields(report), name
            assert events[0].i is None and events[0].j is None, name
            assert all(isinstance(e, solver.SearchEvent) for e in events), name
            assert sum(e.mask is not None for e in events) == report.lap_solves, name


class TestCounters:
    def test_round_indices_are_consecutive(self):
        g = triangular(6)
        b = apply_permutation(g, random_permutation(g.n, 9))
        report = is_isomorphic(g, b, SolverOptions(unique_early_exit=False))
        assert report.outcome == ISOMORPHIC
        assert [r.i for r in report.rounds] == list(range(g.n))

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
