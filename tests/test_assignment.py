"""Hungarian LAP solver and zero-structure analysis."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import eigeniso
from eigeniso.assignment import is_unique_zero_assignment, solve_lap
from eigeniso.solver import perfect_matching
from helpers import lap_brute_force, perfect_matchings


class TestSolveLap:
    def test_all_zero_matrix(self):
        sol = solve_lap(np.zeros((4, 4)))
        assert sol.cost == 0.0
        # lowest-column tie-break makes this the identity
        assert list(sol.assignment.map) == [0, 1, 2, 3]

    def test_zero_diagonal_matrix(self):
        c = np.ones((5, 5)) - np.eye(5)
        sol = solve_lap(c)
        assert sol.cost == 0.0
        assert list(sol.assignment.map) == [0, 1, 2, 3, 4]

    def test_three_by_three_known_optimum(self):
        c = np.array([[1.0, 2, 3], [2, 4, 6], [3, 6, 9]])
        sol = solve_lap(c)
        assert sol.cost == 10.0
        assert list(sol.assignment.map) == [2, 1, 0]
        assert sol.cost == lap_brute_force(c)

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            c = rng.random((6, 6))
            sol = solve_lap(c)
            assert abs(sol.cost - lap_brute_force(c)) <= 1e-12
            # reported cost is exactly the row-order sum
            assert sol.cost == sum(c[i, sol.assignment[i]] for i in range(6))

    def test_cost_adds_in_row_order(self):
        # the search's accepted costs add the same way (first row to last)
        rng = np.random.default_rng(19)
        for k in range(500):
            n = int(rng.integers(1, 16))
            c = rng.random((n, n)) * 10.0 ** rng.integers(-9, 3, (n, n))
            if k % 2:  # tied entries: few distinct values
                c = rng.choice([0.0, 0.1, 0.3, 1e-7, 2.5], (n, n))
            sol = solve_lap(c)
            total = 0.0
            for i in range(n):
                total += c[i, sol.assignment[i]]
            assert sol.cost.hex() == total.hex()

    def test_row_constant_shift(self):
        rng = np.random.default_rng(9)
        c = rng.random((7, 7))
        base = solve_lap(c)
        shifted = c.copy()
        shifted[3] += 2.5
        sol = solve_lap(shifted)
        assert abs(sol.cost - (base.cost + 2.5)) <= 1e-12
        # the shifted optimum is still optimal for the original costs
        original_cost = sum(c[i, sol.assignment[i]] for i in range(7))
        assert abs(original_cost - base.cost) <= 1e-12

    def test_zero_cost_matching_found(self):
        rng = np.random.default_rng(10)
        for seed in range(20):
            perm = np.random.default_rng(seed).permutation(6)
            c = rng.random((6, 6)) + 1.0
            c[np.arange(6), perm] = 0.0
            sol = solve_lap(c)
            assert sol.cost < 1e-6
            assert list(sol.assignment.map) == list(perm)
            assert is_unique_zero_assignment(c < 1e-6)

    def test_rejects_non_finite_and_non_square(self):
        with pytest.raises(ValueError):
            solve_lap(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            solve_lap(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            solve_lap(np.ones((2, 3)))



class TestUniqueZeroAssignment:
    def test_permutation_pattern_is_unique(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[[0, 1, 2, 3], [2, 0, 3, 1]] = True
        assert is_unique_zero_assignment(mask)

    def test_all_true_is_not_unique(self):
        assert not is_unique_zero_assignment(np.ones((3, 3), dtype=bool))

    def test_single_cell(self):
        assert is_unique_zero_assignment(np.ones((1, 1), dtype=bool))

    def test_two_disjoint_ambiguous_blocks(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[0, 1] = mask[1, 0] = mask[1, 1] = True
        mask[2, 2] = mask[2, 3] = mask[3, 2] = mask[3, 3] = True
        assert perfect_matchings(mask) == 4
        assert not is_unique_zero_assignment(mask)

    def test_elimination_chain(self):
        # upper-triangular mask: forced column by column
        mask = np.triu(np.ones((5, 5), dtype=bool))
        assert perfect_matchings(mask) == 1
        assert is_unique_zero_assignment(mask)

    def test_never_claims_uniqueness_falsely(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            mask = rng.random((4, 4)) < 0.5
            if perfect_matchings(mask) != 1 and is_unique_zero_assignment(mask):
                raise AssertionError(f"false uniqueness claim for\n{mask}")

    def test_agrees_with_matching_count(self):
        # any second perfect matching differs from the first in some pair,
        # so removing each matched pair in turn decides uniqueness exactly
        rng = np.random.default_rng(12)
        for _ in range(400):
            n = int(rng.integers(1, 7))
            mask = rng.random((n, n)) < rng.uniform(0.1, 0.7)
            assert is_unique_zero_assignment(mask) == (perfect_matchings(mask) == 1), mask

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_unique_zero_assignment(np.ones((2, 3), dtype=bool))

    def test_masks_of_small_cost_matrices(self):
        def unique(c, eps):
            return is_unique_zero_assignment(c < eps)

        assert not unique(np.zeros((3, 3)), 1e-6)  # all-zero: many matchings
        assert not unique(np.eye(3), 0.5)  # zeros off-diagonal: 2 matchings
        assert unique(1 - np.eye(3), 0.5)


class TestPerfectMatching:
    def test_against_brute_force_on_random_masks(self):
        rng = np.random.default_rng(21)
        found = unique = 0
        for t in range(1200):
            n = 1 + t % 7
            mask = rng.random((n, n)) < rng.uniform(0.1, 0.9)
            if rng.random() < 0.3:  # a hidden permutation, so matchings exist
                mask[np.arange(n), rng.permutation(n)] = True
            match = perfect_matching(mask)
            count = perfect_matchings(mask)
            assert (match is not None) == (count > 0), mask
            if match is None:
                continue
            found += 1
            assert sorted(match.tolist()) == list(range(n)), mask
            assert mask[np.arange(n), match].all(), mask
            if is_unique_zero_assignment(mask):
                unique += 1
                forced = [
                    p for p in itertools.permutations(range(n)) if mask[range(n), p].all()
                ]
                assert [tuple(match.tolist())] == forced, mask
        assert found > 400 and unique > 100  # every branch is exercised

    def test_augmenting_path_needed(self):
        # greedy takes (0, 0) and leaves row 1 without a column
        mask = np.array([[True, True], [True, False]])
        assert perfect_matching(mask).tolist() == [1, 0]

    def test_hall_violation_without_empty_line(self):
        # rows 0 and 1 both see only column 0
        mask = np.array([[1, 0, 0], [1, 0, 0], [1, 1, 1]], dtype=bool)
        assert perfect_matching(mask) is None

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            perfect_matching(np.ones((2, 3), dtype=bool))


class TestImportBoundary:
    def test_package_import_leaves_the_references_unloaded(self):
        # the solve path holds its own matcher, so only a caller of the
        # Hungarian reference loads eigeniso.assignment
        code = "import sys, eigeniso; print(sorted(m for m in sys.modules if m.startswith('eigeniso')))"
        root = os.path.dirname(os.path.dirname(eigeniso.__file__))
        env = {**os.environ, "PYTHONPATH": root}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == str(
            ["eigeniso", "eigeniso.generators", "eigeniso.graph", "eigeniso.solver", "eigeniso.spectral"]
        )
