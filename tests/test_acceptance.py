"""Acceptance gate: nine numbered criteria, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines
as they print; without ``-s`` pytest shows them for failing tests only.
"""

import itertools
import os

import numpy as np

from eigeniso import (
    DEFAULT_EPS,
    INCONCLUSIVE,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    SolverOptions,
    apply_permutation,
    brute_force_isomorphism,
    build_cost_matrix,
    cospectral_fixture,
    eigendecompose,
    is_exact_isomorphism,
    is_isomorphic,
    projection,
    random_permutation,
    save_graph,
    spectral_distance,
)
from eigeniso.assignment import is_unique_zero_assignment, solve_lap
from eigeniso.cli import main as cli_main
from eigeniso.cli import run_bench
from eigeniso.generators import cycle, lattice, paley, random_gnp, triangular
from helpers import all_graphs, delta_eig, eigen_groups, reconstruct


def _verdict(num: int, desc: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {desc}")
    return ok


def test_01_soundness_on_random_relabelings():
    sizes = list(range(5, 21))
    failures = []
    for t in range(500):
        n = sizes[t % len(sizes)]
        g = random_gnp(n, t)
        h = apply_permutation(g, random_permutation(n, 10_000 + t))
        report = is_isomorphic(g, h)
        ok = (
            report.outcome == ISOMORPHIC
            and report.permutation is not None
            and is_exact_isomorphism(g, h, report.permutation)
        )
        if not ok:
            failures.append((t, n, report.outcome))
    ok = not failures
    assert _verdict(
        1, "500 random relabeled pairs solved with verified witnesses", ok
    ), f"failed trials: {failures[:10]}"


def test_02_oracle_equivalence_on_all_small_graphs():
    disagreements = []
    inconclusive = 0
    for n in range(1, 6):
        graphs = all_graphs(n)
        # Oracle classes: each graph is compared with one representative of
        # every class found so far, and a pair's truth is class equality.
        reps, label = [], []
        for g in graphs:
            c = next(
                (k for k, r in enumerate(reps) if brute_force_isomorphism(r, g) is not None),
                len(reps),
            )
            if c == len(reps):
                reps.append(g)
            label.append(c)
        for i in range(len(graphs)):
            for j in range(i, len(graphs)):
                report = is_isomorphic(graphs[i], graphs[j])
                if report.outcome == INCONCLUSIVE:
                    inconclusive += 1
                    continue
                truth = label[i] == label[j]
                claim = report.outcome == ISOMORPHIC
                if claim != truth:
                    disagreements.append((n, i, j, report.outcome))
                elif claim and not is_exact_isomorphism(
                    graphs[i], graphs[j], report.permutation
                ):
                    disagreements.append((n, i, j, "bad witness"))
    ok = not disagreements and inconclusive == 0
    assert _verdict(
        2, "exhaustive n<=5 sweep agrees with the brute-force oracle", ok
    ), f"disagreements={disagreements[:10]} inconclusive={inconclusive}"


def test_03_paley_17_bench_band_and_zero_root_cost():
    g = paley(17)
    rep = run_bench("paley(17)", g, trials=100, seed=0, opts=SolverOptions())
    perm = random_permutation(17, 0)
    c = build_cost_matrix(
        eigendecompose(g), eigendecompose(apply_permutation(g, perm))
    )
    root_zero = float(np.max(c)) < DEFAULT_EPS
    ok = rep.failures == 0 and rep.nBT >= 90 and root_zero
    assert _verdict(
        3, "paley(17) x100: failures=0, nBT>=90, all-zero root cost matrix", ok
    ), f"failures={rep.failures} nBT={rep.nBT} max_root_cost={np.max(c):.3g}"


def test_04_cycle_walkthrough_masks(tmp_path):
    g = cycle(6)
    h = apply_permutation(g, random_permutation(6, 42))
    fa, fb = str(tmp_path / "a.col"), str(tmp_path / "b.col")
    save_graph(g, fa)
    save_graph(h, fb)
    out = str(tmp_path / "masks")
    code = cli_main(["check", fa, fb, "--masks-out", out])

    def mask(k):
        return np.loadtxt(
            os.path.join(out, f"mask_round{k}.csv"), delimiter=",", dtype=int
        ).astype(bool)

    root_all_true = code == 0 and bool(np.all(mask(0)))
    m2 = mask(2)
    unique_after_two = (
        np.all(m2.sum(axis=0) == 1)
        and np.all(m2.sum(axis=1) == 1)
        and is_unique_zero_assignment(m2)
    )
    report = is_isomorphic(g, h)
    solved = report.outcome == ISOMORPHIC and is_exact_isomorphism(
        g, h, report.permutation
    )
    ok = root_all_true and bool(unique_after_two) and solved
    assert _verdict(
        4, "C6 rotation: all-true root mask, unique pattern after 2 rounds", ok
    ), f"code={code} root_all_true={root_all_true} unique={unique_after_two}"


def test_05_family_bench_bands():
    opts = SolverOptions()
    reps = {
        name: run_bench(name, g, trials=100, seed=0, opts=opts)
        for name, g in [
            ("lattice(4)", lattice(4)),
            ("triangular(7)", triangular(7)),
            ("paley(13)", paley(13)),
        ]
    }
    ok = (
        reps["lattice(4)"].failures == 0
        and reps["lattice(4)"].nBT >= 95
        and reps["triangular(7)"].failures == 0
        and reps["triangular(7)"].nBT >= 95
        and reps["paley(13)"].failures == 0
        and (reps["paley(13)"].BT == 0 or reps["paley(13)"].avg_steps <= 5)
    )
    summary = {k: (r.nBT, r.BT, r.failures, round(r.avg_steps, 2)) for k, r in reps.items()}
    assert _verdict(
        5, "lattice(4)/triangular(7) nBT>=95, paley(13) failure-free", ok
    ), f"(nBT, BT, failures, avg_steps) = {summary}"


def test_06_cospectral_rejection_runs_through_assignment_path():
    a, b = cospectral_fixture()
    dist = spectral_distance(eigendecompose(a), eigendecompose(b))
    report = is_isomorphic(a, b)
    ok = (
        report.outcome == NOT_ISOMORPHIC
        and dist < DEFAULT_EPS
        and not report.spectral_rejection
        and report.lap_solves >= 1
        and report.root_cost > DEFAULT_EPS
    )
    assert _verdict(
        6, "cospectral pair rejected by assignment cost, not the quick-reject", ok
    ), f"outcome={report.outcome} dist={dist:.3g} root_cost={report.root_cost:.3g}"


def test_07_spectral_invariant_suite():
    bad = []
    for seed in range(100):
        g = random_gnp(12, seed)
        tol = 10.0 * delta_eig(g.adj)
        d = eigendecompose(g)
        total = np.zeros((12, 12))
        for k, grp in enumerate(eigen_groups(d)):
            e = projection(d, grp.start, grp.stop)
            total += e
            if np.max(np.abs(e @ e - e)) > tol:
                bad.append((seed, k, "idempotence"))
            if np.max(np.abs(e - e.T)) > tol:
                bad.append((seed, k, "symmetry"))
            if abs(np.trace(e) - grp.length) > tol:
                bad.append((seed, k, "trace"))
        if np.max(np.abs(total - np.eye(12))) > tol:
            bad.append((seed, "completeness"))
        if np.max(np.abs(reconstruct(d) - g.adj)) > tol * max(1.0, np.max(np.abs(g.adj))):
            bad.append((seed, "reconstruction"))
        h = apply_permutation(g, random_permutation(12, 5_000 + seed))
        if spectral_distance(d, eigendecompose(h)) > tol:
            bad.append((seed, "conjugation"))
    ok = not bad
    assert _verdict(
        7, "projector and reconstruction invariants on 100 random graphs", ok
    ), f"violations: {bad[:10]}"


def test_08_lap_matches_brute_force_on_random_instances():
    perms = np.array(list(itertools.permutations(range(6))))
    rows = np.arange(6)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        c = rng.uniform(0.0, 10.0, size=(6, 6))
        best = float(np.min(c[rows, perms].sum(axis=1)))
        sol = solve_lap(c)
        worst = max(worst, abs(sol.cost - best))
    ok = worst <= 1e-12
    assert _verdict(
        8, "1000 random 6x6 LAP instances match the brute-force optimum", ok
    ), f"worst deviation {worst:.3g}"


def test_09_complexity_budgets_on_no_backtracking_runs():
    cases = [cycle(6), cycle(9), paley(13), lattice(4), triangular(6)]
    violations = []
    for g in cases:
        n = g.n
        h = apply_permutation(g, random_permutation(n, 77))
        rep = is_isomorphic(g, h)
        if rep.outcome != ISOMORPHIC or rep.backtrack_steps != 0:
            violations.append((n, "backtracked"))
            continue
        if rep.decompositions > 2 * n * n + 2:
            violations.append((n, "dec", rep.decompositions))
        if rep.lap_solves > n * (n + 1) // 2 + 1:
            violations.append((n, "lap", rep.lap_solves))
    ok = not violations
    assert _verdict(
        9, "decomposition and LAP counts stay inside the stated budgets", ok
    ), f"violations: {violations}"
