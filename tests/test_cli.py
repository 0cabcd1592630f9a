"""End-to-end tests of the command-line interface, run in-process."""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

from eigeniso import (
    INCONCLUSIVE,
    Permutation,
    SolveReport,
    SolverOptions,
    apply_permutation,
    cospectral_fixture,
    is_exact_isomorphism,
    is_isomorphic,
    load_graph,
    parse_graph,
    random_permutation,
    save_graph,
    srg_fixture,
)
from eigeniso import cli
from eigeniso.cli import main
from eigeniso.generators import cfi, complete, cycle, path
from helpers import K33_EDGES, degrees, disjoint_edges


def _write(tmp_path, name, g):
    p = str(tmp_path / name)
    save_graph(g, p)
    return p


def _rotated_cycle_pair(tmp_path, n=6):
    g = cycle(n)
    h = apply_permutation(g, Permutation([(i + 1) % n for i in range(n)]))
    return _write(tmp_path, "a.col", g), _write(tmp_path, "b.col", h)


def _relabelled_cycle_pair(tmp_path):
    # the search verifies an assignment at round 2, not at the root
    g = cycle(6)
    h = apply_permutation(g, random_permutation(6, 42))
    return _write(tmp_path, "a.col", g), _write(tmp_path, "b.col", h)


class TestGen:
    def test_stdout(self, capsys):
        assert main(["gen", "paley", "13"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 13 and np.all(degrees(g) == 6)

    def test_file_round_trip(self, tmp_path):
        out = str(tmp_path / "c6.col")
        assert main(["gen", "cycle", "6", "-o", out]) == 0
        assert np.array_equal(load_graph(out).adj, cycle(6).adj)

    def test_bad_parameter_is_error(self, capsys):
        assert main(["gen", "paley", "15"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "hypercube", "3"])
        assert exc.value.code == 3

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "random_gnp", "5", "--seed", "-1"])
        assert exc.value.code == 3
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


class TestCheck:
    def test_isomorphic_pair(self, tmp_path, capsys):
        fa, fb = _rotated_cycle_pair(tmp_path)
        assert main(["check", fa, fb]) == 0
        out = capsys.readouterr().out
        assert out.startswith("isomorphic")
        line = next(l for l in out.splitlines() if l.startswith("permutation: "))
        perm = Permutation([int(x) - 1 for x in line.removeprefix("permutation: ").split()])
        assert is_exact_isomorphism(load_graph(fa), load_graph(fb), perm)
        # a rotation is an automorphism of the cycle: verified at the root
        assert "stats: rounds=0 backtracks=0 decompositions=2 lap_solves=1" in out

    def test_perm_out_file(self, tmp_path, capsys):
        fa, fb = _rotated_cycle_pair(tmp_path)
        dest = str(tmp_path / "perm.txt")
        assert main(["check", fa, fb, "--perm-out", dest]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("permutation: "))
        with open(dest, encoding="utf-8") as fh:
            assert fh.read().strip() == line.removeprefix("permutation: ")

    def test_vertex_count_certificate(self, tmp_path, capsys):
        fa = _write(tmp_path, "a.col", cycle(5))
        fb = _write(tmp_path, "b.col", cycle(6))
        assert main(["check", fa, fb]) == 1
        assert "vertex counts differ" in capsys.readouterr().out

    def test_spectral_certificate(self, tmp_path, capsys):
        fa = _write(tmp_path, "a.col", complete(3))
        fb = _write(tmp_path, "b.col", path(3))
        assert main(["check", fa, fb]) == 1
        assert "spectra differ" in capsys.readouterr().out

    def test_root_assignment_certificate(self, tmp_path, capsys):
        a, b = cospectral_fixture()
        fa, fb = _write(tmp_path, "a.col", a), _write(tmp_path, "b.col", b)
        assert main(["check", fa, fb]) == 1
        assert "no zero-cost assignment" in capsys.readouterr().out

    def test_exhaustion_note(self, tmp_path, capsys):
        a, b = srg_fixture()
        fa, fb = _write(tmp_path, "a.col", a), _write(tmp_path, "b.col", b)
        assert main(["check", fa, fb]) == 1
        assert "search exhaustion" in capsys.readouterr().out

    def test_inconclusive_exit_code(self, tmp_path, capsys):
        a = cfi(K33_EDGES)  # exhausted after 6 backtracks without a cap
        b = apply_permutation(cfi(K33_EDGES, twist=True), random_permutation(a.n, 1))
        fa, fb = _write(tmp_path, "a.col", a), _write(tmp_path, "b.col", b)
        assert main(["check", fa, fb, "--max-backtrack", "2"]) == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_stats_on_every_outcome(self, tmp_path, capsys):
        # the line a rejection or an inconclusive answer explains itself by
        a, b = srg_fixture()
        fa, fb = _write(tmp_path, "a.col", a), _write(tmp_path, "b.col", b)
        pairs = [((fa, fb), 1, None), ((fa, fb), 2, 0)]
        spectral = (_write(tmp_path, "k3.col", complete(3)), _write(tmp_path, "p3.col", path(3)))
        pairs.append((spectral, 1, None))
        for (x, y), code, cap in pairs:
            flags = [] if cap is None else ["--max-backtrack", str(cap)]
            assert main(["check", x, y, *flags]) == code
            line = capsys.readouterr().out.splitlines()[-1]
            stats = dict(item.split("=") for item in line.removeprefix("stats: ").split())
            opts = SolverOptions(max_backtrack_steps=10**6 if cap is None else cap)
            report = is_isomorphic(load_graph(x), load_graph(y), opts)
            assert stats == {
                "rounds": str(len(report.rounds)),
                "backtracks": str(report.backtrack_steps),
                "decompositions": str(report.decompositions),
                "lap_solves": str(report.lap_solves),
                "pruned": str(report.pruned),
                "inner_searches": str(report.inner_searches),
                "consistency_rejects": str(report.consistency_rejects),
            }
        assert int(stats["decompositions"]) == 2  # the spectral certificate

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "no.col"), str(tmp_path / "pe.col")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_eigensolver_failure_is_error(self, tmp_path, monkeypatch, capsys):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        fa, fb = _rotated_cycle_pair(tmp_path)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["check", fa, fb]) == 3
        assert "error: Eigenvalues did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["100000000", "p edge 100000000 0"])
    def test_out_of_memory_is_error(self, tmp_path, header, capsys):
        # a 10^8-vertex dense matrix asks for 71 PiB, which no address space
        # holds, so the allocation fails at once without touching memory
        big = tmp_path / "big.txt"
        big.write_text(header + "\n")
        fa, _ = _rotated_cycle_pair(tmp_path)
        assert main(["check", str(big), fa]) == 3
        assert "error:" in capsys.readouterr().err

    def test_search_too_deep_for_the_interpreter_is_error(self, tmp_path, capsys):
        # each pinned level is one nested call: 60 disjoint edges pin 59
        # vertices, more than a lowered recursion limit leaves room for; an
        # error (3), never the "not isomorphic" code that an escaping
        # exception would give
        g = disjoint_edges(60)
        fa = _write(tmp_path, "a.col", g)
        fb = _write(tmp_path, "b.col", apply_permutation(g, random_permutation(g.n, 1)))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            code = main(["check", fa, fb])
        finally:
            sys.setrecursionlimit(limit)
        assert code == 3
        assert "search too deep" in capsys.readouterr().err

    def test_missing_argument_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(tmp_path / "only_one.col")])
        assert exc.value.code == 3

    def test_solver_flags_accepted(self, tmp_path):
        fa, fb = _rotated_cycle_pair(tmp_path)
        argv = ["check", fa, fb, "--max-backtrack", "50", "--eps", "1e-6"]
        assert main(argv) == 0

    def test_no_early_exit_flag_is_usage_error(self, tmp_path):
        fa, fb = _rotated_cycle_pair(tmp_path)
        for command in ("check", "bench"):
            with pytest.raises(SystemExit) as exc:
                main([command, fa, fb, "--no-early-exit"])
            assert exc.value.code == 3

    def test_negative_max_backtrack_is_usage_error(self, tmp_path, capsys):
        fa, fb = _rotated_cycle_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["check", fa, fb, "--max-backtrack", "-5"])
        assert exc.value.code == 3
        assert "must be >= 0" in capsys.readouterr().err


class TestEpsEnvVar:
    def test_environment_is_not_read(self, tmp_path, monkeypatch):
        # --eps is the one way to set eps; EIGENISO_EPS once set it too
        fa, _ = _rotated_cycle_pair(tmp_path)
        monkeypatch.setenv("EIGENISO_EPS", "nan")
        assert main(["check", fa, fa]) == 0

    def test_non_finite_eps_is_error(self, tmp_path, capsys):
        # a nan eps once answered "not isomorphic" for a graph against itself
        fa, _ = _rotated_cycle_pair(tmp_path)
        for flag in ("nan", "inf"):
            assert main(["check", fa, fa, "--eps", flag]) == 3
            assert "positive and finite" in capsys.readouterr().err
        out = str(tmp_path / "masks")
        assert main(["check", fa, fa, "--eps", "nan", "--masks-out", out]) == 3
        assert "positive and finite" in capsys.readouterr().err

    def test_bad_eps_is_error_whatever_the_sizes(self, tmp_path, capsys):
        # a size mismatch once printed its certificate and exited 1
        fa = _write(tmp_path, "a.col", cycle(5))
        fb = _write(tmp_path, "b.col", cycle(6))
        assert main(["check", fa, fb, "--eps", "nan"]) == 3
        assert "positive and finite" in capsys.readouterr().err


def _backtracked(a, b, opts):  # the real report, as if found after two backtracks
    return dataclasses.replace(is_isomorphic(a, b, opts), backtrack_steps=2)


def _inconclusive(a, b, opts):
    return SolveReport(INCONCLUSIVE, None, reason="backtrack_cap")


class TestBench:
    def _json(self, capsys):
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    def test_family_spec_two_tokens(self, capsys):
        assert main(["bench", "paley", "13", "--trials", "5"]) == 0
        rep = self._json(capsys)
        assert rep["name"] == "paley(13)" and rep["n"] == 13
        assert rep["trials"] == 5
        assert rep["nBT"] + rep["BT"] + rep["failures"] == 5
        assert rep["failures"] == 0

    def test_family_spec_call_form(self, capsys):
        assert main(["bench", "cycle(8)", "--trials", "4"]) == 0
        rep = self._json(capsys)
        assert rep["name"] == "cycle(8)" and rep["n"] == 8

    def test_file_target(self, tmp_path, capsys):
        fa = _write(tmp_path, "k5.col", complete(5))
        assert main(["bench", fa, "--trials", "3"]) == 0
        assert self._json(capsys)["name"] == "k5.col"

    def test_seed_reproducible(self, capsys):
        runs = []
        for _ in range(2):
            assert main(["bench", "paley", "13", "--trials", "6", "--seed", "7"]) == 0
            rep = self._json(capsys)
            rep.pop("avg_time_seconds")
            runs.append(rep)
        assert runs[0] == runs[1]

    def test_bad_target_is_error(self, capsys):
        # a family spec is exactly 'NAME N' or 'NAME(N)'
        for target in (["no_such_family", "9"], ["paley17"], ["paley(17"], ["paley 17)"]):
            assert main(["bench", *target, "--trials", "1"]) == 3, target
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stub, code, tally",
        [
            (_backtracked, 0, {"nBT": 0, "BT": 3, "avg_steps": 2.0, "failures": 0}),
            (_inconclusive, 3, {"nBT": 0, "BT": 0, "avg_steps": 0.0, "failures": 3}),
        ],
        ids=["backtracked", "inconclusive"],
    )
    def test_backtracks_and_failures_are_tallied(self, stub, code, tally, monkeypatch, capsys):
        monkeypatch.setattr(cli, "is_isomorphic", stub)
        assert main(["bench", "cycle", "6", "--trials", "3"]) == code
        rep = self._json(capsys)
        assert {k: rep[k] for k in tally} == tally

    def test_zero_trials_is_error(self, capsys):
        assert main(["bench", "cycle", "6", "--trials", "0"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed"])
    def test_negative_seed_is_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "random_gnp", "6", flag, "-5"])
        assert exc.value.code == 3
        assert f"argument {flag}: must be >= 0, got -5" in capsys.readouterr().err


class TestMasksOut:
    """check --masks-out: the root's mask and each accepted pin's, as files."""

    @staticmethod
    def _mask(out_dir, k):
        return np.loadtxt(
            os.path.join(out_dir, f"mask_round{k}.csv"), delimiter=",", dtype=int
        )

    def test_cycle_masks(self, tmp_path, capsys):
        fa, fb = _relabelled_cycle_pair(tmp_path)
        out = str(tmp_path / "masks")
        assert main(["check", fa, fb, "--masks-out", out]) == 0
        assert capsys.readouterr().out.startswith("isomorphic\n")

        root = self._mask(out, 0)
        assert root.shape == (6, 6) and np.all(root == 1)
        r2 = self._mask(out, 2)
        # two pinned vertices leave a single consistent relabeling
        assert np.all(r2.sum(axis=0) == 1) and np.all(r2.sum(axis=1) == 1)
        counts = [self._mask(out, k).sum() for k in range(3)]
        assert counts[0] >= counts[1] >= counts[2] == 6

    def test_pgm_matches_csv(self, tmp_path):
        fa, fb = _relabelled_cycle_pair(tmp_path)
        out = str(tmp_path / "masks")
        assert main(["check", fa, fb, "--masks-out", out]) == 0
        with open(os.path.join(out, "mask_round1.pgm"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "P2" and lines[1] == "6 6" and lines[2] == "1"
        body = np.array([[int(x) for x in row.split()] for row in lines[3:]])
        assert np.array_equal(body, self._mask(out, 1))

    def test_files_byte_for_byte(self, tmp_path):
        # the two end vertices of P3 share a projector row; the root verifies
        fa = _write(tmp_path, "a.col", path(3))
        out = tmp_path / "masks"
        assert main(["check", fa, fa, "--masks-out", str(out)]) == 0
        assert (out / "mask_round0.csv").read_bytes() == b"1,0,1\n0,1,0\n1,0,1\n"
        assert (out / "mask_round0.pgm").read_bytes() == b"P2\n3 3\n1\n1 0 1\n0 1 0\n1 0 1\n"
        assert sorted(p.name for p in out.iterdir()) == ["mask_round0.csv", "mask_round0.pgm"]

    def test_root_mismatch_writes_nothing(self, tmp_path, capsys):
        # a size or spectrum rejection has no mask: its certificate, and no directory
        fa = _write(tmp_path, "a.col", complete(3))
        for other in (path(3), path(4)):
            fb = _write(tmp_path, "b.col", other)
            out = str(tmp_path / "masks")
            assert main(["check", fa, fb, "--masks-out", out]) == 1
            assert "certificate:" in capsys.readouterr().out
            assert not os.path.exists(out)

    def test_assignment_rejection_keeps_the_root_mask(self, tmp_path, capsys):
        a, b = cospectral_fixture()
        fa, fb = _write(tmp_path, "a.col", a), _write(tmp_path, "b.col", b)
        out = str(tmp_path / "masks")
        assert main(["check", fa, fb, "--masks-out", out]) == 1
        assert "no zero-cost assignment" in capsys.readouterr().out
        assert sorted(os.listdir(out)) == ["mask_round0.csv", "mask_round0.pgm"]
        # the pair is cospectral but no projector-row assignment exists
        assert self._mask(out, 0).sum() == 0

    def test_backtracking_search_writes_every_round(self, tmp_path, capsys):
        # CFI(K3,3) against its relabelled twist: pins reach level 4 (round 5)
        # and the search backtracks 5 times before exhaustion leaves no round.
        a = cfi(K33_EDGES)
        b = apply_permutation(cfi(K33_EDGES, twist=True), random_permutation(a.n, 1))
        fa, fb = _write(tmp_path, "a.col", a), _write(tmp_path, "b.col", b)
        out = str(tmp_path / "masks")
        assert main(["check", fa, fb, "--masks-out", out]) == 1
        assert "stats: rounds=0 backtracks=5 " in capsys.readouterr().out
        assert sorted(os.listdir(out)) == [
            f"mask_round{k}.{ext}" for k in range(6) for ext in ("csv", "pgm")
        ]
        # the cap ends the dump where it ends the search; the refuted round 5 keeps its file
        out = str(tmp_path / "capped")
        assert main(["check", fa, fb, "--max-backtrack", "0", "--masks-out", out]) == 2
        assert "stats: rounds=4 backtracks=1 " in capsys.readouterr().out
        assert sorted(os.listdir(out)) == [
            f"mask_round{k}.{ext}" for k in range(6) for ext in ("csv", "pgm")
        ]

    def test_masks_match_search_rounds(self, tmp_path):
        fa, fb = _relabelled_cycle_pair(tmp_path)
        out = str(tmp_path / "masks")
        assert main(["check", fa, fb, "--masks-out", out]) == 0
        report = is_isomorphic(load_graph(fa), load_graph(fb))
        assert len(report.rounds) == 2
        for k in range(1, 3):
            assert np.array_equal(self._mask(out, k), report.rounds[k - 1].mask)

    def test_verified_search_ends_the_dump(self, tmp_path, capsys):
        fa, fb = _relabelled_cycle_pair(tmp_path)
        out = str(tmp_path / "masks")
        assert main(["check", fa, fb, "--masks-out", out]) == 0
        assert "stats: rounds=2 " in capsys.readouterr().out
        assert sorted(os.listdir(out)) == [
            f"mask_round{k}.{ext}" for k in range(3) for ext in ("csv", "pgm")
        ]
        # a rotation is verified at the root
        fa, fb = _rotated_cycle_pair(tmp_path)
        out = str(tmp_path / "root")
        assert main(["check", fa, fb, "--masks-out", out]) == 0
        assert "stats: rounds=0 " in capsys.readouterr().out
        assert sorted(os.listdir(out)) == ["mask_round0.csv", "mask_round0.pgm"]
