"""End-to-end tests of the command-line interface, run in-process."""

import json
import os

import numpy as np
import pytest

from eigeniso import (
    DEFAULT_EPS,
    Permutation,
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
from eigeniso.cli import EPS_ENV_VAR, _default_eps, main
from eigeniso.generators import cfi, complete, cycle, paley, path
from helpers import K33_EDGES


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
        assert g.n == 13 and np.all(g.degrees() == 6)

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
        perm = Permutation.from_line(line.removeprefix("permutation: "))
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
            }
        assert int(stats["decompositions"]) == 2  # the spectral certificate

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "no.col"), str(tmp_path / "pe.col")]) == 3
        assert "error:" in capsys.readouterr().err

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
    def test_default_reads_environment(self, monkeypatch):
        monkeypatch.delenv(EPS_ENV_VAR, raising=False)
        assert _default_eps() == DEFAULT_EPS
        monkeypatch.setenv(EPS_ENV_VAR, "0.001")
        assert _default_eps() == 0.001

    def test_garbage_value_is_error(self, tmp_path, capsys, monkeypatch):
        fa, fb = _rotated_cycle_pair(tmp_path)
        monkeypatch.setenv(EPS_ENV_VAR, "not-a-number")
        assert main(["check", fa, fb]) == 3
        assert EPS_ENV_VAR in capsys.readouterr().err

    def test_explicit_flag_wins(self, tmp_path, monkeypatch):
        fa, fb = _rotated_cycle_pair(tmp_path)
        monkeypatch.setenv(EPS_ENV_VAR, "not-a-number")
        assert main(["check", fa, fb, "--eps", "1e-6"]) == 0

    def test_non_finite_eps_is_error(self, tmp_path, capsys, monkeypatch):
        # a nan eps once answered "not isomorphic" for a graph against itself
        fa, _ = _rotated_cycle_pair(tmp_path)
        for flag in ("nan", "inf"):
            assert main(["check", fa, fa, "--eps", flag]) == 3
            assert "positive and finite" in capsys.readouterr().err
        out = str(tmp_path / "masks")
        assert main(["dump-cost", fa, fa, "--eps", "nan", "-o", out]) == 3
        assert "positive and finite" in capsys.readouterr().err
        monkeypatch.setenv(EPS_ENV_VAR, "nan")
        assert main(["check", fa, fa]) == 3
        assert "positive and finite" in capsys.readouterr().err

    def test_bad_eps_is_error_whatever_the_sizes(self, tmp_path, capsys):
        # a size mismatch once printed its certificate and exited 1
        fa = _write(tmp_path, "a.col", cycle(5))
        fb = _write(tmp_path, "b.col", cycle(6))
        assert main(["check", fa, fb, "--eps", "nan"]) == 3
        assert "positive and finite" in capsys.readouterr().err


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
        assert main(["bench", "no_such_family", "9"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_zero_trials_is_error(self, capsys):
        assert main(["bench", "cycle", "6", "--trials", "0"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed", "--gen-seed"])
    def test_negative_seed_is_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "random_gnp", "6", flag, "-5"])
        assert exc.value.code == 3
        assert f"argument {flag}: must be >= 0, got -5" in capsys.readouterr().err


class TestDumpCost:
    @staticmethod
    def _mask(out_dir, k):
        return np.loadtxt(
            os.path.join(out_dir, f"mask_round{k}.csv"), delimiter=",", dtype=int
        )

    def test_cycle_masks(self, tmp_path, capsys):
        fa, fb = _relabelled_cycle_pair(tmp_path)
        out = str(tmp_path / "masks")
        assert main(["dump-cost", fa, fb, "--rounds", "2", "-o", out]) == 0
        assert "wrote 3 mask file pair(s)" in capsys.readouterr().out

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
        assert main(["dump-cost", fa, fb, "--rounds", "1", "-o", out]) == 0
        with open(os.path.join(out, "mask_round1.pgm"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "P2" and lines[1] == "6 6" and lines[2] == "1"
        body = np.array([[int(x) for x in row.split()] for row in lines[3:]])
        assert np.array_equal(body, self._mask(out, 1))

    def test_root_mismatch_writes_nothing(self, tmp_path, capsys):
        fa = _write(tmp_path, "a.col", complete(3))
        fb = _write(tmp_path, "b.col", path(3))
        out = str(tmp_path / "masks")
        assert main(["dump-cost", fa, fb, "-o", out]) == 3
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_stall_warns_and_keeps_partial_output(self, tmp_path, capsys):
        a, b = cospectral_fixture()
        fa, fb = _write(tmp_path, "a.col", a), _write(tmp_path, "b.col", b)
        out = str(tmp_path / "masks")
        assert main(["dump-cost", fa, fb, "--rounds", "2", "-o", out]) == 0
        err = capsys.readouterr().err
        assert "no accepting assignment at round 1" in err
        assert os.path.exists(os.path.join(out, "mask_round0.csv"))
        assert not os.path.exists(os.path.join(out, "mask_round1.csv"))
        # the pair is cospectral but no projector-row assignment exists
        assert self._mask(out, 0).sum() == 0

    def test_missing_out_dir_is_usage_error(self, tmp_path):
        fa, fb = _relabelled_cycle_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["dump-cost", fa, fb])
        assert exc.value.code == 3

    def test_negative_rounds_is_usage_error(self, tmp_path):
        fa, fb = _relabelled_cycle_pair(tmp_path)
        out = str(tmp_path / "masks")
        with pytest.raises(SystemExit) as exc:
            main(["dump-cost", fa, fb, "--rounds", "-1", "-o", out])
        assert exc.value.code == 3
        assert not os.path.exists(out)

    def test_zero_rounds_writes_root_only(self, tmp_path, capsys):
        a, b = srg_fixture()  # a search that would end in exhaustion
        fa, fb = _write(tmp_path, "a.col", a), _write(tmp_path, "b.col", b)
        out = str(tmp_path / "masks")
        assert main(["dump-cost", fa, fb, "--rounds", "0", "-o", out]) == 0
        captured = capsys.readouterr()
        assert "wrote 1 mask file pair(s)" in captured.out
        assert captured.err == ""
        assert sorted(os.listdir(out)) == ["mask_round0.csv", "mask_round0.pgm"]

    def test_backtracking_search_writes_every_round(self, tmp_path, capsys):
        # The first pins accepted here dead-end at round 4; the search backtracks once.
        a = apply_permutation(paley(37), random_permutation(37, 25))
        fa, fb = _write(tmp_path, "a.col", a), _write(tmp_path, "b.col", paley(37))
        out = str(tmp_path / "masks")
        assert main(["dump-cost", fa, fb, "--rounds", "4", "-o", out]) == 0
        captured = capsys.readouterr()
        assert "wrote 5 mask file pair(s)" in captured.out
        assert "warning" not in captured.err
        for k in range(5):
            assert os.path.exists(os.path.join(out, f"mask_round{k}.pgm"))

    def test_masks_match_search_rounds(self, tmp_path):
        fa, fb = _relabelled_cycle_pair(tmp_path)
        out = str(tmp_path / "masks")
        assert main(["dump-cost", fa, fb, "--rounds", "6", "-o", out]) == 0
        report = is_isomorphic(load_graph(fa), load_graph(fb))
        assert len(report.rounds) == 2
        for k in range(1, 3):
            assert self._mask(out, k).sum() == report.rounds[k - 1].zero_count

    def test_verified_search_ends_the_dump(self, tmp_path, capsys):
        fa, fb = _relabelled_cycle_pair(tmp_path)
        out = str(tmp_path / "masks")
        assert main(["dump-cost", fa, fb, "--rounds", "6", "-o", out]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "search verified a permutation at round 2; wrote 3 mask file pair(s)\n"
        )
        assert captured.err == ""
        assert sorted(os.listdir(out)) == [
            f"mask_round{k}.{ext}" for k in range(3) for ext in ("csv", "pgm")
        ]
        # a rotation is verified at the root
        fa, fb = _rotated_cycle_pair(tmp_path)
        out = str(tmp_path / "root")
        assert main(["dump-cost", fa, fb, "--rounds", "2", "-o", out]) == 0
        captured = capsys.readouterr()
        assert "verified a permutation at round 0; wrote 1 mask" in captured.out
        assert captured.err == ""
        assert sorted(os.listdir(out)) == ["mask_round0.csv", "mask_round0.pgm"]
