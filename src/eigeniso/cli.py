"""Command-line frontend: check, bench and gen subcommands.

Exit codes of ``check`` follow a scriptable protocol: 0 isomorphic,
1 not isomorphic, 2 inconclusive (backtrack cap hit), 3 for any error (bad
files or arguments, eigensolver failure, out of memory, a search too deep
for the interpreter).  Others use 0/3.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .generators import FAMILIES, generate
from .graph import (
    Graph,
    GraphFormatError,
    apply_permutation,
    format_graph,
    is_exact_isomorphism,
    load_graph,
    random_permutation,
    save_graph,
)
from .solver import (
    INCONCLUSIVE,
    ISOMORPHIC,
    SearchEvent,
    SolverOptions,
    is_isomorphic,
    search,
)
from .spectral import DEFAULT_EPS

EXIT_ISOMORPHIC = 0
EXIT_NOT_ISOMORPHIC = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3


@dataclass
class BenchReport:
    """Aggregate of repeated self-isomorphism trials on one graph.

    nBT counts trials solved without backtracking, BT those that needed
    it, failures the trials that came back inconclusive or wrong; the
    three always sum to ``trials``.  avg_steps averages backtrack steps
    over the BT trials only.
    """

    name: str
    n: int
    trials: int
    nBT: int
    BT: int
    avg_steps: float
    avg_time_seconds: float
    failures: int


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the error code (3),
    keeping 2 reserved for the inconclusive outcome."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--eps",
        type=float,
        default=DEFAULT_EPS,
        help="numerical tolerance (default 1e-6)",
    )
    p.add_argument(
        "--max-backtrack",
        type=_non_negative,
        default=SolverOptions.max_backtrack_steps,
        metavar="N",
        help="backtrack steps before giving up as inconclusive",
    )


def _options(args: argparse.Namespace) -> SolverOptions:
    return SolverOptions(eps=args.eps, max_backtrack_steps=args.max_backtrack)


def _two_row(perm) -> str:
    width = len(str(len(perm)))
    top = " ".join(f"{i + 1:>{width}}" for i in range(len(perm)))
    bot = " ".join(f"{perm[i] + 1:>{width}}" for i in range(len(perm)))
    return f"  i : {top}\n  pi: {bot}"


# SolveReport.reason of a rejection -> the line check prints under it.
_REJECTION_MESSAGES = {
    "size": "certificate: vertex counts differ",
    "spectrum": "certificate: spectra differ (distance {cost:.6g})",
    "assignment": "certificate: no zero-cost assignment of eigenspace projector rows"
    " exists (cost lower bound {cost:.6g})",
    "exhaustion": "rejected by search exhaustion (heuristic, no certificate)",
}


def cmd_check(args: argparse.Namespace) -> int:
    a = load_graph(args.file_a)
    b = load_graph(args.file_b)
    # The search itself, not is_isomorphic: load_graph has refused self-loops already.
    for event in search(a, b, _options(args)):  # one event per candidate, then the report
        if isinstance(event, SearchEvent) and args.masks_out and event.mask is not None:
            if event.level is None:
                _write_mask(event.mask, args.masks_out, 0)
            elif event.accepted:  # round k is level k - 1; a backtrack rewrites its file
                _write_mask(event.mask, args.masks_out, event.level + 1)
    report = event
    if report.outcome == ISOMORPHIC:
        print("isomorphic")
        print(_two_row(report.permutation))
        print(f"permutation: {report.permutation.to_line()}")
        if args.perm_out:
            with open(args.perm_out, "w", encoding="utf-8") as fh:
                fh.write(report.permutation.to_line() + "\n")
        code = EXIT_ISOMORPHIC
    elif report.outcome == INCONCLUSIVE:
        print("inconclusive: backtrack cap reached")
        code = EXIT_INCONCLUSIVE
    else:
        print("not isomorphic")
        print(_REJECTION_MESSAGES[report.reason].format(cost=report.root_cost))
        code = EXIT_NOT_ISOMORPHIC
    print(
        f"stats: rounds={len(report.rounds)} "
        f"backtracks={report.backtrack_steps} "
        f"decompositions={report.decompositions} "
        f"lap_solves={report.lap_solves} "
        f"pruned={report.pruned} "
        f"inner_searches={report.inner_searches} "
        f"consistency_rejects={report.consistency_rejects}"
    )
    return code


_SPEC_RE = re.compile(r"^([a-z_]+)(?:\s+(\d+)|\s*\(\s*(\d+)\s*\))$")


def _bench_input(tokens: list[str]) -> tuple[str, Graph]:
    """A bench target: a graph file, or a family spec 'paley 17' or 'paley(17)'."""
    if len(tokens) == 1 and os.path.isfile(tokens[0]):
        return os.path.basename(tokens[0]), load_graph(tokens[0])
    joined = " ".join(tokens).strip().lower()
    m = _SPEC_RE.match(joined)
    if not m:
        raise GraphFormatError(
            f"not a file or family spec: {joined!r} (families: {', '.join(FAMILIES)})"
        )
    family, param = m.group(1), int(m.group(2) or m.group(3))
    return f"{family}({param})", generate(family, param)


def run_bench(
    name: str, g: Graph, trials: int, seed: int, opts: SolverOptions
) -> BenchReport:
    """Check g against `trials` random relabelings of itself and aggregate."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_bt = bt = failures = 0
    steps: list[int] = []
    elapsed = 0.0
    for t in range(trials):
        perm = random_permutation(g.n, seed + t)
        permuted = apply_permutation(g, perm)
        t0 = time.perf_counter()
        report = is_isomorphic(g, permuted, opts)
        elapsed += time.perf_counter() - t0
        ok = (
            report.outcome == ISOMORPHIC
            and report.permutation is not None
            and is_exact_isomorphism(g, permuted, report.permutation)
        )
        if not ok:
            failures += 1
        elif report.backtrack_steps == 0:
            n_bt += 1
        else:
            bt += 1
            steps.append(report.backtrack_steps)
    return BenchReport(
        name=name,
        n=g.n,
        trials=trials,
        nBT=n_bt,
        BT=bt,
        avg_steps=float(np.mean(steps)) if steps else 0.0,
        avg_time_seconds=elapsed / trials,
        failures=failures,
    )


def cmd_bench(args: argparse.Namespace) -> int:
    name, g = _bench_input(args.target)
    report = run_bench(name, g, args.trials, args.seed, _options(args))
    header = f"{'name':<18} {'n':>4} {'trials':>6} {'nBT':>5} {'BT':>4} {'steps':>7} {'time[s]':>9} {'fail':>5}"
    row = (
        f"{report.name:<18} {report.n:>4} {report.trials:>6} {report.nBT:>5} "
        f"{report.BT:>4} {report.avg_steps:>7.2f} {report.avg_time_seconds:>9.4f} "
        f"{report.failures:>5}"
    )
    print(header)
    print(row)
    print(json.dumps(asdict(report)))
    return 0 if report.failures == 0 else EXIT_ERROR


def cmd_gen(args: argparse.Namespace) -> int:
    g = generate(args.family, args.parameter, seed=args.seed)
    comment = f"{args.family} {args.parameter}" + (
        f" seed={args.seed}" if args.family == "random_gnp" else ""
    )
    if args.out:
        save_graph(g, args.out, comment=comment)
    else:
        sys.stdout.write(format_graph(g, comment))
    return 0


def _write_mask(mask: np.ndarray, out_dir: str, round_index: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"mask_round{round_index}")
    np.savetxt(base + ".csv", mask, fmt="%d", delimiter=",")
    # Graymap with maxval 1: white (1) marks an assignable pair.
    header = f"P2\n{mask.shape[1]} {mask.shape[0]}\n1"
    np.savetxt(base + ".pgm", mask, fmt="%d", header=header, comments="")


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eigeniso", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="test two graph files for isomorphism")
    p_check.add_argument("file_a")
    p_check.add_argument("file_b")
    p_check.add_argument(
        "--perm-out", metavar="PATH", help="write the found permutation to a file"
    )
    p_check.add_argument(
        "--masks-out", metavar="DIR", help="write the search's masks to DIR (CSV and PGM)"
    )
    _add_solver_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser(
        "bench", help="repeated self-isomorphism trials on a family or file"
    )
    p_bench.add_argument(
        "target",
        nargs="+",
        help="graph file, or family spec like 'paley 17' / 'lattice(4)'",
    )
    p_bench.add_argument("--trials", type=int, default=100)
    p_bench.add_argument("--seed", type=_non_negative, default=0)
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="write a generated graph as a DIMACS-style file")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("parameter", type=int)
    p_gen.add_argument("--seed", type=_non_negative, default=0)
    p_gen.add_argument("-o", "--out", metavar="PATH")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        # search() nests one call per pinned vertex (see its docstring)
        limit = sys.getrecursionlimit()
        print(f"error: search too deep: its pins ran past Python's recursion limit ({limit})", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
