"""eigeniso benchmark: closed-loop isomorphism solves with checked answers.

Run from the repository root:

    python3 bench/run.py --workload srg_reject --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 0

One process calls ``is_isomorphic`` on one pair after another (a closed
loop with one client), repeating whole passes over the workload's seeded
pair list while another pass fits in ``--seconds``.  Every answer is checked
against ground truth after timing.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass and reports
per-layer metrics per pair.  The last line of output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
``record: {...}``, adds machine facts, tail latency, failure and
certificate shares and op counts.  The exit code is 1 when any answer is
wrong, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 90.0

# Fresh-process set-up: import the package and pay the first
# eigendecomposition, which carries the BLAS start-up.
SETUP_CHILD = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
t0 = perf_counter()
import eigeniso
from eigeniso.generators import cycle
eigeniso.eigendecompose(cycle(16))
print(perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of bench/workloads.py, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the record(s) as JSON here")
    return ap.parse_args(argv)


def cpu_ticks() -> list[int] | None:
    """Aggregate CPU tick counters from /proc/stat (None off Linux)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU ticks the hypervisor stole between two samples."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total else None


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, asked through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import platform

    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads(),
    }


def measure_setup() -> float:
    """Median fresh-process time to import eigeniso and decompose once."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)],
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def tail(times: list[float]) -> dict | None:
    """Highest percentile with TAIL_BEYOND samples beyond it, if high enough."""
    n = len(times)
    percentile = 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 0.0
    if percentile < TAIL_MIN_PERCENTILE:
        return None
    return {
        "value": sorted(times)[n - TAIL_BEYOND - 1],
        "percentile": round(percentile, 2),
        "samples": n,
    }


# --------------------------------------------------------------------------
# Solving and checking.


def solve_pass(pairs):
    """One timed solve per pair; an exception is kept as the result."""
    from eigeniso import solver

    out = []
    for p in pairs:
        t0 = perf_counter()
        try:
            r = solver.is_isomorphic(p.a, p.b)
        except Exception as exc:  # a raising solve is a failed pair, not a crash
            r = exc
        out.append((perf_counter() - t0, r))
    return out


def witness_holds(a, b, perm) -> bool:
    """B[p(i), p(j)] == A[i, j] on the full matrices, diagonals included."""
    import numpy as np

    p = perm.map
    return np.array_equal(b.adj[np.ix_(p, p)], a.adj)


def judge(pair, truth: bool, r) -> bool:
    from eigeniso.solver import ISOMORPHIC, NOT_ISOMORPHIC

    if isinstance(r, Exception):
        return False
    if r.outcome == ISOMORPHIC:
        return truth and r.permutation is not None and witness_holds(pair.a, pair.b, r.permutation)
    return r.outcome == NOT_ISOMORPHIC and not truth


def ground_truth(pairs) -> list[bool]:
    from eigeniso.generators import brute_force_isomorphism

    return [
        p.isomorphic if p.isomorphic is not None
        else brute_force_isomorphism(p.a, p.b) is not None
        for p in pairs
    ]


def op_counts(r) -> tuple:
    if isinstance(r, Exception):
        return (type(r).__name__,)
    return (r.outcome, r.decompositions, r.lap_solves, r.backtrack_steps, len(r.rounds))


def check(pairs, truth, passes):
    """Failed solves over all passes, certified and all correct rejections."""
    from eigeniso.solver import NOT_ISOMORPHIC

    failed = certified = rejected = 0
    for results in passes:
        for pair, ok_truth, (_, r) in zip(pairs, truth, results):
            if not judge(pair, ok_truth, r):
                failed += 1
                got = r if isinstance(r, Exception) else r.outcome
                sys.stderr.write(f"failed: {pair.label} (isomorphic={ok_truth}): {got!r}\n")
            elif r.outcome == NOT_ISOMORPHIC:
                rejected += 1
                certified += not r.heuristic_rejection
    return failed, certified, rejected


def per_pair_ops(pairs, results) -> dict:
    n = len(pairs)
    reports = [r for _, r in results if not isinstance(r, Exception)]
    return {
        "solver.decompositions_per_pair": sum(r.decompositions for r in reports) / n,
        "solver.lap_solves_per_pair": sum(r.lap_solves for r in reports) / n,
        "solver.backtracks_per_pair": sum(r.backtrack_steps for r in reports) / n,
        "solver.rounds_per_pair": sum(len(r.rounds) for r in reports) / n,
    }


def ratio(num: int, base: int) -> float:
    return num / base if base else 0.0


# --------------------------------------------------------------------------
# One workload in this process.


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    import resource

    import workloads
    from eigeniso import solver
    from eigeniso.generators import cycle
    from eigeniso.spectral import DEFAULT_EPS, eigendecompose

    setup_s = measure_setup() if trace == 0 else None
    pairs, round_pairs = workloads.build(name, seed)
    # Warm-up outside every timed region: BLAS start-up and one solve.
    eigendecompose(cycle(16))
    smallest = min(pairs, key=lambda p: p.a.n)
    solver.is_isomorphic(smallest.a, smallest.b)

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    metrics: dict[str, tuple[float, str]] = {}
    ticks0 = cpu_ticks()
    if trace == 0:
        passes, pass_s = [], []
        while True:
            t0 = perf_counter()
            passes.append(solve_pass(pairs))
            pass_s.append(perf_counter() - t0)
            if len(passes) == 1:
                # Later passes only add kept results, so their count stays out.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # Stop before a pass of average length would overrun the budget.
            if sum(pass_s) * (len(pass_s) + 1) / len(pass_s) > seconds:
                break
        ticks1 = cpu_ticks()
        times = [t for results in passes for t, _ in results]
        # Rounds share one mix of pairs, so their median solve time is the
        # rate estimate least moved by seconds slowed by a noisy neighbour.
        round_s = [sum(times[i : i + round_pairs]) for i in range(0, len(times), round_pairs)]
        metrics["pairs_per_s"] = (round_pairs / statistics.median(round_s), "1/s")
        metrics["solve_s_p50"] = (statistics.median(times), "s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        record["pass_s"] = pass_s
        record["solve_s_tail"] = tail(times)
        mismatched = 0
    else:
        from tracing import ROOT_SPAN, Tracer

        untraced = solve_pass(pairs)
        tracer = Tracer(DEFAULT_EPS)
        with tracer.installed():
            traced = solve_pass(pairs)
        ticks1 = cpu_ticks()
        passes = [untraced, traced]
        mismatched = sum(
            op_counts(u) != op_counts(t) for (_, u), (_, t) in zip(untraced, traced)
        )
        n = len(pairs)
        for key, calls in tracer.calls.items():
            if key == ROOT_SPAN:
                metrics["solver.search_self_s"] = (tracer.self_s[key] / n, "s")
            else:
                metrics[f"{key}.self_s"] = (tracer.self_s[key] / n, "s")
                metrics[f"{key}.calls"] = (calls / n, "count")
        for key, value in per_pair_ops(pairs, traced).items():
            metrics[key] = (value, "count")
        funnel, calls = tracer.funnel, tracer.calls
        bases = {
            "spectral.quick_reject_ratio": (funnel["quick_rejects"], calls["spectral.spectral_distance"]),
            "assignment.zero_cost_ratio": (funnel["zero_cost_laps"], calls["assignment.solve_lap"]),
            "assignment.unique_ratio": (funnel["unique_laps"], funnel["zero_cost_laps"]),
            "graph.verify_fail_ratio": (funnel["verify_fails"], calls["graph.is_exact_isomorphism"]),
        }
        for key, (num, base) in bases.items():
            metrics[key] = (ratio(num, base), "ratio")
        record["ratio_bases"] = {k: {"count": num, "base": base} for k, (num, base) in bases.items()}
        traced_s = sum(t for t, _ in traced)
        metrics["trace.solve_s"] = (traced_s / n, "s")
        metrics["trace.overhead_s"] = ((traced_s - sum(t for t, _ in untraced)) / n, "s")
        record["trace_mismatches"] = mismatched

    # Ground truth and checks only after timing, so the oracle costs nothing.
    truth = ground_truth(pairs)
    failed, certified, rejected = check(pairs, truth, passes)
    failed += mismatched
    attempted = sum(len(results) for results in passes)
    record.update(
        {
            "machine": dict(machine_facts(), steal_share=steal_share(ticks0, ticks1)),
            "pairs_per_pass": len(pairs),
            "passes": len(passes),
            "attempted": attempted,
            "failed": failed,
            "fail_rate": failed / attempted,
            "certified_reject_share": certified / rejected if rejected else None,
            "certified_rejects": {"count": certified, "base": rejected},
            "ops": per_pair_ops(pairs, passes[0]),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )
    return record


def result_line(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def print_table(record: dict) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"{record['passes']} pass(es) x {record['pairs_per_pass']} pairs, closed loop, 1 client"
    )
    for key, m in record["metrics"].items():
        print(f"  {key:42s} {m['value']:.6g} {m['unit']}")
    t = record.get("solve_s_tail")
    if t is not None:
        print(f"  {'solve_s_tail':42s} {t['value']:.6g} s  (p{t['percentile']}, {t['samples']} samples)")
    elif record["trace"] == 0:
        print(f"  {'solve_s_tail':42s} omitted: too few samples for a p{TAIL_MIN_PERCENTILE:g}+ tail")
    print(f"  {'fail_rate':42s} {record['fail_rate']:.6g} ratio  ({record['failed']} of {record['attempted']})")
    c = record["certified_rejects"]
    share = record["certified_reject_share"]
    shown = "n/a" if share is None else f"{share:.6g}"
    print(f"  {'certified_reject_share':42s} {shown} ratio  ({c['count']} of {c['base']})")


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one combined result."""
    import workloads

    records = []
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        if len(lines) < 2 or not lines[-2].startswith("record: "):
            return out.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        records.append(json.loads(lines[-2].removeprefix("record: ")))
    if args.out:
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()},
    }))
    return 0 if all(r["failed"] == 0 for r in records) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eigeniso" / "__init__.py").is_file():
        sys.stderr.write(f"eigeniso source not found under {SRC}\n")
        return 2
    # One BLAS thread unless the caller says otherwise: at these sizes a
    # second OpenBLAS thread only spins, taking a core from the rest of the
    # machine (srg_reject used 1.8 cores and ran slower than on one).
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import eigeniso

    if Path(eigeniso.__file__).resolve().parent != SRC / "eigeniso":
        sys.stderr.write(f"imported eigeniso from {eigeniso.__file__}, not {SRC}\n")
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}\n")
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_table(record)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("record: " + json.dumps(record))
    print(json.dumps(result_line(record)))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
