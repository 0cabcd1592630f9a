"""Isomorphism search: projector cost matrices, perturbation rounds, backtracking.

For every eigenvalue group the rows of the two orthogonal projectors are
sorted and compared pairwise, giving a nonnegative cost matrix whose
assignment optimum is (near) zero whenever the graphs are isomorphic.
Both sides of a pair use one partition, cut only where both spectra have a
gap of at least eps, and one function, :func:`_decide`, decides every cost
matrix.  Repeated eigenvalues leave the assignment ambiguous, so the search
pins level by level: level i puts a self-loop of weight i + 1 on vertex i
of A and scans B for a partner whose equally pinned graph keeps the cost
below eps.  Each level is a frame on a stack; an accepted pin pushes the
next frame, and a level out of candidates pops its frame and the pin above
it (backtracking).  The accepted B-vertices, in level order, are the
permutation.  :func:`search` yields one event per evaluated pair and the
report last; :func:`is_isomorphic` reads the report, ``dump-cost`` the
events' masks.

What exhaustion proves.  Every rejection in the search is a necessary
condition failing: the pinned spectra differ by more than eps, or the
sub-eps mask has no perfect matching.  Let pi be an isomorphism extending
the pins so far.  The pinned graphs are isomorphic through pi, so every
c[i][pi(i)] is zero up to rounding and lies in the mask; level L's
candidates, its mask row minus the B-vertices already pinned (images of
pinned A-vertices), contain pi(L), and the pin (L, pi(L)) passes both
tests.  By induction an exhausted tree rules out every isomorphism,
provided a true isomorphism's costs stay below eps.  That premise is
numerical: rounding must stay far below eps, and both sides must be
grouped alike, which the shared partition ensures.  As the premise is not
checked, exhaustion is reported as reason ``"exhaustion"``, a heuristic.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .assignment import (
    LapSolution,
    count_zero_structure,
    is_unique_zero_assignment,
    perfect_matching,
    solve_lap,
)
from .graph import Graph, Permutation, is_exact_isomorphism, perturb
from .spectral import (
    DEFAULT_EPS,
    SpectralDecomposition,
    eigendecompose,
    group_eigenvalues,
    projection,
    spectral_distance,
)

ISOMORPHIC = "isomorphic"
NOT_ISOMORPHIC = "not_isomorphic"
INCONCLUSIVE = "inconclusive"


@dataclass
class SolverOptions:
    """Tunables of the search.

    eps: tolerance below which eigenvalues coincide and costs count as zero;
        positive and finite, else the search raises :class:`ValueError`.
    max_backtrack_steps: deleted assignments allowed before giving up
        (outcome inconclusive, never a wrong answer).
    unique_early_exit: finish as soon as the sub-eps mask pins a unique
        assignment that validates exactly; off, the search goes on until
        every vertex is pinned (``dump-cost`` turns it off to see every
        round's mask).
    """

    eps: float = DEFAULT_EPS
    max_backtrack_steps: int = 10**6
    unique_early_exit: bool = True


@dataclass(frozen=True)
class RoundRecord:
    """One accepted perturbation round: loop at vertex i of A, j of B.

    cost is the accepted sub-eps assignment's (see :class:`SolveReport`);
    zero_count is the number of entries in the sub-eps mask.
    """

    i: int
    j: int
    cost: float
    zero_count: int


@dataclass
class SolveReport:
    """Outcome of a solve plus search statistics.

    outcome is one of ISOMORPHIC / NOT_ISOMORPHIC / INCONCLUSIVE; the
    permutation is present exactly when isomorphic, already validated
    against the inputs.  Otherwise reason says why: ``"size"``,
    ``"spectrum"`` (the spectra differ by more than eps) or
    ``"assignment"`` (the root has no assignment below eps), each a
    certificate; ``"exhaustion"`` (heuristic, see the module docstring); or
    ``"backtrack_cap"`` (inconclusive).

    root_cost is the root's spectral distance when that exceeds eps (inf
    when the sizes differ), else its assignment cost.  A cost of at least
    eps is a lower bound of the exact optimum, which still certifies the
    rejection: entries that cannot fall below eps are bounds (see
    :func:`build_cost_matrix`), and an empty row or column of the sub-eps
    mask gives a row- or column-minimum sum.  A cost below eps, at the root
    as in every round, is the accepted sub-eps assignment's: the optimum
    when that assignment is unique, else an upper bound of it.  lap_solves
    counts the cost matrices decided, however :func:`_decide` decided them.
    """

    outcome: str
    permutation: Permutation | None
    backtrack_steps: int = 0
    decompositions: int = 0
    lap_solves: int = 0
    rounds: list[RoundRecord] = field(default_factory=list)
    root_cost: float = 0.0
    reason: str | None = None

    @property
    def spectral_rejection(self) -> bool:  # certified before any cost matrix
        return self.reason in ("size", "spectrum")

    @property
    def heuristic_rejection(self) -> bool:  # exhaustion, not certified
        return self.reason == "exhaustion"


def sorted_row_distance(u_a: np.ndarray, u_b: np.ndarray) -> float:
    """Euclidean distance between ascending-sorted copies of two vectors.

    Zero exactly when one vector is a permutation of the other, which makes
    it a relabeling-invariant comparison of projector rows.
    """
    u_a = np.asarray(u_a, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    if u_a.shape != u_b.shape:
        raise ValueError("length mismatch")
    return float(np.linalg.norm(np.sort(u_a) - np.sort(u_b)))


# Candidate pairs are processed in blocks so that no temporary of the exact
# costs exceeds this many entries (64 KB).
_PAIR_BLOCK = 2**13


def _norm_lower_bound(
    da: SpectralDecomposition, db: SpectralDecomposition, starts: list[int]
) -> np.ndarray:
    """LB(i, j) = sum_k | |Va_k[i]| - |Vb_k[j]| |, a lower bound of c[i][j].

    Sorting keeps norms and row i of P_k = V_k V_k^T has the norm of row i
    of V_k, so each group's term is bounded by the reverse triangle
    inequality.  No projector is formed; every temporary is n x n.  Groups
    begin at the columns ``starts``.
    """
    norms_a = np.sqrt(np.add.reduceat(da.vectors**2, starts, axis=1))
    norms_b = np.sqrt(np.add.reduceat(db.vectors**2, starts, axis=1))
    lb = np.zeros((da.n, db.n))
    gap = np.empty_like(lb)
    for k in range(len(starts)):
        np.subtract.outer(norms_a[:, k], norms_b[:, k], out=gap)
        lb += np.abs(gap, out=gap)
    return lb


def _rank_one_costs(
    va: np.ndarray, vb: np.ndarray, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    """Costs of the pairs (ii[p], jj[p]) summed over rank-1 groups.

    Column g of ``va`` and ``vb`` is the eigenvector of group g in A and B.
    Row i of v v^T is v_i v, whose ascending-sorted copy is x u with
    x = |v_i| and u = sort(v) when v_i >= 0, sort(-v) otherwise.  A pair's
    cost |x u - y w| is expanded as
    x^2 |u - w|^2 + 2 x (x - y) <u - w, w> + (x - y)^2 |w|^2, whose three
    inner products depend only on the group and the two signs.  As u and w
    are unit vectors up to rounding, every term is within a small factor of
    the squared cost, so nothing cancels near zero, where eps decides (the
    usual Gram expansion would).
    """
    asc_a, asc_b = np.sort(va.T, axis=1), np.sort(vb.T, axis=1)
    # Columns indexed by 2 * (a_i < 0) + (b_j < 0), the pair's two signs.
    dd = np.empty((va.shape[1], 4))
    dw = np.empty_like(dd)
    ww = np.empty((va.shape[1], 2))
    for neg_a in (0, 1):
        u = -asc_a[:, ::-1] if neg_a else asc_a
        for neg_b in (0, 1):
            w = -asc_b[:, ::-1] if neg_b else asc_b
            diff = u - w
            dd[:, 2 * neg_a + neg_b] = np.einsum("gn,gn->g", diff, diff)
            dw[:, 2 * neg_a + neg_b] = np.einsum("gn,gn->g", diff, w)
            ww[:, neg_b] = np.einsum("gn,gn->g", w, w)
    group = np.arange(va.shape[1])
    out = np.empty(ii.shape[0])
    block = max(1, _PAIR_BLOCK // va.shape[1])
    for s in range(0, ii.shape[0], block):
        a_rows, b_rows = va[ii[s : s + block]], vb[jj[s : s + block]]
        neg_b = (b_rows < 0).astype(np.intp)
        combo = 2 * (a_rows < 0) + neg_b
        x, y = np.abs(a_rows), np.abs(b_rows)
        dx = x - y
        sq = x * x * dd[group, combo]
        sq += 2 * x * dx * dw[group, combo]
        sq += dx * dx * ww[group, neg_b]
        out[s : s + block] = np.sqrt(np.maximum(sq, 0.0)).sum(axis=1)
    return out


def build_cost_matrix(
    da: SpectralDecomposition,
    db: SpectralDecomposition,
    eps: float | None = None,
) -> np.ndarray:
    """Assignment costs c[i][j] summed over the eigenvalue groups of the pair.

    For each group the cost of pairing vertex i of A with vertex j of B is
    the sorted-row distance between row i of A's projector and row j of
    B's.  The groups are :func:`group_eigenvalues` of the two spectra at
    ``eps`` (at ``DEFAULT_EPS`` when ``eps`` is None), the same column
    ranges on both sides.

    Without ``eps`` every entry is exact.  With ``eps``, an entry is
    computed exactly only where a cheap lower bound leaves it below
    ``2 * eps``; every other entry holds that bound, which is at least
    ``eps``.  Entries below ``eps``, and with them the sub-eps mask and
    every decision taken on it, are the same either way; an entry of at
    least ``eps`` may be a lower bound of the exact cost.
    """
    starts = group_eigenvalues(da.values, db.values, DEFAULT_EPS if eps is None else eps)
    n = da.n
    if eps is None:
        c = np.empty((n, n))
        ii, jj = np.indices((n, n)).reshape(2, -1)
    else:
        c = _norm_lower_bound(da, db, starts)
        # The factor 2 is a rounding margin between the bound and the
        # exact cost, so no entry below eps is left at its bound.
        ii, jj = np.nonzero(c < 2 * eps)
    exact = np.zeros(ii.shape[0])
    spans = list(zip(starts, [*starts[1:], n]))
    single = [start for start, stop in spans if stop - start == 1]
    if single:
        exact += _rank_one_costs(da.vectors[:, single], db.vectors[:, single], ii, jj)
    multi = [(start, stop) for start, stop in spans if stop - start > 1]
    if multi:
        # Larger groups: sort only the rows some candidate pair uses.
        rows_a, at_a = np.unique(ii, return_inverse=True)
        rows_b, at_b = np.unique(jj, return_inverse=True)
        block = max(1, _PAIR_BLOCK // n)
        for start, stop in multi:
            sorted_a = np.sort(projection(da, start, stop)[rows_a], axis=1)
            sorted_b = np.sort(projection(db, start, stop)[rows_b], axis=1)
            # Distances computed directly: the Gram expansion cancels near
            # zero, where eps decides.
            for s in range(0, ii.shape[0], block):
                diff = sorted_a[at_a[s : s + block]] - sorted_b[at_b[s : s + block]]
                exact[s : s + block] += np.sqrt(np.einsum("ij,ij->i", diff, diff))
    c[ii, jj] = exact
    return c


def _sequential_sum(values: np.ndarray) -> float:
    """Add first to last, as :func:`solve_lap` adds an assignment's entries."""
    return float(np.add.accumulate(values)[-1])


def _decide(c: np.ndarray, eps: float) -> tuple[float, LapSolution | None, np.ndarray]:
    """Decide whether cost matrix ``c`` has an assignment below ``eps``.

    Returns (cost, lap, sub-eps mask).  Each step runs only when the ones
    before it cannot decide:

    * Empty row or column: no assignment below ``eps`` exists.  lap is None
      and the cost, a lower bound of the optimum and at least ``eps``, sums
      the row minima if a row is empty (in row order that never rounds
      above :func:`solve_lap`'s cost), else the column minima.
    * Permutation mask: the optimum, as any other assignment trades mask
      entries for entries of at least ``eps``; lap holds it as
      :func:`solve_lap` would, to the bit.
    * A perfect matching inside the mask (:func:`perfect_matching`) that
      costs less than ``eps`` in row order is accepted, with ``unique``
      from :func:`is_unique_zero_assignment`: it is the optimum when
      unique, else an upper bound of it.
    * :func:`solve_lap` decides the rest.
    """
    mask = count_zero_structure(c, eps)
    rows, cols = mask.sum(axis=1), mask.sum(axis=0)
    if rows.min() == 0:
        return _sequential_sum(c.min(axis=1)), None, mask
    if cols.min() == 0:
        return _sequential_sum(c.min(axis=0)), None, mask
    index = np.arange(c.shape[0])
    if rows.max() == 1:  # n entries, no empty column: a permutation
        perm = mask.argmax(axis=1)
        cost = _sequential_sum(c[index, perm])
        return cost, LapSolution(Permutation(perm), cost, cost < eps), mask
    match = perfect_matching(mask)
    if match is not None:
        cost = _sequential_sum(c[index, match])
        if cost < eps:
            unique = is_unique_zero_assignment(mask)
            return cost, LapSolution(Permutation(match), cost, unique), mask
    lap = solve_lap(c, eps)
    return lap.cost, lap, mask


def _evaluate(
    da: SpectralDecomposition, db: SpectralDecomposition, eps: float
) -> tuple[float, LapSolution | None, np.ndarray | None]:
    """Spectral check, then cost matrix and assignment decision.

    Returns (e, lap, sub-eps mask) as :func:`_decide` does, or (spectral
    distance, None, None) when the spectra differ by more than ``eps``.
    An ``eps`` that is not positive and finite reaches
    :func:`build_cost_matrix`, whose grouping rejects it.
    """
    dist = spectral_distance(da, db)
    if dist > eps > 0:
        return dist, None, None
    return _decide(build_cost_matrix(da, db, eps), eps)


def find_permutation(
    a: Graph, b: Graph, eps: float = DEFAULT_EPS
) -> tuple[float, LapSolution | None]:
    """Single feasibility check for a graph pair.

    Returns the eigenvalue distance if it exceeds ``eps`` (quick reject,
    LAP solution None), else the assignment cost and LAP solution as
    :func:`_decide` gives them.  A cost below ``eps`` passes the pair
    without certifying an isomorphism; it is the optimum when the solution
    is ``unique``, else an upper bound of it.  A cost of at least ``eps``
    is a lower bound of the optimum (see :class:`SolveReport`).
    """
    if a.n != b.n:
        raise ValueError("size mismatch")
    e, lap, _ = _evaluate(eigendecompose(a), eigendecompose(b), eps)
    return e, lap


class SearchEvent(NamedTuple):
    """One evaluated pair: vertex i of A pinned against vertex j of B.

    The root, where nothing is pinned, has i = j = None.  cost and mask are
    those of :func:`_evaluate` (mask None when no cost matrix was built);
    accepted means the pair passed: a cost below eps, or at the root, not
    above it.  An accepted pin's cost is also its :class:`RoundRecord`'s.
    """

    i: int | None
    j: int | None
    cost: float
    mask: np.ndarray | None
    accepted: bool


@dataclass
class _Frame:
    """One level of the search.

    a is A pinned through this level, da its decomposition, b is B before
    this level's pin; candidates are the B-vertices tried in order, k the
    next one's index, and pin the round accepted at this level, if any.
    """

    a: Graph
    da: SpectralDecomposition
    b: Graph
    candidates: list[int]
    k: int = 0
    pin: RoundRecord | None = None


def search(
    a: Graph, b: Graph, opts: SolverOptions
) -> Iterator[SearchEvent | SolveReport]:
    """The perturbation search as a stream of events.

    Yields one :class:`SearchEvent` per evaluated pair, root first, and the
    :class:`SolveReport` as the last item.  Each pair is evaluated only
    when the next item is asked for, so a consumer that stops reading stops
    the search.  The inputs must pass :func:`is_isomorphic`'s checks.
    Level L tries the B-vertices that its parent's mask row L offers and
    that are not pinned yet (see the module docstring).
    """
    eps = opts.eps
    if a.n != b.n:
        yield SolveReport(NOT_ISOMORPHIC, None, root_cost=float("inf"), reason="size")
        return
    n = a.n
    backtracks = lap_solves = 0
    stack: list[_Frame] = []

    def report(outcome: str, perm=None, reason=None) -> SolveReport:
        return SolveReport(
            outcome,
            perm,
            backtrack_steps=backtracks,
            decompositions=decompositions,
            lap_solves=lap_solves,
            rounds=[f.pin for f in stack if f.pin is not None],
            root_cost=root_cost,
            reason=reason,
        )

    def frame(level: int, a_prev: Graph, b_prev: Graph, mask: np.ndarray) -> _Frame:
        a_pinned = perturb(a_prev, level, level + 1.0)
        row = mask[level].copy()
        row[[f.pin.j for f in stack]] = False
        candidates = np.flatnonzero(row).tolist()
        return _Frame(a_pinned, eigendecompose(a_pinned), b_prev, candidates)

    root_cost, lap, mask = _evaluate(eigendecompose(a), eigendecompose(b), eps)
    decompositions = 2
    lap_solves += mask is not None
    yield SearchEvent(None, None, root_cost, mask, root_cost <= eps)
    if root_cost > eps:
        yield report(NOT_ISOMORPHIC, reason="spectrum" if mask is None else "assignment")
        return
    if opts.unique_early_exit and lap is not None and lap.unique:
        if is_exact_isomorphism(a, b, lap.assignment):
            yield report(ISOMORPHIC, lap.assignment)
            return
        # The mask lied; fall through to the perturbation search.

    stack.append(frame(0, a, b, mask))
    decompositions += 1
    while True:
        top = stack[-1]
        level = len(stack) - 1
        if top.k == len(top.candidates):
            # The level ran dry: drop its frame and the round above it.
            stack.pop()
            if not stack:
                yield report(NOT_ISOMORPHIC, reason="exhaustion")
                return
        else:
            j = top.candidates[top.k]
            top.k += 1
            b_pinned = perturb(top.b, j, level + 1.0)
            e, lap, mask = _evaluate(top.da, eigendecompose(b_pinned), eps)
            decompositions += 1
            lap_solves += mask is not None
            yield SearchEvent(level, j, e, mask, e < eps)
            if e >= eps:
                continue
            top.pin = RoundRecord(level, j, e, int(mask.sum()))
            if opts.unique_early_exit and lap.unique:
                if is_exact_isomorphism(a, b, lap.assignment):
                    yield report(ISOMORPHIC, lap.assignment)
                    return
            if level + 1 < n:
                stack.append(frame(level + 1, top.a, b_pinned, mask))
                decompositions += 1
                continue
            # Every vertex is pinned: the accepted B-vertices are the witness.
            witness = Permutation([f.pin.j for f in stack])
            if is_exact_isomorphism(a, b, witness):
                yield report(ISOMORPHIC, witness)
                return
            # Complete but invalid: drop it and keep scanning this level.
        backtracks += 1
        if backtracks > opts.max_backtrack_steps:
            yield report(INCONCLUSIVE, reason="backtrack_cap")
            return
        stack[-1].pin = None


def is_isomorphic(a: Graph, b: Graph, opts: SolverOptions | None = None) -> SolveReport:
    """Full isomorphism test of two plain graphs.

    Runs the unperturbed feasibility check first (its failure certifies
    non-isomorphism), then the perturbation rounds with backtracking.  The
    returned permutation, when present, has been validated entry-for-entry
    against the inputs, so an ``isomorphic`` outcome is unconditionally
    sound.  ``not_isomorphic`` after search exhaustion carries reason
    ``"exhaustion"``, as exhaustion is not a checked certificate.

    The inputs must have a zero diagonal, since the search writes its pins
    there; a self-loop raises :class:`ValueError`.
    """
    for g in (a, b):
        if np.diag(g.adj).any():
            raise ValueError("input graphs must have no self-loops (zero diagonal)")
    return deque(search(a, b, opts or SolverOptions()), maxlen=1)[0]
