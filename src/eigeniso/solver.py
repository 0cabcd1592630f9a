"""Isomorphism search: projector cost matrices, perturbation rounds, backtracking.

For every eigenvalue group the rows of the two orthogonal projectors are
sorted and compared pairwise, giving a nonnegative cost matrix whose
assignment optimum is (near) zero whenever the graphs are isomorphic.
Both sides of a pair use one partition, cut only where both spectra have a
gap of at least eps, and one function, :func:`_decide`, decides every cost
matrix.  Repeated eigenvalues leave the assignment ambiguous, so the search
pins level by level.  Level L takes the free vertex i of A whose row of the
last accepted mask offers the fewest unpinned B-vertices, at least two (the
lowest free index when no row offers two), puts a self-loop of weight
base + L + 1 on it, base being the largest loop weight of the inputs, and
scans those B-vertices for a partner whose equally pinned graph keeps a
perfect matching in the sub-eps mask.  Each level is a frame on a stack;
an accepted pin pushes the next frame, and a level out of candidates pops
its frame and the pin above it (backtracking).  Each accepted cost matrix
comes with the mask's matching as its assignment, and the search ends at
the first one, at the root or at a pin, that maps the inputs onto each
other entry for entry, diagonal included (:func:`is_exact_isomorphism`);
with every vertex pinned, the pins' own map is checked too.
:func:`search` yields one event per candidate and the report last;
:func:`is_isomorphic` reads the report, ``dump-cost`` the events' masks.

What exhaustion proves.  Every rejection in the search is a necessary
condition failing: the pinned spectra differ by more than eps, or the
sub-eps mask has no perfect matching.  Let pi be an isomorphism extending
the pins so far.  The pinned graphs are isomorphic through pi, so every
c[x][pi(x)] is zero up to rounding and pi lies in the mask; level L's
candidates, the row of its vertex i minus the B-vertices already pinned
(images of pinned A-vertices), contain pi(i), and the pin (i, pi(i)) passes
both tests.  Level L also skips a candidate j when an automorphism sigma of
B that fixes every pinned B-vertex maps a candidate j0 it has exhausted onto
j: were pi(i) = j, then sigma^-1 pi would extend the pins with (i, j0),
which j0's exhaustion ruled out.  Each sigma comes from a search of this
kind, capped at a few backtracks, between B pinned at j0 and B pinned at j
with level L's weight, and is kept only once it maps the one onto the other
entry for entry, diagonal included, fixes the pins and sends j0 to j; the
group of the kept ones that fix the pins gives the orbits.  The orbit step
thus adds no numerical premise.  By induction an exhausted tree rules out
every isomorphism, provided a true isomorphism's entries c[x][pi(x)] stay
below eps.  That premise is numerical: rounding must stay far below eps,
and both sides must be grouped alike, which the shared partition ensures.
As the premise is not checked, exhaustion is reported as reason
``"exhaustion"``, a heuristic.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .assignment import perfect_matching
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
        positive and finite.
    max_backtrack_steps: deleted assignments allowed before giving up
        (outcome inconclusive, never a wrong answer); nonnegative.

    :func:`search` checks both when it is entered, before it compares the
    sizes, and raises :class:`ValueError` if either is out of range.
    """

    eps: float = DEFAULT_EPS
    max_backtrack_steps: int = 10**6


@dataclass(frozen=True)
class RoundRecord:
    """One accepted perturbation round: loop at vertex i of A, j of B.

    cost is the row-order sum of the mask's matching that accepted the
    round, an upper bound of the optimum (see :class:`SolveReport`);
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
    ``"assignment"`` (the root's sub-eps mask has no perfect matching),
    each a certificate; ``"exhaustion"`` (heuristic, see the module
    docstring); or ``"backtrack_cap"`` (inconclusive).

    root_cost is the root's spectral distance when that exceeds eps (inf
    when the sizes differ), else its cost as :func:`_decide` gives it.  A
    rejected cost is at least eps and a lower bound of the exact optimum up
    to rounding, possibly far below it, which still certifies the
    rejection: filtered entries hold partial sums of a row-norm bound (see
    :func:`build_cost_matrix`), an empty row or column of the sub-eps mask
    gives a row- or column-minimum sum, and a mask without a perfect
    matching its least entry outside the mask.  An accepted cost, at the
    root as in every round, is the row-order sum of the mask's matching,
    an upper bound of the optimum and below n * eps.  An isomorphic search
    ends at the first verified assignment, so rounds may stop short of n.
    Rounds are in level order; a round's i is the A-vertex its level pinned.
    pruned counts the candidates skipped by an automorphism of B (see
    :class:`SearchEvent`), inner_searches the capped searches run to find
    those automorphisms, nested ones included.  decompositions and
    lap_solves, the cost matrices decided, include the inner searches'.
    """

    outcome: str
    permutation: Permutation | None
    backtrack_steps: int = 0
    decompositions: int = 0
    lap_solves: int = 0
    rounds: list[RoundRecord] = field(default_factory=list)
    root_cost: float = 0.0
    reason: str | None = None
    pruned: int = 0
    inner_searches: int = 0

    @property
    def spectral_rejection(self) -> bool:  # certified before any cost matrix
        return self.reason in ("size", "spectrum")

    @property
    def heuristic_rejection(self) -> bool:  # exhaustion, not certified
        return self.reason == "exhaustion"


# Candidate pairs are processed in blocks so that no temporary of the bound
# or the exact costs exceeds this many entries (64 KB).
_PAIR_BLOCK = 2**13


def _norm_lower_bound(
    da: SpectralDecomposition, db: SpectralDecomposition, starts: list[int], eps: float
) -> np.ndarray:
    """LB(i, j) = sum_k | |Va_k[i]| - |Vb_k[j]| |, a lower bound of c[i][j].

    Sorting keeps norms and row i of P_k = V_k V_k^T has the norm of row i
    of V_k, so each group's term is bounded by the reverse triangle
    inequality.  Groups begin at the columns ``starts``.  Stage 1 fills the
    n x n matrix with group 0's term; stage 2 sums every term, in group
    order, only for the pairs still below ``2 * eps``.  Terms are
    nonnegative, so a pair that stage 1 puts at ``2 * eps`` or above keeps
    that partial sum, a weaker bound; every entry below ``2 * eps`` is the
    full sum.
    """
    norms_a = np.sqrt(np.add.reduceat(da.vectors**2, starts, axis=1))
    norms_b = np.sqrt(np.add.reduceat(db.vectors**2, starts, axis=1))
    lb = np.abs(np.subtract.outer(norms_a[:, 0], norms_b[:, 0]))
    ii, jj = np.nonzero(lb < 2 * eps)
    block = max(1, _PAIR_BLOCK // len(starts))
    for s in range(0, ii.shape[0], block):
        i, j = ii[s : s + block], jj[s : s + block]
        gap = norms_a[i] - norms_b[j]
        # in group order, as one n x n pass per group adds (sum pairs terms up)
        lb[i, j] = np.add.accumulate(np.abs(gap, out=gap), axis=1)[:, -1]
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
    computed exactly only where the row-norm bound of
    :func:`_norm_lower_bound` leaves it below ``2 * eps``; every other
    entry holds that bound, a partial sum of at least ``2 * eps``.  Entries
    below ``eps``, and with them the sub-eps mask and every decision taken
    on it, are the same either way; an entry of at least ``eps`` may be a
    lower bound of the exact cost up to rounding (the bound's sum can land
    a few ulps above it).
    """
    starts = group_eigenvalues(da.values, db.values, DEFAULT_EPS if eps is None else eps)
    n = da.n
    if eps is None:
        c = np.empty((n, n))
        ii, jj = np.indices((n, n)).reshape(2, -1)
    else:
        c = _norm_lower_bound(da, db, starts, eps)
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
        block = max(1, _PAIR_BLOCK // n)
        for start, stop in multi:
            sorted_a = np.sort(projection(da, start, stop), axis=1)
            sorted_b = np.sort(projection(db, start, stop), axis=1)
            # Distances computed directly: the Gram expansion cancels near
            # zero, where eps decides.
            for s in range(0, ii.shape[0], block):
                diff = sorted_a[ii[s : s + block]] - sorted_b[jj[s : s + block]]
                exact[s : s + block] += np.sqrt(np.einsum("ij,ij->i", diff, diff))
    c[ii, jj] = exact
    return c


def _sequential_sum(values: np.ndarray) -> float:
    """Add first to last; smaller terms, one by one, never give a larger sum."""
    return float(np.add.accumulate(values)[-1])


def _decide(c: np.ndarray, eps: float) -> tuple[float, Permutation | None, np.ndarray]:
    """Decide cost matrix ``c`` by its sub-eps mask ``c < eps`` alone.

    Returns (cost, assignment, mask); the pair is accepted exactly when the
    mask holds a perfect matching, which is then the assignment.

    * Empty row or column: rejected.  The cost sums the row minima if a row
      is empty (in row order, never rounding above any assignment's
      row-order sum), else the column minima.
    * Otherwise the mask's permutation when every row holds one entry, else
      a perfect matching inside the mask (:func:`perfect_matching`), is
      accepted with its row-order sum as the cost: each entry is below
      ``eps``, the sum below n * eps, and no lower than the optimum.
    * No perfect matching: rejected with the least entry outside the mask
      as the cost.  Every assignment uses such an entry, so the cost is at
      least ``eps`` and at most the optimum.
    """
    mask = c < eps
    rows, cols = mask.sum(axis=1), mask.sum(axis=0)
    if rows.min() == 0:
        return _sequential_sum(c.min(axis=1)), None, mask
    if cols.min() == 0:
        return _sequential_sum(c.min(axis=0)), None, mask
    # n entries and no empty column make a permutation
    match = mask.argmax(axis=1) if rows.max() == 1 else perfect_matching(mask)
    if match is None:
        return float(c[~mask].min()), None, mask
    return _sequential_sum(c[np.arange(c.shape[0]), match]), Permutation(match), mask


def _evaluate(
    da: SpectralDecomposition, db: SpectralDecomposition, eps: float
) -> tuple[float, Permutation | None, np.ndarray | None]:
    """Spectral check, then cost matrix and assignment decision.

    Returns (e, assignment, sub-eps mask) as :func:`_decide` does, or (spectral
    distance, None, None) when the spectra differ by more than ``eps``.
    """
    dist = spectral_distance(da, db)
    if dist > eps:
        return dist, None, None
    return _decide(build_cost_matrix(da, db, eps), eps)


class SearchEvent(NamedTuple):
    """One candidate pair: vertex i of A pinned against vertex j of B at a level.

    The root, where nothing is pinned, has level = i = j = None.  cost and
    mask are those of :func:`_evaluate` (mask None when no cost matrix was
    built); accepted means the pair passed: the mask holds a perfect
    matching.  An accepted cost is that matching's row-order sum, an upper
    bound of the optimum; an accepted pin's cost is also its
    :class:`RoundRecord`'s.  pruned marks a candidate skipped unevaluated,
    since an automorphism of B that fixes the pins maps an exhausted
    candidate onto it; its cost is inf and its mask None.
    """

    level: int | None
    i: int | None
    j: int | None
    cost: float
    mask: np.ndarray | None
    accepted: bool
    pruned: bool = False


# Backtracks allowed to a search for an automorphism of B; a symmetric pair
# of candidates is usually matched without any.
_AUTOMORPHISM_BACKTRACKS = 3


def _orbit(seeds: list[int], generators: list[np.ndarray], n: int) -> np.ndarray:
    """Mask of the seeds' orbits under the group the permutations generate."""
    inside = np.zeros(n, dtype=bool)
    inside[seeds] = True
    while True:
        grown = inside.copy()
        for g in generators:
            grown[g[grown]] = True
        if (grown == inside).all():
            return inside
        inside = grown


@dataclass
class _Frame:
    """One level of the search.

    i is the A-vertex this level pins with loop weight w, a is A pinned
    through this level, da its decomposition, b is B before this level's
    pin; candidates are the B-vertices tried in order, k the next one's
    index, accepted the tried ones whose pin passed, and pin the round
    accepted at this level, if any.
    """

    i: int
    w: float
    a: Graph
    da: SpectralDecomposition
    b: Graph
    candidates: list[int]
    k: int = 0
    accepted: list[int] = field(default_factory=list)
    pin: RoundRecord | None = None


def search(
    a: Graph, b: Graph, opts: SolverOptions
) -> Iterator[SearchEvent | SolveReport]:
    """The perturbation search as a stream of events.

    Yields one :class:`SearchEvent` per candidate pair, root first, and the
    :class:`SolveReport` as the last item.  Each pair is evaluated only
    when the next item is asked for, so a consumer that stops reading stops
    the search.  Options out of range raise :class:`ValueError` first,
    whatever the sizes.  The inputs may carry loops on the diagonal, such
    as pins of an outer search; every witness is checked by
    :func:`is_exact_isomorphism` on the full matrices, so it maps them too,
    and every pin weighs more than any of them.  Each level pins the free
    A-vertex whose row of its parent's mask offers the fewest unpinned
    B-vertices, at least two, and tries those (see the module docstring).
    The searches for automorphisms that prune candidates are searches of
    this kind; their work is counted in the report, not streamed.
    """
    eps = opts.eps
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if opts.max_backtrack_steps < 0:
        raise ValueError(
            f"max_backtrack_steps must be >= 0, got {opts.max_backtrack_steps}"
        )
    if a.n != b.n:
        yield SolveReport(NOT_ISOMORPHIC, None, root_cost=float("inf"), reason="size")
        return
    n = a.n
    backtracks = lap_solves = pruned = inner_searches = 0
    automorphisms: list[np.ndarray] = []  # of b, each verified
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
            pruned=pruned,
            inner_searches=inner_searches,
        )

    def frame(a_prev: Graph, b_prev: Graph, mask: np.ndarray) -> _Frame:
        """The next level: the free A-vertex offered the fewest B-vertices, at least two."""
        offered = mask.copy()
        offered[:, [f.pin.j for f in stack]] = False
        taken = np.zeros(n, dtype=bool)
        taken[[f.i for f in stack]] = True
        sizes = offered.sum(axis=1)
        sizes[taken | (sizes < 2)] = n + 1
        i = int(sizes.argmin()) if sizes.min() <= n else int(taken.argmin())
        w = base + len(stack) + 1.0
        a_pinned = perturb(a_prev, i, w)
        candidates = np.flatnonzero(offered[i]).tolist()
        return _Frame(i, w, a_pinned, eigendecompose(a_pinned), b_prev, candidates)

    def symmetric(top: _Frame, j: int) -> bool:
        """Whether an automorphism of b fixing the pins above top maps a
        candidate top has exhausted onto j.

        Stored automorphisms answer first.  Otherwise a capped search, from
        one accepted candidate of each orbit, may find a new one.
        """
        nonlocal decompositions, lap_solves, inner_searches
        pins = [f.pin.j for f in stack[:-1]]
        fixing = [s for s in automorphisms if (s[pins] == pins).all()]
        if _orbit(top.candidates[: top.k - 1], fixing, n)[j]:
            return True
        tried = np.zeros(n, dtype=bool)
        for j0 in top.accepted:
            if tried[j0]:
                continue
            tried |= _orbit([j0], fixing, n)
            x, y = perturb(top.b, j0, top.w), perturb(top.b, j, top.w)
            inner = deque(search(x, y, SolverOptions(eps, _AUTOMORPHISM_BACKTRACKS)), maxlen=1)[0]
            decompositions += inner.decompositions
            lap_solves += inner.lap_solves
            inner_searches += 1 + inner.inner_searches
            if inner.outcome != ISOMORPHIC:
                continue
            sigma = inner.permutation.map
            # Forced by the verified diagonals on loop-free inputs; checked for others.
            if sigma[j0] == j and (sigma[pins] == pins).all():
                automorphisms.append(sigma)
                return True
        return False

    root_cost, perm, mask = _evaluate(eigendecompose(a), eigendecompose(b), eps)
    decompositions = 2
    lap_solves += mask is not None
    yield SearchEvent(None, None, None, root_cost, mask, perm is not None)
    if perm is None:
        yield report(NOT_ISOMORPHIC, reason="spectrum" if mask is None else "assignment")
        return
    if is_exact_isomorphism(a, b, perm):
        yield report(ISOMORPHIC, perm)
        return

    # Pins weigh more than any loop of the inputs; set once a pin is needed.
    base = max(np.abs(np.diag(a.adj)).max(), np.abs(np.diag(b.adj)).max())
    stack.append(frame(a, b, mask))
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
            if symmetric(top, j):
                pruned += 1
                yield SearchEvent(level, top.i, j, float("inf"), None, False, pruned=True)
                continue
            b_pinned = perturb(top.b, j, top.w)
            e, perm, mask = _evaluate(top.da, eigendecompose(b_pinned), eps)
            decompositions += 1
            lap_solves += mask is not None
            yield SearchEvent(level, top.i, j, e, mask, perm is not None)
            if perm is None:
                continue
            top.accepted.append(j)
            top.pin = RoundRecord(top.i, j, e, int(mask.sum()))
            if is_exact_isomorphism(a, b, perm):
                yield report(ISOMORPHIC, perm)
                return
            if level + 1 < n:
                stack.append(frame(top.a, b_pinned, mask))
                decompositions += 1
                continue
            # Every vertex is pinned.  On 0/1 input the mask is then the pins'
            # own map, but with weights and a spectral radius above 1/(2 eps)
            # the diagonal bound does not force that, so it is checked too.
            images = np.empty(n, dtype=int)
            for f in stack:
                images[f.i] = f.pin.j
            witness = Permutation(images)
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
