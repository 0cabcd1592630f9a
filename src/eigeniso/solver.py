"""Isomorphism search: projector cost matrices, perturbation rounds, backtracking.

For every eigenvalue group the rows of the two orthogonal projectors are
sorted and compared pairwise, giving a nonnegative cost matrix whose
assignment optimum is (near) zero whenever the graphs are isomorphic.
Both sides of a pair use one partition, cut only where both spectra have a
gap of at least eps, and one function, :func:`_decide`, decides every cost
matrix.  Repeated eigenvalues leave the assignment ambiguous, so the search
pins level by level.  Level L takes the free vertex i of A whose row of the
parent mask (at level 0, the root's sub-eps mask) offers the fewest
B-vertices, at least two, puts a self-loop of weight base + L + 1 on it,
base being the largest loop weight of the inputs, and scans those
B-vertices for a partner j.  Before a candidate j costs a decomposition,
the parent mask with row i and column j cleared and (i, j) set is refined
to arc consistency (:func:`_arc_consistency`); a row or column left empty
refutes the pin.  Else the pin is decided once, on its sub-eps mask within
that fixpoint (the costs outside it set to inf): a perfect matching of that
mask accepts the pin and is its witness, and the mask is the next level's
parent mask.  Each fixpoint keeps its pinned rows and columns to their pins
alone, so no level offers a B-vertex pinned above it, at any eps.  The
root's witness is its sub-eps mask's matching.  The search ends at the
first witness that maps the inputs onto each other entry for entry,
diagonal included (:func:`is_exact_isomorphism`).  Each level is one call;
a pin whose witness fails calls the level below, unless no row of its mask
offers two B-vertices, for then the mask is that witness alone and the pin
a dead end.  A level out of candidates returns, refuting the pin that
called it (backtracking).  :func:`search` yields one event per candidate
and the report last; :func:`is_isomorphic` reads the report,
``check --masks-out`` the events' masks.

What exhaustion proves.  Every rejection in the search is a necessary
condition failing: the pinned spectra differ by more than eps, the sub-eps
mask (at a pin, within its fixpoint) has no perfect matching, or a
consistency fixpoint leaves a line empty.  Let pi be an isomorphism
extending the pins so far.  The pinned graphs are isomorphic through pi, so
every c[x][pi(x)] is zero up to rounding and pi lies in the sub-eps mask of
each of its pins.  It lies in each parent mask too, by induction over the
levels: if pi lies in level L's parent mask, it lies in that mask with row
i and column pi(i) cleared and (i, pi(i)) set.  There each pair (x, pi(x))
is supported by pi's own pairs: a neighbour x' of x has the partner pi(x')
among the neighbours of pi(x), and the other way round, since pi maps
nonzero weights, the edges the filter reads, onto nonzero weights.  A pass
drops only unsupported pairs, so the fixpoint keeps pi whole, and so does
the pin's mask, its sub-eps entries within the fixpoint.  So a parent mask
in which no row offers two B-vertices is pi, the witness checked above it,
else level L's candidates, the row of its vertex i, contain pi(i), and the
pin (i, pi(i)) passes all three tests: the filter adds no premise to the
one below.  Level L also skips a candidate j when an automorphism sigma of
B that fixes every pinned B-vertex maps a candidate j0 it has ruled out
(refuted, rejected or exhausted) onto j: were pi(i) = j, then sigma^-1 pi
would extend the pins with (i, j0), which j0's failure ruled out.  Each
sigma comes from a search of this kind, capped at a few backtracks, between
B pinned at j0 and B pinned at j with level L's weight, and is kept only
once it maps the one onto the other entry for entry, diagonal included,
fixes the pins and sends j0 to j; the group of the kept ones that fix the
pins gives the orbits.  The orbit step thus adds no numerical premise.  By
induction an exhausted tree rules out every isomorphism, provided a true
isomorphism's entries c[x][pi(x)] stay below eps.  That premise is
numerical: rounding must stay far below eps, and both sides must be grouped
alike, which the shared partition ensures.  As the premise is not checked,
exhaustion is reported as reason ``"exhaustion"``, a heuristic.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
    max_backtrack_steps: backtracks allowed before giving up (outcome
        inconclusive, never a wrong answer); nonnegative.

    :func:`search` checks both when it is entered, before it compares the
    sizes, and raises :class:`ValueError` if either is out of range.
    """

    eps: float = DEFAULT_EPS
    max_backtrack_steps: int = 10**6


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
    root as in every round, is the row-order sum of the sub-eps mask's
    matching, the witness, an upper bound of the optimum and below n * eps.
    An isomorphic search ends at the first verified witness, so rounds may
    stop short of n.  rounds are the accepted :class:`SearchEvent` of each
    level on the search's path, in level order, the very objects
    :func:`search` yields; a round's i is the A-vertex its level pinned, and
    its mask the mask the level below reads, with ``int(r.mask.sum())``
    entries.  A NOT_ISOMORPHIC search ends with no level left, so with no
    rounds; an INCONCLUSIVE one keeps the pins not yet refuted when it
    crossed the cap.
    pruned counts the candidates skipped by an automorphism of B (see
    :class:`SearchEvent`), consistency_rejects the pins refuted by
    :func:`_arc_consistency`, inner_searches the capped searches run to
    find those automorphisms, nested ones included.  decompositions,
    lap_solves (the cost matrices decided) and consistency_rejects include
    the inner searches'.  backtrack_steps counts the accepted pins that
    proved dead ends.  :func:`search` counts into the report as it runs;
    the size-mismatch report counts nothing.
    """

    outcome: str
    permutation: Permutation | None
    backtrack_steps: int = 0
    decompositions: int = 0
    lap_solves: int = 0
    rounds: list[SearchEvent] = field(default_factory=list)
    root_cost: float = 0.0
    reason: str | None = None
    pruned: int = 0
    inner_searches: int = 0
    consistency_rejects: int = 0

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

    Column g of ``va`` and ``vb`` is the unit eigenvector of group g in A
    and B.  Row i of v v^T, sorted, is x u with x = |v_i| and u = sort(v),
    or sort(-v) = -sort(v)[::-1] when v_i < 0.  For unit u and w,
    <u - w, w> = -|u - w|^2 / 2, so |x u - y w|^2 = (x - y)^2 + x y |u - w|^2:
    two nonnegative terms, nothing to cancel near zero, where eps decides.
    Reversing both vectors keeps the norm, so per group |u - w|^2 is
    |sort(a) - sort(b)|^2 when the pair's signs agree and
    |sort(a) + sort(b)[::-1]|^2 when they differ.
    """
    asc_a, asc_b = np.sort(va.T, axis=1), np.sort(vb.T, axis=1)
    same, flip = asc_a - asc_b, asc_a + asc_b[:, ::-1]
    dd_same = np.einsum("gn,gn->g", same, same)
    dd_flip = np.einsum("gn,gn->g", flip, flip)
    out = np.empty(ii.shape[0])
    block = max(1, _PAIR_BLOCK // va.shape[1])
    for s in range(0, ii.shape[0], block):
        a_rows, b_rows = va[ii[s : s + block]], vb[jj[s : s + block]]
        dd = np.where((a_rows < 0) == (b_rows < 0), dd_same, dd_flip)
        x, y = np.abs(a_rows), np.abs(b_rows)
        out[s : s + block] = np.sqrt((x - y) ** 2 + x * y * dd).sum(axis=1)
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


def perfect_matching(mask: np.ndarray) -> np.ndarray | None:
    """A perfect matching inside a square boolean mask, or None if none exists.

    Returns ``col`` with ``mask[i, col[i]]`` for every row i, a bijection.
    Rows are first matched greedily to their lowest free column; each row
    left over is then matched along a shortest augmenting path (a
    breadth-first search over alternating paths, Hopcroft–Karp 1973 with
    one path per phase).  A row with no augmenting path proves that no
    perfect matching exists (Berge), so the search stops there.  Plain
    Python lists: at the sizes the search meets (n of a few dozen) this is
    cheaper than any dense O(n^3) solve.
    """
    m = np.asarray(mask, dtype=bool)
    n = m.shape[0]
    if m.ndim != 2 or m.shape != (n, n):
        raise ValueError("mask must be square")
    ii, jj = np.nonzero(m)
    cols = jj.tolist()
    ends = np.cumsum(np.bincount(ii, minlength=n)).tolist()
    adj = [cols[s:e] for s, e in zip([0] + ends[:-1], ends)]
    row_of = [-1] * n  # row matched to each column
    col_of = [-1] * n  # column matched to each row
    for i in range(n):
        for j in adj[i]:
            if row_of[j] < 0:
                row_of[j], col_of[i] = i, j
                break
    for i in range(n):
        if col_of[i] >= 0:
            continue
        came_from = [-1] * n  # the row from which the search reached a column
        frontier, end = [i], -1
        while frontier and end < 0:
            reached = []
            for r in frontier:
                for j in adj[r]:
                    if came_from[j] < 0:
                        came_from[j] = r
                        if row_of[j] < 0:
                            end = j
                            break
                        reached.append(row_of[j])
                if end >= 0:
                    break
            frontier = reached
        if end < 0:
            return None
        while end >= 0:  # flip the path back to row i
            r = came_from[end]
            row_of[end], col_of[r], end = r, end, col_of[r]
    return np.array(col_of)


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
    da: SpectralDecomposition, db: SpectralDecomposition, eps: float, within: np.ndarray | None = None
) -> tuple[float, Permutation | None, np.ndarray | None]:
    """Spectral check, then cost matrix and assignment decision.

    Returns (e, assignment, sub-eps mask) as :func:`_decide` does with the
    costs outside ``within`` (a pin's consistency fixpoint) set to inf, or
    (spectral distance, None, None) when the spectra differ by more than eps.
    """
    dist = spectral_distance(da, db)
    if dist > eps:
        return dist, None, None
    c = build_cost_matrix(da, db, eps)
    return _decide(c if within is None else np.where(within, c, np.inf), eps)


def _pattern(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """g's off-diagonal nonzeros as a 0/1 float32 matrix, and its degrees.

    Any nonzero weight counts as an edge.  float32 holds every count of
    :func:`_arc_consistency` exactly, up to 2**24.
    """
    edges = (g.adj != 0).astype(np.float32)
    np.fill_diagonal(edges, 0)
    return edges, edges.sum(axis=1)


def _arc_consistency(
    mask: np.ndarray, pa: tuple[np.ndarray, np.ndarray], pb: tuple[np.ndarray, np.ndarray]
) -> np.ndarray | None:
    """The largest submask of ``mask`` in which every pair is supported, or
    None once a row or column of it is empty.

    ``pa`` and ``pb`` are the :func:`_pattern` of A and B.  A pair (x, y)
    is supported while every neighbour of x has a partner in the mask among
    the neighbours of y, and every neighbour of y has one among those of x.
    Each pass drops every pair unsupported in the last mask, until a pass
    drops none (Ullmann 1976).
    """
    (a, deg_a), (b, deg_b) = pa, pb
    count = np.count_nonzero(mask)
    while True:
        m = mask.astype(np.float32)
        ok = np.matmul(a, m @ b > 0, dtype=np.float32) == deg_a[:, None]
        ok &= np.matmul(a @ m > 0, b, dtype=np.float32) == deg_b
        mask = mask & ok
        if not (mask.any(axis=1).all() and mask.any(axis=0).all()):
            return None
        if (kept := np.count_nonzero(mask)) == count:
            return mask
        count = kept


class SearchEvent(NamedTuple):
    """One candidate pair: vertex i of A pinned against vertex j of B at a level.

    The root, where nothing is pinned, has level = i = j = None.  cost and
    mask are those of :func:`_evaluate` (mask None when no cost matrix was
    built), a pin's within its consistency fixpoint: the mask the level
    below reads.  accepted means the mask holds a perfect matching, the
    witness, whose row-order sum is the cost, an upper bound of the optimum;
    a rejected pin's cost is at least eps, inf when no assignment lies
    within the fixpoint.  Two forms have cost inf, mask None and accepted
    False, and neither was decomposed: pruned marks a candidate skipped
    since an automorphism of B that fixes the pins maps a candidate already
    ruled out onto it, and a candidate with pruned False was refuted by
    :func:`_arc_consistency` on the parent mask.
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


class _BacktrackCap(Exception):
    """A backtrack crossed the cap; :func:`search` ends the search where it catches this."""


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
    A-vertex whose row of its parent's mask offers the fewest B-vertices,
    at least two, and tries those; a pin is decided once, on the mask it
    hands down, whose perfect matching is its one witness, and a mask
    without such a row is that witness alone (see the module docstring).
    The searches for automorphisms that prune candidates are searches of
    this kind; their work is counted in the report, not streamed.

    Each level is a nested call, so the stack holds one frame per pin on the
    path plus about five, an inner search's on top of its caller's.  A path
    of about 990 pins raises :class:`RecursionError` at Python's default
    limit of 1000.  k disjoint edges need k - 1 pins, so n near 2,000, where
    n = 160 takes 2.1-2.4 s (2-core Xeon) and time grows about as n**4.
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
    rep = SolveReport(INCONCLUSIVE, None)  # counted into as the search runs
    automorphisms: list[np.ndarray] = []  # of b, each verified

    def end(outcome: str, perm=None, reason=None) -> SolveReport:
        rep.outcome, rep.permutation, rep.reason = outcome, perm, reason
        return rep

    def fewest(mask: np.ndarray) -> int | None:
        """The free A-vertex offered the fewest B-vertices, at least two; else None."""
        sizes = mask.sum(axis=1)
        sizes[sizes < 2] = n + 1
        return int(sizes.argmin()) if sizes.min() <= n else None

    def finds_automorphism(b_prev: Graph, w: float, accepted: list[int], j: int, pins: list[int]) -> bool:
        """Whether a capped search from a candidate its level accepted finds an
        automorphism of b fixing the pins that maps it onto j; one found is kept."""
        for j0 in accepted:
            x, y = perturb(b_prev, j0, w), perturb(b_prev, j, w)
            inner = deque(search(x, y, SolverOptions(eps, _AUTOMORPHISM_BACKTRACKS)), maxlen=1)[0]
            rep.decompositions += inner.decompositions
            rep.lap_solves += inner.lap_solves
            rep.consistency_rejects += inner.consistency_rejects
            rep.inner_searches += 1 + inner.inner_searches
            if inner.outcome != ISOMORPHIC:
                continue
            sigma = inner.permutation.map
            # Forced by the verified diagonals on loop-free inputs; checked for others.
            if sigma[j0] == j and (sigma[pins] == pins).all():
                automorphisms.append(sigma)
                return True
        return False

    def level(a_prev: Graph, b_prev: Graph, mask: np.ndarray, i: int) -> Iterator[SearchEvent]:
        """Pin A-vertex i against each B-vertex of its row of mask in turn,
        searching the level below each accepted pin; returns the first
        verified witness, or None once every candidate is ruled out."""
        pins = [r.j for r in rep.rounds]  # the path above this level
        depth, w = len(pins), base + len(pins) + 1.0
        a_pinned = perturb(a_prev, i, w)
        da = eigendecompose(a_pinned)
        rep.decompositions += 1
        candidates = np.flatnonzero(mask[i]).tolist()
        accepted: list[int] = []
        for k, j in enumerate(candidates):
            # The cheapest test first: a kept automorphism fixing the pins maps
            # a candidate ruled out here onto j; then the consistency filter, so
            # a refuted pin costs no decomposition and no automorphism search.
            fixing = [s for s in automorphisms if (s[pins] == pins).all()]
            if _orbit(candidates[:k], fixing, n)[j]:
                rep.pruned += 1
                yield SearchEvent(depth, i, j, float("inf"), None, False, pruned=True)
                continue
            pinned = mask.copy()
            pinned[i], pinned[:, j] = False, False
            pinned[i, j] = True
            consistent = _arc_consistency(pinned, pa, pb)
            if consistent is None:
                rep.consistency_rejects += 1
                yield SearchEvent(depth, i, j, float("inf"), None, False)
                continue
            if finds_automorphism(b_prev, w, accepted, j, pins):
                rep.pruned += 1
                yield SearchEvent(depth, i, j, float("inf"), None, False, pruned=True)
                continue
            b_pinned = perturb(b_prev, j, w)
            e, perm, sub = _evaluate(da, eigendecompose(b_pinned), eps, consistent)
            rep.decompositions += 1
            rep.lap_solves += sub is not None
            event = SearchEvent(depth, i, j, e, sub, perm is not None)
            yield event
            if perm is None:
                continue
            accepted.append(j)
            rep.rounds.append(event)
            if is_exact_isomorphism(a, b, perm):
                return perm
            # With no row to pin, the mask is the matching that just failed.
            if (below := fewest(sub)) is not None:
                if (perm := (yield from level(a_pinned, b_pinned, sub, below))) is not None:
                    return perm
            rep.rounds.pop()  # a backtrack: the pin is refuted, so no round even at the cap
            rep.backtrack_steps += 1
            if rep.backtrack_steps > opts.max_backtrack_steps:
                raise _BacktrackCap
        return None

    rep.root_cost, perm, mask = _evaluate(eigendecompose(a), eigendecompose(b), eps)
    rep.decompositions += 2
    rep.lap_solves += mask is not None
    yield SearchEvent(None, None, None, rep.root_cost, mask, perm is not None)
    if perm is None:
        yield end(NOT_ISOMORPHIC, reason="spectrum" if mask is None else "assignment")
        return
    if is_exact_isomorphism(a, b, perm):
        yield end(ISOMORPHIC, perm)
        return

    # Pins weigh more than any loop of the inputs.  Both are set once a pin
    # is needed, as are the edge patterns the consistency filter reads.
    base = max(np.abs(np.diag(a.adj)).max(), np.abs(np.diag(b.adj)).max())
    pa, pb = _pattern(a), _pattern(b)
    try:
        # With no row to pin, the mask is the matching that just failed.
        i = fewest(mask)
        perm = None if i is None else (yield from level(a, b, mask, i))
    except _BacktrackCap:
        yield end(INCONCLUSIVE, reason="backtrack_cap")
        return
    yield end(NOT_ISOMORPHIC, reason="exhaustion") if perm is None else end(ISOMORPHIC, perm)


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
