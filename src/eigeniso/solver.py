"""Isomorphism search: a projector cost matrix at the root, then pins by colour refinement.

For every eigenvalue group the rows of the two orthogonal projectors are
sorted and compared pairwise, giving a nonnegative cost matrix whose
assignment optimum is (near) zero whenever the graphs are isomorphic.
Both sides use one partition, cut only where both spectra have a gap of at
least eps, and :func:`_decide` decides the matrix by its sub-eps mask, the
root's mask.  Only the root decomposes.  Repeated eigenvalues leave the
assignment ambiguous, so the search pins level by level, as
individualisation-refinement solvers do (McKay & Piperno 2014).  Level L
takes the free vertex i of A whose row of the parent mask (at level 0, the
root's) offers the fewest B-vertices, at least two, and scans those for a
partner j.  A pin (i, j) gives i and j one fresh shared colour, and the
colours of A and B, which start as the classes of equal diagonal entries,
are refined together (:func:`_refine`); unequal histograms refute the pin.
Else the pin's mask is the parent mask on pairs of equal colour, row i and
column j cleared but for (i, j), at its arc-consistency fixpoint
(:func:`_arc_consistency`); an emptied line refutes the pin.  When the
parent mask keeps every pair of equal colour, as on every pin of the
strongly regular and Latin-square pairs, that fixpoint is the mask of
equal colours itself, in closed form: the refined colouring is stable with
equal histograms, so every pair of equal colour is supported, and i and j
alone share their colour (:func:`_individualise`).  A perfect matching of
the mask accepts the pin and is its witness (in closed form, the k-th
A-vertex of each colour against its k-th B-vertex), and the mask is the
next level's parent mask.  The search ends at the first witness that
maps the inputs onto each other entry for entry, diagonal included
(:func:`is_exact_isomorphism`).  Each level is one call; a pin whose
witness fails calls the level below, unless no row of its mask offers two
B-vertices, for then the mask is that witness alone and the pin a dead
end.  A level out of candidates returns, refuting the pin that called it
(backtracking).  :func:`search` yields one event per candidate and the
report last; :func:`is_isomorphic` reads the report, ``check
--masks-out`` the events' masks.

What exhaustion proves.  Let pi be an isomorphism extending the pins so
far.  Its root entries c[x][pi(x)] are zero up to rounding, so pi lies in
the root's mask; if pi lies in level L's parent mask, the pin (i, pi(i))
passes every test.  pi maps A's colours onto B's: at the start, as it maps
the diagonal and i onto pi(i), and after each pass, as a new colour is a
function of the old one and the multiset of the neighbours' colours.  So
the histograms agree and pi lies in the mask of equal colours, where each
pair (x, pi(x)) is supported by pi's own pairs (pi maps neighbours onto
neighbours), so the fixpoint keeps pi whole, and so does the closed form,
a superset of the fixpoint should sums collide.  By induction a parent mask
in which no row offers two B-vertices is pi, the witness checked above it,
else level L's candidates contain pi(i).  No test below the root is
numerical: colours are integers (a collision of sums merges colours, which
keeps pi) and masks booleans.  Level L also skips a candidate j when an
automorphism sigma of B fixing every pinned B-vertex maps a candidate j0
it has ruled out (refuted, rejected or exhausted) onto j: were pi(i) = j,
sigma^-1 pi would extend the pins with (i, j0).  Each sigma comes from the
levels of B against B under the level's colours, from a level that offers
j0 the candidate j alone, capped at a few backtracks; it is kept only once
it maps B onto itself entry for entry and fixes the pins.  So an exhausted
tree rules out every isomorphism, provided a true isomorphism's root
entries stay below eps.  That premise is numerical: rounding must stay far
below eps, and both sides must be grouped alike, which the shared
partition ensures.  As it is not checked, exhaustion is reported as reason
``"exhaustion"``, a heuristic.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graph import Graph, Permutation, is_exact_isomorphism
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
    when the sizes differ), else its cost as :func:`_evaluate` gives it.  A
    rejected cost is at least eps and a lower bound of the exact optimum up
    to rounding, possibly far below it, which still certifies the
    rejection: an empty row of the sub-eps mask gives the sum of the row
    minima, the empty rows' costs exact (else empty columns, the column
    minima), and a mask without a perfect matching its least entry outside
    the mask, which may be a partial sum of a row-norm bound (see
    :func:`build_cost_matrix`).  An accepted cost is the row-order sum of
    the sub-eps mask's matching, the witness, an upper bound of the optimum
    and below n * eps.  rounds are the accepted
    :class:`SearchEvent` of each level on the search's path, in level
    order, the very objects :func:`search` yields; a round's i is the
    A-vertex its level pinned, its cost 0.0, and its mask the mask the
    level below reads.  An isomorphic search ends at the first verified
    witness, so rounds may stop short of n; a NOT_ISOMORPHIC one ends with
    no rounds; an INCONCLUSIVE one keeps the pins not yet refuted when it
    crossed the cap.  pruned counts the candidates skipped by an
    automorphism of B, consistency_rejects the pins refuted by unequal
    colour histograms or an emptied line (see :class:`SearchEvent`),
    inner_searches the capped searches for those automorphisms, nested ones
    included; consistency_rejects includes theirs.  decompositions and
    lap_solves (cost matrices decided) count the root's alone.
    backtrack_steps counts the accepted pins that proved dead ends.
    :func:`search` counts into the report as it runs; the size-mismatch
    report counts nothing.
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
    c[ii, jj] = _exact_costs(da, db, starts, ii, jj)
    return c


def _exact_costs(da: SpectralDecomposition, db: SpectralDecomposition, starts: list[int],
                 ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """The exact costs of the pairs (ii[p], jj[p]), groups beginning at ``starts``."""
    n = da.n
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
    return exact


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
    da: SpectralDecomposition, db: SpectralDecomposition, eps: float
) -> tuple[float, Permutation | None, np.ndarray | None]:
    """Spectral check, then cost matrix and assignment decision.

    Returns (e, assignment, sub-eps mask) as :func:`_decide` does, or
    (spectral distance, None, None) when the spectra differ by more than eps.
    A rejection by empty rows, else empty columns, first takes the exact
    costs of those lines, where the matrix may hold partial sums of its
    bound, so that e sums their true minima; an accepted pair pays nothing.
    """
    dist = spectral_distance(da, db)
    if dist > eps:
        return dist, None, None
    cost, perm, mask = _decide(c := build_cost_matrix(da, db, eps), eps)
    if perm is not None:
        return cost, perm, mask
    for axis, empty in ((1, ~mask.any(axis=1)[:, None]), (0, ~mask.any(axis=0))):
        if empty.any():
            ii, jj = np.nonzero(np.broadcast_to(empty, c.shape))
            c[ii, jj] = _exact_costs(da, db, group_eigenvalues(da.values, db.values, eps), ii, jj)
            return _sequential_sum(c.min(axis=axis)), None, mask
    return cost, None, mask


def _pattern(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g's off-diagonal nonzeros (any weight an edge) as a 0/1 float32 matrix,
    its degrees, and the matrix in uint64.

    float32 holds every count of :func:`_arc_consistency` exactly, up to
    2**24; uint64 products with :func:`_refine`'s keys wrap modulo 2**64.
    """
    edges = (g.adj != 0).astype(np.float32)
    np.fill_diagonal(edges, 0)
    return edges, edges.sum(axis=1), edges.astype(np.uint64)


def _arc_consistency(mask: np.ndarray, pa: tuple, pb: tuple) -> np.ndarray | None:
    """The largest submask of ``mask`` in which every pair is supported, or
    None once a row or column of it is empty.

    ``pa`` and ``pb`` are the :func:`_pattern` of A and B.  A pair (x, y)
    is supported while every neighbour of x has a partner in the mask among
    the neighbours of y, and every neighbour of y has one among those of x.
    Each pass drops every pair unsupported in the last mask, until a pass
    drops none (Ullmann 1976).
    """
    (a, deg_a, _), (b, deg_b, _) = pa, pb
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


def _refine(pa: tuple, pb: tuple, colours: np.ndarray, keys: np.ndarray) -> np.ndarray | None:
    """Colour refinement of A and B together (Weisfeiler & Leman 1968).

    ``colours`` colour A's vertices, then B's.  A pass gives each vertex
    its colour's key in ``keys[0]`` plus the sum of its neighbours' keys in
    ``keys[1]``, modulo 2**64 (one table would give a vertex of colour x
    with neighbours y, y, y the sum of one of colour y with neighbours x, y,
    y), and numbers the sums of both sides together in ascending order,
    until the number of colours stops growing.  Returns the colours, or
    None once the sides' histograms differ.  Integer sums do not depend on
    the order of summation, so no label matters; sums that collide merge
    colours, which keeps every isomorphism that maps colours onto colours.
    """
    (_, _, a), (_, _, b) = pa, pb
    n = a.shape[0]
    sides = np.repeat([1, -1], n)  # a colour's weights cancel when both sides hold it alike
    k = np.count_nonzero(np.bincount(colours))
    while True:
        sums, near = keys[0][colours], keys[1][colours]
        sums[:n] += a @ near[:n]
        sums[n:] += b @ near[n:]
        # each sum's rank among the distinct sums, as np.unique numbers them
        order = sums.argsort()
        ranks = np.cumsum(sums[order[1:]] != sums[order[:-1]])
        colours = np.empty_like(order)
        colours[order[0]], colours[order[1:]] = 0, ranks
        if np.bincount(colours, weights=sides).any():
            return None
        if ranks[-1] < k:
            return colours
        k = ranks[-1] + 1


def _individualise(pa: tuple, pb: tuple, mask: np.ndarray, colours: np.ndarray, i: int, j: int,
                   keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
    """The pin (i, j): i and j take one fresh colour, :func:`_refine` refines
    ``colours`` (A's vertices, then B's), and the pin's mask is the
    :func:`_arc_consistency` fixpoint of ``mask`` on pairs of equal colour,
    row i and column j cleared but for (i, j), in closed form when ``mask``
    keeps every pair of equal colour (see the module docstring).  Returns
    the colours, the mask and its :func:`perfect_matching` (None if it holds
    none), or None when the histograms differ or a line empties."""
    n = mask.shape[0]
    colours = colours.copy()
    colours[i] = colours[n + j] = colours.max() + 1
    if (colours := _refine(pa, pb, colours, keys)) is None:
        return None
    equal = colours[:n, None] == colours[n:]
    if not (equal > mask).any():  # the fixpoint, and greedy matching's pairs on it
        match = np.empty(n, dtype=np.intp)
        match[colours[:n].argsort(kind="stable")] = colours[n:].argsort(kind="stable")
        return colours, equal, match
    equal &= mask
    equal[i], equal[:, j] = False, False
    equal[i, j] = True
    fixpoint = _arc_consistency(equal, pa, pb)
    return None if fixpoint is None else (colours, fixpoint, perfect_matching(fixpoint))


class SearchEvent(NamedTuple):
    """One candidate pair: vertex i of A pinned against vertex j of B at a level.

    The root has level = i = j = None, and the cost and mask of
    :func:`_evaluate` (mask None on a spectral rejection).  A pin's mask is
    :func:`_individualise`'s, the mask the level below reads, and its cost
    is 0.0 when accepted, else inf.  accepted means the mask holds a perfect
    matching, the witness.  A pin with mask None was not decided: pruned, as
    an automorphism of B fixing the pins maps a candidate already ruled out
    onto it, or else refuted by unequal histograms or an emptied line.
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


def _orbit(inside: np.ndarray, generators: list[np.ndarray]) -> None:
    """Grow the vertex mask ``inside`` to its orbits under the group the permutations generate."""
    count = np.count_nonzero(inside)
    while True:
        for g in generators:
            inside[g[inside]] = True
        if (grown := np.count_nonzero(inside)) == count:
            return
        count = grown


def _fewest(mask: np.ndarray) -> int | None:
    """The A-vertex whose row of mask offers the fewest B-vertices, at least two; else None."""
    sizes = mask.sum(axis=1)
    sizes[sizes < 2] = mask.shape[0] + 1
    return int(sizes.argmin()) if sizes.min() <= mask.shape[0] else None


class _BacktrackCap(Exception):
    """A backtrack crossed the cap; :func:`search` ends the search where it catches this."""


class _Levels:
    """The levels of a search of A against B below its root: the edge
    patterns, the colour keys, the report counted into, the backtrack cap,
    and the kept automorphisms of B, each verified."""

    def __init__(self, a: Graph, b: Graph, pa: tuple, pb: tuple, keys: np.ndarray, rep: SolveReport,
                 cap: int) -> None:
        self.a, self.b, self.pa, self.pb, self.keys, self.rep, self.cap = a, b, pa, pb, keys, rep, cap
        self.automorphisms: list[np.ndarray] = []

    def finds_automorphism(self, accepted: list[int], j: int, cb: np.ndarray, pins: list[int]) -> bool:
        """Whether a capped search from a candidate its level accepted finds an
        automorphism of b fixing the pins that maps it onto j; one found is kept.

        The search runs the levels of B against B, both coloured ``cb``,
        from a level that offers j0 the candidate j alone: B individualised
        at j0 against B individualised at j.
        """
        b, rep = self.b, self.rep
        for j0 in accepted:
            rep.inner_searches += 1
            inner = SolveReport(INCONCLUSIVE, None)
            offer = np.ones((b.n, b.n), dtype=bool)
            offer[j0] = False
            offer[j0, j] = True
            levels = _Levels(b, b, self.pb, self.pb, self.keys, inner, _AUTOMORPHISM_BACKTRACKS)
            events = levels.level(offer, np.concatenate([cb, cb]), j0)
            try:  # run unread to the end, for what the level returns
                while True:
                    next(events)
            except StopIteration as stop:
                sigma = stop.value
            except _BacktrackCap:
                sigma = None
            rep.consistency_rejects += inner.consistency_rejects
            rep.inner_searches += inner.inner_searches
            # The colours keep every pin fixed, unless two keys' sums collided.
            if sigma is not None and (sigma.map[pins] == pins).all():
                self.automorphisms.append(sigma.map)
                return True
        return False

    def level(self, mask: np.ndarray, colours: np.ndarray, i: int) -> Iterator[SearchEvent]:
        """Pin A-vertex i against each B-vertex of its row of mask in turn,
        searching the level below each accepted pin; returns the first
        verified witness, or None once every candidate is ruled out."""
        rep = self.rep
        pins = [r.j for r in rep.rounds]  # the path above this level
        depth, inf, n = len(pins), float("inf"), mask.shape[0]
        candidates = np.flatnonzero(mask[i]).tolist()
        accepted: list[int] = []
        # The orbit of the candidates ruled out so far under the kept
        # automorphisms fixing the pins.  It grows only when a candidate
        # outside it is ruled out, and only such a candidate's search can
        # have kept more automorphisms, so only then is it closed again.
        ruled_out, fixing, seen = np.zeros(n, dtype=bool), [], 0
        for k, j in enumerate(candidates):
            if k and not ruled_out[candidates[k - 1]]:
                fixing += [s for s in self.automorphisms[seen:] if (s[pins] == pins).all()]
                seen = len(self.automorphisms)
                ruled_out[candidates[k - 1]] = True
                if fixing:
                    _orbit(ruled_out, fixing)
            # The cheapest test first: j lies in that orbit; then the
            # refinement and its fixpoint, so a refuted pin costs no
            # automorphism search.
            if ruled_out[j]:
                rep.pruned += 1
                yield SearchEvent(depth, i, j, inf, None, False, pruned=True)
                continue
            pinned = _individualise(self.pa, self.pb, mask, colours, i, j, self.keys)
            if pinned is None:
                rep.consistency_rejects += 1
                yield SearchEvent(depth, i, j, inf, None, False)
                continue
            if self.finds_automorphism(accepted, j, colours[n:], pins):
                rep.pruned += 1
                yield SearchEvent(depth, i, j, inf, None, False, pruned=True)
                continue
            refined, sub, match = pinned
            event = SearchEvent(depth, i, j, inf if match is None else 0.0, sub, match is not None)
            yield event
            if match is None:
                continue
            accepted.append(j)
            rep.rounds.append(event)
            if is_exact_isomorphism(self.a, self.b, perm := Permutation(match)):
                return perm
            # With no row to pin, the mask is the witness that just failed.
            if (below := _fewest(sub)) is not None:
                if (perm := (yield from self.level(sub, refined, below))) is not None:
                    return perm
            rep.rounds.pop()  # a backtrack: the pin is refuted, so no round even at the cap
            rep.backtrack_steps += 1
            if rep.backtrack_steps > self.cap:
                raise _BacktrackCap
        return None


def search(
    a: Graph, b: Graph, opts: SolverOptions
) -> Iterator[SearchEvent | SolveReport]:
    """The search (see the module docstring) as a stream of events.

    Yields one :class:`SearchEvent` per candidate pair, root first, and the
    :class:`SolveReport` as the last item.  Each pair is evaluated only
    when the next item is asked for, so a consumer that stops reading stops
    the search.  Options out of range raise :class:`ValueError` first,
    whatever the sizes.  The inputs may carry loops: the colours start
    from the classes of equal diagonal entries, and every witness is
    checked on the full matrices.  The searches for automorphisms that
    prune candidates are counted in the report, not streamed.

    Each level is a nested call, so the stack holds one frame per pin on the
    path plus about five, an inner search's on top of its caller's.  A path
    of about 990 pins raises :class:`RecursionError` at Python's default
    limit of 1000.  k disjoint edges need k - 1 pins, so n near 2,000, where
    n = 160 takes 0.10-0.14 s (2-core Xeon) and time grows about as n**3.
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
    rep = SolveReport(INCONCLUSIVE, None)  # counted into as the search runs

    def end(outcome: str, perm=None, reason=None) -> SolveReport:
        rep.outcome, rep.permutation, rep.reason = outcome, perm, reason
        return rep

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

    # Set once a pin is needed: the edge patterns; two tables of colour keys,
    # from a fixed seed so that every solve reads the same, with room for the
    # 2n colours a joint colouring holds and a pin's fresh one; and the first
    # colours, the classes of equal diagonal entries.
    keys = np.random.default_rng(0).integers(2**64, size=(2, 2 * a.n + 1), dtype=np.uint64)
    levels = _Levels(a, b, _pattern(a), _pattern(b), keys, rep, opts.max_backtrack_steps)
    diagonals = np.unique(np.concatenate([np.diag(a.adj), np.diag(b.adj)]), return_inverse=True)[1]
    try:
        # With no row to pin, the mask is the matching that just failed.
        i = _fewest(mask)
        perm = None if i is None else (yield from levels.level(mask, diagonals, i))
    except _BacktrackCap:
        yield end(INCONCLUSIVE, reason="backtrack_cap")
        return
    yield end(NOT_ISOMORPHIC, reason="exhaustion") if perm is None else end(ISOMORPHIC, perm)


def is_isomorphic(a: Graph, b: Graph, opts: SolverOptions | None = None) -> SolveReport:
    """Full isomorphism test of two plain graphs: :func:`search`'s report.

    A returned permutation has been validated entry for entry against the
    inputs, so an ``isomorphic`` outcome is unconditionally sound.  The
    inputs must have a zero diagonal; a self-loop raises :class:`ValueError`.
    """
    for g in (a, b):
        if np.diag(g.adj).any():
            raise ValueError("input graphs must have no self-loops (zero diagonal)")
    return deque(search(a, b, opts or SolverOptions()), maxlen=1)[0]
