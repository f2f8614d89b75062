"""Layer-shifting approximation scheme for planar inputs.

Vertices are layered by BFS level; for each offset, one level class mod k is
deleted, every remaining piece spans fewer than k consecutive levels, and
the bounded-width engine solves each piece exactly. BFS levels stand in for
face-peeling layers: they satisfy the same edge-span invariant without
requiring a plane embedding, and a band of k consecutive BFS levels of a
planar graph still has small treewidth. Planarity of the input is trusted,
not verified.

The reported value re-evaluates piece witness sets against the whole graph
and keeps the best, which makes it a true lower bound on the graph's
independence-domination number (a piece alone may overshoot: deleting a
layer can remove dominators and leave a strictly harder subgraph). Within
one shift, a combination that cannot beat the best value so far is settled
without an exact solve: first by counting its members outside the closed
neighbourhood N[D] of each dominating set D already found (each of them can
dominate itself, so gamma(A) <= |D| + |A - N[D]|), otherwise by a solve
with that value as its cutoff. The best value of every shift is still exact.

A piece graph that recurs within one call, across shifts or components, is
decomposed, solved and searched for optimal sets once, and lifted through
its own id maps at each occurrence. The optimal-set search skips by the same
count: a maximal independent set m with |D| + |m - N[D]| below the piece
optimum, for a witness D found earlier, cannot reach it and is not solved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .graph import (Graph, GraphError, bits, closed_neighborhood, connected_components,
                    induced_subgraph, vertex_set)
from .oracle import DominationCertificate, enumerate_maximal_independent_sets, gamma_of_set
from .treewidth import DEFAULT_WIDTH_CEILING, gamma_i_treewidth, heuristic_decomposition
from .exactexp import check_ceiling, gamma_of_independent_set_fast


@dataclass(frozen=True)
class Layering:
    """BFS levels: every edge joins vertices at most one level apart."""

    level: tuple[int, ...]

    @property
    def level_count(self) -> int:
        return max(self.level) + 1 if self.level else 0


def bfs_layering(g: Graph, roots) -> Layering:
    roots = vertex_set(g, roots)
    if roots == 0:
        raise GraphError("layering needs a nonempty root set")
    level = [-1] * g.n
    frontier = []
    for v in bits(roots):
        level[v] = 0
        frontier.append(v)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for w in bits(g.row[v]):
                if level[w] < 0:
                    level[w] = depth
                    nxt.append(w)
        frontier = nxt
    if any(l < 0 for l in level):
        missing = level.index(-1)
        raise GraphError(f"vertex {missing} is unreachable from the roots")
    return Layering(tuple(level))


def shifted_subgraph(g: Graph, layering: Layering, k: int, ell: int):
    """Induced subgraph after deleting every level congruent to ell-1 mod k.

    Returns (subgraph, list mapping new ids to original ids).
    """
    if not (1 <= ell <= k):
        raise GraphError(f"shift {ell} out of range 1..{k}")
    keep = 0
    for v in range(g.n):
        if layering.level[v] % k != (ell - 1) % k:
            keep |= 1 << v
    return induced_subgraph(g, keep)


@dataclass
class PtasResult:
    value: int
    certificate: DominationCertificate
    k: int
    shifts: list = field(default_factory=list)  # (component root, best shift)
    piece_values: dict = field(default_factory=dict)  # (root, shift) -> piece DP value
    certified_values: dict = field(default_factory=dict)  # (root, shift) -> re-evaluated value
    combinations_solved: int = 0  # combinations re-dominated in g
    combinations_settled: int = 0  # combinations settled by |D| + |A \ N[D]| <= best
    pieces_solved: int = 0  # distinct piece graphs solved
    pieces_reused: int = 0  # piece occurrences answered by an earlier solve
    sets_settled: int = 0  # piece sets skipped by |D| + |m \ N[D]| < piece optimum


# caps for the witness search: per piece, how many optimal independent sets
# to consider, and how many of their combinations to re-evaluate globally
_OPTIONS_PER_PIECE = 8
_COMBINATION_CAP = 256


def _optimal_sets(part, value):
    """Up to _OPTIONS_PER_PIECE maximal independent sets of the piece that
    achieve its optimum, in enumeration order, and how many sets the
    counting test skipped.

    Each member of a set m outside N[D] can dominate itself, so a witness D
    gives gamma(m) <= |D| + |m & ~N[D]|; m is skipped unsolved when that
    bound is below value for some witness D found so far.
    """
    found = []
    uncovered = []  # (~N[D], value - |D|) for every witness D below the optimum
    settled = 0
    for m in enumerate_maximal_independent_sets(part):
        if any((m & u).bit_count() < slack for u, slack in uncovered):
            settled += 1
            continue
        size, witness = gamma_of_set(part, m)
        if size < value:
            uncovered.append((~closed_neighborhood(part, witness), value - size))
        else:
            found.append(m)
            if len(found) >= _OPTIONS_PER_PIECE:
                break
    return found, settled


def ptas_gamma_i(
    g: Graph,
    epsilon: float,
    root: int | None = None,
    width_ceiling: int = DEFAULT_WIDTH_CEILING,
) -> PtasResult:
    """Shifting scheme: solve every shifted piece exactly and keep the best.

    Components are handled independently (the objective is additive over
    disjoint parts), each with its own best shift. Deleting a layer can make
    a piece strictly harder or strictly easier than the whole graph, so the
    raw piece optimum is neither an upper nor a lower bound; the reported
    value therefore re-dominates piece witnesses inside the full graph,
    trying several combinations of per-piece optimal sets, which yields a
    certified lower bound and coincides with the exact answer whenever some
    shift deletes nothing.
    """
    if not (0 < epsilon < 1):
        raise GraphError("epsilon must be in (0, 1)")
    if not math.isfinite(1 / epsilon):
        raise GraphError(f"epsilon {epsilon} is too small: 1/epsilon is not finite")
    if root is not None and not 0 <= root < g.n:
        raise GraphError(f"root {root} is not a vertex in 0..{g.n - 1}")
    check_ceiling("width", width_ceiling)
    k = math.ceil(1 / epsilon)
    result = PtasResult(0, DominationCertificate(0, 0, 0), k)
    a_total = 0
    d_total = 0
    total = 0
    pieces = {}  # piece graph -> (DP value, optimal sets), for this call only
    for comp in connected_components(g):
        comp_root = root if root is not None and comp >> root & 1 else next(bits(comp))
        sub, ids = induced_subgraph(g, comp)
        local_root = ids.index(comp_root)
        layering = bfs_layering(sub, 1 << local_root)
        best = None
        # every shift above level_count + 1 deletes no level, as that one does
        for ell in range(1, min(k, layering.level_count + 1) + 1):
            piece_value = 0
            piece, piece_ids = shifted_subgraph(sub, layering, k, ell)
            options = []  # per piece component: candidate A masks in g's ids
            for piece_comp in connected_components(piece):
                part, part_ids = induced_subgraph(piece, piece_comp)
                if part in pieces:
                    result.pieces_reused += 1
                else:
                    try:
                        value, _ = gamma_i_treewidth(
                            part, heuristic_decomposition(part), width_ceiling
                        )
                    except GraphError as exc:
                        raise type(exc)(
                            f"piece (root {comp_root}, shift {ell}): {exc}"
                        ) from exc
                    sets, settled = _optimal_sets(part, value)
                    pieces[part] = (value, sets)
                    result.pieces_solved += 1
                    result.sets_settled += settled
                value, sets = pieces[part]
                piece_value += value
                lifted = []
                for m in sets:
                    mask = 0
                    for v in bits(m):
                        mask |= 1 << ids[piece_ids[part_ids[v]]]
                    lifted.append(mask)
                options.append(lifted)
            certified, a_mask, witness, solved, settled = _best_combination(g, options)
            result.combinations_solved += solved
            result.combinations_settled += settled
            result.piece_values[(comp_root, ell)] = piece_value
            result.certified_values[(comp_root, ell)] = certified
            if best is None or certified > best[0]:
                best = (certified, ell, a_mask, witness)
        certified, ell, a_mask, witness = best
        total += certified
        a_total |= a_mask
        d_total |= witness
        result.shifts.append((comp_root, ell))
    result.value = total
    result.certificate = DominationCertificate(a_total, d_total, total)
    return result


def _best_combination(g, options):
    """Most expensive union of per-piece optimal sets, re-dominated in g.

    Returns (value, union, witness, solved, settled): the best union with its
    exact value and a minimum dominating set, and how many combinations were
    re-dominated or settled without a solve. Any witness D a solve returned
    dominates a union A once each member of A outside its closed
    neighbourhood N[D] is added, so gamma(A) <= |D| + |A & ~N[D]|; when that
    count is at most the running best for some D found so far, A cannot raise
    the best and is settled. A union that fails every test gets the running
    best as its solve's cutoff, which settles it just as well when it cannot
    win.
    """
    if not options:
        return 0, 0, 0, 0, 0
    combos = 1
    for choice in options:
        combos *= len(choice)
    if combos > _COMBINATION_CAP:
        # keep the full choice only for the widest slots
        budget = _COMBINATION_CAP
        trimmed = []
        for choice in sorted(options, key=len, reverse=True):
            if budget // len(choice) >= 1 and budget > 1:
                trimmed.append(choice)
                budget //= len(choice)
            else:
                trimmed.append(choice[:1])
        options = trimmed
    best = None
    uncovered = []  # (~N[D], |D|) for every witness D returned so far
    settled = 0
    for combo in itertools.product(*options):
        a_mask = 0
        for m in combo:
            a_mask |= m
        if any((a_mask & u).bit_count() + size <= best[0] for u, size in uncovered):
            settled += 1
            continue
        cutoff = -1 if best is None else best[0]
        value, witness, _ = gamma_of_independent_set_fast(g, a_mask, cutoff=cutoff)
        uncovered.append((~closed_neighborhood(g, witness), witness.bit_count()))
        if best is None or value > best[0]:
            best = (value, a_mask, witness)
    return (*best, len(uncovered), settled)
