"""Workloads of the benchmark: instance pools drawn from a seed, the input
files the command line reads, and reference answers found by a second route.

A workload is a pool of instances from a few families. Each family has a
fixed list of size strata. The pool is ordered so that every prefix mixes
the families round-robin and walks the strata in bit-reversed order, so a
closed loop that stops at a time limit runs nearly the same mix of sizes
whenever it stops. WORKLOADS.md records why each workload was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from indom import generators
from indom.cograph import UNION
from indom.distance_hereditary import (
    PruneOp,
    PruningSequence,
    build_dh_decomposition,
    gamma_i_dh,
)
from indom.exactexp import gamma_of_independent_set_fast
from indom.graph import Graph, mask_from, serialize
from indom.oracle import gamma_i_oracle
from indom.permutation import PermutationDiagram, gamma_i_permutation, serialize_diagram
from indom.treewidth import gamma_i_treewidth, heuristic_decomposition

# epsilon 0.34 gives k = ceil(1 / 0.34) = 3 layers per band
PTAS_EPSILON = "0.34"


@dataclass
class Instance:
    """One call of the command line, with the answer it must give."""

    ident: str
    family: str
    graph: Graph
    argv: list
    artifact: object = None
    reference: int | None = None


@dataclass(frozen=True)
class Family:
    """Graphs of one kind. ``make(rng, size)`` returns (graph, artifact);
    ``reference(graph, artifact)`` is the second route to the exact value, or
    None where only the output's own certificate can be checked (PTAS)."""

    name: str
    command: str
    make: Callable
    reference: Callable | None
    strata: tuple
    jitter: int
    # grids keep their row-major numbering: renumbering them moves min-fill
    # tie-breaks, and the DP cost of a 4xk grid then varies by a third
    renumber: bool = True


def _renumber(graph: Graph, artifact, perm: list[int]):
    """The same instance with vertex v renamed perm[v], artifact included."""
    g = Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])
    if isinstance(artifact, PruningSequence):
        ops = tuple(PruneOp(op.kind, perm[op.v], perm[op.u]) for op in artifact.ops)
        artifact = PruningSequence(ops, artifact.n)
    elif isinstance(artifact, PermutationDiagram):
        top, bot = [0] * artifact.n, [0] * artifact.n
        for v in range(artifact.n):
            top[perm[v]], bot[perm[v]] = artifact.top[v], artifact.bot[v]
        artifact = PermutationDiagram(artifact.n, tuple(top), tuple(bot))
    return g, artifact


def _with_c5(g: Graph, rng: random.Random) -> Graph:
    """g with an induced 5-cycle through one random vertex. An induced C5
    rules out both cographs and distance-hereditary graphs, so dispatch must
    reach the treewidth solver."""
    x = rng.randrange(g.n)
    a, b, c, d = range(g.n, g.n + 4)
    return Graph(g.n + 4, list(g.edges()) + [(x, a), (a, b), (b, c), (c, d), (d, x)])


def random_outerplanar(n: int, rng: random.Random) -> Graph:
    """Cycle plus random non-crossing chords (partial polygon triangulation)."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2 or rng.random() >= 0.7:
            continue
        mid = rng.randint(lo + 1, hi - 1)
        if not (lo == 0 and hi == n - 1):
            edges.add((lo, hi))
        stack.append((lo, mid))
        stack.append((mid, hi))
    return Graph(n, sorted(edges))


def _seed(rng):
    return rng.randrange(2**31)


def _make_cograph(rng, n):
    made = generators.random_cograph(n, _seed(rng))
    # a cograph's value is its component count: the children of a UNION root
    root = made.artifact.root
    return made.graph, len(root.children) if root.label == UNION else 1


def _make_dh(rng, n):
    made = generators.random_dh(n, _seed(rng))
    return made.graph, made.artifact


def _make_permutation(rng, n):
    made = generators.random_permutation(n, _seed(rng))
    return made.graph, made.artifact


def _make_grid(rng, shape):
    return generators.grid(*shape), None


def _make_chordal_c5(rng, n):
    return _with_c5(generators.random_chordal(n, _seed(rng), clique_bias=0.5), rng), None


def _make_gnp(rng, shape):
    n, p = shape
    return generators.gnp(n, p, _seed(rng)), None


def _make_outerplanar(rng, n):
    return random_outerplanar(n, rng), None


def _cograph_reference(g, component_count):
    return component_count


def _dh_reference(g, sequence):
    # the generator's own pruning sequence: recognition is skipped
    return gamma_i_dh(g, build_dh_decomposition(g, sequence))[0]


def _permutation_reference(g, diagram):
    return gamma_i_permutation(diagram)[0]


def _treewidth_reference(g, _artifact):
    # a second decomposition: minimum degree instead of min-fill
    return gamma_i_treewidth(g, heuristic_decomposition(g, order="degree"))[0]


def _oracle_reference(g, _artifact):
    return gamma_i_oracle(g)[0]


def _strata(first, step, count):
    return tuple(first + step * i for i in range(count))


WORKLOADS = {
    "classes": (
        Family("cograph", "gamma-i", _make_cograph, _cograph_reference,
               _strata(160, 32, 12), 32),
        Family("dh", "gamma-i", _make_dh, _dh_reference, _strata(200, 32, 12), 32),
        Family("permutation", "gamma-i", _make_permutation, _permutation_reference,
               _strata(100, 16, 12), 16),
    ),
    "treewidth": (
        Family("grid", "gamma-i", _make_grid, _treewidth_reference,
               tuple((3, c) for c in range(8, 16)) + tuple((4, c) for c in range(5, 9)), 0,
               renumber=False),
        Family("chordal_c5", "gamma-i", _make_chordal_c5, _treewidth_reference,
               _strata(30, 2, 18), 2),
    ),
    "exact": (
        Family("gnp", "exact", _make_gnp, _oracle_reference,
               tuple((n, p) for p in (0.12, 0.14, 0.16, 0.18, 0.2) for n in range(26, 33)), 0),
    ),
    "ptas": (
        Family("planar_grid", "ptas", _make_grid, None,
               ((6, 6), (6, 7), (6, 8), (6, 9), (7, 7), (7, 8)), 0, renumber=False),
        Family("outerplanar", "ptas", _make_outerplanar, None, _strata(20, 2, 20), 2),
    ),
}


def _bit_reversed(count):
    """0..count-1 in bit-reversed order: every prefix spreads over the range."""
    width = max(count - 1, 1).bit_length()
    keys = sorted(range(1 << width), key=lambda i: int(f"{i:0{width}b}"[::-1], 2))
    return [i for i in keys if i < count]


def draw_pool(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for this seed, in run order, without files.

    Sizes and graph structure come from a catalog that is the same for every
    seed; the seed draws the vertex numbering of every instance but grids.
    Numbering changes the input files, scan orders and tie-breaks, but
    hardly the amount of work an instance needs, so the mix of one run does
    not depend on the seed (WORKLOADS.md gives the spreads measured when the
    seed also drew the structure).
    """
    catalog = random.Random(f"{workload}:catalog")
    numbering = random.Random(f"{workload}:{seed}")
    queues = []
    for fam in WORKLOADS[workload]:
        queue = []
        for stratum in _bit_reversed(len(fam.strata)):
            size = fam.strata[stratum]
            if fam.jitter:
                size += catalog.randrange(fam.jitter)
            graph, artifact = fam.make(catalog, size)
            if fam.renumber:
                # vertex 0 stays: the PTAS lays out BFS levels from the
                # lowest-numbered vertex, and its cost depends on that root
                rest = list(range(1, graph.n))
                numbering.shuffle(rest)
                graph, artifact = _renumber(graph, artifact, [0] + rest)
            queue.append(Instance(f"{fam.name}-{stratum:02d}", fam.name, graph, [], artifact))
        queues.append(queue)
    pool = []
    for i in range(max(len(q) for q in queues)):
        pool.extend(q[i] for q in queues if i < len(q))
    return pool


def write_inputs(pool: list[Instance], directory: Path) -> None:
    """Write each instance's input files and fill in its command line."""
    families = {fam.name: fam for fams in WORKLOADS.values() for fam in fams}
    for inst in pool:
        path = directory / f"{inst.ident}.txt"
        path.write_text(serialize(inst.graph))
        fam = families[inst.family]
        inst.argv = [fam.command, str(path), "--certify"]
        if fam.command == "ptas":
            inst.argv += ["--epsilon", PTAS_EPSILON]
        if fam.name == "permutation":
            dia = directory / f"{inst.ident}.dia"
            dia.write_text(serialize_diagram(inst.artifact))
            inst.argv += ["--diagram", str(dia)]


def compute_references(pool: list[Instance]) -> None:
    families = {fam.name: fam for fams in WORKLOADS.values() for fam in fams}
    for inst in pool:
        route = families[inst.family].reference
        if route is not None:
            inst.reference = route(inst.graph, inst.artifact)


def check_output(inst: Instance, rc, report: dict | None) -> str | None:
    """None if the call's output is right, else why it is not."""
    if rc != 0:
        return f"exit code {rc}"
    if report is None:
        return "no JSON output"
    if "error" in report:
        return f"refused: {report['error']}"
    if report.get("verified") is not True:
        return "certificate replay failed"
    value = report.get("value")
    if inst.reference is not None:
        if value != inst.reference:
            return f"value {value} != reference {inst.reference}"
        return None
    # PTAS: the certified lower bound must be exactly the re-domination cost
    # of the certificate's independent set
    a_mask = mask_from(report["certificate"]["independent_set"])
    redominated = gamma_of_independent_set_fast(inst.graph, a_mask)[0]
    if value != redominated:
        return f"value {value} != re-domination {redominated} of its independent set"
    return None
