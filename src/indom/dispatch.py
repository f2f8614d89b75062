"""Class-aware dispatch: cographs, distance-hereditary graphs, permutation
graphs (diagram given), bounded treewidth, then the exact exponential solver.

Recognition runs here, not inside a solver: each class gets the artifact
given for it or its recognizer's result. The empty graph belongs to every
class: the recognizers accept it and each solver answers it with 0.
"""

from __future__ import annotations

from dataclasses import asdict

from .graph import CapacityError, ClassMismatchError, Graph, GraphError
from .cograph import P4Witness, build_cotree, cotree_to_graph, gamma_cograph, gamma_i_cograph
from .distance_hereditary import (DHFailure, DHStats, build_dh_decomposition, gamma_i_dh,
                                  recognize_dh)
from .permutation import diagram_to_graph, gamma_i_permutation
from .treewidth import (DEFAULT_WIDTH_CEILING, DPStats, choose_decomposition, gamma_i_treewidth,
                        validate_decomposition)
from .exactexp import DEFAULT_BETA, DEFAULT_CEILING, check_beta, check_ceiling, gamma_i_exact

ALGORITHMS = ("auto", "cograph", "dh", "permutation", "treewidth", "exact")


def gamma_i(g: Graph, algo="auto", cotree=None, diagram=None, td=None,
            width_ceiling=DEFAULT_WIDTH_CEILING, beta=DEFAULT_BETA,
            exact_ceiling=DEFAULT_CEILING):
    """(algorithm, value, certificate, extra) from the first applicable
    solver; extra holds what it reports besides (stats, width, a cotree's gamma).

    "auto" climbs the ladder; any other name in ALGORITHMS forces that solver,
    which raises if it refuses g (ClassMismatchError with a witness for a
    wrong class, CapacityError above a ceiling or budget). When the treewidth
    and exact solvers both refuse, the CapacityError quotes both reasons. A
    given cotree, diagram or tree decomposition must be g's, and beta and the
    ceilings valid (a negative ceiling is bad input, not a refusal), whichever
    class answers, or GraphError is raised."""
    if algo not in ALGORITHMS:
        raise GraphError(f"unknown algorithm {algo!r}, expected one of {', '.join(ALGORITHMS)}")
    check_beta(beta)
    check_ceiling("width", width_ceiling)
    check_ceiling("exact", exact_ceiling)
    if cotree is not None and cotree_to_graph(cotree) != g:
        raise GraphError("cotree does not match the input graph")
    if diagram is not None and diagram_to_graph(diagram) != g:
        raise GraphError("diagram does not match the input graph")
    if td is not None:
        bad = validate_decomposition(g, td)
        if bad is not None:
            raise GraphError(f"invalid tree decomposition ({bad})")
    if algo in ("auto", "cograph"):
        tree = cotree if cotree is not None else build_cotree(g)
        if not isinstance(tree, P4Witness):
            value, cert = gamma_i_cograph(g, tree)
            extra = {"gamma": gamma_cograph(cotree)} if cotree is not None else {}
            return "cograph", value, cert, extra
        if algo == "cograph":
            raise ClassMismatchError(f"not a cograph: induced path {tree.vertices}", witness=tree)
    if algo in ("auto", "dh"):
        stats = DHStats()
        seq = recognize_dh(g, stats)
        if not isinstance(seq, DHFailure):
            decomp = build_dh_decomposition(g, seq)
            value, cert = gamma_i_dh(g, decomp, stats)
            return "dh", value, cert, {"stats": asdict(stats)}
        if algo == "dh":
            raise ClassMismatchError(
                f"not distance-hereditary: stuck at vertex {seq.stuck_vertex}", witness=seq
            )
    if diagram is not None and algo in ("auto", "permutation"):
        value, cert = gamma_i_permutation(diagram)
        return "permutation", value, cert, {}
    if algo == "permutation":
        raise GraphError("permutation solver needs --diagram (recognition is out of scope)")
    refused = None
    if algo in ("auto", "treewidth"):
        decomposition = td if td is not None else choose_decomposition(g, width_ceiling)
        stats = DPStats()
        try:
            value, cert = gamma_i_treewidth(g, decomposition, width_ceiling, stats)
            return "treewidth", value, cert, {"width": decomposition.width,
                                              "stats": asdict(stats)}
        except CapacityError as exc:
            if algo == "treewidth":
                raise
            refused = exc
    try:
        value, cert, stats = gamma_i_exact(g, beta=beta, ceiling=exact_ceiling)
    except CapacityError as exc:
        if refused is None:
            raise
        raise CapacityError(f"{exc}; treewidth solver: {refused}") from None
    return "exact", value, cert, {"stats": asdict(stats)}
