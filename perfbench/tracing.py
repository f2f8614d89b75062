"""Spans around the public functions of each indom module, recorded from
outside the package.

``Tracer.install`` replaces every module-level reference to a traced
function, in every loaded ``indom`` module, with a wrapper that records a
span: name, start, end, parent span and instance id. References are
replaced everywhere because modules import names at load time (``cli``,
``planar``) or at call time (``gamma_i_treewidth`` imports
``gamma_of_independent_set_fast`` when it runs), and a call-time import
reads the replaced module attribute. ``Tracer.remove`` puts every original
back. Spans stay in memory until ``write_spans`` at the end of the run.

A few results are also counted where the call returns (rejections, pruning
operations, decomposition widths, search effort), so that ratios are
measured at the layer that does the work.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# layer (module of indom) -> public functions timed as spans
TRACED = {
    "graph": ("parse", "induced_subgraph", "connected_components"),
    "cograph": ("build_cotree", "gamma_i_cograph"),
    "distance_hereditary": ("recognize_dh", "build_dh_decomposition", "gamma_i_dh"),
    "permutation": ("parse_diagram", "diagram_to_graph", "gamma_i_permutation"),
    "treewidth": (
        "heuristic_decomposition", "validate_decomposition", "make_nice", "gamma_i_treewidth",
    ),
    "exactexp": ("gamma_i_exact", "gamma_of_independent_set_fast", "maximum_matching_general"),
    "planar": ("ptas_gamma_i", "bfs_layering", "shifted_subgraph"),
    "oracle": ("gamma_of_set", "verify_certificate"),
    "cli": ("main",),
}
# generators are consumed lazily by their caller, so they are counted, not timed
COUNTED_GENERATORS = {"oracle": ("enumerate_maximal_independent_sets",)}

RECOGNIZERS = ("cograph.build_cotree", "distance_hereditary.recognize_dh",
               "treewidth.heuristic_decomposition")

# per-layer metrics: name -> unit
PER_LAYER = {}
for _layer, _fns in TRACED.items():
    for _fn in _fns:
        PER_LAYER[f"{_layer}.{_fn}.s"] = "s"
PER_LAYER.update({
    "cli.rejected_recognition_s": "s",
    "cli.recognition_accept_ratio": "ratio",
    "cograph.build_cotree.calls": "count",
    "cograph.rejects": "count",
    "distance_hereditary.rejects": "count",
    "distance_hereditary.pruning_ops": "count",
    "permutation.diagram_to_graph.calls": "count",
    "treewidth.width_max": "count",
    "treewidth.nice_nodes": "count",
    "exactexp.gamma_of_independent_set_fast.calls": "count",
    "exactexp.maximum_matching_general.calls": "count",
    "exactexp.sets_enumerated": "count",
    "exactexp.nodes": "count",
    "exactexp.matching_calls": "count",
    "exactexp.subset_calls": "count",
    "exactexp.improving_ratio": "ratio",
    "planar.pieces": "count",
    "planar.combinations": "count",
    "oracle.gamma_of_set.calls": "count",
    "oracle.mis_yielded": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
})


def indom_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "indom" or name.startswith("indom."))]


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self, width_ceiling: int):
        self.width_ceiling = width_ceiling
        self.instance = -1
        self.names: list[str] = []
        self.name_of = array("l")
        self.parent = array("l")
        self.owner = array("l")
        self.start = array("d")
        self.end = array("d")
        self.rejected: set[int] = set()
        self.counts = dict.fromkeys(
            ("cograph.rejects", "distance_hereditary.rejects", "distance_hereditary.pruning_ops",
             "treewidth.width_max", "treewidth.nice_nodes", "exactexp.sets_enumerated",
             "exactexp.nodes", "exactexp.matching_calls", "exactexp.subset_calls",
             "oracle.mis_yielded", "per_set_solves", "improving_solves"), 0)
        self._running_max: dict[int, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        modules = indom_modules()
        by_name = {m.__name__: m for m in modules}
        replacements = {}
        for layer, fns in TRACED.items():
            for fn in fns:
                original = getattr(by_name[f"indom.{layer}"], fn)
                replacements[id(original)] = (original, self._span_wrapper(f"{layer}.{fn}", original))
        for layer, fns in COUNTED_GENERATORS.items():
            for fn in fns:
                original = getattr(by_name[f"indom.{layer}"], fn)
                replacements[id(original)] = (original, self._counting_wrapper(original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _span_wrapper(self, name, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_of.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.owner.append(tracer.instance)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _counting_wrapper(self, gen_fn):
        counts = self.counts

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts["oracle.mis_yielded"] += 1
                yield item

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # --- counters at the call boundary ---------------------------------------

    def _name(self, idx):
        return self.names[self.name_of[idx]] if idx >= 0 else None

    def _observe_cograph_build_cotree(self, idx, args, result):
        from indom.cograph import P4Witness

        if isinstance(result, P4Witness):
            self.counts["cograph.rejects"] += 1
            self.rejected.add(idx)

    def _observe_distance_hereditary_recognize_dh(self, idx, args, result):
        from indom.distance_hereditary import DHFailure

        if isinstance(result, DHFailure):
            self.counts["distance_hereditary.rejects"] += 1
            self.rejected.add(idx)
        else:
            self.counts["distance_hereditary.pruning_ops"] += len(result.ops)

    def _observe_treewidth_heuristic_decomposition(self, idx, args, result):
        if result.width > self.width_ceiling:
            self.rejected.add(idx)

    def _observe_treewidth_make_nice(self, idx, args, result):
        self.counts["treewidth.width_max"] = max(self.counts["treewidth.width_max"], result.width)
        self.counts["treewidth.nice_nodes"] += len(result.nodes)

    def _observe_exactexp_gamma_i_exact(self, idx, args, result):
        stats = result[2]
        for key in ("sets_enumerated", "nodes", "matching_calls", "subset_calls"):
            self.counts["exactexp." + key] += getattr(stats, key)

    def _observe_exactexp_gamma_of_independent_set_fast(self, idx, args, result):
        parent = self.parent[idx]
        if self._name(parent) != "exactexp.gamma_i_exact":
            return
        # one per-set solve of the exact solver's outer loop
        self.counts["per_set_solves"] += 1
        if result[0] > self._running_max.get(parent, 0):
            self._running_max[parent] = result[0]
            self.counts["improving_solves"] += 1

    # --- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        self_s = {name: 0.0 for name in self.names}
        calls = {name: 0 for name in self.names}
        under = {"planar.pieces": 0, "planar.combinations": 0}
        attempted = accepted = 0
        rejected_s = 0.0
        for i in range(n):
            name = self.names[self.name_of[i]]
            duration = self.end[i] - self.start[i]
            self_s[name] += duration - child_time[i]
            calls[name] += 1
            parent = self._name(self.parent[i])
            if parent == "planar.ptas_gamma_i":
                if name == "treewidth.gamma_i_treewidth":
                    under["planar.pieces"] += 1
                elif name == "exactexp.gamma_of_independent_set_fast":
                    under["planar.combinations"] += 1
            if parent == "cli.main" and name in RECOGNIZERS:
                attempted += 1
                if i in self.rejected:
                    rejected_s += duration
                else:
                    accepted += 1
        out = {f"{name}.s": self_s[name] for name in self.names}
        out.update(under)
        for name in ("cograph.build_cotree", "permutation.diagram_to_graph",
                     "exactexp.gamma_of_independent_set_fast",
                     "exactexp.maximum_matching_general", "oracle.gamma_of_set"):
            out[f"{name}.calls"] = calls[name]
        counts = dict(self.counts)
        per_set = counts.pop("per_set_solves")
        improving = counts.pop("improving_solves")
        out.update(counts)
        out["exactexp.improving_ratio"] = improving / per_set if per_set else 0.0
        out["cli.rejected_recognition_s"] = rejected_s
        out["cli.recognition_accept_ratio"] = accepted / attempted if attempted else 0.0
        out["trace.spans"] = n
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: instance, span id, parent, name,
        start and end in seconds of the process clock."""
        with open(path, "w") as fh:
            fh.write("instance\tspan\tparent\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{self.owner[i]}\t{i}\t{self.parent[i]}\t{names[self.name_of[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def leftover_wrappers() -> list[str]:
    """Module attributes of indom that are still tracer wrappers."""
    return [f"{m.__name__}.{attr}" for m in indom_modules()
            for attr, value in vars(m).items()
            if getattr(value, "__perfbench_wrapper__", False)]
