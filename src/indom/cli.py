"""Command-line interface: class-aware dispatch, oracle access, generation,
cross-validation suites and product-inequality checks.

Every command emits JSON lines (one object per instance) on stdout. The
process exits nonzero iff some requested verification failed; malformed
input, a bad flag or a refused forced solver gives one JSON error line and
exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import generators
from .graph import (
    ClassMismatchError,
    FormatError,
    Graph,
    GraphError,
    cartesian_product,
    dominates,
    mask_from,
    mask_to_list,
    parse,
    parse_ints,
    product_pair,
    serialize,
)
from .oracle import (
    gamma,
    gamma_of_set,
    gamma_i_oracle,
    verify_certificate,
)
from .cograph import (
    Cotree,
    P4Witness,
    parse_cotree,
    serialize_cotree,
)
from .distance_hereditary import (
    DHFailure,
    PruningSequence,
    serialize_sequence,
)
from .permutation import (
    PermutationDiagram,
    parse_diagram,
    serialize_diagram,
)
from .treewidth import (
    DEFAULT_WIDTH_CEILING,
    parse_decomposition,
)
from .exactexp import DEFAULT_BETA, DEFAULT_CEILING
from .planar import ptas_gamma_i
from .dispatch import ALGORITHMS, gamma_i

ENV_WIDTH_CEILING = "INDOM_WIDTH_CEILING"
ENV_EXACT_CEILING = "INDOM_EXACT_CEILING"


def _checked(convert, ok, wanted):
    """An argparse type: convert the text and accept it only if ok(value)."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value

    return parse


# checked when the arguments are parsed, so a bad value is an error whichever
# class answers (nan fails the comparison)
_unit_interval = _checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_non_negative = _checked(int, lambda v: v >= 0, "an integer >= 0")

# (argument, environment variable, library default) of each ceiling flag; an
# absent flag falls back to the variable, then to the default
_CEILINGS = (
    ("width_ceiling", ENV_WIDTH_CEILING, DEFAULT_WIDTH_CEILING),
    ("exact_ceiling", ENV_EXACT_CEILING, DEFAULT_CEILING),
)


def _parse_file(path, parser):
    """parser(text) of the file, or of stdin for '-'. A FormatError, for
    bytes that are not UTF-8 or from the parser, names the file."""
    name = "stdin" if path == "-" else path
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{name}: byte {data[exc.start]:#04x} is not UTF-8 text", line) from None
    try:
        return parser(text)
    except FormatError as exc:
        raise FormatError(f"{name}: {exc.message}", exc.line) from None


def _load_graph(args):
    return _parse_file(args.input, functools.partial(parse, fmt=args.format))


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _report(args, g, algorithm, value, cert, extra=None):
    report = {
        "input": args.input,
        "n": g.n,
        "m": g.m,
        "algorithm": algorithm,
        "value": value,
        "certificate": cert.as_dict() if cert is not None else None,
    }
    if extra:
        report.update(extra)
    if getattr(args, "certify", False) and cert is not None:
        report["verified"] = verify_certificate(g, cert)
        if not report["verified"]:
            _emit(report)
            return 1
    _emit(report)
    return 0


def _side_files(args):
    """Every side file given, parsed: (cotree, diagram, tree decomposition),
    None where not given. gamma_i checks them against the graph."""
    return tuple(None if path is None else _parse_file(path, parser)
                 for path, parser in ((args.cotree, parse_cotree), (args.diagram, parse_diagram),
                                      (args.td, parse_decomposition)))


def cmd_gamma_i(args):
    from_stdin = [name for name, path in (("input", args.input), ("--cotree", args.cotree),
                                          ("--diagram", args.diagram), ("--td", args.td))
                  if path == "-"]
    if len(from_stdin) > 1:
        # stdin can be read once; a second read would parse an empty file
        raise GraphError(f"'-' (stdin) can feed one file only, not {' and '.join(from_stdin)}")
    g = _load_graph(args)
    side_files = _side_files(args)
    try:
        algorithm, value, cert, extra = gamma_i(
            g, args.algo, *side_files, width_ceiling=args.width_ceiling, beta=args.beta,
            exact_ceiling=args.exact_ceiling)
    except ClassMismatchError as exc:
        _emit({"input": args.input, "error": str(exc), "witness": _witness_dict(exc.witness)})
        return 2
    return _report(args, g, algorithm, value, cert, extra)


def _witness_dict(witness):
    if isinstance(witness, P4Witness):
        return {"kind": "p4", "vertices": list(witness.vertices)}
    if isinstance(witness, DHFailure):
        return {"kind": "dh-stuck", "vertex": witness.stuck_vertex}
    return None


def cmd_oracle(args):
    g = _load_graph(args)
    if args.what == "gamma-i":
        value, cert = gamma_i_oracle(g)
        return _report(args, g, "oracle", value, cert)
    # gamma is the domination number of the whole vertex set
    report = {"input": args.input}
    targets = g.full_mask
    if args.what == "gamma-set":
        targets = 0
        if args.set:
            ids = parse_ints(args.set.split(","), what="comma-separated ids for --set")
            if not all(0 <= v < g.n for v in ids):
                raise GraphError(f"--set names a vertex outside 0..{g.n - 1}")
            targets = mask_from(ids)
        report["set"] = mask_to_list(targets)
    value, witness = gamma_of_set(g, targets)
    report.update(value=value, witness=mask_to_list(witness))
    if args.certify:
        report["verified"] = dominates(g, witness, targets)
    _emit(report)
    return 0 if report.get("verified", True) else 1


def cmd_ptas(args):
    g = _load_graph(args)
    result = ptas_gamma_i(g, args.epsilon, root=args.root, width_ceiling=args.width_ceiling)
    extra = {
        "k": result.k,
        "shifts": [list(s) for s in result.shifts],
        "piece_values": {f"{r},{ell}": v for (r, ell), v in sorted(result.piece_values.items())},
    }
    return _report(args, g, "ptas", result.value, result.certificate, extra)


_ARTIFACT_WRITERS = {
    Cotree: serialize_cotree,
    PruningSequence: serialize_sequence,
    PermutationDiagram: serialize_diagram,
}


def cmd_gen(args):
    made = generators.generate(args.descriptor, args.seed)
    if args.artifact_out and made.artifact is None:
        raise GraphError(f"--artifact-out: {args.descriptor} has no cotree, sequence or diagram")
    text = serialize(made.graph, args.format)
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.artifact_out:
        with open(args.artifact_out, "w") as fh:
            fh.write(_ARTIFACT_WRITERS[type(made.artifact)](made.artifact))
    return 0


def _suite_instance(kind, size, seed):
    """One instance of a verify suite with its solver's answer:
    (graph, value, certificate). Each class suite solves the generated graph
    through gamma_i, forced onto the suite's solver, from the graph alone (the
    permutation suite with its diagram). The chordal suite checks gamma =
    gamma_i, so its certificate is None."""
    if kind == "chordal":
        g = generators.random_chordal(size, seed)
        return g, gamma(g)[0], None
    diagram = None
    if kind == "cograph":
        g = generators.random_cograph(size, seed).graph
    elif kind == "dh":
        g = generators.random_dh(size, seed).graph
    elif kind == "permutation":
        made = generators.random_permutation(size, seed)
        g, diagram = made.graph, made.artifact
    else:
        g = generators.gnp(size, 0.3, seed)
    _, value, cert, _ = gamma_i(g, kind, diagram=diagram)
    return g, value, cert


def cmd_verify(args):
    failures = 0
    for seed in range(args.seed, args.seed + args.count):
        size = 4 + (seed % (args.size - 3)) if args.size > 4 else args.size
        g, value, cert = _suite_instance(args.suite, size, seed)
        ok = value == gamma_i_oracle(g)[0] and (cert is None or verify_certificate(g, cert))
        report = {"suite": args.suite, "seed": seed, "n": g.n, "value": value, "ok": ok}
        if not ok:
            report["instance"] = serialize(g)
            failures += 1
        _emit(report)
    _emit({"suite": args.suite, "count": args.count, "failures": failures})
    return 1 if failures else 0


PRODUCT_CORPUS = [
    ("K1", Graph(1)),
    ("K2", Graph(2, [(0, 1)])),
    ("P3", generators.path(3)),
    ("P4", generators.path(4)),
    ("C4", generators.cycle(4)),
    ("C5", generators.cycle(5)),
    ("K4", Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])),
    ("star5", generators.star(5)),
    ("K23", generators.complete_multipartite([2, 3])),
    ("C6", generators.cycle(6)),
]


def cmd_product_check(args):
    failures = 0
    for name_g, g in PRODUCT_CORPUS:
        for name_h, h in PRODUCT_CORPUS:
            prod = cartesian_product(g, h)
            gamma_prod, _ = gamma(prod)
            gamma_i_prod, cert = gamma_i_oracle(prod)
            gi_g, _ = gamma_i_oracle(g)
            gi_h, _ = gamma_i_oracle(h)
            ga_g, _ = gamma(g)
            ga_h, _ = gamma(h)
            checks = {
                "gamma_product_vs_gi_gamma": gamma_prod >= gi_g * ga_h,
                "gi_product_vs_gi_gi": gamma_i_prod >= gi_g * gi_h,
                "suen_tarr": 2 * gamma_prod >= ga_g * ga_h + min(ga_g, ga_h),
            }
            ok = all(checks.values())
            report = {
                "pair": [name_g, name_h],
                "gamma_product": gamma_prod,
                "gamma_i_product": gamma_i_prod,
                "ok": ok,
            }
            if not ok:
                # dump the instance with witnesses in pair coordinates
                report["checks"] = checks
                report["witness_pairs"] = {
                    "independent_set": [
                        list(product_pair(h, v)) for v in mask_to_list(cert.independent_set)
                    ],
                    "dominating_set": [
                        list(product_pair(h, v)) for v in mask_to_list(cert.dominating_set)
                    ],
                }
                failures += 1
            _emit(report)
    _emit({"pairs": len(PRODUCT_CORPUS) ** 2, "failures": failures})
    return 1 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise GraphError, so they end as a JSON error line."""

    def error(self, message):
        raise GraphError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The command-line parser, built once per process on first use."""
    parser = _Parser(
        prog="indom",
        description="independence-domination number solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="graph file, or - for stdin")
        p.add_argument("--format", default="edge-list", choices=["edge-list", "dimacs"])
        p.add_argument("--certify", action="store_true", help="replay the certificate")

    def add_width_ceiling(p):
        p.add_argument("--width-ceiling", type=_non_negative)

    def add_exact_flags(p):
        p.add_argument("--beta", type=_unit_interval, default=DEFAULT_BETA)
        p.add_argument("--exact-ceiling", type=_non_negative)

    p = sub.add_parser("gamma-i", help="class-aware dispatch")
    add_common(p)
    p.add_argument("--algo", default="auto", choices=ALGORITHMS)
    p.add_argument("--diagram", help="permutation diagram file")
    p.add_argument("--cotree", help="cotree file")
    p.add_argument("--td", help="tree decomposition file")
    add_width_ceiling(p)
    add_exact_flags(p)
    p.set_defaults(func=cmd_gamma_i)

    p = sub.add_parser("oracle", help="brute-force reference values")
    p.add_argument("what", choices=["gamma", "gamma-i", "gamma-set"])
    add_common(p)
    p.add_argument("--set", help="comma-separated target vertices for gamma-set")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("exact", help="exponential-time exact solver")
    add_common(p)
    add_exact_flags(p)
    # gamma-i forced onto the exact solver, with no side files
    p.set_defaults(func=cmd_gamma_i, algo="exact", cotree=None, diagram=None, td=None,
                   width_ceiling=DEFAULT_WIDTH_CEILING)

    p = sub.add_parser("ptas", help="shifting scheme for planar inputs")
    add_common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--root", type=int, default=None)
    add_width_ceiling(p)
    p.set_defaults(func=cmd_ptas)

    p = sub.add_parser("gen", help="generate a graph (and side artifact)")
    p.add_argument("descriptor", help="e.g. gnp(20,0.3) or random_cograph(12)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="edge-list", choices=["edge-list", "dimacs"])
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--artifact-out", help="file for the cotree/sequence/diagram")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="cross-validate a solver against the oracle")
    p.add_argument("--suite", required=True,
                   choices=["cograph", "dh", "permutation", "treewidth", "chordal", "exact"])
    p.add_argument("--count", type=_non_negative, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=12, help="maximum instance size")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("product-check", help="product-domination inequalities")
    p.set_defaults(func=cmd_product_check)

    return parser


def _parse_args(argv=None):
    """Arguments of one command, with each absent ceiling flag resolved."""
    args = build_parser().parse_args(argv)
    for dest, env, default in _CEILINGS:
        if getattr(args, dest, default) is not None:
            continue
        value = os.environ.get(env)
        try:
            setattr(args, dest, _non_negative(value) if value else default)
        except argparse.ArgumentTypeError as exc:
            raise GraphError(f"{env} {exc}") from None
    return args


def main(argv=None):
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (GraphError, OSError) as exc:
        _emit({"error": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
