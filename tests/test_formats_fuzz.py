"""Random and mutated text through every file-format parser: the only
exception that may escape is GraphError (FormatError is one), which the
command line turns into a JSON error with exit code 2. Random bytes go
through the command line itself. Random and mutated pruning sequences go
through the decomposition builder, which must accept exactly the valid ones
and build a correct tree from each. Edge-list and DIMACS texts, long ones
included, parse as a naive line-by-line reference parses them."""

import contextlib
import io
import json
import operator
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from indom.cli import main
from indom.cograph import parse_cotree, serialize_cotree
from indom.distance_hereditary import (
    PruneOp,
    PruningSequence,
    build_dh_decomposition,
    gamma_i_dh,
    parse_sequence,
    serialize_sequence,
)
from indom.generators import gnp, random_cotree, random_dh, random_dh_sequence, random_permutation
from indom.graph import EDGE_SLICE, MAX_VERTICES, FormatError, Graph, GraphError, parse, serialize
from indom.oracle import gamma_i_oracle, verify_certificate
from indom.permutation import parse_diagram, serialize_diagram
from indom.treewidth import heuristic_decomposition, parse_decomposition, serialize_decomposition
from tests.conftest import assert_rank_one, valid_ops

_g = gnp(6, 0.5, 1)
# parser and one valid text of its format
FORMATS = {
    "edge-list": (lambda text: parse(text, "edge-list"), serialize(_g, "edge-list")),
    "dimacs": (lambda text: parse(text, "dimacs"), serialize(_g, "dimacs")),
    "cotree": (parse_cotree, serialize_cotree(random_cotree(6, 1))),
    "sequence": (parse_sequence, serialize_sequence(random_dh_sequence(6, 1))),
    "diagram": (parse_diagram, serialize_diagram(random_permutation(6, 1).artifact)),
    "decomposition": (parse_decomposition,
                      serialize_decomposition(heuristic_decomposition(_g))),
}

# every format's keywords, junk and small ids; ids stay small because a
# parser may size a table by the largest id it reads
TOKENS = st.one_of(
    st.sampled_from(["node", "-", "UNION", "JOIN", "LEAF", "pendant", "ttwin", "ftwin",
                     "p", "e", "edge", "s", "td", "b", "c", "#", "x", "1.5", "0x1", "", "\t"]),
    st.integers(-3, 12).map(str),
)
LINES = st.lists(st.lists(TOKENS, max_size=6), max_size=8)


@st.composite
def texts(draw, valid):
    """Random lines, or the valid text with a few tokens or lines replaced."""
    if draw(st.booleans()):
        return "\n".join(" ".join(line) for line in draw(LINES))
    lines = [line.split() for line in valid.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        if i < len(lines) and lines[i] and draw(st.booleans()):
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(TOKENS)
        else:
            lines[i:i + draw(st.integers(0, 1))] = draw(LINES)[:1]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_only_graph_errors_escape(fmt, data):
    parser, valid = FORMATS[fmt]
    text = data.draw(texts(valid))
    try:
        parser(text)
    except GraphError:
        pass


@st.composite
def raw_files(draw):
    """Arbitrary bytes, or a valid edge list with arbitrary bytes spliced in."""
    if draw(st.booleans()):
        return draw(st.binary())
    valid = FORMATS["edge-list"][1].encode()
    at = draw(st.integers(0, len(valid)))
    return valid[:at] + draw(st.binary(max_size=4)) + valid[at + draw(st.integers(0, 2)):]


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=raw_files())
def test_any_bytes_end_as_json(tmp_path, data):
    target = tmp_path / "g.txt"
    target.write_bytes(data)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["gamma-i", str(target)])
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert (code, "error" in report) in ((0, False), (2, True))


def _reference_parse(text, fmt):
    """The edge formats read the naive way: str.splitlines, then int() on the
    tokens of each line; the graph, or the error and line, parse must give."""
    dimacs = fmt == "dimacs"
    header = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.partition("#")[0].split()
        if not tokens or dimacs and tokens[0][0] == "c":
            continue
        if dimacs:
            directive, *tokens = tokens
            if directive == "p" and header is not None:
                raise FormatError("duplicate 'p' header", lineno)
            if directive == "e" and header is None:
                raise FormatError("edge before 'p' header", lineno)
            if directive not in ("p", "e"):
                raise FormatError(f"unknown directive {directive!r}", lineno)
            if header is None and len(tokens) == 3 and not tokens[0].lstrip("-").isdigit():
                tokens = tokens[1:]
        if len(tokens) != 2:
            what = "header " + ("'p [name] n m'" if dimacs else "'n m'") if header is None \
                else "edge " + ("'e u v'" if dimacs else "'u v'")
            raise FormatError(f"expected {what}", lineno)
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError(f"expected integers, got {' '.join(tokens)!r}", lineno) from None
        if header is None:
            if not 0 <= a <= MAX_VERTICES:
                raise FormatError(f"vertex count {a} out of range 0..{MAX_VERTICES}", lineno)
            header, n, m = lineno, a, b
        elif a == b or not (0 <= a < n and 0 <= b < n):
            raise FormatError(f"bad edge ({a}, {b}) for n={n}", lineno)
        else:
            edges.append((a, b))
    if header is None:
        raise FormatError("missing 'p' header" if dimacs else "empty input: missing 'n m' header")
    if len(edges) != m:
        raise FormatError(f"header declared {m} edges, found {len(edges)}", header)
    return Graph(n, edges)


# every line break of str.splitlines
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# small ids written in ways json and int() read differently: leading zeros,
# signs, underscores, non-ASCII digits, more digits than int() converts
ODD_IDS = st.sampled_from(["00", "07", "+3", "-0", "-1", "1_0", "10", "\u0663", "\uff13",
                           "9" * 4301])
GAPS = st.sampled_from([" ", " ", " ", "  ", "\t", " \x1f", "\xa0"])
NOTES = ["", "  ", "\t", "# note", " # 1 2"]
# the last three read as plain DIMACS lines once their digits are gone, and
# json takes "1e1" and "1e400" for floats
JUNK_LINES = ["1", "1 2 3", "e 1", "x 1 2", "p 10 1", "c note", "1 x",
              "e12 3 4", "1e1 2 3", "1e400 2 3"]
JUNK = st.sampled_from(JUNK_LINES)


@st.composite
def edge_texts(draw, fmt):
    """A header and drawn edge, note and junk lines joined by drawn line
    breaks. In some texts the drawn lines sit in a run of plain edge lines,
    at its start or where it crosses from the first slice into the second.
    The header's vertex count is drawn so that short texts fall on both
    sides of parse's matrix rule (n * n at most the text's length); ids
    stay 0-9, so with n = 3 many are out of range."""
    dimacs = fmt == "dimacs"
    notes = st.sampled_from(NOTES + ["c note"] if dimacs else NOTES)
    ids = st.one_of(st.integers(0, 9), ODD_IDS)
    lines = []
    m = 0
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(JUNK))
        elif kind < 4:
            lines.append(draw(notes))
        else:
            prefix = draw(st.sampled_from(["e "] * 6 + ["e  ", ""])) if dimacs else ""
            end = draw(st.sampled_from(["", "", "", " # x", " "]))
            if draw(st.integers(0, 3)):
                u = draw(st.integers(0, 9))
                a, b = u, (u + draw(st.integers(1, 9))) % 10
            else:
                a, b = draw(ids), draw(ids)
            lines.append(f"{prefix}{a}{draw(GAPS)}{b}{end}")
            m += 1
    if draw(st.integers(0, 3)) == 0:
        # plain lines are 4 or 6 characters wide with their break
        span = EDGE_SLICE // (6 if dimacs else 4)
        run = [f"{'e ' if dimacs else ''}{i % 9} {i % 9 + 1}" for i in range(span + 8)]
        at = draw(st.one_of(st.just(0), st.integers(span - 4, span + 4)))
        lines = run[:at] + lines + run[at:]
        m += len(run)
    m += draw(st.sampled_from([0, 0, 0, 1, -1]))
    n = draw(st.sampled_from([3, 10, 40]))
    header = draw(st.sampled_from([f"p {n} {m}", f"p name {n} {m}"] if dimacs else [f"{n} {m}"]))
    lines[:0] = draw(st.lists(notes, max_size=2)) + [header]
    breaks = [draw(st.sampled_from(["\n", "\n", "\r\n", *BREAKS]))] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        breaks[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(BREAKS))
    text = "".join(map(operator.add, lines, breaks))
    return text if draw(st.booleans()) else text[:-len(breaks[-1])]


def _outcome(parser, text, fmt):
    try:
        return parser(text, fmt)
    except FormatError as exc:
        return str(exc), exc.line


@pytest.mark.parametrize("fmt", ["edge-list", "dimacs"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_parse_agrees_with_a_line_by_line_reference(fmt, data):
    text = data.draw(edge_texts(fmt))
    assert _outcome(parse, text, fmt) == _outcome(_reference_parse, text, fmt)


@pytest.mark.parametrize("n", [10, 300])  # the matrix, and row masks
@pytest.mark.parametrize("fmt", ["edge-list", "dimacs"])
def test_junk_among_plain_lines_agrees_with_the_reference(fmt, n):
    # a drawn text rarely has a slice of plain lines but for its junk line,
    # so each junk line is put at the start of the first slice, after a
    # plain line, and on the lines around the start of the second slice
    prefix = "e " if fmt == "dimacs" else ""
    span = EDGE_SLICE // (6 if prefix else 4)
    run = [f"{prefix}{i % 9} {i % 9 + 1}" for i in range(span + 8)]
    header = f"p {n} {len(run)}" if prefix else f"{n} {len(run)}"
    for junk in JUNK_LINES:
        for at in (0, 1, span - 1, span, span + 1, span + 2):
            text = "\n".join([header, *run[:at], junk, *run[at:]])
            assert _outcome(parse, text, fmt) == _outcome(_reference_parse, text, fmt)


@st.composite
def op_lists(draw):
    """A small graph, distance-hereditary (ids shuffled) or random, and a
    valid elimination order of it drawn among the valid operations at each
    step, then mutated: an operation's kind or u changed, or one dropped or
    repeated. An order on a graph that is not distance-hereditary stops
    where no operation is valid."""
    n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        g = Graph(n, [(perm[u], perm[v]) for u, v in random_dh(n, seed).graph.edges()])
    else:
        g = gnp(n, draw(st.sampled_from([0.2, 0.5, 0.8])), seed)
    alive = g.full_mask
    ops = []
    while alive & (alive - 1) and (choices := valid_ops(g, alive)):
        ops.append(draw(st.sampled_from(choices)))
        alive &= ~(1 << ops[-1].v)
    for _ in range(draw(st.integers(0, 2))):
        if not ops:
            break
        i = draw(st.integers(0, len(ops) - 1))
        op = ops[i]
        how = draw(st.sampled_from(["kind", "u", "drop", "repeat"]))
        if how == "kind":
            ops[i] = PruneOp(draw(st.sampled_from(["pendant", "ttwin", "ftwin"])), op.v, op.u)
        elif how == "u":
            ops[i] = PruneOp(op.kind, op.v, draw(st.integers(-1, n)))
        elif how == "drop":
            del ops[i]
        else:
            ops.insert(i, op)
    return g, PruningSequence(tuple(ops), n)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=op_lists())
def test_pruning_sequences_build_checked_trees(case):
    g, seq = case
    alive = g.full_mask
    first_invalid = None
    for k, op in enumerate(seq.ops):
        if op not in valid_ops(g, alive):
            first_invalid = k
            break
        alive &= ~(1 << op.v)
    try:
        d = build_dh_decomposition(g, seq)
    except GraphError as exc:
        if first_invalid is not None:
            assert re.match(rf"operation {first_invalid}\b", str(exc))
        else:
            assert alive & (alive - 1) and "single vertex" in str(exc)
        return
    assert first_invalid is None
    assert_rank_one(g, d)
    value, cert = gamma_i_dh(g, d)
    assert value == gamma_i_oracle(g)[0]
    assert verify_certificate(g, cert)
