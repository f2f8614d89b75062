"""Random and mutated text through every file-format parser: the only
exception that may escape is GraphError (FormatError is one), which the
command line turns into a JSON error with exit code 2. Random bytes go
through the command line itself. Random and mutated pruning sequences go
through the decomposition builder, which must accept exactly the valid ones
and build a correct tree from each."""

import contextlib
import io
import json
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
from indom.graph import Graph, GraphError, parse, serialize
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
