"""Self-tests of the benchmark: its reference routes, its PTAS check and
its tracer. Run with ``python -m pytest perfbench/tests``."""

import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import indom  # noqa: E402
import indom.cli  # noqa: E402
from indom.oracle import gamma_i_oracle  # noqa: E402
from perfbench import run, tracing, workloads  # noqa: E402

# small sizes (at most 14 vertices) for every family of every workload
SMALL = {
    "cograph": (6, 9, 12, 14),
    "dh": (6, 9, 12, 14),
    "permutation": (6, 9, 12, 14),
    "grid": ((2, 4), (3, 3), (3, 4), (2, 7)),
    "chordal_c5": (4, 7, 10),
    "gnp": ((10, 0.3), (12, 0.2), (14, 0.12), (14, 0.2)),
    "planar_grid": ((2, 5), (3, 3), (3, 4), (2, 7)),
    "outerplanar": (6, 9, 12, 14),
}
FAMILIES = [(w, fam) for w, fams in workloads.WORKLOADS.items() for fam in fams]


def small_instances(fam, tmp_path, seeds=range(3)):
    pool = []
    for seed in seeds:
        rng = random.Random(f"test:{fam.name}:{seed}")
        for size in SMALL[fam.name]:
            graph, artifact = fam.make(rng, size)
            perm = list(range(graph.n))
            rng.shuffle(perm)
            graph, artifact = workloads._renumber(graph, artifact, perm)
            assert graph.n <= 14
            pool.append(workloads.Instance(f"{fam.name}-{seed}-{size}", fam.name,
                                           graph, [], artifact))
    workloads.write_inputs(pool, tmp_path)
    workloads.compute_references(pool)
    return pool


def test_every_family_has_small_sizes():
    assert {fam.name for _, fam in FAMILIES} == set(SMALL)


@pytest.mark.parametrize("fam", [f for _, f in FAMILIES if f.reference], ids=lambda f: f.name)
def test_reference_route_matches_oracle(fam, tmp_path):
    for inst in small_instances(fam, tmp_path):
        assert inst.reference == gamma_i_oracle(inst.graph)[0], inst.ident


@pytest.mark.parametrize("fam", [f for _, f in FAMILIES if f.reference], ids=lambda f: f.name)
def test_command_line_agrees_with_reference(fam, tmp_path):
    for inst in small_instances(fam, tmp_path, seeds=range(1)):
        _, rc, report, error = run.call(indom.cli, inst)
        assert error is None
        assert workloads.check_output(inst, rc, report) is None, inst.ident


@pytest.mark.parametrize("fam", [f for _, f in FAMILIES if f.command == "ptas"],
                         ids=lambda f: f.name)
def test_ptas_value_is_certified_and_within_bound(fam, tmp_path):
    k = math.ceil(1 / float(workloads.PTAS_EPSILON))
    assert k == 3
    for inst in small_instances(fam, tmp_path):
        _, rc, report, error = run.call(indom.cli, inst)
        assert error is None
        assert workloads.check_output(inst, rc, report) is None, inst.ident
        optimum = gamma_i_oracle(inst.graph)[0]
        assert (1 - 1 / k) * optimum <= report["value"] <= optimum, inst.ident


def test_wrong_answers_are_failures(tmp_path):
    fam = workloads.WORKLOADS["classes"][1]
    inst = small_instances(fam, tmp_path, seeds=range(1))[0]
    _, rc, report, _ = run.call(indom.cli, inst)
    inst.reference += 1
    assert "reference" in workloads.check_output(inst, rc, report)
    assert workloads.check_output(inst, 2, report) == "exit code 2"
    assert workloads.check_output(inst, 0, {"error": "bad"}) == "refused: bad"
    assert "replay" in workloads.check_output(inst, 0, {"value": 1, "verified": False})
    inst.argv = ["gamma-i", str(tmp_path / "missing.txt")]
    _, rc, report, error = run.call(indom.cli, inst)
    assert workloads.check_output(inst, rc, report) == "exit code 2"


def test_pool_depends_on_seed_only_through_numbering():
    a = workloads.draw_pool("treewidth", 1)
    b = workloads.draw_pool("treewidth", 1)
    c = workloads.draw_pool("treewidth", 2)
    assert [x.graph for x in a] == [x.graph for x in b]
    assert [x.graph for x in a] != [x.graph for x in c]
    assert [(x.ident, x.graph.n, x.graph.m) for x in a] == [
        (x.ident, x.graph.n, x.graph.m) for x in c]


def _module_references():
    return {(m.__name__, attr): value for m in tracing.indom_modules()
            for attr, value in vars(m).items() if callable(value)}


def test_tracer_records_every_layer_and_restores_originals(tmp_path):
    before = _module_references()
    pool = []
    for workload in ("classes", "treewidth", "exact", "ptas"):
        for fam in workloads.WORKLOADS[workload]:
            pool.extend(small_instances(fam, tmp_path, seeds=range(1))[-1:])
    tracer = tracing.Tracer(width_ceiling=12)
    tracer.install()
    try:
        assert indom.cli.main is not before[("indom.cli", "main")]
        loop = run.run_loop(indom.cli, pool, order=list(range(len(pool))), tracer=tracer)
    finally:
        tracer.remove()
    loop.judge(pool, workloads.check_output)
    assert loop.failures == []
    assert tracing.leftover_wrappers() == []
    assert _module_references() == before
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_frac"}
    for layer, fns in tracing.TRACED.items():
        for fn in fns:
            assert metrics[f"{layer}.{fn}.s"] > 0, (layer, fn)
    assert metrics["cli.main.s"] > 0
    assert metrics["planar.pieces"] > 0 and metrics["planar.combinations"] > 0
    assert metrics["oracle.mis_yielded"] > 0
    assert metrics["exactexp.sets_enumerated"] > 0
    assert 0 < metrics["cli.recognition_accept_ratio"] < 1
    assert metrics["trace.spans"] == len(tracer.start)
