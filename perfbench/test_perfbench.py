"""Tests of the benchmark itself.  Run from the checkout root::

    python3 -m pytest -q perfbench
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dataclasses

import numpy as np
import pytest

import ybuskit
from inputs import build_grid, three_class_labels
from spans import Tracer, layer_metrics, self_times
from workloads import (
    WORKLOADS,
    CliPipeline,
    cli_process_failures,
    hybrid_failures,
    kron_failures,
)


def span(sid, parent, name, start, end, op=1, extra=None):
    return (sid, parent, op, name, start, end, extra)


def test_self_time_subtracts_children():
    spans = [
        span("a", None, "bench.op", 0.0, 10.0),
        span("b", "a", "ybus.assemble", 1.0, 4.0, extra={"bytes": 16}),
        span("k", "a", "bench.kron_ports", 4.5, 9.5),
        span("c", "k", "reduction.kron_reduce_nodes", 5.0, 9.0),
        span("d", "c", "linalg_core.lu_factor_checked", 6.0, 7.0, extra={"n3": 8}),
        span("e", "c", "ybus.AdmittanceMatrix", 7.5, 8.5),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"a": 10 - 3 - 5, "b": 3, "k": 1, "c": 2, "d": 1, "e": 1})
    m = layer_metrics(spans, op_count=1)
    assert m["bench.self_s"] == pytest.approx(3.0)
    assert m["ybus.self_s"] == pytest.approx(4.0)
    assert m["reduction.self_s"] == pytest.approx(2.0)
    assert m["linalg_core.self_s"] == pytest.approx(1.0)
    assert m["reduction.kron_ports_s"] == pytest.approx(4.0)
    assert m["reduction.kron_interior_s"] == 0.0
    assert (m["ybus.calls"], m["linalg_core.lu_calls"], m["linalg_core.dense_n3"]) == (2, 1, 8)
    assert m["ybus.matrix_bytes"] == 16
    layers = [k for k in m if k.endswith(".self_s")]
    assert sum(m[k] for k in layers) == pytest.approx(m["trace.op_s"]) == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    spans = [
        span("a", None, "bench.op", 0.0, 4.0),
        span("b", "a", "io.load_any", 1.0, 3.0),
        span("c", "a", "io.load_any", 2.0, 5.0),
    ]
    assert self_times(spans)["a"] == pytest.approx(1.0)


def test_errors_count_once_where_they_leave_a_layer():
    spans = [
        span("a", None, "bench.op", 0.0, 4.0),
        span("b", "a", "reduction.kron_reduce_nodes", 1.0, 3.0, extra={"error": "NotReducibleError"}),
        span("c", "b", "linalg_core.lu_factor_checked", 1.5, 2.0, extra={"error": "SingularMatrixError"}),
        span("d", "c", "linalg_core.as_cmatrix", 1.6, 1.7, extra={"error": "SingularMatrixError"}),
    ]
    m = layer_metrics(spans, op_count=1)
    assert (m["reduction.errors"], m["linalg_core.errors"]) == (1, 1)


def test_tracer_nests_library_calls_and_uninstalls():
    net = build_grid(30, np.random.default_rng(0)).to_network()
    original = ybuskit.rank_analysis.numerical_rank
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 1
        with tracer.span("bench.op"):
            verdict = ybuskit.verify_rank(net)
    finally:
        tracer.uninstall()
    assert verdict.agrees
    assert ybuskit.rank_analysis.numerical_rank is original
    by_name = {s[3]: s for s in tracer.spans}
    top = by_name["rank_analysis.verify_rank"]
    svd = by_name["linalg_core.numerical_rank"]
    assert svd[1] == top[0]
    assert svd[6] == {"n3": 30 ** 3}
    assert by_name["ybus.AdmittanceMatrix"][1] == by_name["ybus.assemble"][0]
    m = layer_metrics(tracer.spans, op_count=1)
    assert m["linalg_core.svd_calls"] == 1
    assert m["rank_analysis.network_path_s"] == pytest.approx(top[5] - top[4])


def test_built_grid_is_connected_and_transmission_like():
    g = build_grid(200, np.random.default_rng(3))
    assert g.edges.shape == (3 * 200 - 1, 2)
    keys = {(min(a, b), max(a, b)) for a, b in g.edges.tolist()}
    assert len(keys) == len(g.edges) and all(a != b for a, b in keys)
    assert ybuskit.is_connected(g.to_network())
    assert g.shunt_nodes.size == 10 and (g.branch_y.real > 0).all()


def test_kron_gate_rejects_a_perturbed_recovery_matrix():
    rng = np.random.default_rng(4)
    y = ybuskit.assemble(build_grid(60, rng).to_network())
    result = ybuskit.kron_reduce_nodes(y, list(range(0, 60, 3)))
    assert kron_failures("kron", y.matrix, result) == []
    bad = result.recovery.copy()
    bad[0, 0] += 1e-6 * np.abs(bad).max()
    perturbed = dataclasses.replace(result, recovery=bad)
    assert kron_failures("kron", y.matrix, perturbed)


def test_hybrid_gate_rejects_a_perturbed_block():
    rng = np.random.default_rng(5)
    y = ybuskit.assemble(build_grid(60, rng).to_network())
    part = ybuskit.Partition.from_labels(three_class_labels(60, rng).tolist())
    h = ybuskit.hybrid_parameters(ybuskit.block_view(y, part), 0)
    sizes = [len(c) for c in part.classes]
    assert hybrid_failures(y.matrix, h.node_order, sizes, 0, h.h) == []
    bad = h.h.copy()
    bad[0, sizes[0]] += 1e-6 * np.abs(bad).max()
    assert hybrid_failures(y.matrix, h.node_order, sizes, 0, bad)


def test_cli_gate_rejects_a_wrong_exit_code_or_stdout():
    expected = ["wrote 3 x 3 admittance matrix to y.json\n"]
    ok = [("ybus", 0, expected[0], "")]
    assert cli_process_failures(ok, expected) == []
    assert cli_process_failures([("ybus", 3, expected[0], "")], expected)
    assert cli_process_failures([("ybus", 0, expected[0].rstrip(), "")], expected)
    assert cli_process_failures([], expected)


def test_cli_gate_rejects_a_pass_that_writes_no_files(tmp_path, monkeypatch):
    class SmallPipeline(CliPipeline):
        nodes = 30

    monkeypatch.setenv("PYTHONPATH", str(HERE.parent / "src"))

    pipeline = SmallPipeline(9, tmp_path)
    out = pipeline.run(0, None)
    assert pipeline.check_reference(out) == []
    # The same exit codes and stdout, but no pass has written the files since.
    assert any("was not written" in f for f in pipeline.check(out))
    assert pipeline.check(pipeline.run(1, None)) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_input_digests_follow_the_seed(name, tmp_path):
    def digests(seed):
        workdir = tmp_path / f"{seed}-{len(list(tmp_path.iterdir()))}"
        workdir.mkdir()
        return WORKLOADS[name](seed, workdir).inputs()

    first = digests(7)
    assert digests(7) == first
    assert digests(8) != first
