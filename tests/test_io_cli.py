"""File formats and the command-line surface.

CLI tests drive ``main(argv)`` in process and assert on exit codes,
stdout and written files; subprocess tests exercise the installed console
script, ``python -m ybuskit`` and the modules a command loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybuskit import (
    AdmittanceMatrix,
    Branch,
    FileFormatError,
    GenSpec,
    Network,
    Shunt,
    StructuralError,
    assemble,
    counterexample_block_singular,
    generate,
)
from ybuskit import network_model, rank_analysis, ybus
from ybuskit.cli import main
from ybuskit.io import (
    emit_json,
    load_any,
    load_matrix,
    load_network,
    matrix_from_dict,
    matrix_to_dict,
    network_from_csv,
    network_from_dict,
    network_to_dict,
    save_matrix,
    save_network,
)

PATH3 = Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 1.0)), ())

#: Every value a JSON document can hold, nested a little.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6,
)
FUZZ_BASE = {
    "nodes": 3,
    "branches": [{"from": 0, "to": 1, "y": [1.0, -2.0]}, {"from": 1, "to": 2, "y": [0.5, 0.0]}],
    "shunts": [{"node": 2, "y": [0.0, 0.25]}],
}
#: Key paths into ``FUZZ_BASE``: every field, list element and number of it, plus a new key.
DOCUMENT_FIELDS = [
    ("nodes",), ("branches",), ("shunts",), ("extra",),
    ("branches", 0), ("branches", 0, "from"), ("branches", 0, "to"), ("branches", 0, "y"),
    ("branches", 1, "y", 0), ("branches", 1, "y", 1), ("branches", 0, "extra"),
    ("shunts", 0), ("shunts", 0, "node"), ("shunts", 0, "y"), ("shunts", 0, "y", 1),
]


def _child_env() -> dict:
    """Environment for a child interpreter that imports this checkout's ybuskit."""
    import ybuskit

    src = str(Path(ybuskit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _count_calls(monkeypatch, module, name) -> list:
    """Record each call of ``module.name`` made through any ybuskit module that binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "ybuskit" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _net_file(tmp_path, net, name="net.json"):
    p = tmp_path / name
    save_network(str(p), net)
    return str(p)


# -- JSON documents -----------------------------------------------------------

class TestNetworkDocuments:
    def test_round_trip_is_exact(self, tmp_path):
        for seed in range(10):
            net = generate(GenSpec(node_range=(3, 20), edge_density=0.2,
                                   shunt_probability=0.4, phase_policy="arbitrary",
                                   seed=seed))
            path = _net_file(tmp_path, net, f"n{seed}.json")
            assert load_network(path) == net

    def test_emit_is_deterministic(self):
        net = generate(GenSpec(node_range=(8, 8), shunt_probability=0.5, seed=3))
        assert emit_json(network_to_dict(net)) == emit_json(network_to_dict(net))

    def test_dict_shape(self):
        doc = network_to_dict(Network(2, (Branch(0, 1, 1.5 - 2j),), (Shunt(1, 3j),)))
        assert doc == {
            "nodes": 2,
            "branches": [{"from": 0, "to": 1, "y": [1.5, -2.0]}],
            "shunts": [{"node": 1, "y": [0.0, 3.0]}],
        }

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"nodes": 2, "extra": 1},
            {"nodes": "2"},
            {"nodes": True},
            {"nodes": 2, "branches": [{"from": 0, "to": 1, "y": [1.0]}]},
            {"nodes": 2, "branches": [{"from": 0, "to": 1, "y": [1.0, True]}]},
            {"nodes": 2, "branches": [[0, 1, 1.0, 0.0]]},
            {"nodes": 2, "shunts": [{"node": 0, "y": "1+2j"}]},
            {"nodes": 2, "branches": [{"from": 0, "to": 1, "y": [float("nan"), 0.0]}]},
            {"nodes": 2, "branches": [{"from": 0, "to": 1, "y": [1.0, float("-inf")]}]},
            {"nodes": 2, "shunts": [{"node": 0, "y": [10**400, 0]}]},
            {"nodes": 3, "branches": 5},
            {"nodes": 3, "branches": None},
            {"nodes": 3, "branches": True},
            {"nodes": 3, "shunts": 5},
            {"nodes": 3, "shunts": None},
            {"nodes": 3, "shunts": True},
        ],
    )
    def test_malformed_rejected(self, doc):
        with pytest.raises(FileFormatError):
            network_from_dict(doc)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(field=st.sampled_from(DOCUMENT_FIELDS), value=JSON_VALUES)
    def test_any_value_in_any_field_is_a_network_or_a_typed_error(self, field, value):
        doc = json.loads(json.dumps(FUZZ_BASE))
        *path, last = field
        target = doc
        for key in path:
            target = target[key]
        target[last] = value
        try:
            net = network_from_dict(doc)
        except (FileFormatError, StructuralError):
            return
        assert isinstance(net, Network)


class TestMatrixDocuments:
    def test_round_trip_is_exact(self, tmp_path):
        net = generate(GenSpec(node_range=(9, 9), edge_density=0.3,
                               shunt_probability=0.5, phase_policy="arbitrary", seed=21))
        y = assemble(net)
        p = tmp_path / "m.json"
        save_matrix(str(p), y)
        back = load_matrix(str(p))
        np.testing.assert_array_equal(back.matrix, y.matrix)
        assert back.node_order == y.node_order

    def test_entries_are_row_major(self):
        y = AdmittanceMatrix(np.array([[1, 2j], [2j, 3]], dtype=complex), (5, 7))
        doc = matrix_to_dict(y)
        assert doc["n"] == 2 and doc["node_order"] == [5, 7]
        assert doc["entries"] == [[1.0, 0.0], [0.0, 2.0], [0.0, 2.0], [3.0, 0.0]]

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "node_order": [0, 1], "entries": [[1.0, 0.0]] * 3},
            {"n": 2, "node_order": [0], "entries": [[1.0, 0.0]] * 4},
            {"n": 2, "node_order": [0, 1], "entries": [[1.0, 0.0]] * 4, "x": 1},
            {"n": "2", "node_order": [0, 1], "entries": [[1.0, 0.0]] * 4},
            {"n": 0, "node_order": [], "entries": []},
            {"n": -1, "node_order": [], "entries": []},
            {"n": 1, "node_order": [0], "entries": [[float("nan"), 0.0]]},
            {"n": 1, "node_order": [0], "entries": [[float("inf"), 0.0]]},
            {"n": 1, "node_order": [0], "entries": [[1.0, 10**400]]},
        ],
    )
    def test_malformed_rejected(self, doc):
        with pytest.raises(FileFormatError):
            matrix_from_dict(doc)

    def test_load_any_dispatches_on_keys(self, tmp_path):
        net = PATH3
        npath = _net_file(tmp_path, net)
        mpath = tmp_path / "m.json"
        save_matrix(str(mpath), assemble(net))
        assert isinstance(load_any(npath), Network)
        assert isinstance(load_any(str(mpath)), AdmittanceMatrix)


class TestCsv:
    def test_basic_branch_list(self, tmp_path):
        text = "from,to,re,im\n0,1,1.0,0.0\n1,2,2.5,-0.5\n1,-1,0.0,1.0\n"
        net = network_from_csv(text)
        assert net.node_count == 3
        assert net.branches == (Branch(0, 1, 1.0), Branch(1, 2, 2.5 - 0.5j))
        assert net.shunts == (Shunt(1, 1j),)

    def test_comments_blanks_and_header_variant(self):
        text = "# generated\n\nfrom_node,to_node,re,im\n0,1,1,0\n"
        net = network_from_csv(text)
        assert net.branches == (Branch(0, 1, 1.0),)

    def test_headerless(self):
        assert network_from_csv("0,1,1,0\n").node_count == 2

    @pytest.mark.parametrize("bad", ["0,1,1\n", "0,1,x,0\n", "", "# only a comment\n",
                                     "0,1,nan,0\n", "0,1,1,-inf\n", "0,-1,1e999,0\n"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(FileFormatError):
            network_from_csv(bad)

    def test_csv_file_loads_as_network(self, tmp_path):
        p = _write(tmp_path, "net.csv", "0,1,1.0,0.0\n1,-1,2.0,0.0\n")
        net = load_any(p)
        assert isinstance(net, Network)
        assert net.shunts == (Shunt(1, 2.0),)


# -- commands -----------------------------------------------------------------

class TestValidateCommand:
    def test_clean_network(self, tmp_path, capsys):
        code = main(["validate", _net_file(tmp_path, PATH3)])
        out = capsys.readouterr().out
        assert code == 0
        assert "connected: yes" in out
        assert "hypothesis1_ok: yes" in out

    def test_disconnected_network(self, tmp_path, capsys):
        net = Network(3, (Branch(0, 1, 1.0),), ())
        code = main(["validate", _net_file(tmp_path, net)])
        out = capsys.readouterr().out
        assert code == 2
        assert "connected: no" in out
        assert "finding:" in out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        code = main(["validate", _write(tmp_path, "bad.json", "{nope")])
        assert code == 1

    @pytest.mark.parametrize("y", ["[NaN, 0]", "[0, Infinity]", "[-Infinity, 1]",
                                   "[1e999, 0]", "[1, -1e999]", "[1" + "0" * 400 + ", 0]",
                                   "[1" + "0" * 5000 + ", 0]"],
                             ids=["nan", "inf", "-inf", "1e999", "-1e999", "int400", "int5000"])
    def test_non_finite_admittance_exits_1(self, tmp_path, capsys, y):
        text = '{"nodes": 2, "branches": [{"from": 0, "to": 1, "y": %s}]}' % y
        code = main(["validate", _write(tmp_path, "nan.json", text)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_non_finite_csv_exits_1(self, tmp_path, capsys):
        code = main(["validate", _write(tmp_path, "nan.csv", "0,1,NaN,0\n")])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"nodes": 3, "branches": 5}', "[" * 100000 + "]" * 100000],
                             ids=["branches-not-a-list", "nested-too-deep"])
    @pytest.mark.parametrize("argv", [
        ["validate"], ["ybus", "out.json"], ["rank", "--method", "both"],
        ["kron", "out.json", "--eliminate", "0"],
        ["hybrid", "out.json", "--partition", "0", "--solve-class", "0"],
    ], ids=lambda argv: argv[0])
    def test_malformed_document_exits_1(self, tmp_path, capsys, argv, text):
        path = _write(tmp_path, "doc.json", text)
        args = [str(tmp_path / a) if a == "out.json" else a for a in argv[1:]]
        code = main([argv[0], path] + args)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()


class TestYbusCommand:
    def test_writes_loadable_matrix(self, tmp_path, capsys):
        npath = _net_file(tmp_path, PATH3)
        out = str(tmp_path / "y.json")
        assert main(["ybus", npath, out]) == 0
        y = load_matrix(out)
        np.testing.assert_array_equal(y.matrix, assemble(PATH3).matrix)

    def test_output_bytes_reproducible(self, tmp_path):
        npath = _net_file(tmp_path, generate(GenSpec(node_range=(10, 10),
                                                     shunt_probability=0.3, seed=2)))
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["ybus", npath, a]) == 0
        assert main(["ybus", npath, b]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_zero_branch_is_precondition_failure(self, tmp_path, capsys):
        net = Network(2, (Branch(0, 1, 0j),), ())
        assert main(["ybus", _net_file(tmp_path, net), str(tmp_path / "y.json")]) == 2

    def test_network_too_large_for_a_dense_matrix_exits_1(self, tmp_path, capsys):
        # 10^7 nodes ask for a 1.42 PiB dense matrix; the allocation fails at once
        big = tmp_path / "big.json"
        big.write_text('{"nodes": 10000000}')
        assert main(["ybus", str(big), str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


class TestRankCommand:
    def test_two_node_example(self, tmp_path, capsys):
        net = Network(2, (Branch(0, 1, 1.0),), ())
        code = main(["rank", _net_file(tmp_path, net)])
        out = capsys.readouterr().out
        assert code == 0
        assert "predicted 1, measured 1, agrees" in out

    def test_both_methods_on_shunted_net(self, tmp_path, capsys):
        net = Network(2, (Branch(0, 1, 1.0),), (Shunt(0, 1.0),))
        code = main(["rank", _net_file(tmp_path, net), "--method", "both"])
        out = capsys.readouterr().out
        assert code == 0
        assert "direct: predicted 2, measured 2, agrees" in out
        assert "virtual-ground: predicted 2, measured 2, agrees" in out
        assert "block form error" in out

    def test_matrix_file_input(self, tmp_path, capsys):
        mpath = str(tmp_path / "m.json")
        save_matrix(mpath, assemble(PATH3))
        assert main(["rank", mpath]) == 0
        assert "predicted 2, measured 2, agrees" in capsys.readouterr().out

    def test_exact_cancellation_matrix_exits_3(self, tmp_path, capsys):
        # rank-1 matrix with zero row sums: prediction N-1 = 2 cannot hold
        m = np.array([[0.5, -1, 0.5], [-1, 2, -1], [0.5, -1, 0.5]], dtype=complex)
        mpath = str(tmp_path / "m.json")
        save_matrix(mpath, AdmittanceMatrix(m, (0, 1, 2)))
        code = main(["rank", mpath])
        assert code == 3
        assert "DISAGREES" in capsys.readouterr().out

    def test_virtual_ground_needs_shunts(self, tmp_path, capsys):
        code = main(["rank", _net_file(tmp_path, PATH3), "--method", "virtual-ground"])
        assert code == 2
        assert "precondition" in capsys.readouterr().err

    def test_empty_matrix_exits_1(self, tmp_path, capsys):
        mpath = _write(tmp_path, "empty.json", '{"n": 0, "node_order": [], "entries": []}')
        code = main(["rank", mpath, "--method", "both"])
        err = capsys.readouterr().err
        assert code == 1
        assert '"n" must be at least 1' in err and "Traceback" not in err

    def test_both_methods_prepare_a_network_once(self, tmp_path, monkeypatch, capsys):
        net = generate(GenSpec(node_range=(40, 40), shunt_probability=0.3, min_shunts=1, seed=8))
        npath = _net_file(tmp_path, net)
        validations = _count_calls(monkeypatch, network_model, "validate")
        stamps = _count_calls(monkeypatch, ybus, "_stamp")
        assert main(["rank", npath, "--method", "both"]) == 0
        assert capsys.readouterr().out.count("agrees") == 2
        assert (len(validations), len(stamps)) == (1, 2)  # Y and the augmented Y

    def test_both_methods_prepare_a_matrix_once(self, tmp_path, monkeypatch, capsys):
        net = generate(GenSpec(node_range=(40, 40), shunt_probability=0.3, min_shunts=1, seed=8))
        mpath = str(tmp_path / "m.json")
        save_matrix(mpath, assemble(net))
        pattern_checks = _count_calls(monkeypatch, rank_analysis, "_pattern_connected")
        assert main(["rank", mpath, "--method", "both"]) == 0
        assert capsys.readouterr().out.count("agrees") == 2
        assert len(pattern_checks) == 1

    def test_stdout_reproducible(self, tmp_path, capsys):
        npath = _net_file(tmp_path, generate(GenSpec(node_range=(12, 12),
                                                     shunt_probability=0.4, seed=6)))
        main(["rank", npath, "--method", "both"])
        first = capsys.readouterr().out
        main(["rank", npath, "--method", "both"])
        assert capsys.readouterr().out == first


class TestKronCommand:
    def test_series_example(self, tmp_path, capsys):
        npath = _net_file(tmp_path, PATH3)
        out = str(tmp_path / "red.json")
        assert main(["kron", npath, out, "--eliminate", "1"]) == 0
        y = load_matrix(out)
        np.testing.assert_allclose(
            y.matrix, [[0.5, -0.5], [-0.5, 0.5]], rtol=0, atol=1e-15)
        assert y.node_order == (0, 2)

        sidecar = json.loads((tmp_path / "red.recovery.json").read_text())
        assert sidecar["rows"] == 1 and sidecar["cols"] == 2
        assert sidecar["row_nodes"] == [1] and sidecar["col_nodes"] == [0, 2]
        np.testing.assert_allclose(sidecar["entries"], [[0.5, 0.0], [0.5, 0.0]],
                                   rtol=0, atol=1e-15)

    def test_retain_is_complement(self, tmp_path):
        npath = _net_file(tmp_path, PATH3)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["kron", npath, a, "--eliminate", "1"]) == 0
        assert main(["kron", npath, b, "--retain", "0,2"]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_recovery_out_override(self, tmp_path):
        npath = _net_file(tmp_path, PATH3)
        rec = str(tmp_path / "custom_rec.json")
        assert main(["kron", npath, str(tmp_path / "r.json"),
                     "--eliminate", "1", "--recovery-out", rec]) == 0
        assert json.loads((tmp_path / "custom_rec.json").read_text())["row_nodes"] == [1]

    def test_unknown_retained_node_exits_1(self, tmp_path, capsys):
        mpath = str(tmp_path / "m.json")
        save_matrix(mpath, assemble(Network(2, (Branch(0, 1, 1.0),), ())))
        out = str(tmp_path / "r.json")
        for flag in ("--retain", "--eliminate"):
            assert main(["kron", mpath, out, flag, "0,999,500"]) == 1
            assert capsys.readouterr().err == "error: node 999 is not in the matrix node order\n"
        assert not (tmp_path / "r.json").exists()

    def test_flag_exclusivity(self, tmp_path, capsys):
        npath = _net_file(tmp_path, PATH3)
        out = str(tmp_path / "r.json")
        assert main(["kron", npath, out]) == 1
        assert main(["kron", npath, out, "--eliminate", "1", "--retain", "0"]) == 1

    def test_singular_block_exits_2(self, tmp_path, capsys):
        net, _ = counterexample_block_singular()
        code = main(["kron", _net_file(tmp_path, net), str(tmp_path / "r.json"),
                     "--eliminate", "0"])
        assert code == 2
        assert "precondition" in capsys.readouterr().err

    def test_matrix_file_input(self, tmp_path):
        mpath = str(tmp_path / "m.json")
        save_matrix(mpath, assemble(PATH3))
        out = str(tmp_path / "r.json")
        assert main(["kron", mpath, out, "--eliminate", "1"]) == 0
        np.testing.assert_allclose(load_matrix(out).matrix,
                                   [[0.5, -0.5], [-0.5, 0.5]], rtol=0, atol=1e-15)


class TestHybridCommand:
    def _two_node(self, tmp_path):
        return _net_file(tmp_path, Network(2, (Branch(0, 1, 1.0),), (Shunt(0, 1.0),)))

    def test_minimal_example(self, tmp_path, capsys):
        out = str(tmp_path / "h.json")
        code = main(["hybrid", self._two_node(tmp_path), out,
                     "--partition", "0,1", "--solve-class", "0"])
        assert code == 0
        doc = json.loads((tmp_path / "h.json").read_text())
        assert doc["n"] == 2 and doc["solved_class"] == 0
        np.testing.assert_allclose(
            doc["entries"],
            [[0.5, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.5, 0.0]],
            rtol=0, atol=1e-15)
        assert doc["roles"] == {
            "0,0": "impedance", "0,1": "voltage-gain",
            "1,0": "current-gain", "1,1": "admittance",
        }

    def test_class_flags_match_partition_flag(self, tmp_path):
        npath = self._two_node(tmp_path)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["hybrid", npath, a, "--partition", "0,1", "--solve-class", "0"]) == 0
        assert main(["hybrid", npath, b, "--class", "0", "--class", "1",
                     "--solve-class", "0"]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_usage_errors(self, tmp_path):
        npath = self._two_node(tmp_path)
        out = str(tmp_path / "h.json")
        assert main(["hybrid", npath, out, "--solve-class", "0"]) == 1
        assert main(["hybrid", npath, out, "--partition", "0,1,1",
                     "--solve-class", "0"]) == 1
        assert main(["hybrid", npath, out, "--partition", "0,1"]) == 1  # missing P

    def test_singular_solve_block_exits_2(self, tmp_path):
        net, _ = counterexample_block_singular()
        code = main(["hybrid", _net_file(tmp_path, net), str(tmp_path / "h.json"),
                     "--partition", "0,1", "--solve-class", "0"])
        assert code == 2


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code = main(["verify", "--suite", "lemma2", "--samples", "3", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        assert "suite lemma2: 3 samples" in captured.out
        assert "PASS" in captured.out
        assert "took" in captured.err
        assert "took" not in captured.out  # timing must not pollute stdout

    def test_stdout_reproducible(self, capsys):
        main(["verify", "--suite", "kron", "--samples", "4", "--seed", "11"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "kron", "--samples", "4", "--seed", "11"])
        assert capsys.readouterr().out == first

    def test_unknown_suite_rejected(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 1

    def test_run_suite_argument_validation(self):
        from ybuskit import StructuralError
        from ybuskit.suites import run_suite
        with pytest.raises(StructuralError):
            run_suite("bogus", 5, 1)
        with pytest.raises(StructuralError):
            run_suite("lemma2", 0, 1)


class TestRandgenCommand:
    def test_deterministic_output(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = ["--nodes", "12", "--density", "0.2", "--shunt-prob", "0.5",
                "--seed", "77"]
        assert main(["randgen", a] + args) == 0
        assert main(["randgen", b] + args) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_generated_file_validates(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        assert main(["randgen", out, "--nodes", "4,9", "--seed", "5"]) == 0
        assert main(["validate", out]) == 0
        net = load_network(out)
        assert 4 <= net.node_count <= 9

    def test_bad_flag_values(self, tmp_path):
        out = str(tmp_path / "g.json")
        assert main(["randgen", out, "--nodes", "x"]) == 1
        assert main(["randgen", out, "--nodes", "1,2,3"]) == 1
        assert main(["randgen", out, "--density", "7"]) == 1  # StructuralError


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_pipeline_matches_in_process(self, tmp_path, capsys):
        # ybus -> file -> rank must agree with rank straight on the network
        net = generate(GenSpec(node_range=(10, 10), edge_density=0.3,
                               shunt_probability=0.4, min_shunts=1, seed=13))
        npath = _net_file(tmp_path, net)
        mpath = str(tmp_path / "y.json")
        assert main(["ybus", npath, mpath]) == 0
        capsys.readouterr()
        assert main(["rank", npath]) == 0
        direct_line = capsys.readouterr().out
        assert main(["rank", mpath]) == 0
        file_line = capsys.readouterr().out
        # identical verdict numbers either way (gap diagnostics included)
        assert direct_line == file_line

    def test_console_script_installed(self, tmp_path):
        net_file = _net_file(tmp_path, PATH3)
        proc = subprocess.run(
            ["ybuskit", "rank", net_file],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 0
        assert "predicted 2, measured 2, agrees" in proc.stdout

    def test_python_dash_m(self, tmp_path):
        net_file = _net_file(tmp_path, PATH3)
        proc = subprocess.run(
            [sys.executable, "-m", "ybuskit", "rank", net_file],
            capture_output=True, text=True, check=False, env=_child_env())
        assert proc.returncode == 0
        assert "predicted 2, measured 2, agrees" in proc.stdout

    def test_only_lu_commands_load_scipy(self, tmp_path):
        mpath = str(tmp_path / "m.json")
        red = str(tmp_path / "red.json")
        save_matrix(mpath, assemble(Network(3, PATH3.branches, (Shunt(0, 1.0),))))
        script = (
            "import sys\n"
            "import ybuskit.cli\n"
            "assert 'scipy' not in sys.modules, 'import ybuskit.cli loaded scipy'\n"
            f"assert ybuskit.cli.main(['rank', {mpath!r}, '--method', 'both']) == 0\n"
            "assert 'scipy' not in sys.modules, 'rank loaded scipy'\n"
            f"assert ybuskit.cli.main(['kron', {mpath!r}, {red!r}, '--eliminate', '1']) == 0\n"
            "assert 'scipy' in sys.modules, 'kron ran without scipy'\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=False, env=_child_env())
        assert proc.returncode == 0, proc.stderr
