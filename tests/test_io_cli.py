"""File formats and the command-line surface.

CLI tests drive ``main(argv)`` in process and assert on exit codes,
stdout and written files; subprocess tests exercise the installed console
script, ``python -m ybuskit`` and the modules a command loads.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
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
    NumericalError,
    PHASE_POLICIES,
    Partition,
    SUITE_NAMES,
    Shunt,
    StructuralError,
    assemble,
    block_view,
    generate,
    hybrid_parameters,
    kron_reduce_nodes,
    verify_block_rank,
)
from ybuskit import linalg_core, network_model, rank_analysis, ybus
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

from oracles import counterexample_block_singular

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
#: A 2-node matrix document with a shunt at node 1, and key paths into it.
MATRIX_FUZZ_BASE = {
    "n": 2,
    "node_order": [0, 1],
    "entries": [[1.0, -2.0], [-1.0, 2.0], [-1.0, 2.0], [1.5, -2.0]],
}
MATRIX_FIELDS = [
    ("n",), ("node_order",), ("entries",), ("extra",), ("node_order", 0), ("node_order", 1),
    ("entries", 0), ("entries", 1), ("entries", 2, 0), ("entries", 3, 1),
]
#: The same matrix as a sparse document, and key paths into it.
SPARSE_MATRIX_FUZZ_BASE = {
    "n": 2,
    "node_order": [0, 1],
    "nonzeros": [[0, 0, 1.0, -2.0], [0, 1, -1.0, 2.0], [1, 0, -1.0, 2.0], [1, 1, 1.5, -2.0]],
}
SPARSE_MATRIX_FIELDS = [
    ("n",), ("node_order",), ("nonzeros",), ("entries",), ("extra",), ("node_order", 1),
    ("nonzeros", 0), ("nonzeros", 3), ("nonzeros", 1, 0), ("nonzeros", 2, 1),
    ("nonzeros", 0, 2), ("nonzeros", 3, 3),
]
#: Sparse documents that must exit 1, by what is wrong: (key path, value) edits of the base.
SPARSE_MATRIX_FAULTS = {
    "bool-position": [(("nonzeros", 1, 0), True)],
    "bool-value": [(("nonzeros", 1, 3), False)],
    "float-position": [(("nonzeros", 2, 1), 0.0)],
    "huge-value": [(("nonzeros", 0, 2), 10**400)],
    "nan": [(("nonzeros", 3, 3), float("nan"))],
    "inf": [(("nonzeros", 0, 2), float("inf"))],
    "position-n": [(("nonzeros", 3, 1), 2)],
    "negative-position": [(("nonzeros", 0, 0), -1)],
    "huge-position": [(("nonzeros", 2, 0), 10**30)],
    "repeated": [(("nonzeros", 2), [0, 1, -1.0, 2.0])],
    "unordered": [(("nonzeros", 1), [1, 0, -1.0, 2.0]), (("nonzeros", 2), [0, 1, -1.0, 2.0])],
    "short": [(("nonzeros", 1), [0, 1, -1.0])],
    "not-a-list": [(("nonzeros",), {"0": [0, 0, 1.0, 0.0]})],
    "both-bodies": [(("entries",), MATRIX_FUZZ_BASE["entries"])],
    "asymmetric": [(("nonzeros", 2, 2), -1.5)],
    "overflowing-asymmetry": [(("nonzeros", 1, 2), 1.7e308), (("nonzeros", 2, 2), -1.7e308)],
    "duplicate-node": [(("node_order", 1), 0)],
    "too-many-nodes": [(("n",), 16385), (("node_order",), list(range(16385)))],
}
#: A branch-list CSV as rows of cells; header, two branches and a shunt.
CSV_FUZZ_BASE = [["from", "to", "re", "im"], ["0", "1", "1.0", "-2.0"],
                 ["1", "2", "0.5", "0.0"], ["2", "-1", "0.0", "0.25"]]
#: CSV cell text: anything short, plus numerals the parser must refuse or bound.
CSV_CELLS = st.text(max_size=4) | st.sampled_from([
    "nan", "inf", "-inf", "1e999", "1e-400", "-0.0", "-1", "-2", "0", "2", "1_0", "0x1",
    " 3 ", "\u0663", "9" * 5000, "1" + "0" * 400, "#", "from", '"1"', "\r", "\x00",
])

#: Finite documents whose arithmetic overflows binary64: a 3-node matrix
#: with entries from 1e-300 to 1.7e308, a 2-node matrix whose norm is
#: 3.4e308, a network with a stamped diagonal entry of 2e308, one whose
#: largest singular value is 3.4e308, and networks with a branch and with
#: a shunt whose magnitude |1.5e308 + 1.5e308j| overflows.
BIG_MATRIX = {"n": 3, "node_order": [0, 1, 2], "entries": [
    [1.7e308, 0], [-1.7e308, 0], [0, 0], [-1.7e308, 0], [1e-300, 0], [-1e-300, 0],
    [0, 0], [-1e-300, 0], [1.5e300, 0]]}
OVERFLOWING_NORM = {"n": 2, "node_order": [0, 1],
                    "entries": [[1.7e308, 0], [-1.7e308, 0], [-1.7e308, 0], [1.7e308, 1]]}
OVERFLOWING_SUM = {"nodes": 3, "branches": [{"from": 0, "to": 1, "y": [1e308, 0]},
                                            {"from": 1, "to": 2, "y": [1e308, 0]}]}
OVERFLOWING_SVD = {"nodes": 2, "branches": [{"from": 0, "to": 1, "y": [1.7e308, 0]}]}
OVERFLOWING_BRANCH = {"nodes": 2, "branches": [{"from": 0, "to": 1, "y": [1.5e308, 1.5e308]}]}
OVERFLOWING_SHUNT = {"nodes": 2, "branches": [{"from": 0, "to": 1, "y": [1, 0]}],
                     "shunts": [{"node": 0, "y": [1.5e308, 1.5e308]}]}
#: A matrix whose squared entries overflow although its Frobenius norm
#: (3.2e200) and its singular values (3e200, 1e200) are representable, and
#: one whose squared entries underflow to zero.
HUGE_ENTRIES = {"n": 2, "node_order": [0, 1],
                "entries": [[2e200, 0], [-1e200, 0], [-1e200, 0], [2e200, 0]]}
TINY_ENTRIES = {"n": 2, "node_order": [0, 1],
                "entries": [[2e-310, 0], [-1e-310, 0], [-1e-310, 0], [2e-310, 0]]}
#: (document, command line with {src} and {out}, the stage the error names)
OVERFLOW_CASES = [
    (BIG_MATRIX, ["hybrid", "{src}", "{out}", "--partition", "0,1,0", "--solve-class", "1"],
     "block (1,1): W = Y_ee^-1 Y_ek"),
    (BIG_MATRIX, ["kron", "{src}", "{out}", "--eliminate", "1"], "elimination block: W"),
    (BIG_MATRIX, ["kron", "{src}", "{out}", "--eliminate", "0,1"], "the 1-norm"),
    (OVERFLOWING_NORM, ["rank", "{src}"], "the Frobenius norm"),
    (OVERFLOWING_SUM, ["ybus", "{src}", "{out}"], "a stamped nodal matrix entry"),
    (OVERFLOWING_SUM, ["rank", "{src}"], "a stamped nodal matrix entry"),
    (OVERFLOWING_SVD, ["rank", "{src}"], "a singular value of the 2x2 matrix"),
    (OVERFLOWING_BRANCH, ["rank", "{src}"], "a singular value of the 2x2 matrix"),
    (OVERFLOWING_SHUNT, ["rank", "{src}", "--method", "virtual-ground"],
     "a singular value of the 2x2 matrix"),
]

#: Text for a command-line flag: anything short, and numerals of every sign and size.
FLAG_TEXT = st.text(max_size=6) | st.integers().map(str) | st.floats().map(str)
#: Text for a flag that sizes the work (``--nodes``, ``--samples``): a small
#: integer, or text without a numeral, so that no large run can start.
SMALL_COUNT = st.integers(-1, 2).map(str) | st.text(max_size=4).filter(
    lambda s: not any(c.isnumeric() for c in s))


def _flag(parsed):
    """Flag text drawn from ``parsed`` (values the parser accepts) half the time.

    Without it, almost every run stops at the first flag that fails to
    parse, and few get through to the library.
    """
    return st.booleans().flatmap(lambda ok: parsed if ok else FLAG_TEXT)


#: Seeds of either sign and of more than 64 bits.
SEEDS = st.integers(-2**65, 2**65).map(str)
#: Text for a node list or a class label list: small ids, or text without
#: a numeral, so that no large label reaches the library.
SMALL_IDS = st.lists(st.integers(-2, 6).map(str), max_size=7).map(",".join) | SMALL_COUNT
#: Text for a path, joined to a directory it cannot leave.
PATH_TEXT = st.text(max_size=6).filter(lambda s: "/" not in s)
#: The flags of each file command on an input of n nodes, with those it
#: requires; ``--class`` repeats, and ``--partition`` mostly has n labels.
FILE_COMMAND_FLAGS = {
    "validate": lambda n: st.just({}),
    "ybus": lambda n: st.just({}),
    "rank": lambda n: st.fixed_dictionaries({}, optional={
        "--method": _flag(st.sampled_from(("direct", "virtual-ground", "both")))}),
    "kron": lambda n: st.sampled_from(("--eliminate", "--retain")).flatmap(
        lambda k: st.fixed_dictionaries({k: SMALL_IDS}, optional={"--recovery-out": PATH_TEXT})),
    "hybrid": lambda n: st.fixed_dictionaries(
        {"--solve-class": st.integers(-1, 3).map(str) | SMALL_COUNT},
        optional={"--partition": st.lists(st.integers(0, 2).map(str), min_size=n, max_size=n)
                  .map(",".join) | SMALL_IDS,
                  "--class": st.lists(SMALL_IDS, max_size=3)}),
}


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


def _run_cli(argv) -> tuple[int, str, str]:
    """``main(argv)`` with its stdout and stderr captured, for tests that cannot use capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _peak_bytes(fn):
    """``fn()`` and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _edited(base, edits):
    """A copy of the document ``base`` with each (key path, value) of ``edits`` set."""
    doc = json.loads(json.dumps(base))
    for (*path, last), value in edits:
        target = doc
        for key in path:
            target = target[key]
        target[last] = value
    return doc


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

    @settings(max_examples=400, deadline=None)
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
        assert json.loads(emit_json(doc))["entries"] == \
            [[1.0, 0.0], [0.0, 2.0], [0.0, 2.0], [3.0, 0.0]]

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

    @settings(max_examples=600, deadline=None)
    @given(field=st.sampled_from([(MATRIX_FUZZ_BASE, f) for f in MATRIX_FIELDS]
                                 + [(SPARSE_MATRIX_FUZZ_BASE, f) for f in SPARSE_MATRIX_FIELDS]),
           value=JSON_VALUES)
    def test_any_value_in_any_field_is_a_result_or_exit_1(self, field, value):
        base, field = field
        doc = _edited(base, [(field, value)])
        try:
            matrix_from_dict(doc)
            typed = False
        except (FileFormatError, StructuralError):
            typed = True
        with tempfile.TemporaryDirectory() as tmp:
            mpath = os.path.join(tmp, "m.json")
            with open(mpath, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for argv in (["rank", mpath, "--method", "both"],
                         ["kron", mpath, os.path.join(tmp, "r.json"), "--retain", "1"]):
                code, out, err = _run_cli(argv)
                if typed:
                    assert (code, out) == (1, "") and err.count("\n") == 1, (argv, err)
                else:
                    assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, err)

    @pytest.mark.parametrize("fault", sorted(SPARSE_MATRIX_FAULTS))
    def test_malformed_sparse_document_exits_1_with_one_line_and_no_file(self, tmp_path, fault):
        mpath, out = tmp_path / "m.json", tmp_path / "r.json"
        mpath.write_text(json.dumps(_edited(SPARSE_MATRIX_FUZZ_BASE, SPARSE_MATRIX_FAULTS[fault])))
        with pytest.raises((FileFormatError, StructuralError)):
            load_matrix(str(mpath))
        for argv in (["rank", str(mpath), "--method", "both"],
                     ["kron", str(mpath), str(out), "--retain", "1"],
                     ["hybrid", str(mpath), str(out), "--partition", "0,1", "--solve-class", "0"]):
            code, stdout, err = _run_cli(argv)
            assert (code, stdout) == (1, ""), (argv, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"], argv

    @pytest.mark.parametrize("body", ["entries", "nonzeros"])
    def test_overflowing_asymmetry_is_one_error_line(self, tmp_path, body):
        # |Y - Y^T| overflows to inf, which the check reports without a warning
        base = MATRIX_FUZZ_BASE if body == "entries" else SPARSE_MATRIX_FUZZ_BASE
        doc = _edited(base, [((body, 1, 0 if body == "entries" else 2), 1.7e308),
                             ((body, 2, 0 if body == "entries" else 2), -1.7e308)])
        code, out, err = _run_cli(["rank", _write(tmp_path, "m.json", json.dumps(doc))])
        assert (code, out) == (1, "")
        assert err == ("error: matrix is not complex symmetric: max|Y - Y^T| = inf exceeds "
                       "1e-14 * max|Y| = 1.700e+294\n")

    def test_sparse_document_errors_name_the_nonzero(self):
        for fault, message in (
            ("bool-position", "nonzero 1 must be a four-element [i, j, re, im] array with "
                              "integer positions, got [True, 1, -1.0, 2.0]"),
            ("huge-value", "nonzero 0 value must hold finite numbers, got [" + "1" + "0" * 400
                           + ", -2.0]"),
            ("huge-position", "nonzero 2 has a position outside 0..1"),
            ("position-n", "nonzero 3 has a position outside 0..1"),
            ("repeated", "nonzero 2 does not follow nonzero 1 in strictly ascending row-major "
                         "order"),
            ("both-bodies", 'a matrix document holds "entries" or "nonzeros", not both'),
        ):
            with pytest.raises((FileFormatError, StructuralError)) as exc:
                matrix_from_dict(_edited(SPARSE_MATRIX_FUZZ_BASE, SPARSE_MATRIX_FAULTS[fault]))
            assert str(exc.value) == message, fault

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

    @settings(max_examples=400, deadline=None)
    @given(row=st.integers(0, 3), col=st.integers(0, 4), cell=CSV_CELLS)
    def test_any_text_in_any_cell_is_a_network_or_exit_1(self, row, col, cell):
        rows = [list(r) for r in CSV_FUZZ_BASE]
        if col < 4:
            rows[row][col] = cell
        else:  # one field too many
            rows[row].append(cell)
        text = "\n".join(",".join(r) for r in rows) + "\n"
        try:
            net = network_from_csv(text)
        except (FileFormatError, StructuralError):
            net = None
        else:
            assert isinstance(net, Network)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "net.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            code, out, err = _run_cli(["validate", path])
        if net is None:
            assert (code, out) == (1, "") and err.count("\n") == 1, err
        else:
            assert code in (0, 2) and "Traceback" not in err, err

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

    def test_huge_node_count_is_disconnected_without_per_node_work(self, tmp_path, capsys):
        path = _write(tmp_path, "huge.json", '{"nodes": 10000000000, "branches": '
                      '[{"from": 0, "to": 1, "y": [1.0, 0.0]}]}')
        code, peak = _peak_bytes(lambda: main(["validate", path]))
        out = capsys.readouterr().out
        assert code == 2
        assert "connected: no" in out
        assert "finding: graph is disconnected: 9999999999 components" in out
        code, rank_peak = _peak_bytes(lambda: main(["rank", path]))
        assert code == 2
        assert "connected branch graph" in capsys.readouterr().err
        assert max(peak, rank_peak) < 1 << 20

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

    @pytest.mark.parametrize("name,data", [
        ("net.json", b'{"nodes": 2, "branches": [{"from": 0, "to": 1, "y": [1, \xff]}]}'),
        ("net.csv", b"0,1,1.0,0.0\n1,\xff,1.0,0.0\n"),
    ], ids=["json", "csv"])
    def test_non_utf8_file_exits_1(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "not UTF-8" in captured.err
        assert captured.err.count("\n") == 1

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
        # the limit is checked before any N x N (or N-long) allocation
        for nodes in (ybus.MAX_DENSE_ORDER + 1, 10**7, 10**10):
            big = _write(tmp_path, "big.json", f'{{"nodes": {nodes}}}')
            for argv in (["ybus", big, str(tmp_path / "out.json")],
                         ["kron", big, str(tmp_path / "out.json"), "--eliminate", "0"]):
                code, peak = _peak_bytes(lambda: main(argv))
                assert code == 1
                assert capsys.readouterr().err == (
                    f"error: {nodes} nodes exceed the dense matrix limit of "
                    f"{ybus.MAX_DENSE_ORDER} nodes\n")
                assert peak < 1 << 20
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

    def test_svd_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(linalg_core.np.linalg, "svd", no_convergence)
        assert main(["rank", _net_file(tmp_path, PATH3)]) == 1
        assert capsys.readouterr().err == (
            "error: SVD did not converge on a 3x3 matrix: SVD did not converge\n")

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
        stamps = _count_calls(monkeypatch, ybus, "_stamp_arrays")
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

    def test_both_methods_stdout_independent_of_blas_threads(self, tmp_path):
        small, certified = str(tmp_path / "net.json"), str(tmp_path / "big.json")
        shuntless = str(tmp_path / "shuntless.json")
        assert _run_cli(["randgen", small, "--nodes", "150", "--density", "0.03",
                         "--shunt-prob", "0.1", "--min-shunts", "1", "--seed", "150"])[0] == 0
        assert _run_cli(["randgen", certified, "--nodes", "700", "--density", "0.004",
                         "--shunt-prob", "0.05", "--min-shunts", "1", "--seed", "700"])[0] == 0
        assert _run_cli(["randgen", shuntless, "--nodes", "700", "--density", "0.004",
                         "--seed", "700"])[0] == 0
        # settled by the Cholesky certificates, rank N and rank N-1, with no SVD
        for npath, grounded in ((certified, False), (shuntless, True)):
            y = assemble(load_network(npath))
            assert linalg_core._hermitian_part_certifies(y.size, y._rows(), y.indices, y.data,
                                                         grounded=grounded)
        for npath, methods in ((small, ["--method", "both"]), (certified, ["--method", "both"]),
                               (shuntless, [])):
            outs = []
            for threads in ("1", "2"):
                env = _child_env()
                env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS"), threads))
                proc = subprocess.run(
                    [sys.executable, "-m", "ybuskit", "rank", npath, *methods],
                    capture_output=True, text=True, check=False, env=env)
                assert proc.returncode == 0, proc.stderr
                outs.append(proc.stdout)
            assert outs[0].count("agrees") == (2 if methods else 1)
            assert outs[0] == outs[1]
        assert "singular gap" not in outs[0]  # a certified verdict prints none

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

    def test_singular_block_names_its_node(self, tmp_path):
        net, _ = counterexample_block_singular()
        code, out, err = _run_cli(["kron", _net_file(tmp_path, net), str(tmp_path / "r.json"),
                                   "--eliminate", "0"])
        assert (code, out) == (2, "")
        assert err == ("precondition not met: elimination block is exactly singular "
                       "(zero pivot at index 0, node 0)\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("recovery", [".", "missing/rec.json", "rec\0.json"])
    def test_failed_sidecar_write_leaves_no_output(self, tmp_path, recovery):
        npath = _net_file(tmp_path, PATH3)
        code, out, err = _run_cli(["kron", npath, str(tmp_path / "out.json"), "--eliminate", "1",
                                   "--recovery-out", str(tmp_path / recovery)])
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json"]

    @pytest.mark.parametrize("spelling", ["o.json", "./o.json"])
    def test_recovery_out_naming_the_output_exits_1_and_writes_nothing(
            self, tmp_path, monkeypatch, spelling):
        npath = _net_file(tmp_path, PATH3)
        monkeypatch.chdir(tmp_path)
        code, out, err = _run_cli(["kron", npath, "o.json", "--eliminate", "1",
                                   "--recovery-out", spelling])
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json"]

    @pytest.mark.parametrize("flags, label", [(["--retain", "0,0,1"], 0),
                                              (["--eliminate", "2,2"], 2)])
    def test_repeated_label_exits_1_naming_it(self, tmp_path, flags, label):
        code, out, err = _run_cli(["kron", _net_file(tmp_path, PATH3),
                                   str(tmp_path / "r.json"), *flags])
        assert (code, out, err) == (1, "", f"error: node {label} is listed more than once\n")
        assert not (tmp_path / "r.json").exists()

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

    def test_reduced_matrices_take_row_partitions_and_class_labels(self, tmp_path, capsys):
        # a Kron output keeps its node labels: --partition labels its rows in
        # file order, --class names labels; one-stage and two-stage outputs
        # must both give the hybrid of the one-shot reduction
        d = str(tmp_path)
        assert main(["randgen", f"{d}/n.json", "--nodes", "12", "--density", "0.3",
                     "--magnitude", "0.5,2", "--shunt-prob", "0.3", "--min-shunts", "1",
                     "--seed", "5"]) == 0
        one_shot = kron_reduce_nodes(assemble(load_network(f"{d}/n.json")), [1, 3, 4, 8])
        kept = one_shot.reduced.node_order
        assert kept == (0, 2, 5, 6, 7, 9, 10, 11)
        labels = [0, 0, 1, 1, 0, 1, 0, 1]
        want = hybrid_parameters(block_view(one_shot.reduced, Partition.from_labels(labels)), 0)
        classes = [",".join(str(v) for v, c in zip(kept, labels) if c == k) for k in (0, 1)]
        assert main(["kron", f"{d}/n.json", f"{d}/once.json", "--eliminate", "1,3,4,8"]) == 0
        assert main(["kron", f"{d}/n.json", f"{d}/half.json", "--eliminate", "3,8"]) == 0
        assert main(["kron", f"{d}/half.json", f"{d}/twice.json", "--eliminate", "4,1"]) == 0
        for reduced in ("once", "twice"):
            for flags in (["--partition", ",".join(map(str, labels))],
                          ["--class", classes[0], "--class", classes[1]]):
                assert main(["hybrid", f"{d}/{reduced}.json", f"{d}/h.json", *flags,
                             "--solve-class", "0"]) == 0, (reduced, flags)
                doc = json.loads((tmp_path / "h.json").read_text())
                assert tuple(doc["node_order"]) == want.node_order == (0, 2, 7, 10, 5, 6, 9, 11)
                h = np.array(doc["entries"]) @ [1, 1j]
                assert np.abs(h.reshape(8, 8) - want.h).max() <= 1e-12 * np.abs(want.h).max()
        capsys.readouterr()
        assert main(["hybrid", f"{d}/once.json", f"{d}/h.json", "--class", "0,2,7,10",
                     "--class", "1,5,6,9,11", "--solve-class", "0"]) == 1
        assert capsys.readouterr().err == "error: node 1 is not in the matrix node order\n"

    def test_repeated_class_label_is_named_as_a_label(self, tmp_path):
        # rows 0..3 of the reduced matrix are nodes 2..5: label 3 is row 1
        net = Network(6, tuple(Branch(k, k + 1, 1.0) for k in range(5)), (Shunt(0, 1.0),))
        red = str(tmp_path / "r.json")
        assert main(["kron", _net_file(tmp_path, net), red, "--eliminate", "0,1"]) == 0
        assert load_matrix(red).node_order == (2, 3, 4, 5)
        code, out, err = _run_cli(["hybrid", red, str(tmp_path / "h.json"), "--class", "3,3,2",
                                   "--class", "4,5", "--solve-class", "0"])
        assert (code, out, err) == (1, "", "error: node 3 is listed more than once\n")
        assert not (tmp_path / "h.json").exists()

    def test_class_flags_that_leave_a_node_out_name_it(self, tmp_path):
        # rows 0..5 of the reduced matrix are nodes 2..7; node 6 is in no class
        net = Network(8, tuple(Branch(k, k + 1, 1.0) for k in range(7)), (Shunt(0, 1.0),))
        red = str(tmp_path / "r.json")
        assert main(["kron", _net_file(tmp_path, net), red, "--eliminate", "0,1"]) == 0
        assert load_matrix(red).node_order == (2, 3, 4, 5, 6, 7)
        code, out, err = _run_cli(["hybrid", red, str(tmp_path / "h.json"), "--class", "2,3",
                                   "--class", "4,5", "--solve-class", "0"])
        assert (code, out, err) == (1, "", "error: node 6 is in no --class\n")
        assert not (tmp_path / "h.json").exists()

    def test_partition_and_class_together_exit_1(self, tmp_path):
        out = str(tmp_path / "h.json")
        for npath in (self._two_node(tmp_path), str(tmp_path / "absent.json")):
            code, stdout, err = _run_cli(["hybrid", npath, out, "--partition", "0,1",
                                          "--class", "0", "--class", "1", "--solve-class", "0"])
            assert (code, stdout) == (1, "") and err.count("\n") == 1, err
            assert err.startswith("error: ") and "--partition" in err and "--class" in err
        assert not (tmp_path / "h.json").exists()

    def test_singular_solve_block_exits_2(self, tmp_path):
        net, _ = counterexample_block_singular()
        code = main(["hybrid", _net_file(tmp_path, net), str(tmp_path / "h.json"),
                     "--partition", "0,1", "--solve-class", "0"])
        assert code == 2

    def test_singular_solve_block_names_its_node(self, tmp_path):
        # node 0 is class 1 here, so the class and the node differ
        net, _ = counterexample_block_singular()
        code, out, err = _run_cli(["hybrid", _net_file(tmp_path, net), str(tmp_path / "h.json"),
                                   "--partition", "1,0", "--solve-class", "1"])
        assert (code, out) == (2, "")
        assert err == ("precondition not met: block (1,1) is exactly singular "
                       "(zero pivot at index 0, node 0)\n")
        assert not (tmp_path / "h.json").exists()


class TestOverflow:
    @pytest.mark.parametrize("doc, argv, stage", OVERFLOW_CASES)
    def test_exits_1_with_one_line_and_no_file(self, tmp_path, doc, argv, stage):
        src = _write(tmp_path, "in.json", json.dumps(doc))
        argv = [a.format(src=src, out=tmp_path / "out.json") for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {stage}") and err.count("\n") == 1, err
        assert err.endswith(" overflows the floating-point range\n"), err
        assert [p.name for p in tmp_path.iterdir()] == ["in.json"]

    @pytest.mark.parametrize("doc", [OVERFLOWING_BRANCH, OVERFLOWING_SHUNT])
    def test_admittance_whose_magnitude_overflows_counts_as_nonzero(self, tmp_path, doc):
        src = _write(tmp_path, "in.json", json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run_cli(["validate", src])
            net = load_network(src)
            with pytest.raises(NumericalError, match="overflows the floating-point range"):
                verify_block_rank(net, Partition(((0,), (1,)), 2))
        assert (code, err) == (0, "")
        assert out == ("connected: yes\nhypothesis1_ok: yes\ntheorem2_preconditions_ok: yes\n"
                       "shunt_passivity_ok: yes\n")

    @pytest.mark.parametrize("doc", [HUGE_ENTRIES, TINY_ENTRIES])
    def test_entries_whose_squares_overflow_or_underflow_are_decided(self, tmp_path, doc):
        src = _write(tmp_path, "in.json", json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run_cli(["rank", src, "--method", "both"])
        assert (code, err) == (0, "")
        assert out == ("direct: predicted 2, measured 2, agrees (nonzero shunt totals 2)\n"
                       "virtual-ground: predicted 2, measured 2, agrees "
                       "(nonzero shunt totals 2)\n")


@pytest.fixture(scope="module")
def file_inputs(tmp_path_factory) -> list[tuple[str, int]]:
    """Small seeded input files of every kind the file commands read, with their node counts."""
    root = tmp_path_factory.mktemp("inputs")
    net = generate(GenSpec(node_range=(6, 6), edge_density=0.3, shunt_probability=0.4,
                           min_shunts=1, seed=21))
    singular, _ = counterexample_block_singular()
    paths = [_net_file(root, net), _net_file(root, PATH3, "shuntless.json"),
             _net_file(root, singular, "singular.json")]
    save_matrix(str(root / "y.json"), assemble(net))
    paths.append(str(root / "y.json"))
    paths.append(_write(root, "net.csv", "\n".join(",".join(r) for r in CSV_FUZZ_BASE)))
    for k, doc in enumerate((BIG_MATRIX, OVERFLOWING_NORM, OVERFLOWING_SUM, OVERFLOWING_SVD,
                             OVERFLOWING_BRANCH, OVERFLOWING_SHUNT, HUGE_ENTRIES)):
        paths.append(_write(root, f"overflow{k}.json", json.dumps(doc)))
    return [(p, doc.node_count if isinstance(doc, Network) else doc.size)
            for p, doc in ((p, load_any(p)) for p in paths)]


class TestFileCommandArgv:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), command=st.sampled_from(sorted(FILE_COMMAND_FLAGS)),
           out=PATH_TEXT)
    def test_any_flag_text_exits_with_a_documented_code(self, file_inputs, data, command, out):
        with tempfile.TemporaryDirectory() as tmp:
            if data.draw(st.integers(0, 3)):  # a seeded input, three times in four
                src, n = data.draw(st.sampled_from(file_inputs))
            else:
                src, n = os.path.join(tmp, data.draw(PATH_TEXT)), 3
            argv = [command, src]
            if command not in ("rank", "validate"):
                argv.append(os.path.join(tmp, out))
            for k, values in data.draw(FILE_COMMAND_FLAGS[command](n)).items():
                for v in [values] if isinstance(values, str) else values:
                    argv.append(f"{k}={os.path.join(tmp, v) if k == '--recovery-out' else v}")
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, _, err = _run_cli(argv)
        assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, err)

    def test_nul_byte_in_a_path_exits_1(self, file_inputs, tmp_path):
        for argv in (["validate", str(tmp_path / "in\0.json")],
                     ["ybus", file_inputs[0][0], str(tmp_path / "out\0.json")]):
            code, out, err = _run_cli(argv)
            assert (code, out) == (1, "") and err.endswith(": embedded null byte\n"), err
        assert list(tmp_path.iterdir()) == []


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

    def test_check_counts_pinned(self):
        from ybuskit.suites import run_suite
        assert [run_suite(n, 50, 42).checks for n in SUITE_NAMES] == [200, 650, 146, 200, 100]

    def test_child_seeds_drawn_in_chunks_are_the_one_shot_draw(self, monkeypatch):
        from ybuskit import suites
        count = 2 * suites._SEED_CHUNK + 1  # two chunk boundaries and a one-seed chunk
        assert list(suites._child_seeds(5, count)) == \
            np.random.default_rng(5).integers(0, 2**63 - 1, size=count).tolist()
        seen = []
        monkeypatch.setattr(suites, "_SEED_CHUNK", 3)
        monkeypatch.setitem(suites._SUITES, "lemma2",
                            (lambda i, child, samples: seen.append(child) or (), 1))
        suites.run_suite("lemma2", 8, 42)
        assert seen == np.random.default_rng(42).integers(0, 2**63 - 1, size=8).tolist()

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_every_tolerance_check_can_fail(self, name, monkeypatch):
        argv = ["verify", "--suite", name, "--samples", "2", "--seed", "3"]
        code, out, _ = _run_cli(argv)
        assert code == 0
        head = out.splitlines()[0]
        samples, checks = (int(head.split(", ")[k].split()[-2]) for k in (0, 1))
        monkeypatch.setattr("ybuskit.suites.RESIDUAL_RTOL", -1.0)
        monkeypatch.setattr("ybuskit.suites.IDENTITY_RTOL", -1.0)
        code, out, _ = _run_cli(argv)
        lines = out.splitlines()
        assert code == 3 and lines[0] == head.replace("PASS", "FAIL")
        failures = [line for line in lines[1:] if line.startswith("  failure: ")]
        assert failures == lines[1:]
        # every check but the rank verdicts and the block certificates compares to a tolerance
        tolerance_checks = {"theorem1": 2, "theorem2": checks - 3 * 2}.get(name, checks)
        assert len(failures) == tolerance_checks
        seeds = np.random.default_rng(3).integers(0, 2**63 - 1, samples).tolist()
        for line in failures:
            i = int(line.split("sample ")[1].split()[0])
            offset = samples // 2 if line.startswith("  failure: shunted") else 0
            assert f"sample {i} (seed {seeds[offset + i]})" in line, line

    def test_unknown_suite_rejected(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 1

    def test_run_suite_argument_validation(self):
        from ybuskit import StructuralError
        from ybuskit.suites import run_suite
        with pytest.raises(StructuralError):
            run_suite("bogus", 5, 1)
        with pytest.raises(StructuralError):
            run_suite("lemma2", 0, 1)
        with pytest.raises(StructuralError):
            run_suite("lemma2", 1, -1)

    # counts whose child-seed array NumPy refuses to size, so nothing is allocated
    @pytest.mark.parametrize("argv", [["--samples", str(10**18)],
                                      ["--suite", "lemma2", "--samples", str(10**29)]])
    def test_sample_count_too_large_for_numpy_exits_1(self, argv):
        code, out, err = _run_cli(["verify"] + argv)
        assert (code, out) == (1, "")
        assert err == f"error: {argv[-1]} samples are too many for a NumPy array of child seeds\n"

    def test_negative_seed_exits_1(self, capsys):
        assert main(["verify", "--suite", "lemma2", "--samples", "1", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: seed must be nonnegative, got -1\n")

    @settings(max_examples=150, deadline=None)
    @given(flags=st.fixed_dictionaries({"--samples": SMALL_COUNT}, optional={
        "--suite": _flag(st.sampled_from(SUITE_NAMES + ("all",))),
        "--seed": _flag(SEEDS)}))
    def test_any_flag_text_exits_with_a_documented_code(self, flags):
        code, out, err = _run_cli(["verify"] + [f"{k}={v}" for k, v in flags.items()])
        assert code in (0, 1, 2, 3) and "Traceback" not in err, (flags, err)


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

    # node counts NumPy refuses to draw or to size, so nothing is allocated
    @pytest.mark.parametrize("nodes", [str(10**20), str(2**63 - 1)])
    def test_node_count_too_large_for_numpy_exits_1(self, tmp_path, nodes):
        out = tmp_path / "g.json"
        code, stdout, err = _run_cli(["randgen", str(out), "--nodes", nodes])
        assert (code, stdout) == (1, "")
        assert err == f"error: node range ({nodes}, {nodes}) is too large for a NumPy array\n"
        assert not out.exists()

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["randgen", str(out), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: seed must be nonnegative, got -1\n")
        assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(flags=st.fixed_dictionaries({}, optional={
        "--nodes": SMALL_COUNT | st.tuples(st.integers(-2, 30), st.integers(-2, 30)).map(
            lambda lh: f"{lh[0]},{lh[1]}"),
        "--density": _flag(st.floats(0, 1).map(str)),
        "--shunt-prob": _flag(st.floats(0, 1).map(str)),
        "--magnitude": _flag(st.floats(1e-3, 1e3).map(str)),
        "--phase": _flag(st.sampled_from(PHASE_POLICIES)),
        "--seed": _flag(SEEDS),
        "--min-shunts": _flag(st.integers(0, 3).map(str))}))
    def test_any_flag_text_exits_with_a_documented_code(self, flags):
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["randgen", os.path.join(tmp, "r.json")]
            code, out, err = _run_cli(argv + [f"{k}={v}" for k, v in flags.items()])
        assert code in (0, 1, 2, 3) and "Traceback" not in err, (flags, err)


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_public_names_are_pinned(self):
        # what the CLI, perfbench and the tests need, and nothing more
        import ybuskit
        public = (
            "AdmittanceMatrix", "BlockRankReport", "BlockView", "Branch", "ClassBlockReport",
            "ComponentReport", "DEFAULT_ZERO_TOL", "FileFormatError", "GenSpec", "HybridResult",
            "HypothesisError", "Network", "NotReducibleError", "NotSolvableError",
            "NumericalError", "PHASE_POLICIES", "Partition", "PreconditionError",
            "RankCertificate", "RankResult", "RankVerdict", "ReductionResult", "SUITE_NAMES",
            "Shunt", "SingularMatrixError", "SizeLimitError", "StructuralError", "SuiteOutcome",
            "ValidationReport", "YbusError", "assemble", "block_view", "full_rank_certificate",
            "generate", "hybrid_parameters", "is_connected", "kron_reduce", "kron_reduce_nodes",
            "numerical_rank", "random_partition", "rank_verdicts", "recover_eliminated",
            "run_suite", "shunt_totals", "shunt_vector", "validate", "verify_block_rank",
            "verify_matrix_rank", "verify_rank", "verify_rank_via_augmentation",
        )
        assert len(ybuskit.__all__) == len(public) == 50
        assert sorted(ybuskit.__all__) == sorted(public)
        assert all(hasattr(ybuskit, name) for name in ybuskit.__all__)
        for gone in ("predict_rank", "augment_virtual_ground", "block_form_matrix",
                     "counterexample_block_singular"):
            assert not hasattr(ybuskit, gone), gone

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

    def test_ybus_and_rank_on_a_network_file_leave_scipy_unloaded(self, tmp_path):
        npath = _net_file(tmp_path, generate(GenSpec(node_range=(40, 40), shunt_probability=0.2,
                                                     min_shunts=1, seed=3)))
        ypath = str(tmp_path / "y.json")
        script = (
            "import sys\n"
            "import ybuskit.cli\n"
            f"assert ybuskit.cli.main(['ybus', {npath!r}, {ypath!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, 'ybus loaded scipy'\n"
            f"assert ybuskit.cli.main(['rank', {npath!r}, '--method', 'both']) == 0\n"
            "assert 'scipy' not in sys.modules, 'rank loaded scipy'\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=False, env=_child_env())
        assert proc.returncode == 0, proc.stderr

    def test_kron_and_hybrid_at_the_cli_pipeline_size_leave_scipy_sparse_unloaded(self, tmp_path):
        # 300 nodes and about 3 branches per node, the benchmark's CLI pipeline:
        # every block is below the sparse rule and certified by its Hermitian
        # part, so no SciPy loads; the LU route, run after it in the same
        # child at one BLAS thread, must write the same bytes
        n = ybus.SPARSE_MIN_ORDER
        path = str(tmp_path / "y.json")
        save_matrix(path, assemble(generate(GenSpec(
            node_range=(n, n), edge_density=2 * n / (n * (n - 1) // 2 - (n - 1)),
            shunt_probability=0.05, min_shunts=1, seed=2))))
        labels = ",".join(str(k % 3) for k in range(n))
        commands = [["kron", path, "{dir}/r.json", "--retain", "0,20,40"],
                    ["kron", path, "{dir}/e.json", "--eliminate", "5,6"],
                    ["hybrid", path, "{dir}/h.json", "--partition", labels, "--solve-class", "0"]]
        script = (
            "import sys\n"
            "import ybuskit.cli, ybuskit.reduction\n"
            f"commands = {commands!r}\n"
            "def run(d):\n"
            "    for argv in commands:\n"
            "        assert ybuskit.cli.main([a.format(dir=d) for a in argv]) == 0\n"
            f"run({str(tmp_path / 'certified')!r})\n"
            "assert 'scipy' not in sys.modules, 'a certified dense block loaded scipy'\n"
            "ybuskit.reduction._hermitian_part_certifies = lambda *args, **kwargs: False\n"
            f"run({str(tmp_path / 'lu')!r})\n"
            "assert 'scipy.linalg' in sys.modules, 'no block was factored'\n"
            "assert 'scipy.sparse' not in sys.modules, 'a dense block loaded scipy.sparse'\n"
        )
        for d in ("certified", "lu"):
            (tmp_path / d).mkdir()
        env = _child_env()
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                 "1"))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=False, env=env)
        assert proc.returncode == 0, proc.stderr
        names = sorted(f.name for f in (tmp_path / "lu").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "certified").iterdir())
        assert len(names) == 5  # two reduced matrices, their recovery sidecars and H
        for name in names:
            certified, lu = (tmp_path / d / name for d in ("certified", "lu"))
            assert certified.read_bytes() == lu.read_bytes(), name

    @pytest.mark.parametrize("n", [50, ybus.SPARSE_MIN_ORDER])
    def test_sparse_and_dense_matrix_files_give_the_same_bytes(self, tmp_path, n):
        # ybus writes the sparse document; a hand-written dense document of
        # the same matrix must give the same stdout and files, at one BLAS
        # thread as README's determinism promise requires
        y = assemble(generate(GenSpec(
            node_range=(n, n), edge_density=2 * n / (n * (n - 1) // 2 - (n - 1)),
            shunt_probability=0.05, min_shunts=1, seed=n)))
        dense = {"n": n, "node_order": list(y.node_order),
                 "entries": [[z.real, z.imag] for z in y.matrix.ravel().tolist()]}
        for form in ("sparse", "dense"):
            (tmp_path / form).mkdir()
        save_matrix(str(tmp_path / "sparse" / "y.json"), y)
        (tmp_path / "dense" / "y.json").write_text(json.dumps(dense, indent=2) + "\n")
        commands = [
            ["rank", "y.json", "--method", "both"],
            ["kron", "y.json", "r.json", "--retain", ",".join(map(str, range(0, n, 20)))],
            ["kron", "y.json", "e.json", "--eliminate", "5,6,7"],
            ["hybrid", "y.json", "h.json", "--partition", ",".join(str(k % 3) for k in range(n)),
             "--solve-class", "0"],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "import ybuskit.cli\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        runs.append([ybuskit.cli.main(argv), out.getvalue()])\n"
            "print(json.dumps(runs))\n"
        )
        env = _child_env()
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                 "1"))
        runs = {}
        for form in ("sparse", "dense"):
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                                  cwd=tmp_path / form, capture_output=True, text=True,
                                  check=False, env=env)
            assert proc.returncode == 0, proc.stderr
            runs[form] = json.loads(proc.stdout)
        assert [code for code, _ in runs["sparse"]] == [0] * len(commands)
        assert runs["sparse"] == runs["dense"]
        names = sorted(f.name for f in (tmp_path / "sparse").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "dense").iterdir())
        assert len(names) == 6  # y.json, two reduced matrices, their sidecars and H
        assert '"nonzeros"' in (tmp_path / "sparse" / "e.json").read_text()
        for name in names:
            if name != "y.json":
                sparse, dense = ((tmp_path / form / name).read_bytes() for form in runs)
                assert sparse == dense, name

    def test_kron_of_a_dense_matrix_past_the_sparse_order_leaves_scipy_sparse_unloaded(
            self, tmp_path):
        # the 305-node elimination block has more than SPARSE_MIN_ORDER² entries
        # but about 30 nonzeros per row, where the sparse rule allows 8, so it
        # is scattered straight into an array, with no CSR built on the way,
        # and certified by its Hermitian part, with no LU
        n = ybus.SPARSE_MIN_ORDER + 10
        y = assemble(generate(GenSpec(node_range=(n, n), edge_density=0.1,
                                      shunt_probability=0.05, min_shunts=1, seed=4)))
        assert y.indices.size > 20 * n
        path, red = str(tmp_path / "y.json"), str(tmp_path / "r.json")
        save_matrix(path, y)
        script = (
            "import sys\n"
            "import ybuskit.cli\n"
            f"assert ybuskit.cli.main(['kron', {path!r}, {red!r}, '--retain', '0,1,2,3,4']) == 0\n"
            "assert 'scipy' not in sys.modules, 'a certified dense block loaded scipy'\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=False, env=_child_env())
        assert proc.returncode == 0, proc.stderr

    def test_verify_suites_leave_scipy_unloaded(self):
        # one Hermitian-part certificate of each partition's block diagonal
        # settles every theorem2 block, and the kron and hybrid blocks of the
        # other suites are certified too, so no LU runs
        script = (
            "import sys\n"
            "import ybuskit.cli\n"
            "assert ybuskit.cli.main(['verify', '--suite', 'theorem2', '--samples', '20']) == 0\n"
            "assert 'scipy' not in sys.modules, 'verify --suite theorem2 loaded scipy'\n"
            "assert ybuskit.cli.main(['verify', '--suite', 'all', '--samples', '20']) == 0\n"
            "assert 'scipy' not in sys.modules, 'verify --suite all loaded scipy'\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=False, env=_child_env())
        assert proc.returncode == 0, proc.stderr

    def test_only_lu_commands_load_scipy(self, tmp_path):
        # a lossless block has no positive definite Hermitian part, so its
        # kron falls back to the LU
        mpath, lossless = str(tmp_path / "m.json"), str(tmp_path / "j.json")
        red = str(tmp_path / "red.json")
        save_matrix(mpath, assemble(Network(3, PATH3.branches, (Shunt(0, 1.0),))))
        save_matrix(lossless, assemble(Network(3, (Branch(0, 1, 1j), Branch(1, 2, 1j)),
                                               (Shunt(0, 1j),))))
        script = (
            "import sys\n"
            "import ybuskit.cli\n"
            "assert 'scipy' not in sys.modules, 'import ybuskit.cli loaded scipy'\n"
            f"assert ybuskit.cli.main(['rank', {mpath!r}, '--method', 'both']) == 0\n"
            "assert 'scipy' not in sys.modules, 'rank loaded scipy'\n"
            f"assert ybuskit.cli.main(['kron', {mpath!r}, {red!r}, '--eliminate', '1']) == 0\n"
            "assert 'scipy' not in sys.modules, 'a certified kron loaded scipy'\n"
            f"assert ybuskit.cli.main(['kron', {lossless!r}, {red!r}, '--eliminate', '1']) == 0\n"
            "assert 'scipy.linalg' in sys.modules, 'a lossless kron ran without scipy.linalg'\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=False, env=_child_env())
        assert proc.returncode == 0, proc.stderr
