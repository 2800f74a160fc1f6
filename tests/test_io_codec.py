"""The JSON codec for complex-array documents.

``emit_json`` must produce exactly the bytes of ``json.dumps(doc,
indent=2) + "\\n"`` with an array body given as its ``[re, im]`` pairs,
which is the reference it is checked against here; the matrix parser
must accept and reject exactly what the per-entry ``[re, im]`` check
accepts and rejects, with the same messages.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybuskit import (
    AdmittanceMatrix,
    FileFormatError,
    GenSpec,
    HybridResult,
    NumericalError,
    Partition,
    assemble,
    generate,
)
from ybuskit.io import (
    emit_json,
    hybrid_to_dict,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    recovery_to_dict,
    save_hybrid,
)

EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 2.0**53, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7]
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
cplx = st.builds(complex, finite, finite)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128).view(np.uint64)


def _reference(doc) -> str:
    entries = doc.get("entries")
    if isinstance(entries, np.ndarray):  # an array body, as the row-major pairs json writes
        doc = {**doc, "entries": [[z.real, z.imag] for z in entries.ravel().tolist()]}
    return json.dumps(doc, indent=2) + "\n"


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 6))
    m = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = draw(cplx)
    order = draw(st.permutations(range(n)))
    return AdmittanceMatrix(m, tuple(order))


@st.composite
def rectangles(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    vals = draw(st.lists(cplx, min_size=rows * cols, max_size=rows * cols))
    return np.array(vals, dtype=np.complex128).reshape(rows, cols)


@st.composite
def hybrids(draw):
    labels = draw(st.permutations([0, 1] + draw(st.lists(st.integers(0, 2), max_size=4))))
    part = Partition.from_labels(labels)
    n = part.node_count
    h = np.array(draw(st.lists(cplx, min_size=n * n, max_size=n * n)),
                 dtype=np.complex128).reshape(n, n)
    order = tuple(v for c in part.classes for v in c)
    roles = {(q, k): draw(st.sampled_from(["impedance", "admittance"]))
             for q in range(part.class_count) for k in range(part.class_count)}
    return HybridResult(h=h, solved_class=0, partition=part, node_order=order,
                        block_roles=roles)


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_matrix_document_bytes_and_round_trip(y):
    doc = matrix_to_dict(y)
    text = emit_json(doc)
    assert text == _reference(doc)
    back = matrix_from_dict(json.loads(text))
    assert np.array_equal(_bits(back.matrix), _bits(y.matrix))
    assert back.node_order == y.node_order


@settings(max_examples=150, deadline=None)
@given(rectangles())
def test_recovery_document_bytes_and_round_trip(m):
    rows, cols = m.shape
    doc = recovery_to_dict(range(10, 10 + rows), range(cols), m)
    text = emit_json(doc)
    assert text == _reference(doc)
    if rows == 0:
        assert '"entries": []' in text
    entries = json.loads(text)["entries"]
    back = np.array(entries, dtype=np.float64).reshape(-1).view(np.complex128)
    assert np.array_equal(_bits(back), _bits(m.ravel()))


@settings(max_examples=100, deadline=None)
@given(hybrids())
def test_hybrid_document_bytes_and_round_trip(hy):
    doc = hybrid_to_dict(hy)
    text = emit_json(doc)
    assert text == _reference(doc)
    back = json.loads(text)
    assert list(back) == ["n", "solved_class", "node_order", "class_sizes", "entries", "roles"]
    flat = np.array(back["entries"], dtype=np.float64).reshape(-1).view(np.complex128)
    assert np.array_equal(_bits(flat), _bits(hy.h.ravel()))


@pytest.mark.parametrize(
    "doc",
    [
        {"entries": [[1, 0.0], [2.0, 3.0]]},  # an int element
        {"entries": [[True, 0.0]]},
        {"entries": [(1.0, 2.0)]},
        {"entries": [[1.0, 2.0, 3.0]]},
        {"entries": [[float("nan"), 1.0], [float("inf"), float("-inf")]]},
        {"entries": [[1.0, 2.0]], "note": "\x00entries\x00"},  # the writer's own placeholder
        {"a": {"entries": [[1.0, 2.0]]}, "entries": [[0.5, -0.0]]},
        {"entries": {"re": 1.0}},
        {"entries": []},
    ],
)
def test_emit_matches_json_outside_the_fast_path(doc):
    assert emit_json(doc) == _reference(doc)


@pytest.mark.parametrize("bad", [complex("nan"), complex(0.0, float("inf")), complex("-inf")])
def test_non_finite_array_is_refused(bad):
    m = np.ones((2, 3), dtype=np.complex128)
    m[1, 2] = bad
    with pytest.raises(NumericalError):
        emit_json(recovery_to_dict(range(2), range(3), m))


def test_non_finite_hybrid_leaves_no_file(tmp_path):
    part = Partition.from_labels([0, 1])
    hy = HybridResult(h=np.array([[1.0, np.inf], [0.0, 1.0]]), solved_class=0, partition=part,
                      node_order=(0, 1), block_roles={})
    path = tmp_path / "h.json"
    with pytest.raises(NumericalError):
        save_hybrid(str(path), hy)
    assert not path.exists()


def test_matrix_writer_peak_memory():
    # a 300-node Y writes 3 MB; the peak stays within about five times that
    y = assemble(generate(GenSpec(node_range=(300, 300), edge_density=0.01,
                                  shunt_probability=0.05, seed=7)))
    y.matrix  # the dense view is built once, outside the measurement
    tracemalloc.start()
    try:
        emit_json(matrix_to_dict(y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20


GOOD = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def _with(i, entry):
    entries = [list(e) for e in GOOD]
    entries[i] = entry
    return entries


@pytest.mark.parametrize(
    "entries, message",
    [
        (_with(1, [0.0, True]), "entry 1 must be a two-element [re, im] array, got [0.0, True]"),
        (_with(2, ["0", 0.0]), "entry 2 must be a two-element [re, im] array, got ['0', 0.0]"),
        (_with(0, [1.0, 0.0, 0.0]),
         "entry 0 must be a two-element [re, im] array, got [1.0, 0.0, 0.0]"),
        (_with(3, 1.0), "entry 3 must be a two-element [re, im] array, got 1.0"),
        (_with(1, {"re": 0.0}), "entry 1 must be a two-element [re, im] array, got {'re': 0.0}"),
        (GOOD[:3], '"entries" must hold exactly 4 [re, im] pairs'),
        (GOOD + GOOD[:1], '"entries" must hold exactly 4 [re, im] pairs'),
        (_with(2, [float("nan"), 0.0]), "entry 2 must hold finite numbers, got [nan, 0.0]"),
        (_with(3, [0.0, float("inf")]), "entry 3 must hold finite numbers, got [0.0, inf]"),
    ],
    ids=["bool", "str", "triple", "scalar", "object", "too-few", "too-many", "nan", "inf"],
)
def test_malformed_entries_keep_their_messages(entries, message):
    with pytest.raises(FileFormatError) as exc:
        matrix_from_dict({"n": 2, "node_order": [0, 1], "entries": entries})
    assert str(exc.value) == message


def test_integer_and_subclass_entries_parse_like_floats():
    entries = [[1, 0], [np.float64(-2.5), 0.0], [-2.5, 0.0], [2**60, -0.0]]
    m = matrix_from_dict({"n": 2, "node_order": [0, 1], "entries": entries}).matrix
    expected = np.array([[1, -2.5], [-2.5, 2.0**60]], dtype=np.complex128)
    expected[1, 1] = complex(2.0**60, -0.0)
    assert np.array_equal(_bits(m), _bits(expected))


def test_matrix_document_must_be_an_object(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("[[1, 0]]")
    with pytest.raises(FileFormatError, match="matrix document must be a JSON object"):
        load_matrix(str(p))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1E400"])
def test_non_finite_literals_rejected_on_load(tmp_path, literal):
    p = tmp_path / "m.json"
    p.write_text('{"n": 1, "node_order": [0], "entries": [[%s, 0]]}' % literal)
    with pytest.raises(FileFormatError):
        load_matrix(str(p))
