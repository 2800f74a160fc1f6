"""The JSON codec for complex-array documents.

``emit_json`` must produce exactly the bytes of ``json.dumps(doc,
indent=2) + "\\n"`` with an array body given as its ``[re, im]`` pairs
or ``[i, j, re, im]`` nonzeros, which is the reference it is checked
against here; the matrix parser must accept and reject exactly what the
per-entry ``[re, im]`` check accepts and rejects, with the same messages,
and a sparse document must load as the dense document of the same matrix
does.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ybuskit import (
    AdmittanceMatrix,
    Branch,
    FileFormatError,
    GenSpec,
    HybridResult,
    Network,
    NumericalError,
    Partition,
    Shunt,
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
    save_matrix,
)
from ybuskit.ybus import SYMMETRY_RTOL

EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 2.0**53, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7]
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
cplx = st.builds(complex, finite, finite)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128).view(np.uint64)


def _reference(doc) -> str:
    entries, nonzeros = doc.get("entries"), doc.get("nonzeros")
    if isinstance(entries, np.ndarray):  # an array body, as the row-major pairs json writes
        doc = {**doc, "entries": [[z.real, z.imag] for z in entries.ravel().tolist()]}
    elif isinstance(nonzeros, np.ndarray):  # records, as the [i, j, re, im] lists json writes
        doc = {**doc, "nonzeros": [[i, j, z.real, z.imag] for i, j, z in nonzeros.tolist()]}
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


@st.composite
def matrix_documents(draw):
    """The dense and the sparse document of one matrix.

    The matrix is complex symmetric, or off by a multiple of the symmetry
    tolerance near 1 in one entry, and its node order may repeat a node;
    its zero entries are +0, the value both documents give an entry not
    stored.  The sparse document lists every nonzero and some zeros,
    signed or not, which the reader drops.
    """
    n = draw(st.integers(1, 6))
    m = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = draw(st.just(0j) | cplx)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        factor = draw(st.sampled_from([0.5, 0.999999, 1.0, 1.000001, 2.0]))
        turn = draw(st.sampled_from([1, -1, 1j]))
        with np.errstate(all="ignore"):  # an infinite or NaN result is not drawn
            m[i, j] += factor * SYMMETRY_RTOL * np.abs(m).max() * turn
    assume(np.isfinite(m).all())
    m[m == 0] = 0
    order = draw(st.permutations(range(n)) | st.lists(st.integers(0, n), min_size=n, max_size=n))
    dense = {"n": n, "node_order": list(order),
             "entries": [[z.real, z.imag] for z in m.ravel().tolist()]}
    listed = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    rows, cols = np.nonzero((m != 0) | listed.reshape(n, n))
    zero = draw(st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0)]))
    sparse = {"n": n, "node_order": list(order),
              "nonzeros": [[i, j, (z or zero).real, (z or zero).imag] for i, j, z
                           in zip(rows.tolist(), cols.tolist(), m[rows, cols].tolist())]}
    return dense, sparse


def _load_or_error(doc):
    try:
        return matrix_from_dict(json.loads(json.dumps(doc)))
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(matrix_documents())
def test_sparse_and_dense_documents_load_alike(docs):
    dense, sparse = map(_load_or_error, docs)
    if not isinstance(dense, AdmittanceMatrix):
        assert sparse == dense
        return
    assert isinstance(sparse, AdmittanceMatrix), sparse
    assert sparse.node_order == dense.node_order
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(sparse, name), getattr(dense, name)), name
    assert np.array_equal(_bits(sparse.data), _bits(dense.data))
    assert np.array_equal(_bits(sparse.matrix), _bits(dense.matrix))


def test_writer_picks_the_sparse_document_when_it_is_smaller_and_exact():
    path3 = assemble(Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 2.0)), (Shunt(1, 0.5j),)))
    assert "nonzeros" not in matrix_to_dict(path3)  # 7 of 9 stored: dense
    path6 = assemble(Network(6, tuple(Branch(k, k + 1, 1.0) for k in range(5)), ()))
    doc = matrix_to_dict(path6)  # 16 of 36 stored
    assert "entries" not in doc and "matrix" not in path6.__dict__
    assert json.loads(emit_json(doc))["nonzeros"][:3] == \
        [[0, 0, 1.0, 0.0], [0, 1, -1.0, -0.0], [1, 0, -1.0, -0.0]]
    path6.matrix  # a view built from the compressed rows holds +0 only
    assert "nonzeros" in matrix_to_dict(path6)
    m = np.array([[1, 0, 0], [0, 2, 0], [0, 0, 3]], dtype=np.complex128)
    assert "nonzeros" in matrix_to_dict(AdmittanceMatrix(m, (0, 1, 2)))
    for signed in (complex(-0.0, 0.0), complex(0.0, -0.0)):
        m[0, 2] = m[2, 0] = signed  # the sparse document would read +0 back
        doc = matrix_to_dict(AdmittanceMatrix(m, (0, 1, 2)))
        assert "nonzeros" not in doc
        back = matrix_from_dict(json.loads(emit_json(doc))).matrix
        assert np.array_equal(_bits(back), _bits(m))


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
    # a 300-node Y is written as its nonzeros now, far below this bound
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


def test_dense_writer_peak_memory_is_about_twice_the_text():
    # the body is formatted a stripe of rows at a time and joined once with
    # the rest, so the peak is the stripes plus the text, not every pair
    rng = np.random.default_rng(5)
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    y = AdmittanceMatrix(a + a.T, range(300))
    doc = matrix_to_dict(y)
    assert "entries" in doc
    text, peak = _peak(lambda: emit_json(doc))
    assert text == _reference(doc)
    assert peak <= 2.5 * len(text)


def test_sparse_save_and_load_do_no_n2_work(tmp_path):
    # 2000 nodes, about 1.5 branches per node: 8000 nonzeros in a 0.7 MB file
    n = 2000
    y = assemble(generate(GenSpec(node_range=(n, n), edge_density=0.0005,
                                  shunt_probability=0.05, seed=3)))
    path = str(tmp_path / "y.json")
    _, saved = _peak(lambda: save_matrix(path, y))
    back, loaded = _peak(lambda: load_matrix(path))
    assert "matrix" not in y.__dict__ and "matrix" not in back.__dict__
    assert max(saved, loaded) < 0.05 * 16 * n * n
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(back, name), getattr(y, name)), name


def _peak(fn):
    """``fn()`` and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
