"""File formats: JSON network and matrix documents, CSV branch lists.

All numbers are emitted with Python's shortest round-trip float
representation, so ``parse(emit(x)) == x`` holds bit-exactly and output
is byte-for-byte reproducible.  Complex values are stored as two-element
``[re, im]`` arrays; the n² body of a dense matrix, recovery or hybrid
document is written row-major straight from its complex array, a stripe
of rows at a time.  A matrix with at most half its entries stored is
written as a sparse document, its nonzeros as ``[i, j, re, im]`` in
row-major order, and read back in O(nnz log nnz).  A body that is not
finite raises :class:`NumericalError`.  JSON's decimal point is always
``.`` regardless of locale.  Every number read must be finite: ``NaN``,
``Infinity`` and literals that overflow binary64 are rejected with
:class:`FileFormatError`.
"""

from __future__ import annotations

import cmath
import csv
import io as _io
import json
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import FileFormatError, NumericalError
from .linalg_core import _STRIPE
from .network_model import Branch, Network, Shunt
from .ybus import AdmittanceMatrix, _from_nonzeros

#: Exact element types of a parsed ``[re, im]`` pair (``bool`` is not an ``int`` here).
_REAL_TYPES = frozenset((int, float))


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _unpair(v, what: str) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        raise FileFormatError(f"{what} must be a two-element [re, im] array, got {v!r}")
    try:
        z = complex(float(v[0]), float(v[1]))
    except OverflowError:  # an integer literal beyond the binary64 range
        z = complex("inf")
    if not cmath.isfinite(z):
        raise FileFormatError(f"{what} must hold finite numbers, got {v!r}")
    return z


def _is_table(rows, width: int) -> bool:
    """Whether ``rows`` is a list of lists of ``width`` elements each."""
    return (type(rows) is list and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {width})


def _as_complex(flat: list) -> np.ndarray | None:
    """Interleaved re, im numbers as a complex vector, in one NumPy call.

    None unless every number is exactly an ``int`` or a ``float`` and
    finite in binary64.
    """
    if set(map(type, flat)) <= _REAL_TYPES:
        try:
            vals = np.array(flat, dtype=np.float64)
        except OverflowError:  # an integer beyond the binary64 range
            return None
        if np.isfinite(vals).all():
            return vals.view(np.complex128)
    return None


def _complex_entries(entries: list) -> np.ndarray:
    """A list of ``[re, im]`` pairs as a complex vector, checked as :func:`_unpair` checks.

    Well-formed lists convert in one NumPy call; anything else goes entry by
    entry, so that the error names the first offending entry.
    """
    z = _as_complex(list(chain.from_iterable(entries))) if _is_table(entries, 2) else None
    if z is None:
        z = np.array([_unpair(e, f"entry {i}") for i, e in enumerate(entries)],
                     dtype=np.complex128)
    return z


def _require_int(v, what: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise FileFormatError(f"{what} must be an integer, got {v!r}")
    return v


def _require_list(doc: dict, key: str) -> list:
    v = doc.get(key, [])
    if not isinstance(v, list):
        raise FileFormatError(f'"{key}" must be a list, got {v!r}')
    return v


# -- network documents -------------------------------------------------------

def network_to_dict(net: Network) -> dict:
    return {
        "nodes": net.node_count,
        "branches": [
            {"from": b.from_node, "to": b.to_node, "y": _pair(b.admittance)}
            for b in net.branches
        ],
        "shunts": [{"node": s.node, "y": _pair(s.admittance)} for s in net.shunts],
    }


def network_from_dict(doc) -> Network:
    if not isinstance(doc, dict):
        raise FileFormatError("network document must be a JSON object")
    unknown = set(doc) - {"nodes", "branches", "shunts"}
    if unknown:
        raise FileFormatError(f"unknown network document keys: {sorted(unknown)}")
    nodes = _require_int(doc.get("nodes"), '"nodes"')
    branches = []
    for i, b in enumerate(_require_list(doc, "branches")):
        if not isinstance(b, dict):
            raise FileFormatError(f"branch {i} must be an object")
        branches.append(
            Branch(
                from_node=_require_int(b.get("from"), f'branch {i} "from"'),
                to_node=_require_int(b.get("to"), f'branch {i} "to"'),
                admittance=_unpair(b.get("y"), f'branch {i} "y"'),
            )
        )
    shunts = []
    for i, s in enumerate(_require_list(doc, "shunts")):
        if not isinstance(s, dict):
            raise FileFormatError(f"shunt {i} must be an object")
        shunts.append(
            Shunt(
                node=_require_int(s.get("node"), f'shunt {i} "node"'),
                admittance=_unpair(s.get("y"), f'shunt {i} "y"'),
            )
        )
    return Network(node_count=nodes, branches=tuple(branches), shunts=tuple(shunts))


def network_from_csv(text: str) -> Network:
    """Parse a branch-list CSV: one ``from,to,re,im`` row per element.

    Rows with ``to = -1`` are shunts at ``from``.  Blank lines, ``#``
    comments and a literal header row are skipped.  The node count is one
    past the largest node id seen.
    """
    branches: list[Branch] = []
    shunts: list[Shunt] = []
    max_node = -1
    reader = csv.reader(_io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a carriage return inside an unquoted field
        raise FileFormatError(f"line {reader.line_num}: {exc}") from exc
    for ln, row in enumerate(rows, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row[0].lstrip().startswith("#"):
            continue
        cells = [c.strip() for c in row]
        if cells[0].lower() in ("from", "from_node"):
            continue
        if len(cells) != 4:
            raise FileFormatError(f"line {ln}: expected from,to,re,im, got {len(cells)} fields")
        try:
            f, t = int(cells[0]), int(cells[1])
            y = complex(float(cells[2]), float(cells[3]))
        except ValueError as exc:
            raise FileFormatError(f"line {ln}: {exc}") from exc
        if not cmath.isfinite(y):
            raise FileFormatError(
                f"line {ln}: admittance must be finite, got {cells[2]},{cells[3]}"
            )
        if t == -1:
            shunts.append(Shunt(node=f, admittance=y))
            max_node = max(max_node, f)
        else:
            branches.append(Branch(from_node=f, to_node=t, admittance=y))
            max_node = max(max_node, f, t)
    if max_node < 0:
        raise FileFormatError("CSV contains no rows")
    return Network(node_count=max_node + 1, branches=tuple(branches), shunts=tuple(shunts))


# -- matrix documents ---------------------------------------------------------

#: One nonzero of a sparse matrix document, written as ``[i, j, re, im]``.
_NONZERO = np.dtype([("i", np.intp), ("j", np.intp), ("z", np.complex128)])


def _has_signed_zero(m: np.ndarray) -> bool:
    """Whether a complex array has a zero entry with a sign bit set, a stripe of rows at a time."""
    for r0 in range(0, len(m), _STRIPE):
        rows = m[r0:r0 + _STRIPE]
        parts = np.signbit(rows.view(np.float64))
        if ((rows == 0) & (parts[:, 0::2] | parts[:, 1::2])).any():
            return True
    return False


def matrix_to_dict(y: AdmittanceMatrix) -> dict:
    """The sparse document of ``y`` where it is smaller and exact, else the dense one.

    The sparse document lists the compressed rows under ``"nonzeros"``.
    It is chosen when at most half of the n² entries are stored and no
    dense view already held has a zero entry with a sign bit set (the
    sparse document reads back every unstored entry as +0), so the choice
    depends only on the matrix's value; ``y.matrix`` is never built here.
    """
    n = y.size
    held = y.__dict__.get("matrix")
    if 2 * y.data.size > n * n or (held is not None and _has_signed_zero(held)):
        return {"n": n, "node_order": list(y.node_order), "entries": y.matrix}
    nonzeros = np.empty(y.data.size, dtype=_NONZERO)
    nonzeros["i"], nonzeros["j"], nonzeros["z"] = y._rows(), y.indices, y.data
    return {"n": n, "node_order": list(y.node_order), "nonzeros": nonzeros}


def _nonzero_arrays(nonzeros, n: int):
    """A ``"nonzeros"`` list as intp rows and columns and a complex vector.

    Every element must be ``[i, j, re, im]`` with exactly-``int``
    positions, and ``[re, im]`` is checked as :func:`_complex_entries`
    checks a pair; the error names the first element that fails.  A
    position beyond the intp range becomes -1, which the checked
    constructor refuses as out of range.
    """
    if not _is_table(nonzeros, 4) or not set(
            map(type, chain.from_iterable(map(itemgetter(0, 1), nonzeros)))) <= {int}:
        if not isinstance(nonzeros, list):
            raise FileFormatError(
                f'"nonzeros" must be a list of [i, j, re, im] arrays, got {nonzeros!r}')
        k, v = next((k, v) for k, v in enumerate(nonzeros)
                    if not (type(v) is list and len(v) == 4 and type(v[0]) is type(v[1]) is int))
        raise FileFormatError(
            f"nonzero {k} must be a four-element [i, j, re, im] array with integer positions, "
            f"got {v!r}")
    data = _as_complex(list(chain.from_iterable(map(itemgetter(2, 3), nonzeros))))
    if data is None:
        data = np.array([_unpair(v[2:], f"nonzero {k} value") for k, v in enumerate(nonzeros)],
                        dtype=np.complex128)
    rows, cols = (_positions(list(map(itemgetter(k), nonzeros)), n) for k in (0, 1))
    return rows, cols, data


def _positions(p: list, n: int) -> np.ndarray:
    try:
        return np.array(p, dtype=np.intp)
    except OverflowError:  # beyond intp, so out of range: -1 stands for it
        return np.array([v if 0 <= v < n else -1 for v in p], dtype=np.intp)


def matrix_from_dict(doc) -> AdmittanceMatrix:
    """Read a dense (``"entries"``) or sparse (``"nonzeros"``) matrix document."""
    if not isinstance(doc, dict):
        raise FileFormatError("matrix document must be a JSON object")
    body = "nonzeros" if "nonzeros" in doc else "entries"
    unknown = set(doc) - {"n", "node_order", body}
    if unknown:
        if body == "nonzeros" and "entries" in doc:
            raise FileFormatError('a matrix document holds "entries" or "nonzeros", not both')
        raise FileFormatError(f"unknown matrix document keys: {sorted(unknown)}")
    n = _require_int(doc.get("n"), '"n"')
    if n < 1:
        raise FileFormatError(f'"n" must be at least 1, got {n}')
    order = doc.get("node_order")
    if not isinstance(order, list) or len(order) != n:
        raise FileFormatError(f'"node_order" must list {n} node ids')
    order = [_require_int(v, '"node_order" entry') for v in order]
    if body == "nonzeros":
        return _from_nonzeros(*_nonzero_arrays(doc["nonzeros"], n), order)
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != n * n:
        raise FileFormatError(f'"entries" must hold exactly {n * n} [re, im] pairs')
    m = _complex_entries(entries).reshape(n, n)
    m.flags.writeable = False  # adopted as the dense view, not copied
    return AdmittanceMatrix(matrix=m, node_order=tuple(order))


def recovery_to_dict(row_nodes, col_nodes, m: np.ndarray) -> dict:
    """Rectangular complex matrix with labeled rows and columns."""
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "row_nodes": [int(v) for v in row_nodes],
        "col_nodes": [int(v) for v in col_nodes],
        "entries": m,
    }


def hybrid_to_dict(hy) -> dict:
    """Hybrid parameters (a :class:`~ybuskit.reduction.HybridResult`) in block order."""
    return {
        "n": int(hy.h.shape[0]),
        "solved_class": hy.solved_class,
        "node_order": [int(v) for v in hy.node_order],
        "class_sizes": [len(c) for c in hy.partition.classes],
        "entries": hy.h,
        "roles": {f"{q},{k}": role for (q, k), role in sorted(hy.block_roles.items())},
    }


# -- files --------------------------------------------------------------------

_ENTRY_SEP = "\n    ],\n    [\n      "
_ITEM_SEP = ",\n      "
_BODIES = ("entries", "nonzeros")


def _stripe_text(a: np.ndarray) -> str:
    """Rows of a body array as ``json`` writes them, ``[re, im]`` or ``[i, j, re, im]`` each."""
    if a.dtype == _NONZERO:
        z = a["z"]
        items = a["i"].tolist(), a["j"].tolist(), z.real.tolist(), z.imag.tolist()
    else:
        z = np.ascontiguousarray(a, np.complex128)
        flat = z.reshape(-1).view(np.float64).tolist()
        items = flat[0::2], flat[1::2]
    if not np.isfinite(z).all():
        raise NumericalError("cannot write NaN or infinite matrix entries")
    return _ENTRY_SEP.join(map(_ITEM_SEP.join(["{!r}"] * len(items)).format, *items))


def emit_json(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, with an array body spliced in.

    A top-level ``"entries"`` array (the n² complex body of matrix,
    recovery and hybrid documents) is written as row-major ``[re, im]``
    pairs, and a ``"nonzeros"`` array of ``_NONZERO`` records as
    ``[i, j, re, im]`` lists, each number with ``repr``, as ``json``
    formats it.  The body is formatted ``_STRIPE`` rows at a time, and the
    stripes are spliced into the encoding of the rest of the document by
    one join, so the text is built once; a non-finite body raises
    :class:`NumericalError`.  Any other document is ``json``'s.
    """
    key = next((k for k in _BODIES if isinstance(doc, dict)
                and isinstance(doc.get(k), np.ndarray)), None)
    if key is None:
        return json.dumps(doc, indent=2) + "\n"
    body = doc[key]
    field = f'\n  "{key}": '  # strings escape newlines and deeper keys indent further
    head, tail = json.dumps({**doc, key: None}, indent=2).split(field + "null", 1)
    if not body.size:
        return f"{head}{field}[]{tail}\n"
    parts = []
    for r0 in range(0, len(body), _STRIPE):
        parts += (_ENTRY_SEP, _stripe_text(body[r0:r0 + _STRIPE]))
    parts[0] = f"{head}{field}[\n    [\n      "
    parts.append(f"\n    ]\n  ]{tail}\n")
    return "".join(parts)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _open(path: str, mode: str):
    try:
        return open(path, mode, encoding="utf-8")
    except ValueError as exc:  # a NUL byte: no file can have that path
        raise FileFormatError(f"{path!r}: {exc}") from exc


def _read_text(path: str) -> str:
    """A file's text; bytes that are not UTF-8 raise FileFormatError."""
    with _open(path, "r") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_json(path: str):
    """Parse a JSON file; malformed JSON and ``NaN``/``Infinity`` raise FileFormatError."""
    text = _read_text(path)
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # bad JSON or constant, huge int, deep nesting
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc


def _write_json(path: str, doc: dict) -> None:
    text = emit_json(doc)  # before the file exists: a document that cannot be written leaves none
    with _open(path, "w") as fh:
        fh.write(text)


def load_network(path: str) -> Network:
    """Read a network file; ``.csv`` means branch-list CSV, anything else JSON."""
    if path.lower().endswith(".csv"):
        return network_from_csv(_read_text(path))
    return network_from_dict(_read_json(path))


def save_network(path: str, net: Network) -> None:
    _write_json(path, network_to_dict(net))


def load_matrix(path: str) -> AdmittanceMatrix:
    return matrix_from_dict(_read_json(path))


def save_matrix(path: str, y: AdmittanceMatrix) -> None:
    _write_json(path, matrix_to_dict(y))


def save_recovery(path: str, result) -> None:
    """Write the recovery matrix of a :class:`~ybuskit.reduction.ReductionResult`."""
    _write_json(
        path, recovery_to_dict(result.eliminated_order, result.reduced.node_order, result.recovery)
    )


def save_hybrid(path: str, hy) -> None:
    _write_json(path, hybrid_to_dict(hy))


def load_any(path: str):
    """Read a path as either a network or a matrix document.

    JSON objects are told apart by their keys; ``.csv`` is always a
    network.  Returns a :class:`Network` or an :class:`AdmittanceMatrix`.
    """
    if path.lower().endswith(".csv"):
        return load_network(path)
    doc = _read_json(path)
    if isinstance(doc, dict) and not doc.keys().isdisjoint(_BODIES):
        return matrix_from_dict(doc)
    return network_from_dict(doc)
