"""File formats: JSON network and matrix documents, CSV branch lists.

All numbers are emitted with Python's shortest round-trip float
representation, so ``parse(emit(x)) == x`` holds bit-exactly and output
is byte-for-byte reproducible.  Complex values are stored as two-element
``[re, im]`` arrays; the n² body of a matrix, recovery or hybrid document
is written row-major straight from its complex array, and a body that is
not finite raises :class:`NumericalError`.  JSON's decimal point is
always ``.`` regardless of locale.  Every number read must be finite: ``NaN``, ``Infinity`` and
literals that overflow binary64 are rejected with :class:`FileFormatError`.
"""

from __future__ import annotations

import cmath
import csv
import io as _io
import json
from itertools import chain

import numpy as np

from .errors import FileFormatError, NumericalError
from .network_model import Branch, Network, Shunt
from .ybus import AdmittanceMatrix

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


def _flat_pairs(entries) -> list | None:
    """The elements of a list of two-element lists, flattened, or None.

    None unless ``entries`` is a list, every entry is a list of length 2 and
    every element is exactly an ``int`` or a ``float``.
    """
    if (
        type(entries) is not list
        or not set(map(type, entries)) <= {list}
        or not set(map(len, entries)) <= {2}
    ):
        return None
    flat = list(chain.from_iterable(entries))
    return flat if set(map(type, flat)) <= _REAL_TYPES else None


def _complex_entries(entries: list) -> np.ndarray:
    """A list of ``[re, im]`` pairs as a complex vector, checked as :func:`_unpair` checks.

    Well-formed lists convert in one NumPy call; anything else goes entry by
    entry, so that the error names the first offending entry.
    """
    flat = _flat_pairs(entries)
    if flat is not None:
        try:
            vals = np.array(flat, dtype=np.float64)
        except OverflowError:  # an integer beyond the binary64 range: reported below
            pass
        else:
            if np.isfinite(vals).all():
                return vals.view(np.complex128)
    return np.array(
        [_unpair(e, f"entry {i}") for i, e in enumerate(entries)], dtype=np.complex128
    )


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

def matrix_to_dict(y: AdmittanceMatrix) -> dict:
    return {
        "n": y.size,
        "node_order": list(y.node_order),
        "entries": y.matrix,
    }


def matrix_from_dict(doc) -> AdmittanceMatrix:
    if not isinstance(doc, dict):
        raise FileFormatError("matrix document must be a JSON object")
    unknown = set(doc) - {"n", "node_order", "entries"}
    if unknown:
        raise FileFormatError(f"unknown matrix document keys: {sorted(unknown)}")
    n = _require_int(doc.get("n"), '"n"')
    if n < 1:
        raise FileFormatError(f'"n" must be at least 1, got {n}')
    order = doc.get("node_order")
    if not isinstance(order, list) or len(order) != n:
        raise FileFormatError(f'"node_order" must list {n} node ids')
    order = [_require_int(v, '"node_order" entry') for v in order]
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


def emit_json(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, with a complex array under ``"entries"``.

    A top-level ``"entries"`` array (the n² body of matrix, recovery and
    hybrid documents) is written as row-major ``[re, im]`` pairs in one
    pass with ``float.__repr__``, as ``json`` formats floats, and spliced
    into the encoding of the rest of the document; a non-finite array
    raises :class:`NumericalError`.  Any other document is ``json``'s.
    """
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, np.ndarray):
        return json.dumps(doc, indent=2) + "\n"
    if not np.isfinite(entries).all():
        raise NumericalError("cannot write NaN or infinite matrix entries")
    flat = np.ascontiguousarray(entries, np.complex128).reshape(-1).view(np.float64).tolist()
    body = _ENTRY_SEP.join(map("{!r},\n      {!r}".format, flat[0::2], flat[1::2]))
    body = f"[\n    [\n      {body}\n    ]\n  ]" if flat else "[]"
    key = '\n  "entries": '  # strings escape newlines and deeper keys indent further
    head = json.dumps({**doc, "entries": None}, indent=2)
    return head.replace(key + "null", key + body, 1) + "\n"


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
    if isinstance(doc, dict) and "entries" in doc:
        return matrix_from_dict(doc)
    return network_from_dict(doc)
