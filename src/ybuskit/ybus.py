"""Nodal admittance matrix assembly, shunt recovery and reordering.

The nodal matrix relates injected nodal currents to nodal voltages,
``I = Y V``, with ground as the implicit voltage reference.  Each branch
(i, j, y) contributes +y to both diagonal entries and -y to both
off-diagonal entries; each shunt adds to its node's diagonal.  The result
is complex symmetric, and its row sums (equally, column sums) recover the
per-node shunt totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, SizeLimitError, StructuralError
from .linalg_core import _finite, as_cmatrix
from .network_model import DEFAULT_ZERO_TOL, Network, shunt_totals

#: Entrywise relative tolerance for the complex-symmetry invariant.
SYMMETRY_RTOL = 1e-14
#: Rows per block of the symmetry check, which never holds more than this
#: many rows of temporaries.
_SYMMETRY_ROWS = 64
#: Largest node count stamped into a dense matrix: 16384² complex entries
#: take 4 GiB.
MAX_DENSE_ORDER = 16384


@dataclass(frozen=True, eq=False)
class AdmittanceMatrix:
    """A nodal admittance matrix together with its node labeling.

    ``node_order[k]`` is the node whose current and voltage the k-th row
    and column refer to.  The matrix must be square, finite and complex
    symmetric (plain transpose) to within ``SYMMETRY_RTOL`` of its largest
    entry.  The stored array is read-only.
    """

    matrix: np.ndarray
    node_order: tuple[int, ...]

    def __post_init__(self):
        m = as_cmatrix(self.matrix).copy()
        if m.shape[0] != m.shape[1]:
            raise StructuralError(f"admittance matrix must be square, got {m.shape}")
        order = tuple(int(v) for v in self.node_order)
        if len(order) != m.shape[0]:
            raise StructuralError(
                f"node_order length {len(order)} does not match matrix size {m.shape[0]}"
            )
        if len(set(order)) != len(order):
            raise StructuralError("node_order contains duplicate nodes")
        if m.size:
            scale, asym = _scale_and_asymmetry(m)
            if asym > SYMMETRY_RTOL * scale:
                raise StructuralError(
                    f"matrix is not complex symmetric: max|Y - Y^T| = {asym:.3e} "
                    f"exceeds {SYMMETRY_RTOL:.0e} * max|Y| = {SYMMETRY_RTOL * scale:.3e}"
                )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "node_order", order)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _scale_and_asymmetry(m: np.ndarray) -> tuple[float, float]:
    """max|Y| and max|Y - Y^T|, a block of rows at a time.

    Rows r0:r1 are compared with columns r0:r1 from column r0 on, which
    covers the upper triangle; |Y - Y^T| is symmetric, so its maximum there
    is its maximum everywhere.
    """
    scale = asym = 0.0
    for r0 in range(0, m.shape[0], _SYMMETRY_ROWS):
        rows = m[r0:r0 + _SYMMETRY_ROWS]
        scale = max(scale, float(np.abs(rows).max()))
        asym = max(asym, float(np.abs(rows[:, r0:] - m[r0:, r0:r0 + _SYMMETRY_ROWS].T).max()))
    return scale, asym


def _stamp(net: Network, zero_tol: float) -> np.ndarray:
    """Stamp the nodal matrix of a network into a fresh, writable array.

    Branches with |y| <= ``zero_tol`` are refused (they violate the
    nonzero-admittance hypothesis and would silently drop an edge).  All
    branches are stamped by one unbuffered ``np.add.at`` into the flat
    matrix, in branch order, so every entry sums its terms in the same
    order as stamping one branch at a time would: O(|branches|) work
    besides the zeroed N x N array, and bit-exactly symmetric.  A node count
    beyond ``MAX_DENSE_ORDER`` raises :class:`SizeLimitError` first, and a
    sum that overflows raises :class:`NumericalError`.
    """
    n = net.node_count
    if n > MAX_DENSE_ORDER:
        raise SizeLimitError(f"{n} nodes exceed the dense matrix limit of {MAX_DENSE_ORDER} nodes")
    branches = net.branches
    adm = np.array([b.admittance for b in branches], dtype=np.complex128)
    # |y| >= max(|Re y|, |Im y|), so only these can fail the check; the check
    # itself stays Python's abs, which NumPy's complex abs can miss by an ulp
    for k in np.flatnonzero(np.maximum(abs(adm.real), abs(adm.imag)) <= zero_tol).tolist():
        b = branches[k]
        if abs(b.admittance) <= zero_tol:
            raise HypothesisError(
                f"branch {k} ({b.from_node},{b.to_node}) has admittance {b.admittance} "
                f"with magnitude <= {zero_tol}; zero-admittance branches are not representable"
            )
    ends = np.array([(b.from_node, b.to_node) for b in branches], dtype=np.intp)
    i, j = ends.reshape(-1, 2).T
    flat = np.column_stack((i * (n + 1), j * (n + 1), i * n + j, j * n + i)).ravel()
    y = np.zeros((n, n), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused next
        np.add.at(y.reshape(-1), flat, np.column_stack((adm, adm, -adm, -adm)).ravel())
        y[np.diag_indices(n)] += shunt_totals(net)
    # only the stamped entries and the diagonal hold sums that can overflow
    _finite(np.concatenate((y.reshape(-1)[flat], y.diagonal())), "a stamped nodal matrix entry")
    return y


def assemble(net: Network) -> AdmittanceMatrix:
    """Assemble the nodal admittance matrix of a network.

    Branches with |y| <= ``DEFAULT_ZERO_TOL`` raise :class:`HypothesisError`.
    """
    return AdmittanceMatrix(matrix=_stamp(net, DEFAULT_ZERO_TOL),
                            node_order=tuple(range(net.node_count)))


def shunt_vector(y: AdmittanceMatrix) -> np.ndarray:
    """Row-sum vector of the matrix.

    For any assembled nodal matrix this recovers the per-node shunt
    admittance totals, so it works on matrices loaded from files with no
    network provenance attached.
    """
    return np.asarray(y.matrix.sum(axis=1))


def reorder(y: AdmittanceMatrix, perm) -> AdmittanceMatrix:
    """Symmetrically permute rows and columns to a new node order.

    ``perm`` lists the desired node order and must be a bijection on the
    current ``node_order``.  Row k of the result refers to node
    ``perm[k]``.
    """
    order = tuple(int(v) for v in perm)
    current = y.node_order
    if sorted(order) != sorted(current):
        raise StructuralError(
            f"perm {order} is not a bijection on node_order {current}"
        )
    pos = {node: k for k, node in enumerate(current)}
    idx = np.array([pos[node] for node in order], dtype=np.intp)
    return AdmittanceMatrix(matrix=y.matrix[np.ix_(idx, idx)], node_order=order)
