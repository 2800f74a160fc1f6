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

from .errors import HypothesisError, StructuralError
from .linalg_core import as_cmatrix
from .network_model import DEFAULT_ZERO_TOL, Network, shunt_totals

#: Entrywise relative tolerance for the complex-symmetry invariant.
SYMMETRY_RTOL = 1e-14


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
            scale = float(np.abs(m).max())
            asym = float(np.abs(m - m.T).max())
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


def _stamp(net: Network, zero_tol: float) -> np.ndarray:
    """Stamp the nodal matrix of a network into a fresh, writable array.

    Branches with |y| <= ``zero_tol`` are refused (they violate the
    nonzero-admittance hypothesis and would silently drop an edge).  Each
    branch is stamped directly, which is O(|branches|) and bit-exactly
    symmetric.
    """
    for i, b in enumerate(net.branches):
        if abs(b.admittance) <= zero_tol:
            raise HypothesisError(
                f"branch {i} ({b.from_node},{b.to_node}) has admittance {b.admittance} "
                f"with magnitude <= {zero_tol}; zero-admittance branches are not representable"
            )
    n = net.node_count
    y = np.zeros((n, n), dtype=np.complex128)
    for b in net.branches:
        i, j, adm = b.from_node, b.to_node, b.admittance
        y[i, i] += adm
        y[j, j] += adm
        y[i, j] -= adm
        y[j, i] -= adm
    y[np.diag_indices(n)] += shunt_totals(net)
    return y


def assemble(net: Network, zero_tol: float = DEFAULT_ZERO_TOL) -> AdmittanceMatrix:
    """Assemble the nodal admittance matrix of a network.

    Branches with |y| <= ``zero_tol`` raise :class:`HypothesisError`.
    """
    return AdmittanceMatrix(matrix=_stamp(net, zero_tol), node_order=tuple(range(net.node_count)))


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
