"""Nodal admittance matrix assembly and shunt recovery.

The nodal matrix relates injected nodal currents to nodal voltages,
``I = Y V``, with ground as the implicit voltage reference.  Each branch
(i, j, y) contributes +y to both diagonal entries and -y to both
off-diagonal entries; each shunt adds to its node's diagonal.  The result
is complex symmetric, and its row sums (equally, column sums) recover the
per-node shunt totals.  It is stored in compressed sparse rows: a grid's Y
has a handful of nonzeros per row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError, SizeLimitError, StructuralError
from .linalg_core import _STRIPE, _finite, _frozen, _mirror, as_cmatrix
from .network_model import (
    DEFAULT_ZERO_TOL, Network, _zero_admittances, shunt_totals)

#: Entrywise relative tolerance for the complex-symmetry invariant.
SYMMETRY_RTOL = 1e-14
#: Largest node count stamped into a matrix, whose dense view of 16384²
#: complex entries takes 4 GiB.
MAX_DENSE_ORDER = 16384
#: Blocks with fewer entries than SPARSE_MIN_ORDER**2, or with more than
#: SPARSE_MAX_ROW_NNZ nonzeros per row on average, are kept dense.  Both
#: were measured on ``perfbench`` grid networks (README, *Sparse blocks*):
#: the two certificates of a grid Y break even near order 350, and
#: SuperLU's fill loses to LAPACK from about 10 nonzeros per row.
SPARSE_MIN_ORDER = 300
SPARSE_MAX_ROW_NNZ = 8


def _prefers_sparse(shape, nnz: int) -> bool:
    """Whether a block of this shape and nonzero count is worth handling as a sparse matrix.

    It must hold at least SPARSE_MIN_ORDER**2 entries and at most
    SPARSE_MAX_ROW_NNZ nonzeros per row (per column, if it has more
    columns) on average.
    """
    rows, cols = shape
    return rows * cols >= SPARSE_MIN_ORDER ** 2 and nnz <= SPARSE_MAX_ROW_NNZ * max(rows, cols)


@dataclass(frozen=True, eq=False, init=False)
class AdmittanceMatrix:
    """A nodal admittance matrix in compressed sparse rows, with its node labeling.

    ``node_order[k]`` is the node that row and column k refer to.  Row k
    holds ``data[indptr[k]:indptr[k + 1]]`` in the ascending columns
    ``indices[indptr[k]:indptr[k + 1]]``, with no stored zero.  A dense
    ``matrix`` given to the constructor must be square, finite and complex
    symmetric (plain transpose) to within ``SYMMETRY_RTOL`` of its largest
    entry, and is kept as the dense view (adopted when read-only, else
    copied); with no zero entry, ``data`` is that view's own memory.
    Otherwise ``matrix``, the read-only dense view, is built on first
    access.  Compressed rows come only from the package itself (the
    stamp and the sparse Schur complement), which makes them finite and
    exactly symmetric.
    """

    node_order: tuple[int, ...]
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    def __init__(self, matrix, node_order):
        self.__post_init__(matrix, node_order, None)

    @classmethod
    def _adopt(cls, indptr, indices, data, node_order) -> "AdmittanceMatrix":
        """Take over compressed rows the package built and checked.

        They must be canonical (intp, ascending columns, no stored zero),
        finite and exactly symmetric, as the stamp and the symmetrized
        Schur complement are; nothing is checked again.
        """
        y = cls.__new__(cls)
        y.__post_init__(None, node_order, (indptr, indices, data))
        return y

    def __post_init__(self, matrix, node_order, csr):
        order = tuple(map(int, node_order))
        if csr is None:
            m = _frozen(as_cmatrix(matrix))
            if m.shape[0] != m.shape[1]:
                raise StructuralError(f"admittance matrix must be square, got {m.shape}")
            n = m.shape[0]
            _check_order_and_symmetry(order, n, *_scale_and_asymmetry(m))
            stored = m != 0  # faster to scan than the complex entries themselves
            if m.size and stored.all():  # every entry stored: data is m itself
                csr = np.arange(0, m.size + 1, n), np.tile(np.arange(n), n), m.reshape(-1)
            else:
                rows, indices = np.nonzero(stored)
                csr = np.searchsorted(rows, np.arange(n + 1)), indices, m[rows, indices]
            self.__dict__["matrix"] = m
        object.__setattr__(self, "node_order", order)
        for name, a in zip(("indptr", "indices", "data"), csr):
            a.flags.writeable = False  # built here, or taken over
            object.__setattr__(self, name, a)

    @property
    def size(self) -> int:
        return self.indptr.size - 1

    def _rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.size), self.indptr[1:] - self.indptr[:-1])

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense N x N view, read-only."""
        m = np.zeros((self.size, self.size), dtype=np.complex128)
        m[self._rows(), self.indices] = self.data
        m.flags.writeable = False
        return m

    def _entries(self, rows, cols):
        """The stored entries (r, c, data) of ``rows`` x ``cols``, row-major if ``cols`` ascend."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        where = np.full(self.size, -1, dtype=np.intp)
        where[cols] = np.arange(cols.size)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        ends = np.cumsum(counts)
        take = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)
        c = where[self.indices[take]]
        keep = c >= 0
        return np.repeat(np.arange(rows.size), counts)[keep], c[keep], self.data[take[keep]]

    def _block(self, rows, cols, entries=None):
        """Rows ``rows`` and columns ``cols`` (positions), in the form its kernels use.

        This is the one place that decides a block's form.  Below
        ``SPARSE_MIN_ORDER`` nodes and given no stored ``entries`` (of
        :meth:`_entries`), it is a slice of the dense view.  Otherwise
        :func:`_prefers_sparse` is asked before anything is built from them:
        a canonical SciPy CSR matrix if the block passes, else a dense array.
        """
        if entries is None and self.size < SPARSE_MIN_ORDER:
            return self.matrix[np.ix_(rows, cols)]
        r, c, data = self._entries(rows, cols) if entries is None else entries
        shape = (len(rows), len(cols))
        if _prefers_sparse(shape, data.size):
            import scipy.sparse

            return scipy.sparse.csr_matrix((data, (r, c)), shape=shape)
        block = np.zeros(shape, dtype=np.complex128)
        block[r, c] = data
        return block


def _check_size(n: int) -> None:
    if n > MAX_DENSE_ORDER:
        raise SizeLimitError(f"{n} nodes exceed the dense matrix limit of {MAX_DENSE_ORDER} nodes")


def _check_order_and_symmetry(order: tuple, n: int, scale: float, asym: float) -> None:
    """The checks of every matrix not built by the package: node labels, then symmetry."""
    if len(order) != n:
        raise StructuralError(f"node_order length {len(order)} does not match matrix size {n}")
    if len(set(order)) != len(order):
        raise StructuralError("node_order contains duplicate nodes")
    if asym > SYMMETRY_RTOL * scale:
        raise StructuralError(
            f"matrix is not complex symmetric: max|Y - Y^T| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max|Y| = {SYMMETRY_RTOL * scale:.3e}"
        )


def _scale_and_asymmetry(m: np.ndarray) -> tuple[float, float]:
    """max|Y| and max|Y - Y^T|, a block of rows at a time.

    Rows r0:r1 are compared with columns r0:r1 from column r0 on, which
    covers the upper triangle; |Y - Y^T| is symmetric, so its maximum there
    is its maximum everywhere.  A difference that overflows is infinite.
    """
    scale = asym = 0.0
    for r0 in range(0, m.shape[0], _STRIPE):
        rows = m[r0:r0 + _STRIPE]
        scale = max(scale, float(np.abs(rows).max()))
        with np.errstate(over="ignore"):
            asym = max(asym, float(np.abs(rows[:, r0:] - m[r0:, r0:r0 + _STRIPE].T).max()))
    return scale, asym


def _from_nonzeros(rows, cols, data, node_order) -> AdmittanceMatrix:
    """A matrix from its nonzeros, checked as the dense constructor checks a dense one.

    ``rows`` and ``cols`` are intp positions into ``node_order`` and must
    lie in range and come in strictly ascending row-major order; ``data``
    is finite.  Stored exact zeros are dropped.  The node order and the
    complex symmetry are then checked with the dense constructor's
    messages, in O(nnz log nnz): the mirror Y[c, r] of each entry is found
    by binary search, and a mirror not stored is zero, so max|Y| and
    max|Y - Y^T| are the dense check's values bit for bit.  More than
    ``MAX_DENSE_ORDER`` nodes raise :class:`SizeLimitError`, as a network
    that large does.
    """
    order = tuple(map(int, node_order))
    n = len(order)
    _check_size(n)
    outside = np.flatnonzero((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n))
    if outside.size:
        raise StructuralError(f"nonzero {outside[0]} has a position outside 0..{n - 1}")
    keys = rows * n + cols
    unordered = np.flatnonzero(keys[1:] <= keys[:-1])
    if unordered.size:
        k = unordered[0] + 1
        raise StructuralError(
            f"nonzero {k} does not follow nonzero {k - 1} in strictly ascending row-major order"
        )
    if not data.all():
        keep = data != 0
        rows, cols, data, keys = rows[keep], cols[keep], data[keep], keys[keep]
    scale = asym = 0.0
    if data.size:
        with np.errstate(over="ignore"):
            scale = float(np.abs(data).max())
            asym = float(np.abs(data - _mirror(n, rows, cols, data)).max())
    _check_order_and_symmetry(order, n, scale, asym)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return AdmittanceMatrix._adopt(indptr, cols, data, order)


def _stamp(net: Network, zero_tol: float) -> AdmittanceMatrix:
    """Stamp a network's arrays by :func:`_stamp_arrays`, its size checked before its shunts."""
    _check_size(net.node_count)
    return _stamp_arrays(net.node_count, net.ends, net.branch_y, shunt_totals(net), zero_tol)


def _stamp_arrays(n: int, ends, adm, totals, zero_tol: float) -> AdmittanceMatrix:
    """Stamp the nodal matrix of n nodes from branch ``ends`` and ``adm`` and shunt ``totals``.

    Branches with |y| <= ``zero_tol`` are refused (they violate the
    nonzero-admittance hypothesis and would silently drop an edge).  Every
    entry a branch touches, and the diagonal, gets one slot in row-major
    order; one unbuffered ``np.add.at`` stamps all branches into the slots
    in branch order, then the totals are added, so each entry sums its
    terms in the order a dense stamp one branch at a time does: bit for
    bit the same, and exactly symmetric, in O(|branches| log |branches|).
    Entries that cancel exactly are not stored.  A node count beyond
    ``MAX_DENSE_ORDER`` raises :class:`SizeLimitError` first, and a sum
    that overflows raises :class:`NumericalError`.
    """
    _check_size(n)
    zero = _zero_admittances(adm, zero_tol)
    if zero:
        raise HypothesisError(
            f"branch {zero[0]} ({ends[zero[0], 0]},{ends[zero[0], 1]}) has admittance "
            f"{complex(adm[zero[0]])} "
            f"with magnitude <= {zero_tol}; zero-admittance branches are not representable"
        )
    # the keys row * n + col of (i, i), (j, j), (i, j) and (j, i), with values y, y, -y, -y
    flat = (ends @ np.array([[n + 1, 0, n, 1], [0, n + 1, 1, n]])).ravel()
    keys, slot = np.unique(np.concatenate((flat, np.arange(n) * (n + 1))), return_inverse=True)
    data = np.zeros(keys.size, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused next
        np.add.at(data, slot[:flat.size], np.column_stack((adm, adm, -adm, -adm)).ravel())
        data[slot[flat.size:]] += totals
    _finite(data, "a stamped nodal matrix entry")
    if not data.all():  # entries that cancel exactly are not stored
        keys, data = keys[data != 0], data[data != 0]
    indptr = np.searchsorted(keys, np.arange(0, n * n + 1, n))
    return AdmittanceMatrix._adopt(indptr, keys % n, data, range(n))


def assemble(net: Network) -> AdmittanceMatrix:
    """Assemble the nodal admittance matrix of a network.

    Branches with |y| <= ``DEFAULT_ZERO_TOL`` raise :class:`HypothesisError`.
    """
    return _stamp(net, DEFAULT_ZERO_TOL)


def shunt_vector(y: AdmittanceMatrix) -> np.ndarray:
    """Row-sum vector of the matrix.

    For any assembled nodal matrix this recovers the per-node shunt
    admittance totals, so it works on matrices loaded from files with no
    network provenance attached.  Each row's stored entries are summed in
    column order, in O(nnz), without the dense view.
    """
    t = np.zeros(y.size, dtype=np.complex128)
    np.add.at(t, y._rows(), y.data)
    return t
