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
from .linalg_core import _finite, _frozen, as_cmatrix
from .network_model import DEFAULT_ZERO_TOL, Network, shunt_totals

#: Entrywise relative tolerance for the complex-symmetry invariant.
SYMMETRY_RTOL = 1e-14
#: Rows per block of the symmetry check and of the Schur complement's
#: symmetrization, which never hold more than this many rows of temporaries.
_SYMMETRY_ROWS = 64
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
    copied); otherwise ``matrix``, the read-only dense view, is built on
    first access.  Compressed rows come only from the package itself (the
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
            rows, indices = np.nonzero(m)
            csr = np.searchsorted(rows, np.arange(m.shape[0] + 1)), indices, m[rows, indices]
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

    def _block(self, rows, cols):
        """Rows ``rows`` and columns ``cols`` (positions), in the form its kernels use.

        This is the one place that decides a block's form.  Below
        ``SPARSE_MIN_ORDER`` nodes the block is a slice of the dense view.
        Otherwise it is gathered from the compressed rows in O(nnz of those
        rows), and :func:`_prefers_sparse` is asked before anything is
        built: a canonical SciPy CSR matrix if the block passes, else a
        dense array.
        """
        if self.size < SPARSE_MIN_ORDER:
            return self.matrix[np.ix_(rows, cols)]
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        where = np.full(self.size, -1, dtype=np.intp)
        where[cols] = np.arange(cols.size)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        ends = np.cumsum(counts)
        take = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)
        c = where[self.indices[take]]
        keep = c >= 0
        r, c, data = np.repeat(np.arange(rows.size), counts)[keep], c[keep], self.data[take[keep]]
        shape = (rows.size, cols.size)
        if _prefers_sparse(shape, data.size):
            import scipy.sparse

            return scipy.sparse.csr_matrix((data, (r, c)), shape=shape)
        block = np.zeros(shape, dtype=np.complex128)
        block[r, c] = data
        return block


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


def _stamp(net: Network, zero_tol: float) -> AdmittanceMatrix:
    """Stamp the nodal matrix of a network into compressed rows.

    Branches with |y| <= ``zero_tol`` are refused (they violate the
    nonzero-admittance hypothesis and would silently drop an edge).  Every
    entry a branch touches, and the diagonal, gets one slot in row-major
    order; one unbuffered ``np.add.at`` stamps all branches into the slots
    in branch order, then the shunt totals are added, so each entry sums
    its terms in the order a dense stamp one branch at a time does: bit
    for bit the same, and exactly symmetric, in O(|branches| log
    |branches|).  Entries that cancel exactly are not stored.  A node
    count beyond ``MAX_DENSE_ORDER`` raises :class:`SizeLimitError` first,
    and a sum that overflows raises :class:`NumericalError`.
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
    ends = np.empty((len(branches), 2), dtype=np.intp)
    ends[:, 0] = [b.from_node for b in branches]
    ends[:, 1] = [b.to_node for b in branches]
    # the keys row * n + col of (i, i), (j, j), (i, j) and (j, i), with values y, y, -y, -y
    flat = (ends @ np.array([[n + 1, 0, n, 1], [0, n + 1, 1, n]])).ravel()
    keys, slot = np.unique(np.concatenate((flat, np.arange(n) * (n + 1))), return_inverse=True)
    data = np.zeros(keys.size, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused next
        np.add.at(data, slot[:flat.size], np.column_stack((adm, adm, -adm, -adm)).ravel())
        data[slot[flat.size:]] += shunt_totals(net)
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
    network provenance attached.  The sums run over the dense view, as the
    rank verdicts that use them measure it.
    """
    return np.asarray(y.matrix.sum(axis=1))
