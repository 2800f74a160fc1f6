"""Kron reduction and hybrid network-parameter extraction.

Both operations rest on the same fact: any diagonal block picked out by a
partition of a connected, dissipative network is invertible.  Kron
reduction eliminates a class of zero-injection nodes by taking the Schur
complement with respect to its block; hybrid extraction instead solves
one block row of I = Y V for the voltages of that class, producing a
mixed current/voltage transfer matrix.  One Schur kernel serves both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotReducibleError, NotSolvableError, StructuralError
from .linalg_core import (
    _STRIPE,
    RankCertificate,
    _dense,
    _finite,
    _frozen,
    _hermitian_part_certifies,
    _numpy_certificate,
    _stripes,
    full_rank_certificate,
)
from .partition import BlockView, Partition
from .ybus import AdmittanceMatrix, _prefers_sparse


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Outcome of eliminating a set of zero-injection nodes.

    ``recovery`` maps retained voltages to the eliminated ones:
    ``V_eliminated = recovery @ V_retained``, row i corresponding to
    ``eliminated_order[i]`` and columns following ``reduced.node_order``.
    """

    reduced: AdmittanceMatrix
    eliminated_order: tuple[int, ...]
    recovery: np.ndarray

    def __post_init__(self):
        rec = np.asarray(self.recovery, dtype=np.complex128)
        if rec.shape != (len(self.eliminated_order), self.reduced.size):
            raise StructuralError(
                f"recovery shape {rec.shape} does not match "
                f"{len(self.eliminated_order)} eliminated x {self.reduced.size} retained"
            )
        object.__setattr__(self, "recovery", _frozen(rec))
        object.__setattr__(self, "eliminated_order", tuple(int(v) for v in self.eliminated_order))

    @property
    def eliminated(self) -> frozenset[int]:
        return frozenset(self.eliminated_order)

    @property
    def retained_order(self) -> tuple[int, ...]:
        return self.reduced.node_order


def _certified(y: AdmittanceMatrix, epos, what: str, err_cls) -> RankCertificate:
    """Certify the block of ``y`` at positions ``epos`` invertible; the certificate solves with it.

    Its stored entries, gathered once, go to the Hermitian-part kernel unless the block is
    sparse, which SuperLU takes first.  :func:`full_rank_certificate` takes the rest, and
    its exactly zero pivot is named by its index in the block and the node of that column.
    """
    m = len(epos)
    rows, cols, data = y._entries(epos, epos)
    a = y._block(epos, epos, (rows, cols, data))
    if not hasattr(a, "nnz"):
        if (np.diff(epos) <= 0).any():  # the kernel reads them in row-major order
            order = np.argsort(rows * m + cols)
            rows, cols, data = rows[order], cols[order], data[order]
        if _hermitian_part_certifies(m, rows, cols, data):
            return _numpy_certificate(a)
    cert = full_rank_certificate(a)
    if cert.failed_pivot is not None:
        raise err_cls(f"{what} is exactly singular (zero pivot at index {cert.failed_pivot}, "
                      f"node {y.node_order[epos[cert.failed_pivot]]})")
    if not cert.full_rank:
        raise err_cls(
            f"{what} is numerically singular (condition estimate {cert.condition_estimate:.3e})"
        )
    return cert


def _node_positions(y: AdmittanceMatrix, labels) -> dict[int, int]:
    """Index of every node label of ``y``; refuses the first of ``labels`` it lacks or repeats."""
    pos = {v: i for i, v in enumerate(y.node_order)}
    seen: set[int] = set()
    for v in labels:
        if v not in pos:
            raise StructuralError(f"node {v} is not in the matrix node order")
        if v in seen:
            raise StructuralError(f"node {v} is listed more than once")
        seen.add(v)
    return pos


def _placed(at: list[slice], part: slice):
    """(rows of ``part``, rows of the destination) for each piece of ``part``.

    Index i of a block lives at the i-th position of the slices ``at``,
    laid end to end; ``part`` is a slice of those indices.
    """
    base = 0
    for r in at:
        lo, hi = max(part.start, base), min(part.stop, base + r.stop - r.start)
        if lo < hi:
            yield slice(lo - part.start, hi - part.start), slice(r.start + lo - base,
                                                                 r.start + hi - base)
        base += r.stop - r.start


def _symmetrize(s: np.ndarray, at: list[slice], what: str) -> None:
    """S <- (S + S^T) / 2 in place, a stripe of rows at a time, for S at rows and columns ``at``.

    Every entry becomes (s_ij + s_ji) / 2, whichever stripe computes it,
    and each stripe is checked finite as it is written, which covers every
    entry; one that overflows raises :class:`NumericalError` naming ``what``.
    """
    for i, a in enumerate(at):
        for r0 in range(a.start, a.stop, _STRIPE):
            r = slice(r0, min(r0 + _STRIPE, a.stop))
            for c in (slice(r0, a.stop), *at[i + 1:]):
                stripe = s[r, c]  # its diagonal block overlaps the transpose: NumPy copies
                stripe += s[c, r].T
                stripe *= 0.5
                s[c, r] = _finite(stripe, what).T


def _schur(y: AdmittanceMatrix, kpos, y_ke, w: np.ndarray, what: str, out=None, at=None):
    """S = Y_kk - Y_ke W, for W = Y_ee^{-1} Y_ek handed in as a C-contiguous array.

    ``Y_kk`` is sliced from ``y`` at positions ``kpos``.  Given a
    destination ``out``, as a hybrid's H is, S is dense and is written into
    it, index i of S at the i-th position of the slices ``at``, a stripe of
    ``_STRIPE`` rows at a time, and ``out`` is returned.  With none, as for
    Kron, S is a SciPy CSR matrix when W is large and sparse, and otherwise
    a new dense k x k array written the same way.  Either way S is
    symmetrized exactly, since LU roundoff breaks its symmetry, and one
    that overflows raises :class:`NumericalError`.
    """
    k = len(kpos)
    with np.errstate(all="ignore"):  # an overflow is refused just after it happens
        if out is None:
            if _prefers_sparse(w.shape, np.count_nonzero(w)):
                from scipy.sparse import csr_matrix as csr

                s = csr(y._block(kpos, kpos)) - csr(y_ke) @ csr(w)
                s = (s + s.T) * 0.5
                s.eliminate_zeros()  # a halved subnormal
                s.sort_indices()
                _finite(s.data, f"{what}: the Schur complement")
                return s
            out, at = np.empty((k, k), dtype=np.complex128), [slice(0, k)]
        for v in _stripes(k):
            stripe = _dense(y._block(kpos[v], kpos))
            stripe -= y_ke[v] @ w
            for sv, rows in _placed(at, v):
                for cv, cols in _placed(at, slice(0, k)):
                    out[rows, cols] = stripe[sv, cv]
        _symmetrize(out, at, f"{what}: the Schur complement")
    return out


def _reduce(y: AdmittanceMatrix, epos: np.ndarray, kpos: np.ndarray) -> ReductionResult:
    """Eliminate rows/columns ``epos`` of ``y``, keeping ``kpos`` in that order.

    W = Y_ee^{-1} Y_ek is the certificate's solve of Y_ek in whatever form
    it comes, so a zero column of Y_ek gives an exactly +0.0 column of W.
    """
    what = "elimination block"
    cert = _certified(y, epos, what, NotReducibleError)
    with np.errstate(all="ignore"):  # an overflow is refused just after it happens
        w = _finite(cert.solve(y._block(epos, kpos)), f"{what}: W = Y_ee^-1 Y_ek")
    s = _schur(y, kpos, y._block(kpos, epos), w, what)
    order = y.node_order
    kept = tuple(order[i] for i in kpos)
    if isinstance(s, np.ndarray):
        s.flags.writeable = False
        reduced = AdmittanceMatrix(s, kept)
    else:
        reduced = AdmittanceMatrix._adopt(s.indptr.astype(np.intp), s.indices.astype(np.intp),
                                          s.data, kept)
    np.negative(w, out=w)
    w.flags.writeable = False
    return ReductionResult(reduced, tuple(order[i] for i in epos), w)


def kron_reduce_nodes(y: AdmittanceMatrix, eliminate) -> ReductionResult:
    """Eliminate the given nodes of an admittance matrix by Schur complement.

    ``eliminate`` lists node labels (entries of ``y.node_order``), none
    twice; a set is processed in ascending label order.  An empty set is
    the identity reduction.  Retained nodes keep their relative order.

    The reduced matrix represents the same port behaviour at the retained
    nodes provided the eliminated nodes carry zero current injection.
    """
    if isinstance(eliminate, (set, frozenset)):
        labels = sorted(int(v) for v in eliminate)
    else:
        labels = [int(v) for v in eliminate]
    pos = _node_positions(y, labels)
    n = y.size
    if not labels:
        return ReductionResult(reduced=y, eliminated_order=(),
                               recovery=np.zeros((0, n), dtype=np.complex128))
    if len(labels) == n:
        raise NotReducibleError("cannot eliminate every node; at least one must remain")

    epos = np.array([pos[v] for v in labels], dtype=np.intp)
    keep = np.ones(n, dtype=bool)
    keep[epos] = False
    return _reduce(y, epos, np.flatnonzero(keep))


def kron_reduce(view: BlockView, t: int) -> ReductionResult:
    """Eliminate one partition class from a block-ordered matrix.

    Retained nodes follow the block order of the remaining classes.  The
    class block must be invertible; otherwise the reduction does not exist
    and :class:`NotReducibleError` is raised.
    """
    st = view.partition.span(t)
    return _reduce(view.source, view.positions[st], np.delete(view.positions, st))


def recover_eliminated(result: ReductionResult, v_retained) -> np.ndarray:
    """Voltages of the eliminated nodes given retained voltages.

    Valid under the zero-injection assumption the reduction was built on.
    """
    v = np.asarray(v_retained, dtype=np.complex128)
    if v.ndim != 1 or v.shape[0] != result.reduced.size:
        raise StructuralError(
            f"expected a vector of {result.reduced.size} retained voltages, "
            f"got shape {v.shape}"
        )
    return result.recovery @ v


# Roles of the four hybrid block families: the solved class exchanges the
# meaning of its inputs and outputs, so each block maps either a current or
# a voltage to either a voltage or a current.
ROLE_IMPEDANCE = "impedance"  # I_p -> V_p
ROLE_VOLTAGE_GAIN = "voltage-gain"  # V_k -> V_p
ROLE_CURRENT_GAIN = "current-gain"  # I_p -> I_q
ROLE_ADMITTANCE = "admittance"  # V_k -> I_q


@dataclass(frozen=True, eq=False)
class HybridResult:
    """Hybrid network parameters with one class solved for voltage.

    ``h`` is N x N in the block order of ``partition``: inputs are the
    current injections of the solved class and the voltages of every other
    class; outputs are the voltages of the solved class and the currents
    of every other class.  ``block_roles[(q, k)]`` names what block (q, k)
    converts, one of ``impedance``, ``voltage-gain``, ``current-gain``,
    ``admittance``.
    """

    h: np.ndarray
    solved_class: int
    partition: Partition
    node_order: tuple[int, ...]
    block_roles: dict[tuple[int, int], str] = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.h, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.partition.node_count:
            raise StructuralError(f"hybrid matrix shape {m.shape} does not match partition")
        object.__setattr__(self, "h", _frozen(m))

    def block(self, q: int, k: int) -> np.ndarray:
        p = self.partition
        return self.h[p.span(q), p.span(k)].copy()

    def apply(self, u) -> np.ndarray:
        """Mixed transfer: w = H u.

        ``u`` stacks, in block order, the current injections of the solved
        class and the voltages of the other classes; the result stacks the
        solved-class voltages and the other classes' currents.
        """
        u = np.asarray(u, dtype=np.complex128)
        if u.ndim != 1 or u.shape[0] != self.h.shape[0]:
            raise StructuralError(
                f"expected a vector of length {self.h.shape[0]}, got shape {u.shape}"
            )
        return self.h @ u


def hybrid_parameters(view: BlockView, p: int) -> HybridResult:
    """Solve block row p of I = Y V for V_p, yielding hybrid parameters.

    With H_pp = Y_pp^{-1} and W = H_pp Y_pk over all other classes k, the
    Schur kernel of Kron reduction gives every block: (p, p) is H_pp,
    (p, k) is -W, the admittance blocks (q, k) are the Kron reduction of
    class p, and since Y is complex symmetric, (q, p) = Y_qp H_pp = W^T,
    which is -(H_pq)^T.  One factorization of Y_pp forms H_pp, the
    deliverable of block (p, p); the current-gain blocks are then its
    product with the sparse Y_qp, not a solve per column of Y_pk.

    H is the one N x N array.  Its blocks are written into it a stripe of
    rows at a time, and W, which S needs C-contiguous, is kept packed in
    the memory of the rows of class p until S is written; -W then takes its
    place there, read from the current-gain blocks.
    """
    part = view.partition
    n = part.node_count
    sp = part.span(p)
    y, epos, kpos = view.source, view.positions[sp], np.delete(view.positions, sp)
    e, k = len(epos), len(kpos)
    at = [r for r in (slice(0, sp.start), slice(sp.stop, n)) if r.start < r.stop]
    what = f"block ({p},{p})"
    cert = _certified(y, epos, what, NotSolvableError)
    y_ke = y._block(kpos, epos)
    with np.errstate(all="ignore"):  # an overflow is refused just after it happens
        h_pp = _finite(cert.solve(np.eye(e, dtype=np.complex128)), f"{what}: the inverse")
        h = np.empty((n, n), dtype=np.complex128)
        w = h[sp].reshape(-1)[:e * k].reshape(e, k)
        for v in _stripes(k):
            g = _finite(y_ke[v] @ h_pp, f"{what}: W = Y_ee^-1 Y_ek")  # rows of W^T = Y_kp H_pp
            for gv, rows in _placed(at, v):
                h[rows, sp] = g[gv]
            w[:, v] = g.T
    _schur(y, kpos, y_ke, w, what, h, at)
    for r0 in range(sp.start, sp.stop, _STRIPE):  # -W = -(current gain)^T, over the packed W
        r = slice(r0, min(r0 + _STRIPE, sp.stop))
        for a in at:
            h[r, a] = -h[a, r].T
    h[sp, sp] = h_pp
    h.flags.writeable = False
    roles = {
        (q, k): (ROLE_IMPEDANCE if k == p else ROLE_VOLTAGE_GAIN) if q == p
        else (ROLE_CURRENT_GAIN if k == p else ROLE_ADMITTANCE)
        for q in range(part.class_count) for k in range(part.class_count)
    }
    return HybridResult(h=h, solved_class=p, partition=part, node_order=view.node_order,
                        block_roles=roles)
