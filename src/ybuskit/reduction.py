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
    RankCertificate,
    _dense,
    _finite,
    _frozen,
    full_rank_certificate,
)
from .partition import BlockView, Partition
from .ybus import _SYMMETRY_ROWS, AdmittanceMatrix, _prefers_sparse


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


def _certified(block, what: str, err_cls) -> RankCertificate:
    """Certify an elimination/solve block invertible; the certificate solves with it."""
    cert = full_rank_certificate(block)
    if cert.failed_pivot is not None:
        raise err_cls(f"{what} is exactly singular (zero pivot at index {cert.failed_pivot})")
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


def _symmetrize(s: np.ndarray) -> None:
    """s <- (s + s^T) / 2 in place, a stripe of rows at a time (no n x n temporary)."""
    rows = _SYMMETRY_ROWS
    for r0 in range(0, s.shape[0], rows):
        stripe = s[r0:r0 + rows, r0:]  # its diagonal block overlaps the transpose: NumPy copies
        stripe += s[r0:, r0:r0 + rows].T
        stripe *= 0.5
        s[r0 + rows:, r0:r0 + rows] = stripe[:, rows:].T


def _schur(y: AdmittanceMatrix, epos, kpos, what: str, err_cls, inverse: bool = False):
    """Y_ee^{-1} (with ``inverse``, else None), W = Y_ee^{-1} Y_ek and S = Y_kk - Y_ke W.

    Blocks are sliced from ``y`` at positions ``epos`` and ``kpos``.  W
    is the certificate's solve of Y_ek in whatever form it comes, so a
    zero column of Y_ek gives an exactly +0.0 column of W; with
    ``inverse`` W is (Y_ke Y_ee^{-1})^T.  S is a SciPy CSR matrix when W
    is large and sparse, else a dense array, and is symmetrized exactly,
    since LU roundoff breaks its symmetry.  A W or S that overflows
    raises :class:`NumericalError`.
    """
    cert = _certified(y._block(epos, epos), what, err_cls)
    y_ke, y_kk = y._block(kpos, epos), y._block(kpos, kpos)
    inv = None
    with np.errstate(all="ignore"):  # an overflow is refused just after it happens
        if inverse:
            inv = _finite(cert.solve(np.eye(len(epos), dtype=np.complex128)),
                          f"{what}: the inverse")
            w = (y_ke @ inv).T
        else:
            w = cert.solve(y._block(epos, kpos))
        _finite(w, f"{what}: W = Y_ee^-1 Y_ek")
        if _prefers_sparse(w.shape, np.count_nonzero(w)):
            from scipy.sparse import csr_matrix as csr

            s = csr(y_kk) - csr(y_ke) @ csr(w)
            s = (s + s.T) * 0.5
            s.eliminate_zeros()  # a halved subnormal
            s.sort_indices()
            _finite(s.data, f"{what}: the Schur complement")
        else:
            s = _dense(y_kk)
            s -= y_ke @ w
            _symmetrize(s)
            _finite(s, f"{what}: the Schur complement")
    return inv, w, s


def _reduce(y: AdmittanceMatrix, epos: np.ndarray, kpos: np.ndarray) -> ReductionResult:
    """Eliminate rows/columns ``epos`` of ``y``, keeping ``kpos`` in that order."""
    _, w, s = _schur(y, epos, kpos, "elimination block", NotReducibleError)
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
        return ReductionResult(
            reduced=y,
            eliminated_order=(),
            recovery=np.zeros((0, n), dtype=np.complex128),
        )
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
    """
    part = view.partition
    n = part.node_count
    sp = part.span(p)
    others = np.r_[0:sp.start, sp.stop:n]
    h_pp, w, s = _schur(view.source, view.positions[sp], view.positions[others],
                        f"block ({p},{p})", NotSolvableError, inverse=True)

    h = np.empty((n, n), dtype=np.complex128)
    h[sp, sp] = h_pp
    h[sp, others] = -w
    h[others, sp] = w.T
    h[np.ix_(others, others)] = _dense(s)
    h.flags.writeable = False
    roles = {
        (q, k): (ROLE_IMPEDANCE if k == p else ROLE_VOLTAGE_GAIN) if q == p
        else (ROLE_CURRENT_GAIN if k == p else ROLE_ADMITTANCE)
        for q in range(part.class_count) for k in range(part.class_count)
    }
    return HybridResult(
        h=h,
        solved_class=p,
        partition=part,
        node_order=view.node_order,
        block_roles=roles,
    )
