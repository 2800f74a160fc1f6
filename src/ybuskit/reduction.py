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
from .linalg_core import RankCertificate, _finite, _prefers_sparse, full_rank_certificate
from .partition import BlockView, Partition
from .ybus import AdmittanceMatrix


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
        rec = rec.copy()
        rec.flags.writeable = False
        object.__setattr__(self, "recovery", rec)
        object.__setattr__(self, "eliminated_order", tuple(int(v) for v in self.eliminated_order))

    @property
    def eliminated(self) -> frozenset[int]:
        return frozenset(self.eliminated_order)

    @property
    def retained_order(self) -> tuple[int, ...]:
        return self.reduced.node_order


def _certified(block: np.ndarray, what: str, err_cls) -> RankCertificate:
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
    """Index of every node label of ``y``; refuses the first of ``labels`` it lacks."""
    pos = {v: i for i, v in enumerate(y.node_order)}
    for v in labels:
        if v not in pos:
            raise StructuralError(f"node {v} is not in the matrix node order")
    return pos


def _schur(m: np.ndarray, epos: np.ndarray, kpos: np.ndarray, what: str, err_cls):
    """Certificate of Y_ee, W = Y_ee^{-1} Y_ek and S = Y_kk - Y_ke W.

    ``epos`` and ``kpos`` index rows and columns of ``m``.  S is
    symmetrized, since LU roundoff breaks its exact symmetry.  Y_ke W is
    formed with a sparse Y_ke when the block is large and sparse.  A W or
    S that overflows raises :class:`NumericalError`.
    """
    cert = _certified(m[np.ix_(epos, epos)], what, err_cls)
    w = _finite(cert.solve(m[np.ix_(epos, kpos)]), f"{what}: W = Y_ee^-1 Y_ek")
    y_ke = m[np.ix_(kpos, epos)]
    if _prefers_sparse(y_ke):
        import scipy.sparse

        y_ke = scipy.sparse.csr_matrix(y_ke)
    s = m[np.ix_(kpos, kpos)]
    with np.errstate(all="ignore"):  # an overflow is refused just below
        s -= y_ke @ w
        s += s.T
        s *= 0.5
    return cert, w, _finite(s, f"{what}: the Schur complement")


def _reduce(y: AdmittanceMatrix, epos: np.ndarray, kpos: np.ndarray) -> ReductionResult:
    """Eliminate rows/columns ``epos`` of ``y``, keeping ``kpos`` in that order."""
    _, w, s = _schur(y.matrix, epos, kpos, "elimination block", NotReducibleError)
    order = y.node_order
    return ReductionResult(
        reduced=AdmittanceMatrix(matrix=s, node_order=tuple(order[i] for i in kpos)),
        eliminated_order=tuple(order[i] for i in epos),
        recovery=-w,
    )


def kron_reduce_nodes(y: AdmittanceMatrix, eliminate) -> ReductionResult:
    """Eliminate the given nodes of an admittance matrix by Schur complement.

    ``eliminate`` lists node labels (entries of ``y.node_order``); a set is
    processed in ascending label order.  An empty set is the identity
    reduction.  Retained nodes keep their relative order.

    The reduced matrix represents the same port behaviour at the retained
    nodes provided the eliminated nodes carry zero current injection.
    """
    if isinstance(eliminate, (set, frozenset)):
        labels = sorted(int(v) for v in eliminate)
    else:
        labels = [int(v) for v in eliminate]
    if len(set(labels)) != len(labels):
        raise StructuralError("eliminate set contains duplicates")

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
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "h", m)

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

    With W = Y_pp^{-1} Y_pk over all other classes k, the Schur kernel of
    Kron reduction gives every block: (p, p) is Y_pp^{-1}, (p, k) is -W,
    the admittance blocks (q, k) are the Kron reduction of class p, and
    since Y is complex symmetric, (q, p) = Y_qp Y_pp^{-1} = W^T, which is
    -(H_pq)^T.  One factorization of Y_pp backs all of them; only block
    (p, p) materializes the inverse, because the inverse is the
    deliverable there.
    """
    part = view.partition
    n = part.node_count
    sp = part.span(p)
    others = np.r_[0:sp.start, sp.stop:n]
    cert, w, s = _schur(view.source.matrix, view.positions[sp], view.positions[others],
                        f"block ({p},{p})", NotSolvableError)

    h = np.empty((n, n), dtype=np.complex128)
    h[sp, sp] = _finite(cert.solve(np.eye(sp.stop - sp.start, dtype=np.complex128)),
                        f"block ({p},{p}): the inverse")
    h[sp, others] = -w
    h[others, sp] = w.T
    h[np.ix_(others, others)] = s
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
