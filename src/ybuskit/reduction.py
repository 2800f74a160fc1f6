"""Kron reduction and hybrid network-parameter extraction.

Both operations rest on the same fact: any diagonal block picked out by a
partition of a connected, dissipative network is invertible.  Kron
reduction eliminates a class of zero-injection nodes by taking the Schur
complement with respect to its block; hybrid extraction instead solves
one block row of I = Y V for the voltages of that class, producing a
mixed current/voltage transfer matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotReducibleError, NotSolvableError, SingularMatrixError, StructuralError
from .linalg_core import EPS, condition_from_factor, lu_factor_checked
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


def _factor_block(block: np.ndarray, what: str, err_cls):
    """LU-factor an elimination/solve block, certifying invertibility."""
    n = block.shape[0]
    try:
        lu, piv = lu_factor_checked(block)
    except SingularMatrixError as exc:
        raise err_cls(
            f"{what} is exactly singular (zero pivot at index {exc.pivot_index})"
        ) from exc
    cond = condition_from_factor(block, lu)
    if not cond < 1.0 / (n * EPS):
        raise err_cls(
            f"{what} is numerically singular (condition estimate {cond:.3e})"
        )
    return lu, piv


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

    pos = {v: i for i, v in enumerate(y.node_order)}
    for v in labels:
        if v not in pos:
            raise StructuralError(f"node {v} is not in the matrix node order")

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
    elim_set = set(epos.tolist())
    rpos = np.array([i for i in range(n) if i not in elim_set], dtype=np.intp)
    retained = tuple(y.node_order[i] for i in rpos)

    import scipy.linalg  # deferred, as in linalg_core: only LU callers load SciPy

    m = y.matrix
    y_ss = m[np.ix_(rpos, rpos)]
    y_st = m[np.ix_(rpos, epos)]
    y_ts = m[np.ix_(epos, rpos)]
    y_tt = m[np.ix_(epos, epos)]

    lu = _factor_block(y_tt, "elimination block", NotReducibleError)
    w = scipy.linalg.lu_solve(lu, y_ts)
    schur = y_ss - y_st @ w
    # LU roundoff breaks exact symmetry of the Schur complement; restore it
    schur = 0.5 * (schur + schur.T)
    return ReductionResult(
        reduced=AdmittanceMatrix(matrix=schur, node_order=retained),
        eliminated_order=tuple(labels),
        recovery=-w,
    )


def kron_reduce(view: BlockView, t: int) -> ReductionResult:
    """Eliminate one partition class from a block-ordered matrix.

    Retained nodes follow the block order of the remaining classes.  The
    class block must be invertible; otherwise the reduction does not exist
    and :class:`NotReducibleError` is raised.
    """
    return kron_reduce_nodes(view.permuted, view.permuted.node_order[view.partition.span(t)])


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

    With W = Y_pp^{-1}: block (p, p) is W itself, block (p, k) is
    -W Y_pk, block (q, p) is Y_qp W and block (q, k) is the Schur-style
    update Y_qk - Y_qp W Y_pk.  A single factorization of Y_pp backs all
    of them; only block (p, p) materializes the inverse, because the
    inverse is the deliverable there.
    """
    part = view.partition
    sp = part.span(p)

    import scipy.linalg

    m = view.permuted.matrix
    y_pp = m[sp, sp]
    lu = _factor_block(y_pp, f"block ({p},{p})", NotSolvableError)

    n = part.node_count
    h = np.zeros((n, n), dtype=np.complex128)
    h[sp, sp] = scipy.linalg.lu_solve(lu, np.eye(y_pp.shape[0], dtype=np.complex128))
    roles: dict[tuple[int, int], str] = {(p, p): ROLE_IMPEDANCE}

    for k in range(part.class_count):
        if k == p:
            continue
        sk = part.span(k)
        w_k = scipy.linalg.lu_solve(lu, m[sp, sk])  # Y_pp^{-1} Y_pk
        h[sp, sk] = -w_k
        roles[(p, k)] = ROLE_VOLTAGE_GAIN
        for q in range(part.class_count):
            if q == p:
                continue
            sq = part.span(q)
            h[sq, sk] = m[sq, sk] - m[sq, sp] @ w_k
            roles[(q, k)] = ROLE_ADMITTANCE

    # trans=1 reuses the same factors to apply the inverse from the right:
    # H_qp = Y_qp Y_pp^{-1} = (Y_pp^{-T} Y_qp^{T})^{T}
    for q in range(part.class_count):
        if q == p:
            continue
        sq = part.span(q)
        h[sq, sp] = scipy.linalg.lu_solve(lu, m[sq, sp].T, trans=1).T
        roles[(q, p)] = ROLE_CURRENT_GAIN

    return HybridResult(
        h=h,
        solved_class=p,
        partition=part,
        node_order=view.permuted.node_order,
        block_roles=roles,
    )
