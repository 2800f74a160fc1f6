"""Rank verification for nodal admittance matrices.

For a connected network with nonzero branch admittances, the nodal matrix
has rank N-1 when every node's shunt total is zero and full rank N as soon
as one shunt is present.  Two verification routes are implemented:

* ``verify_rank`` measures the numerical rank of the assembled matrix
  directly.
* ``verify_rank_via_augmentation`` rebuilds the shunted network over a
  virtual ground node, turning every shunt into a branch.  The augmented
  shuntless network must then exhibit rank (N+1)-1 = N, and its assembled
  matrix must equal the block form ``[[Y, -t], [-t^T, sum(t)]]`` built
  from the original matrix and its shunt vector ``t``.  Grounding the
  virtual node of that matrix gives back Y, so this route is the direct
  one plus the block-form match, not an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg_core import TINY, _finite, numerical_rank
from .network_model import (
    DEFAULT_ZERO_TOL,
    Branch,
    Network,
    _component_labels,
    shunt_totals,
    validate,
)
from .ybus import AdmittanceMatrix, assemble, shunt_vector

#: Entrywise relative tolerance for the augmented-vs-block-form match.
EQ_BLOCK_RTOL = 1e-12

#: Relative threshold deciding "no shunts" when only a matrix is available.
MATRIX_SHUNTLESS_RTOL = 1e-10


@dataclass(frozen=True)
class RankVerdict:
    """Predicted vs measured rank for one network or matrix.

    ``singular_gap`` is sigma_rank / sigma_(rank+1), the separation between
    the accepted and the first rejected singular value (inf at full rank).
    For the virtual-ground method, ``block_form_max_rel_error`` records how
    closely the augmented assembly matched the expected block form, and
    ``agrees`` additionally requires that match.
    """

    predicted_rank: int
    measured_rank: int
    agrees: bool
    shunt_count: int
    method: str  # "direct" or "virtual_ground"
    singular_gap: float
    block_form_max_rel_error: float | None = None


def _checked_shunt_count(net: Network) -> int:
    """Count of nonzero shunt totals, once the theorem's preconditions hold."""
    report = validate(net)
    if not report.connected:
        raise PreconditionError("rank prediction requires a connected branch graph")
    if not report.hypothesis1_ok:
        raise PreconditionError(
            "rank prediction requires nonzero branch admittances; " + "; ".join(report.messages)
        )
    return int(np.count_nonzero(np.abs(shunt_totals(net)) > DEFAULT_ZERO_TOL))


def predict_rank(net: Network) -> int:
    """Rank the theory predicts: N-1 with all shunt totals zero, else N.

    Raises :class:`PreconditionError` when the network is disconnected or
    has a (near-)zero branch admittance; the prediction does not apply
    there.
    """
    n = net.node_count
    return n if _checked_shunt_count(net) else n - 1


def _gap(singular_values: np.ndarray, rank: int) -> float:
    if rank == 0 or rank >= singular_values.size:
        return float("inf")
    lower = float(singular_values[rank])
    if lower == 0.0:
        return float("inf")
    return float(singular_values[rank - 1]) / lower


def verify_rank(net: Network) -> RankVerdict:
    """Measure the rank of the assembled matrix and compare with the prediction."""
    return _rank_verdicts(net, ("direct",))[0]


def augment_virtual_ground(net: Network) -> Network:
    """Rebuild the network over a virtual ground, absorbing all shunts.

    Node N of the result is the old ground; every shunt (n, y) with
    |y| > ``DEFAULT_ZERO_TOL`` becomes a branch (n, N, y).  The result has no
    shunts, and it is connected whenever the input is.  Requires at least
    one nonzero shunt entry (the construction is vacuous otherwise).
    """
    ground = net.node_count
    new_branches = list(net.branches)
    for s in net.shunts:
        if abs(s.admittance) > DEFAULT_ZERO_TOL:
            new_branches.append(Branch(s.node, ground, s.admittance))
    if len(new_branches) == len(net.branches):
        raise PreconditionError(
            "virtual-ground augmentation needs at least one nonzero shunt"
        )
    return Network(node_count=ground + 1, branches=tuple(new_branches), shunts=())


def block_form_matrix(matrix: np.ndarray, shunts: np.ndarray) -> np.ndarray:
    """The (N+1)-square block matrix ``[[Y, -t], [-t^T, sum(t)]]``.

    This is the matrix the virtual-ground construction must reproduce,
    with ``t`` the per-node shunt vector and the corner the total shunt
    admittance.
    """
    n = matrix.shape[0]
    out = np.zeros((n + 1, n + 1), dtype=np.complex128)
    out[:n, :n] = matrix
    out[:n, n] = -shunts
    out[n, :n] = -shunts
    out[n, n] = shunts.sum()
    return out


def verify_rank_via_augmentation(net: Network) -> RankVerdict:
    """Verify full rank through the virtual-ground construction.

    Asserts numerically that the augmented shuntless network has rank
    (N+1)-1 = N, and that its assembled matrix equals the expected block
    form entrywise to ``EQ_BLOCK_RTOL`` relative.  ``agrees`` requires
    both.
    """
    return _rank_verdicts(net, ("virtual_ground",))[0]


def _pattern_connected(matrix: np.ndarray) -> bool:
    """Connectivity of the graph read off the nonzero off-diagonal pattern."""
    rows, cols = np.nonzero(np.triu(matrix, 1))
    return not any(_component_labels(matrix.shape[0], zip(rows.tolist(), cols.tolist())))


def _block_form_error(augmented: np.ndarray, y: np.ndarray, shunts: np.ndarray) -> float:
    """Largest entrywise distance of ``augmented`` from the block form of ``y``, relative."""
    expected = block_form_matrix(y, shunts)
    scale = max(float(np.abs(expected).max()), TINY)
    return float(np.abs(augmented - expected).max()) / scale


def _norm(a: np.ndarray, e: int) -> float:
    """2-norm of complex ``a`` taken of ``a / 2**e``; 2**e near max|a| keeps squares in range."""
    return float(np.ldexp(np.linalg.norm(np.ldexp(a.view(np.float64), -e).view(np.complex128)), e))


def rank_verdicts(source: Network | AdmittanceMatrix, methods) -> list[RankVerdict]:
    """One rank verdict per method for a network or a bare matrix, in order.

    ``methods`` holds "direct" and/or "virtual_ground", as measured by
    :func:`verify_rank`, :func:`verify_rank_via_augmentation` and
    :func:`verify_matrix_rank`.  The input is prepared once for all of
    them (preconditions checked, Y stamped, shunts counted), and every
    precondition is checked before any rank is measured.
    """
    return _rank_verdicts(source, methods)


def _rank_verdicts(source, methods, assembled=None) -> list[RankVerdict]:
    # ``assembled`` is the network's stamped Y when the caller has it already
    for method in methods:
        if method not in ("direct", "virtual_ground"):
            raise PreconditionError(f"unknown rank verification method: {method}")
    net = source if isinstance(source, Network) else None
    if net is None:  # shunts inferred from row sums, connectivity from the zero pattern
        if source.size == 0:
            raise PreconditionError("rank verification needs a matrix with at least one node")
        if not _pattern_connected(source.matrix):
            raise PreconditionError(
                "matrix off-diagonal pattern is disconnected; rank prediction does not apply"
            )
        e = int(np.frexp(np.abs(source.matrix.view(np.float64)).max())[1])
        with np.errstate(over="ignore"):  # an overflowing norm is refused
            t = shunt_vector(source)
            fro = _finite(max(_norm(source.matrix, e), TINY), "the Frobenius norm of the matrix")
            shuntless = _norm(t, e) <= MATRIX_SHUNTLESS_RTOL * fro
        per_node_tol = MATRIX_SHUNTLESS_RTOL * fro / max(np.sqrt(source.size), 1.0)
        shunt_count = 0 if shuntless else int(np.count_nonzero(np.abs(t) > per_node_tol))
    else:
        shunt_count = _checked_shunt_count(net)
        shuntless = shunt_count == 0
    if shuntless and "virtual_ground" in methods:
        raise PreconditionError("virtual-ground verification needs at least one nonzero shunt")

    if net is None:
        y = source.matrix
    else:
        y = assemble(net).matrix if assembled is None else assembled
    n = y.shape[0]
    verdicts = []
    for method in methods:
        predicted, measured, block_err = n, y, None
        if method == "direct":
            predicted = n - 1 if shuntless else n
        elif net is None:
            measured = block_form_matrix(y, t)
        else:
            # the augmented network is assembled on its own and checked against the block form
            measured = assemble(augment_virtual_ground(net)).matrix
            block_err = _block_form_error(measured, y, shunt_totals(net))
        rr = numerical_rank(measured)
        verdicts.append(RankVerdict(
            predicted_rank=predicted,
            measured_rank=rr.rank,
            agrees=rr.rank == predicted and (block_err is None or block_err <= EQ_BLOCK_RTOL),
            shunt_count=shunt_count,
            method=method,
            singular_gap=_gap(rr.singular_values, rr.rank),
            block_form_max_rel_error=block_err,
        ))
    return verdicts


def verify_matrix_rank(y: AdmittanceMatrix, method: str = "direct") -> RankVerdict:
    """Rank verdict for a bare matrix with no network provenance.

    The shunt vector is recovered from row sums; the matrix counts as
    shuntless when its norm stays below ``MATRIX_SHUNTLESS_RTOL`` times the
    Frobenius norm.  Connectivity is inferred from the off-diagonal zero
    pattern (exactly cancelling parallel branches would be invisible
    here).  ``method`` is "direct" or "virtual_ground".
    """
    return _rank_verdicts(y, (method,))[0]
