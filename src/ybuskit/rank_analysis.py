"""Rank verification for nodal admittance matrices.

For a connected network with nonzero branch admittances, the nodal matrix
has rank N-1 when every node's shunt total is zero and full rank N as soon
as one shunt is present.  Two independent verification routes are
implemented:

* ``verify_rank`` measures the numerical rank of the assembled matrix
  directly.
* ``verify_rank_via_augmentation`` rebuilds the shunted network over a
  virtual ground node, turning every shunt into a branch.  The augmented
  shuntless network must then exhibit rank (N+1)-1 = N, and its assembled
  matrix must equal the block form ``[[Y, -t], [-t^T, sum(t)]]`` built
  from the original matrix and its shunt vector ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg_core import TINY, numerical_rank
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


def _check_theorem_preconditions(net: Network, zero_tol: float) -> None:
    report = validate(net, zero_tol=zero_tol)
    if not report.connected:
        raise PreconditionError("rank prediction requires a connected branch graph")
    if not report.hypothesis1_ok:
        raise PreconditionError(
            "rank prediction requires nonzero branch admittances; " + "; ".join(report.messages)
        )


def _checked_shunt_count(net: Network, zero_tol: float) -> int:
    """Count of nonzero shunt totals, once the theorem's preconditions hold."""
    _check_theorem_preconditions(net, zero_tol)
    return int(np.count_nonzero(np.abs(shunt_totals(net)) > zero_tol))


def predict_rank(net: Network, zero_tol: float = DEFAULT_ZERO_TOL) -> int:
    """Rank the theory predicts: N-1 with all shunt totals zero, else N.

    Raises :class:`PreconditionError` when the network is disconnected or
    has a (near-)zero branch admittance; the prediction does not apply
    there.
    """
    n = net.node_count
    return n if _checked_shunt_count(net, zero_tol) else n - 1


def _gap(singular_values: np.ndarray, rank: int) -> float:
    if rank == 0 or rank >= singular_values.size:
        return float("inf")
    lower = float(singular_values[rank])
    if lower == 0.0:
        return float("inf")
    return float(singular_values[rank - 1]) / lower


def _verdict(
    matrix: np.ndarray,
    predicted: int,
    shunt_count: int,
    method: str,
    block_err: float | None = None,
) -> RankVerdict:
    """Measure the rank of ``matrix`` and judge it against ``predicted``.

    With a block-form error (virtual-ground route on a network), agreement
    also requires that error to stay within ``EQ_BLOCK_RTOL``.
    """
    rr = numerical_rank(matrix)
    agrees = rr.rank == predicted
    if block_err is not None:
        agrees = agrees and block_err <= EQ_BLOCK_RTOL
    return RankVerdict(
        predicted_rank=predicted,
        measured_rank=rr.rank,
        agrees=agrees,
        shunt_count=shunt_count,
        method=method,
        singular_gap=_gap(rr.singular_values, rr.rank),
        block_form_max_rel_error=block_err,
    )


def verify_rank(net: Network, zero_tol: float = DEFAULT_ZERO_TOL) -> RankVerdict:
    """Measure the rank of the assembled matrix and compare with the prediction."""
    shunt_count = _checked_shunt_count(net, zero_tol)
    n = net.node_count
    y = assemble(net, zero_tol=zero_tol).matrix
    return _verdict(y, n if shunt_count else n - 1, shunt_count, "direct")


def augment_virtual_ground(net: Network, zero_tol: float = DEFAULT_ZERO_TOL) -> Network:
    """Rebuild the network over a virtual ground, absorbing all shunts.

    Node N of the result is the old ground; every shunt (n, y) with
    |y| > ``zero_tol`` becomes a branch (n, N, y).  The result has no
    shunts, and it is connected whenever the input is.  Requires at least
    one nonzero shunt entry (the construction is vacuous otherwise).
    """
    ground = net.node_count
    new_branches = list(net.branches)
    converted = 0
    for s in net.shunts:
        if abs(s.admittance) > zero_tol:
            new_branches.append(Branch(s.node, ground, s.admittance))
            converted += 1
    if converted == 0:
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


def verify_rank_via_augmentation(
    net: Network, zero_tol: float = DEFAULT_ZERO_TOL
) -> RankVerdict:
    """Verify full rank through the virtual-ground construction.

    Asserts numerically that the augmented shuntless network has rank
    (N+1)-1 = N, and that its assembled matrix equals the expected block
    form entrywise to ``EQ_BLOCK_RTOL`` relative.  ``agrees`` requires
    both.
    """
    shunt_count = _checked_shunt_count(net, zero_tol)
    if shunt_count == 0:
        raise PreconditionError(
            "virtual-ground verification needs at least one nonzero shunt"
        )

    augmented = augment_virtual_ground(net, zero_tol)
    y_aug = assemble(augmented, zero_tol=zero_tol)
    expected = block_form_matrix(assemble(net, zero_tol=zero_tol).matrix, shunt_totals(net))
    scale = max(float(np.abs(expected).max()), TINY)
    block_err = float(np.abs(y_aug.matrix - expected).max()) / scale
    return _verdict(y_aug.matrix, net.node_count, shunt_count, "virtual_ground", block_err)


def _pattern_connected(matrix: np.ndarray) -> bool:
    """Connectivity of the graph read off the nonzero off-diagonal pattern."""
    rows, cols = np.nonzero(np.triu(matrix, 1))
    return not any(_component_labels(matrix.shape[0], zip(rows.tolist(), cols.tolist())))


def verify_matrix_rank(y: AdmittanceMatrix, method: str = "direct") -> RankVerdict:
    """Rank verdict for a bare matrix with no network provenance.

    The shunt vector is recovered from row sums; the matrix counts as
    shuntless when its norm stays below ``MATRIX_SHUNTLESS_RTOL`` times the
    Frobenius norm.  Connectivity is inferred from the off-diagonal zero
    pattern (exactly cancelling parallel branches would be invisible
    here).  ``method`` is "direct" or "virtual_ground".
    """
    if method not in ("direct", "virtual_ground"):
        raise PreconditionError(f"unknown rank verification method: {method}")
    if y.size == 0:
        raise PreconditionError("rank verification needs a matrix with at least one node")
    if not _pattern_connected(y.matrix):
        raise PreconditionError(
            "matrix off-diagonal pattern is disconnected; rank prediction does not apply"
        )
    n = y.size
    t = shunt_vector(y)
    fro = max(float(np.linalg.norm(y.matrix)), TINY)
    shuntless = float(np.linalg.norm(t)) <= MATRIX_SHUNTLESS_RTOL * fro
    per_node_tol = MATRIX_SHUNTLESS_RTOL * fro / max(np.sqrt(n), 1.0)
    shunt_count = 0 if shuntless else int(np.count_nonzero(np.abs(t) > per_node_tol))
    predicted = n - 1 if shuntless else n

    if method == "direct":
        return _verdict(y.matrix, predicted, shunt_count, "direct")
    if shuntless:
        raise PreconditionError(
            "virtual-ground verification needs at least one nonzero shunt"
        )
    return _verdict(block_form_matrix(y.matrix, t), n, shunt_count, "virtual_ground")
