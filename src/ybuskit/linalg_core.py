"""Complex matrix kernel: solves, numerical rank, conditioning.

Backed by LAPACK through NumPy/SciPy, and by SuperLU for large sparse
blocks.  SciPy is imported inside the LU routines only, so importing the
package (and every command that never factors a matrix) loads NumPy
alone; ``scipy.sparse.linalg`` loads only when a block takes the sparse
branch.  No other module sees LU factors: every solve goes through the
certificate of :func:`full_rank_certificate`.  Matrices are 2-D
``complex128`` arrays.  The transpose used throughout the package is the
plain one (no conjugation): nodal admittance matrices are complex
symmetric, not Hermitian, and every identity here is stated for the plain
transpose.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, SingularMatrixError, StructuralError

EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)

#: Blocks with fewer entries than SPARSE_MIN_ORDER**2, or with more than
#: SPARSE_MAX_ROW_NNZ nonzeros per row on average, are factored densely.
#: Both were measured on ``perfbench`` grid networks (README, *Sparse
#: blocks*): the two certificates of a grid Y break even near order 350,
#: and SuperLU's fill loses to LAPACK from about 10 nonzeros per row.
SPARSE_MIN_ORDER = 300
SPARSE_MAX_ROW_NNZ = 8
#: SuperLU keeps a diagonal pivot that is at least this fraction of the
#: largest entry in its column, which preserves the symmetric
#: ``MMD_AT_PLUS_A`` ordering and bounds the growth per step by 1 + 1/0.1.
SPARSE_PIVOT_THRESHOLD = 0.1


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN and Inf entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise StructuralError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise StructuralError("matrix entries must be finite (no NaN/Inf)")
    return arr


def _finite(a, what: str):
    """``a`` itself, once every entry is finite; an overflow raises :class:`NumericalError`."""
    if not np.isfinite(a).all():
        raise NumericalError(f"{what} overflows the floating-point range")
    return a


@dataclass(frozen=True, eq=False)
class RankResult:
    """Numerical rank plus the singular values it was decided from."""

    rank: int
    singular_values: np.ndarray
    tolerance_used: float


def numerical_rank(m) -> RankResult:
    """Rank as the count of singular values above ``max(rows, cols) * eps * sigma_max``.

    Singular values are returned for diagnostics.  An SVD that does not
    converge, or whose singular values overflow, raises
    :class:`NumericalError`.
    """
    a = as_cmatrix(m)
    if a.size == 0:
        sigma = np.zeros(0)
    else:
        try:
            sigma = np.linalg.svd(a, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"SVD did not converge on a {a.shape[0]}x{a.shape[1]} matrix: {exc}"
            ) from exc
        _finite(sigma, f"a singular value of the {a.shape[0]}x{a.shape[1]} matrix")
    # eps is a power of two, so this is n * sigma_max * eps without its overflow
    tol = max(a.shape, default=0) * EPS * (float(sigma[0]) if sigma.size else 0.0)
    rank = int(np.count_nonzero(sigma > tol))
    sigma = sigma.copy()
    sigma.flags.writeable = False
    return RankResult(rank=rank, singular_values=sigma, tolerance_used=tol)


def _zero_pivot(k: int) -> SingularMatrixError:
    return SingularMatrixError(
        f"matrix is exactly singular: zero pivot at index {k}", pivot_index=k
    )


def lu_factor_checked(a: np.ndarray):
    """Partial-pivoted LU factors of a square matrix :func:`as_cmatrix` has checked.

    Raises :class:`SingularMatrixError` (carrying the pivot index) when the
    factorization produces an exactly zero pivot.
    """
    import scipy.linalg

    with warnings.catch_warnings():
        # scipy warns instead of raising on an exactly singular factorization
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)  # as_cmatrix checked that
    zeros = np.flatnonzero(np.diag(lu) == 0)
    if zeros.size:
        raise _zero_pivot(int(zeros[0]))
    return lu, piv


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of a full-rank certification of a square matrix.

    The certificate keeps the LU factors it was read from (out of its repr
    and comparisons) and solves with them; an exactly singular matrix
    keeps none, and solving then raises :class:`SingularMatrixError`.
    """

    full_rank: bool
    condition_estimate: float
    failed_pivot: int | None
    _solve: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def solve(self, b) -> np.ndarray:
        """A^{-1} B for the certified matrix A and a finite vector or matrix B."""
        if self._solve is None:
            raise _zero_pivot(self.failed_pivot)
        return self._solve(b)


def _checked_rhs(b, n: int) -> np.ndarray:
    """``b`` as a complex array, once it is a finite vector or matrix of ``n`` rows."""
    arr = np.asarray(b, dtype=np.complex128)
    if arr.ndim not in (1, 2) or arr.shape[0] != n or not np.isfinite(arr).all():
        raise StructuralError(f"a right-hand side must be a finite vector or matrix of "
                              f"{n} rows, got shape {arr.shape}")
    return arr


def _prefers_sparse(a: np.ndarray) -> bool:
    """Whether a block is worth handling as a sparse matrix.

    It must hold at least SPARSE_MIN_ORDER**2 entries and at most
    SPARSE_MAX_ROW_NNZ nonzeros per row (per column, if it has more
    columns) on average.
    """
    rows, cols = a.shape
    return (rows * cols >= SPARSE_MIN_ORDER ** 2
            and np.count_nonzero(a) <= SPARSE_MAX_ROW_NNZ * max(rows, cols))


def _inverse_norm1(solve, n: int) -> float:
    """Hager-Higham lower estimate of ||A^{-1}||_1 from solves with A and A^H.

    The iteration of LAPACK's ``zlacn2`` (Higham, ACM TOMS 14(4), 1988),
    keeping the largest ||A^{-1} x||_1 seen.  It starts from the constant
    vector and reads no random state.
    """
    x = np.full(n, 1.0 / n, dtype=np.complex128)
    y = solve(x, "N")
    est = float(np.abs(y).sum())
    j = -1
    for _ in range(4):
        mag = np.abs(y)
        nonzero = mag > TINY
        sign = np.where(nonzero, y / np.where(nonzero, mag, 1.0), 1.0)
        zmag = np.abs(solve(sign, "H"))
        j_new = int(np.argmax(zmag))
        if j >= 0 and zmag[j] == zmag[j_new]:
            break  # the gradient no longer points elsewhere
        j = j_new
        x = np.zeros(n, dtype=np.complex128)
        x[j] = 1.0
        y = solve(x, "N")
        step = float(np.abs(y).sum())
        if not step > est:
            break
        est = step
    # the alternating-sign vector catches matrices the iteration misjudges
    alt = (1.0 + np.arange(n) / max(n - 1, 1)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return max(est, 2.0 * float(np.abs(solve(alt.astype(np.complex128), "N")).sum()) / (3 * n))


def _sparse_certificate(a: np.ndarray) -> RankCertificate | None:
    """Certificate from SuperLU factors, or None at an exactly zero pivot."""
    import scipy.sparse
    import scipy.sparse.linalg

    n = a.shape[0]
    csc = scipy.sparse.csc_matrix(a)
    try:
        lu = scipy.sparse.linalg.splu(
            csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=SPARSE_PIVOT_THRESHOLD,
            options={"SymmetricMode": True})
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return None
    with np.errstate(all="ignore"):  # a near-singular block overflows: cond is inf
        norm_a = _finite(float(abs(csc).sum(axis=0).max()), "the 1-norm of the matrix")
        cond = norm_a * _inverse_norm1(lu.solve, n)
    if not np.isfinite(cond):
        cond = float("inf")
    return RankCertificate(cond < 1.0 / (n * EPS), cond, None,
                           lambda b: lu.solve(_checked_rhs(b, n)))


def full_rank_certificate(m) -> RankCertificate:
    """Certify that a square matrix has full rank.

    Factorizes once and accepts when the 1-norm condition estimate stays
    below ``1 / (n * eps)``; an exactly zero pivot fails immediately.  The
    certificate solves with the factors.

    A block of order at least ``SPARSE_MIN_ORDER`` with at most
    ``SPARSE_MAX_ROW_NNZ`` nonzeros per row is factored by SuperLU, and
    its condition is estimated by Hager-Higham from the sparse solves.
    Every other block, and a sparse one whose SuperLU factorization meets
    an exactly zero pivot, is factored densely by LAPACK, which names the
    pivot and estimates the condition with ``gecon``.
    """
    a = as_cmatrix(m)
    if a.shape[0] != a.shape[1]:
        raise StructuralError(f"rank certification needs a square matrix, got {a.shape}")
    if _prefers_sparse(a):
        cert = _sparse_certificate(a)
        if cert is not None:
            return cert
    n = a.shape[0]
    try:
        factors = lu_factor_checked(a)
    except SingularMatrixError as exc:
        return RankCertificate(False, float("inf"), exc.pivot_index)

    import scipy.linalg

    def solve(b):
        return scipy.linalg.lu_solve(factors, _checked_rhs(b, n), check_finite=False)

    if n == 0:
        return RankCertificate(True, 1.0, None, solve)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (factors[0],))
    with np.errstate(over="ignore"):  # an overflowing norm is refused next
        norm_a = _finite(float(np.linalg.norm(a, 1)), "the 1-norm of the matrix")
    rcond, info = gecon(factors[0], norm_a, norm="1")
    if info != 0:
        raise NumericalError(f"condition estimation failed with LAPACK info={info}")
    cond = float("inf") if rcond == 0.0 else 1.0 / float(rcond)
    return RankCertificate(cond < 1.0 / (n * EPS), cond, None, solve)
