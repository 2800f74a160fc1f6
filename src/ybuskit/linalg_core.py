"""Complex matrix kernel: solves, numerical rank, conditioning.

Backed by LAPACK through NumPy/SciPy, and by SuperLU for SciPy sparse
matrices.  SciPy is imported inside the LU routines only, so importing the
package (and every command that never factors a matrix) loads NumPy
alone.  No other module sees LU factors: every solve goes through the
certificate of :func:`full_rank_certificate`, which knows no size rule
and factors the form it is handed (``AdmittanceMatrix._block`` decides
which blocks of Y are sparse); it tells a SciPy sparse matrix by its
``nnz`` attribute, without importing ``scipy.sparse``.  The transpose used
throughout the package is the plain one (no conjugation): nodal
admittance matrices are complex symmetric, not Hermitian, and every
identity here is stated for the plain transpose.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, SingularMatrixError, StructuralError

EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)

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


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself when read-only (the package marks what it builds), else a read-only copy."""
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def _dense(a) -> np.ndarray:
    """A block, dense or a SciPy sparse matrix of any dtype, as a dense complex128 array."""
    return np.asarray(a.toarray(), dtype=np.complex128) if hasattr(a, "nnz") else a


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
    try:
        sigma = np.linalg.svd(a, compute_uv=False)  # empty for an empty matrix
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
    """Partial-pivoted LU ``(lu, piv)`` of a nonempty square matrix :func:`as_cmatrix` checked.

    Raises :class:`SingularMatrixError` at the first exactly zero pivot,
    which LAPACK's ``getrf`` names (1-based) in its ``info``.
    """
    import scipy.linalg

    lu, piv, info = scipy.linalg.get_lapack_funcs("getrf", (a,))(a)
    if info > 0:
        raise _zero_pivot(info - 1)
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
        """A^{-1} B for the certified matrix A and a finite vector or matrix B.

        B is array-like or SciPy sparse.  A vector goes straight to the
        factors.  A matrix is solved for its nonzero columns only, so every
        other column of the result is exactly +0.0, where a whole LAPACK
        solve leaves zeros of either sign.
        """
        if self._solve is None:
            raise _zero_pivot(self.failed_pivot)
        sparse = hasattr(b, "nnz")
        b = b.tocsr() if sparse else np.asarray(b, dtype=np.complex128)
        if b.ndim != 2:
            return self._solve(b)  # a vector, or a shape the factors refuse
        cols = np.unique(b.indices[b.data != 0]) if sparse else np.flatnonzero(b.any(axis=0))
        if cols.size == b.shape[1]:  # no zero column, as in hybrid's identity: no gathered copy
            return self._solve(_dense(b))
        out = np.zeros(b.shape, dtype=np.complex128)
        out[:, cols] = self._solve(_dense(b[:, cols]))
        return out


def _checked_rhs(b, n: int) -> np.ndarray:
    """``b`` as a complex array, once it is a finite vector or matrix of ``n`` rows."""
    arr = np.asarray(b, dtype=np.complex128)
    if arr.ndim not in (1, 2) or arr.shape[0] != n or not np.isfinite(arr).all():
        raise StructuralError(f"a right-hand side must be a finite vector or matrix of "
                              f"{n} rows, got shape {arr.shape}")
    return arr


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


def _sparse_certificate(a) -> RankCertificate | None:
    """Certificate from SuperLU factors, or None at an exactly zero pivot."""
    import scipy.sparse.linalg

    n = a.shape[0]
    csc = scipy.sparse.csc_matrix(a, dtype=np.complex128)
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
    """Certify that a square matrix, array-like or SciPy sparse, has full rank.

    Factorizes once and accepts when the 1-norm condition estimate stays
    below ``1 / (n * eps)``; an exactly zero pivot fails immediately.  The
    certificate solves with the factors.

    The matrix is factored in the form it is handed.  A SciPy sparse
    matrix is factored by SuperLU, its condition estimated by Hager-Higham
    from the sparse solves, and densely after all at an exactly zero
    pivot, so that the failure names the pivot.  Any other input is
    factored by LAPACK, which names the pivot and estimates the condition
    with ``gecon``.
    """
    sparse = hasattr(m, "nnz")
    a = m if sparse else as_cmatrix(m)
    if sparse:  # its stored entries must be finite, as a dense input's are
        as_cmatrix(a.tocoo().data[np.newaxis])
    if a.shape[0] != a.shape[1]:
        raise StructuralError(f"rank certification needs a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0:  # ahead of SuperLU, which takes 0x0 where the estimate cannot
        return RankCertificate(True, 1.0, None, lambda b: _checked_rhs(b, 0).copy())
    if sparse:
        cert = _sparse_certificate(a)
        if cert is not None:
            return cert
        a = _dense(a)
    try:
        lu, piv = lu_factor_checked(a)
    except SingularMatrixError as exc:
        return RankCertificate(False, float("inf"), exc.pivot_index)

    import scipy.linalg

    getrs, gecon = scipy.linalg.get_lapack_funcs(("getrs", "gecon"), (lu,))
    with np.errstate(over="ignore"):  # an overflowing norm is refused next
        norm_a = _finite(float(np.linalg.norm(a, 1)), "the 1-norm of the matrix")
    rcond, info = gecon(lu, norm_a, norm="1")
    if info != 0:
        raise NumericalError(f"condition estimation failed with LAPACK info={info}")
    cond = float("inf") if rcond == 0.0 else 1.0 / float(rcond)
    return RankCertificate(cond < 1.0 / (n * EPS), cond, None,
                           lambda b: getrs(lu, piv, _checked_rhs(b, n))[0])
