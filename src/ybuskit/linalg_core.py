"""Dense complex matrix kernel: solves, numerical rank, conditioning.

Backed by LAPACK through NumPy/SciPy.  SciPy is imported inside the LU
routines only, so importing the package (and every command that never
factors a matrix) loads NumPy alone.  Matrices are 2-D ``complex128``
arrays.  The transpose used throughout the package is the plain one (no
conjugation): nodal admittance matrices are complex symmetric, not
Hermitian, and every identity here is stated for the plain transpose.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SingularMatrixError, StructuralError

EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN and Inf entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise StructuralError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise StructuralError("matrix entries must be finite (no NaN/Inf)")
    return arr


@dataclass(frozen=True, eq=False)
class RankResult:
    """Numerical rank plus the singular values it was decided from."""

    rank: int
    singular_values: np.ndarray
    tolerance_used: float


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solution of a linear system with post-hoc quality measures.

    ``relative_residual`` is ||A X - B||_F / max(||B||_F, tiny) computed by
    multiplying the solution back.  ``condition_estimate`` is the 1-norm
    condition number estimated from the LU factors.
    """

    solution: np.ndarray
    relative_residual: float
    condition_estimate: float


def numerical_rank(m, tol: float | None = None) -> RankResult:
    """Rank as the count of singular values above a tolerance.

    ``tol=None`` selects the conservative default
    ``max(rows, cols) * sigma_max * eps``; pass a nonnegative float to fix
    the threshold instead.  Singular values are returned for diagnostics.
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
    if tol is None:
        sigma_max = float(sigma[0]) if sigma.size else 0.0
        tol = max(a.shape, default=0) * sigma_max * EPS
    elif tol < 0:
        raise StructuralError("rank tolerance must be nonnegative")
    rank = int(np.count_nonzero(sigma > tol))
    sigma = sigma.copy()
    sigma.flags.writeable = False
    return RankResult(rank=rank, singular_values=sigma, tolerance_used=float(tol))


def lu_factor_checked(a: np.ndarray):
    """Partial-pivoted LU factors of a square matrix.

    Raises :class:`SingularMatrixError` (carrying the pivot index) when the
    factorization produces an exactly zero pivot.
    """
    import scipy.linalg

    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise StructuralError(f"LU needs a square matrix, got {a.shape}")
    with warnings.catch_warnings():
        # scipy warns instead of raising on an exactly singular factorization
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(a)
    zeros = np.flatnonzero(np.diag(lu) == 0)
    if zeros.size:
        k = int(zeros[0])
        raise SingularMatrixError(
            f"matrix is exactly singular: zero pivot at index {k}", pivot_index=k
        )
    return lu, piv


def condition_from_factor(a: np.ndarray, lu: np.ndarray) -> float:
    """1-norm condition estimate from an existing LU factorization."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    import scipy.linalg

    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    anorm = float(np.linalg.norm(a, 1))
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0:
        raise NumericalError(f"condition estimation failed with LAPACK info={info}")
    return float("inf") if rcond == 0.0 else 1.0 / float(rcond)


def lu_solve(a, b) -> SolveResult:
    """Solve A X = B via partial-pivoted LU.

    ``b`` may be a vector or a matrix with matching row count; the solution
    keeps its shape.  Works for general complex matrices, including the
    complex-symmetric (non-Hermitian) ones this package produces.
    """
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise StructuralError(f"lu_solve needs a square matrix, got {a.shape}")
    b_arr = np.asarray(b, dtype=np.complex128)
    if b_arr.ndim not in (1, 2):
        raise StructuralError(f"right-hand side must be 1-D or 2-D, got ndim={b_arr.ndim}")
    if b_arr.size and not np.isfinite(b_arr).all():
        raise StructuralError("right-hand side entries must be finite")
    if b_arr.shape[0] != a.shape[0]:
        raise StructuralError(
            f"right-hand side rows {b_arr.shape[0]} do not match matrix size {a.shape[0]}"
        )

    import scipy.linalg

    lu, piv = lu_factor_checked(a)
    x = scipy.linalg.lu_solve((lu, piv), b_arr)
    residual = float(np.linalg.norm(a @ x - b_arr))
    scale = max(float(np.linalg.norm(b_arr)), TINY)
    return SolveResult(
        solution=x,
        relative_residual=residual / scale,
        condition_estimate=condition_from_factor(a, lu),
    )


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of a full-rank certification of a square matrix."""

    full_rank: bool
    condition_estimate: float
    failed_pivot: int | None


def full_rank_certificate(m) -> RankCertificate:
    """Certify that a square matrix has full rank.

    Factorizes once and accepts when the 1-norm condition estimate stays
    below ``1 / (n * eps)``; an exactly zero pivot fails immediately.
    """
    a = as_cmatrix(m)
    if a.shape[0] != a.shape[1]:
        raise StructuralError(f"rank certification needs a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        return RankCertificate(True, 1.0, None)

    try:
        lu, _ = lu_factor_checked(a)
    except SingularMatrixError as exc:
        return RankCertificate(False, float("inf"), exc.pivot_index)
    cond = condition_from_factor(a, lu)
    return RankCertificate(cond < 1.0 / (n * EPS), cond, None)
