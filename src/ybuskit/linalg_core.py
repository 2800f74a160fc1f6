"""Complex matrix kernel: solves, numerical rank, conditioning.

Backed by LAPACK through NumPy/SciPy, and by SuperLU for SciPy sparse
matrices.  SciPy is imported inside the LU routines only, so importing the
package (and every command that factors no block by LU) loads NumPy
alone.  The one Hermitian-part kernel, :func:`_hermitian_part_certifies`,
reads only stored entries, as Y's compressed rows hold them; on a large
sparse pattern it factors the spanning forest of the largest
conductances, plus a diagonal below G_s, before G_s itself
(:func:`_cholesky_succeeds`).  Every solve
goes through a :class:`RankCertificate`: NumPy's, for a dense block the
kernel proves invertible, or the LU of :func:`full_rank_certificate`,
which knows no size rule and factors the form it is handed
(``AdmittanceMatrix._block`` decides which blocks of Y are sparse); it
tells a SciPy sparse matrix by its ``nnz`` attribute, without importing
``scipy.sparse``.  The transpose used throughout the package is the plain
one (no conjugation): nodal admittance matrices are complex symmetric,
not Hermitian, and every identity here is stated for the plain transpose.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .errors import NumericalError, SingularMatrixError, StructuralError
from .network_model import _component_labels

EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)

#: Rows or columns per stripe wherever a kernel works a block at a time: the
#: symmetry check, the Schur complement and its symmetrization, and the
#: solve of a matrix, which never hold more than this many rows or columns
#: of temporaries.
_STRIPE = 64
#: SuperLU keeps a diagonal pivot that is at least this fraction of the
#: largest entry in its column, which preserves the symmetric
#: ``MMD_AT_PLUS_A`` ordering and bounds the growth per step by 1 + 1/0.1.
SPARSE_PIVOT_THRESHOLD = 0.1
#: The Hermitian-part certificate eliminates nodes by least degree while
#: more than _DENSE_ORDER nodes remain and they hold fewer than
#: _ELIMINATION_DENSITY m^2 entries, and factors the rest densely
#: (:func:`_eliminated_succeeds`).  Below about 128 nodes the rounds cost
#: more than the dense factorization they shrink, measured on blocks of
#: ``perfbench`` grids.
_DENSE_ORDER = 128
_ELIMINATION_DENSITY = 0.04


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


def _stripes(n: int) -> list[slice]:
    """0..n in stripes of ``_STRIPE``, a remainder of one joining the stripe before.

    BLAS takes a lone row or column as a vector (``gemv``, ``trsv``), which
    rounds differently from the same row or column in a wider product or
    solve.  Stripes that start at multiples of ``_STRIPE`` and are never
    one wide give, with BLAS on one thread, the bits of the whole product
    or solve, by LAPACK or by SuperLU.  For n = 0 there is one empty stripe.
    """
    cuts = list(range(0, max(n, 1), _STRIPE)) + [n]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


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
    return RankResult(rank=rank, singular_values=_frozen(sigma), tolerance_used=tol)


def _mirror_at(n: int, rows, cols) -> np.ndarray:
    """Where Y[c, r] is stored, for each stored (r, c) of an n x n Y in row-major order; -1 if not.

    The mirror keys are sorted first, so the binary searches of the
    row-major keys run in order.
    """
    keys, flip = rows * n + cols, cols * n + rows
    order = np.argsort(flip)
    at = np.empty_like(order)
    at[order] = np.minimum(np.searchsorted(keys, flip[order]), keys.size - 1)
    return np.where(keys[at] == flip, at, -1)


def _mirror(n: int, rows, cols, data) -> np.ndarray:
    """Y[c, r] at each stored (r, c) of an n x n Y in row-major order; 0 if not stored."""
    at = _mirror_at(n, rows, cols)
    return np.where(at >= 0, data[at], 0)


def _hermitian_part_certifies(n: int, rows, cols, data, grounded: bool = False) -> bool:
    """Whether a Cholesky factorization proves that an n x n Y has numerical rank n.

    Y holds ``data`` at ``(rows, cols)``, each position once, in row-major
    order.  sigma_min(Y) >= lambda_min(G_s) - ||K||_2 for G_s = Re(Y + Y^T)
    / 2 and K = Im(Y - Y^T) / 2.  Factoring G_s - tau I proves it positive
    definite up to a backward error below n (n + 1) (eps / 2) ||G_s - tau
    I||_2 (Higham, Accuracy and Stability, Thm 10.3).  tau is twice that,
    which covers rounding in G_s and the SVD's own error too, plus the
    SVD's rank tolerance n eps sigma_max, with sigma_max <= sqrt(||Y||_1
    ||Y||_inf), plus the largest sum of |K| over the stored entries of a
    row and of the same column, which is at least ||K||_1 >= ||K||_2 and
    at most 2 ||K||_1.  A tau below the normal range is refused: the bound
    assumes no underflow.

    ``grounded`` proves numerical rank n - 1 instead.  Interlacing gives
    sigma_(n-1)(Y) >= sigma_min(Y_g) for Y_g, Y without node 0's row and
    column, so the same factorization of the grounded G_s, with tau of the
    whole Y (the tolerance belongs to the n x n SVD), bounds sigma_(n-1)
    from below.  From above, sigma_n(Y) <= ||Y 1||_2 / sqrt(n), and each
    row sum as summed here is within (entries in the row + 1) eps sum_j
    |Y_ij| of the exact one.  That bound must stay under half the rank
    tolerance, n eps times the largest stored column 2-norm <= sigma_max;
    the other half is left to the SVD's own error.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the factorization
        a = np.abs(data)
        row_abs = np.bincount(rows, a, n)
        s = np.sqrt(np.bincount(cols, a, n).max()) * np.sqrt(row_abs.max())
        if grounded:  # norms taken of x / max(x), whose squares cannot overflow
            sigma_low = a.max() * np.sqrt(np.bincount(cols, (a / a.max()) ** 2, n).max())
            b = (np.hypot(np.bincount(rows, data.real, n), np.bincount(rows, data.imag, n))
                 + (np.bincount(rows, minlength=n) + 1) * EPS * row_abs)
            if not b.max() * np.linalg.norm(b / b.max()) <= n * np.sqrt(n) * EPS * sigma_low / 2:
                return False
        at = _mirror_at(n, rows, cols)
        mirror = np.where(at >= 0, data[at], 0)
        k = np.abs((data - mirror).imag) / 2  # |K| at the stored positions
        tau = n * (n + 2) * EPS * s + (np.bincount(rows, k, n) + np.bincount(cols, k, n)).max()
        if not tau >= TINY:
            return False
        g2 = (data + mirror).real  # 2 G_s at the stored positions, exactly symmetric
        lone = at < 0
        if lone.any():  # the mirror of an entry not stored holds the same entry of 2 G_s
            rows, cols = np.concatenate((rows, cols[lone])), np.concatenate((cols, rows[lone]))
            g2 = np.concatenate((g2, g2[lone]))
        if grounded:  # the factor keeps G_s without its first row and column
            kept = (rows > 0) & (cols > 0)
            rows, cols, g2 = rows[kept] - 1, cols[kept] - 1, g2[kept]
        return _cholesky_succeeds(n - int(grounded), rows, cols, g2, 2 * tau)  # doubling is exact


def _dense_cholesky_succeeds(m: int, rows, cols, g, shift: float) -> bool:
    """Whether ``numpy.linalg.cholesky`` factors the m x m G - shift I, G holding ``g`` at (rows, cols)."""
    a = np.zeros((m, m))
    a[rows, cols] = g
    a.ravel()[::m + 1] -= shift
    try:  # NaN can pass the factorization and fill the factor; an overflowing sum refuses too
        return isfinite(np.linalg.cholesky(a).sum())
    except np.linalg.LinAlgError:
        return False


def _factors_densely(alive: int, entries: int) -> bool:
    """Whether ``alive`` nodes holding ``entries`` stored entries are factored densely, as they stand."""
    return alive <= _DENSE_ORDER or entries >= _ELIMINATION_DENSITY * alive * alive


def _max_spanning_forest(m: int, u, v, w) -> np.ndarray:
    """Indices of the edges of a maximum-weight spanning forest of m nodes; edge k joins u[k] and v[k].

    Borůvka's rounds, vectorized.  The edges are ranked once by a stable
    sort of -w, so no two share a rank and ties go to the lower index.  In
    each round every component takes its best-ranked edge to another
    component (``np.minimum.at``), the taken edges join the forest, and
    :func:`network_model._component_labels` merges the components they
    join.  The edges taken in a round close no cycle: each component on
    one would have taken one of its two edges on it, all the same way
    round, each ranked better than the one before it, which cannot close.
    So the forest is the maximum one for that ranking, and its edge count
    is m less the number of components.  Each round at least halves the
    components that still have an edge out: O(log m) rounds of O(|edges|
    + m).
    """
    edge = np.argsort(-w, kind="stable")  # by rank
    u, v = u[edge], v[edge]
    label, count, taken = np.arange(m), m, []
    while True:
        lu, lv = label[u], label[v]
        cross = lu != lv
        if not cross.any():
            return np.concatenate(taken) if taken else np.zeros(0, dtype=np.intp)
        edge, u, v, lu, lv = edge[cross], u[cross], v[cross], lu[cross], lv[cross]
        best = np.full(count, edge.size)
        rank = np.arange(edge.size)
        np.minimum.at(best, lu, rank)
        np.minimum.at(best, lv, rank)
        best = np.unique(best[best < edge.size])  # an edge both of its ends took, once
        taken.append(edge[best])
        merged = _component_labels(count, lu[best], lv[best])
        label, count = merged[label], int(merged.max()) + 1


def _forest_minorant(m: int, rows, cols, g, d):
    """Stored entries (rows, cols, values) of an M <= G that is a spanning forest plus a diagonal.

    G is real symmetric of order m, with the off-diagonal entries ``g`` at
    (rows, cols), each position once, and the diagonal ``d``.  Its
    off-diagonal entries of the largest |g_ij| that form a spanning forest
    of its pattern (:func:`_max_spanning_forest`) are M's, and M's
    diagonal is m_ii = d_i - sum of |g_ij| over the k_i entries of row i
    outside the forest.  Each pair (i, j) outside it leaves in G - M the
    2 x 2 piece [[|g_ij|, g_ij], [g_ij, |g_ij|]], which is positive
    semidefinite, so G - M >= 0: the support-graph bound of Boman and
    Hendrickson (Support theory for preconditioning, SIMAX 25(3), 2003).

    M's entries outside the diagonal are G's own; its diagonal is rounded.
    With u = eps / 2 and T_i = |d_i| + sum |g_ij|, the computed sum of the
    k_i terms is within gamma_(k_i - 1) T_i of the exact one (recursive
    summation in any order, Higham, Accuracy and Stability, §4.2), and
    subtracting it from d_i adds u T_i, so the computed d_i - sum is within
    about (k_i + 1) u T_i of the exact one.  Subtracting the margin (k_i +
    3) eps T_i = 2 (k_i + 3) u T_i, itself rounded once more, keeps each
    computed diagonal entry of M below the exact m_ii, with about a factor
    2 to spare while k_i u is small.  So M <= G holds for the
    floating-point numbers handed on.  None where one of M's diagonal
    entries is not positive: such an M is not positive definite.
    """
    upper = rows < cols  # G is symmetric: each pair once
    u, v, a = rows[upper], cols[upper], g[upper]
    tree = np.zeros(a.size, dtype=bool)
    tree[_max_spanning_forest(m, u, v, np.abs(a))] = True
    out, ends = np.abs(a[~tree]), (u[~tree], v[~tree])
    left_out = np.bincount(ends[0], out, m) + np.bincount(ends[1], out, m)
    k = np.bincount(ends[0], minlength=m) + np.bincount(ends[1], minlength=m)
    diagonal = d - left_out
    diagonal -= (k + 3) * EPS * (np.abs(d) + left_out)
    if not (diagonal > 0).all():
        return None
    u, v, a, nodes = u[tree], v[tree], a[tree], np.arange(m)
    return np.concatenate((u, v, nodes)), np.concatenate((v, u, nodes)), np.concatenate((a, a, diagonal))


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the factorization
def _cholesky_succeeds(m: int, rows, cols, g, shift: float) -> bool:
    """Whether a Cholesky factorization proves the m x m G - shift I positive definite.

    The real symmetric G holds ``g`` at (rows, cols), each position once,
    and its pattern is symmetric.  Up to ``_DENSE_ORDER`` nodes, or from
    ``_ELIMINATION_DENSITY`` m^2 entries on, G - shift I is factored
    densely as it stands.  Otherwise a diagonal entry of G - shift I that
    is not positive refuses at once, since elimination only lowers a
    diagonal entry, and two stages follow.  Call G' the G - shift I they
    factor, each diagonal entry rounded once, fl(g_ii - shift).

    The first stage runs where G has more off-diagonal pairs than nodes,
    so that its cycles would leave a dense core.  It factors, by
    :func:`_eliminated_succeeds`, the A <= G' of :func:`_forest_minorant`:
    the spanning forest of G's largest |g_ij| plus a diagonal.  A forest
    eliminates with no fill, so the dense core left is at most
    ``_DENSE_ORDER`` nodes.  Where A's factorization succeeds, Higham's Thm
    10.3 (Accuracy and Stability) gives R^T R = A + dA >= 0 with ||dA||_2
    <= m (m + 1) u ||A||_2 (u = eps / 2), as for any factor of order m.  So
    lambda_min(A) >= -||dA||_2.  While m (m + 1) u < 1, ||dA||_2 is below
    ||A||_2, so ||A||_2 is A's largest eigenvalue, not the magnitude of
    its smallest; and lambda_max(A) <= lambda_max(G') <= ||G'||_2, because
    A <= G'.  Hence lambda_min(G') >= lambda_min(A) >= -m (m + 1) u
    ||G'||_2, the bound that a factor of G' itself proves.  So the shift
    the caller chose for G carries over: the tau of
    :func:`_hermitian_part_certifies` assumes ||G_s||_2 <= s, and
    lambda_max(A) is below that too.  Where the stage refuses or does not
    run, G' itself goes to :func:`_eliminated_succeeds`.
    """
    if _factors_densely(m, rows.size):
        return _dense_cholesky_succeeds(m, rows, cols, g, shift)
    on = rows == cols
    d = np.zeros(m)
    d[rows[on]] = g[on]
    if not (d > shift).all():
        return False
    off = ~on
    if np.count_nonzero(off) > 2 * m:  # more pairs than nodes
        minorant = _forest_minorant(m, rows[off], cols[off], g[off], d - shift)
        if minorant is not None and _eliminated_succeeds(m, *minorant, 0.0):
            return True
    return _eliminated_succeeds(m, rows, cols, g, shift)


def _eliminated_succeeds(m: int, rows, cols, g, shift: float) -> bool:
    """Whether a Cholesky factorization of P (G - shift I) P^T succeeds, for a permutation P.

    G is as in :func:`_cholesky_succeeds`.  It is held as sorted row-major
    keys over its pattern and the whole diagonal, without off-diagonal
    zeros, and rounds of elimination run until the remaining nodes pass
    either bound of :func:`_factors_densely`.  A round eliminates, at once,
    every remaining node whose degree is the least in its neighbourhood,
    ties broken by the lower index: an independent set of minimum-degree
    nodes, the multiple elimination of George and Liu (SIAM Review 31(1),
    1989), taken by local minima.  Each pivot p_k, a diagonal entry, must
    be finite and positive; l_ik = a_ik / sqrt(p_k), and every pair (i, j)
    of the pivot's neighbours gets -l_ik l_jk.  One ``np.bincount`` adds
    each surviving entry and then its updates, in pivot order, so (i, j)
    and (j, i) get the same terms in the same order and G stays exactly
    symmetric.  The remaining nodes are then factored densely.

    These are the operations of Cholesky on P (G - shift I) P^T, with P
    the elimination order: each entry of the factor is the same quotient,
    and each entry of a Schur complement the same sum a_ij - sum_k l_ik l_jk,
    taken in another order.  Higham's Thm 10.3 (Accuracy and Stability)
    bounds the backward error of Cholesky in any order of those sums, and
    its bound depends only on m and on ||G - shift I||_2, which P leaves
    unchanged, as it leaves the eigenvalues.  So success proves G - shift
    I positive definite under the shift the dense factorization needs.
    """
    no_diagonal = np.ones(m, dtype=bool)
    no_diagonal[rows[rows == cols]] = False
    keys = np.concatenate((rows * m + cols, np.flatnonzero(no_diagonal) * (m + 1)))
    g = np.concatenate((g, np.zeros(keys.size - g.size)))
    order = np.argsort(keys)
    keys, g = keys[order], g[order]
    r, c = np.divmod(keys, m)
    g = np.where(r == c, g - shift, g)
    keep = (r == c) | (g != 0)
    keys, r, c, g = keys[keep], r[keep], c[keep], g[keep]
    alive = m
    while not _factors_densely(alive, keys.size):
        on = np.flatnonzero(r == c)  # one diagonal entry per remaining node
        degree = np.bincount(r, minlength=m)  # neighbours plus one
        priority = degree * m + np.arange(m)  # (degree, index) as one number
        chosen = np.zeros(m, dtype=bool)
        chosen[r[on]] = True
        chosen[r[priority[c] < priority[r]]] = False  # a neighbour comes first
        on = on[chosen[r[on]]]  # the pivots, in node order
        pivots = g[on]
        if not ((pivots > 0) & (pivots < np.inf)).all():
            return False
        below = chosen[r] & (r != c)  # the pivot rows' neighbours, pivot by pivot
        neighbours = c[below]
        count = degree[r[on]] - 1
        l = g[below] / np.repeat(np.sqrt(pivots), count)
        if not np.isfinite(l).all():
            return False
        # the pairs (i, j) of every pivot's neighbours, pivot by pivot, i-major
        pairs = count * count
        pivot = np.repeat(np.arange(count.size), pairs)
        k = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        start = (np.cumsum(count) - count)[pivot]
        i, j = start + k // count[pivot], start + k % count[pivot]
        stay = ~(chosen[r] | chosen[c])
        alive -= pivots.size
        keys, where = np.unique(np.concatenate((keys[stay], neighbours[i] * m + neighbours[j])),
                                return_inverse=True)
        g = np.bincount(where, np.concatenate((g[stay], -(l[i] * l[j]))), keys.size)
        r, c = np.divmod(keys, m)
    live = r[r == c]
    position = np.zeros(m, dtype=np.intp)
    position[live] = np.arange(live.size)
    return _dense_cholesky_succeeds(live.size, position[r], position[c], g, 0.0)


def _numpy_certificate(a: np.ndarray) -> RankCertificate:
    """A dense block's certificate once the kernel proves it invertible: NumPy solves, no LU."""
    n = a.shape[0]

    def solve(c):
        try:  # LAPACK refuses only an exactly zero pivot, which the kernel excludes
            return np.linalg.solve(a, _checked_rhs(c, n))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"solving with a certified block failed: {exc}") from exc

    return RankCertificate(True, float("nan"), None,
                           lambda b: _by_columns(solve, b, lambda k: [slice(0, k)]))


def _by_columns(solve, b, groups=_stripes) -> np.ndarray:
    """A^{-1} B by ``solve``: a vector whole, a matrix (dense or CSR) by its nonzero columns.

    ``groups`` cuts their count into the slices solved at a time.  Every
    other column of the one C-contiguous result is exactly +0.0, where a
    whole LAPACK solve leaves zeros of either sign.  The result is
    allocated after the first solve, which has freed its dense right-hand
    side by then, and is that solve's own when it took every column.
    """
    if b.ndim != 2:
        return solve(b)  # a vector, or a shape the solver refuses
    cols = np.unique(b.indices[b.data != 0]) if hasattr(b, "nnz") else np.flatnonzero(b.any(axis=0))
    cuts = groups(cols.size)
    if len(cuts) == 1 and cols.size == b.shape[1]:
        return np.ascontiguousarray(solve(_dense(b)))
    out = None
    for v in cuts:  # with no nonzero column, one empty group checks B's shape
        x = solve(_dense(b[:, cols[v]]))
        out = np.zeros(b.shape, dtype=np.complex128) if out is None else out
        out[:, cols[v]] = x
        del x  # before the next group is solved
    return out


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

    The certificate keeps what it solves with, LU factors or the matrix (out
    of its repr and comparisons); an exactly singular matrix keeps none,
    and solving then raises :class:`SingularMatrixError`.
    """

    full_rank: bool
    condition_estimate: float
    failed_pivot: int | None
    _solve: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def solve(self, b) -> np.ndarray:
        """A^{-1} B for the certified matrix A and a finite vector or matrix B.

        B is array-like or SciPy sparse, and a matrix is solved for its
        nonzero columns only (:func:`_by_columns`): LU factors solve them a
        stripe at a time (:func:`_stripes`), and NumPy all at once, since
        it factors the matrix again on every call.
        """
        if self._solve is None:
            raise _zero_pivot(self.failed_pivot)
        return self._solve(b.tocsr() if hasattr(b, "nnz") else np.asarray(b, dtype=np.complex128))


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
                           lambda b: _by_columns(lambda c: lu.solve(_checked_rhs(c, n)), b))


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
        return RankCertificate(True, 1.0, None, lambda b: _checked_rhs(_dense(b), 0).copy())
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
    return RankCertificate(cond < 1.0 / (n * EPS), cond, None, lambda b: _by_columns(
        lambda c: getrs(lu, piv, _checked_rhs(c, n))[0], b))
