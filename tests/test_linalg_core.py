"""Dense complex kernel: coercion, rank, solves, certificates."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from ybuskit import (
    PHASE_POLICIES,
    Branch,
    GenSpec,
    Network,
    NotReducibleError,
    NumericalError,
    Shunt,
    SingularMatrixError,
    StructuralError,
    full_rank_certificate,
    generate,
    numerical_rank,
)
from ybuskit import linalg_core, network_model, reduction, ybus
from ybuskit.linalg_core import as_cmatrix
from ybuskit.ybus import assemble
from oracles import (
    dense_hermitian_part_certifies, exact_assemble, exact_rank, grid_network,
    random_rational_network)


class TestBasicOps:
    def test_non_finite_entries_rejected(self):
        with pytest.raises(StructuralError):
            as_cmatrix([[1.0, float("nan")]])
        with pytest.raises(StructuralError):
            as_cmatrix([[float("inf"), 0.0]])

    def test_non_two_dimensional_rejected(self):
        with pytest.raises(StructuralError):
            as_cmatrix([1.0, 2.0])


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)).rank == 3

    def test_zero_matrix(self):
        r = numerical_rank(np.zeros((2, 2)))
        assert r.rank == 0

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrix_has_rank_zero(self, shape):
        r = numerical_rank(np.zeros(shape))
        assert (r.rank, r.singular_values.shape, r.tolerance_used) == (0, (0,), 0.0)

    def test_rank_counts_values_above_tolerance(self):
        r = numerical_rank(np.diag([1.0, 1e-3, 1e-20]))
        assert r.rank == int(np.count_nonzero(r.singular_values > r.tolerance_used))
        assert r.rank == 2

    def test_tolerance_stays_finite_near_the_float_limit(self):
        # n * sigma_max would overflow before the factor eps brought it down
        r = numerical_rank(np.diag([1e308, 1e308]))
        assert r.rank == 2 and r.tolerance_used == 2 * np.finfo(float).eps * 1e308

    def test_overflowing_singular_values_raise(self):
        # finite entries whose largest singular value, 3.4e308, does not fit
        with pytest.raises(NumericalError, match="singular value"):
            numerical_rank([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]])

    def test_path_matrix_rank_matches_exact_elimination(self):
        net = Network(4, branches=tuple(Branch(i, i + 1, 1 + 0j) for i in range(3)))
        y = assemble(net)
        assert numerical_rank(y.matrix).rank == 3
        assert exact_rank(exact_assemble(net)) == 3

    def test_random_rational_matrices_match_exact_rank(self):
        rng = np.random.default_rng(42)
        for k in range(20):
            n = int(rng.integers(2, 8))
            nodes, branches, shunts = random_rational_network(
                rng, n, extra_edges=int(rng.integers(0, 3)),
                shunt_count=int(rng.integers(0, n + 1)))
            net = Network(
                nodes,
                tuple(Branch(i, j, y) for i, j, y in branches),
                tuple(Shunt(v, y) for v, y in shunts),
            )
            got = numerical_rank(assemble(net).matrix).rank
            want = exact_rank(exact_assemble(net))
            assert got == want, f"instance {k}: numerical {got} vs exact {want}"


def _relative_residual(a, x, b) -> float:
    return float(np.linalg.norm(a @ x - b) / np.linalg.norm(b))


class TestLuSolve:
    """The solve of the certificate, with the LU factors it was read from."""

    def test_scalar_case(self):
        x = full_rank_certificate([[2.0]]).solve([[4.0]])
        np.testing.assert_array_equal(x, [[2.0 + 0j]])

    def test_identity_returns_rhs(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        np.testing.assert_array_equal(full_rank_certificate(np.eye(4)).solve(b), b)

    def test_random_complex_systems_meet_residual_contract(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            cert = full_rank_certificate(a)
            assert _relative_residual(a, cert.solve(b), b) <= 1e-12
            assert cert.full_rank and np.isfinite(cert.condition_estimate)

    def test_complex_symmetric_non_hermitian_instance(self):
        # symmetric under plain transpose, NOT equal to its conjugate transpose
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = a + a.T
        assert np.allclose(a, a.T)
        assert not np.allclose(a, a.conj().T)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert _relative_residual(a, full_rank_certificate(a).solve(b), b) <= 1e-12

    def test_exactly_singular_matrix_names_the_pivot(self):
        cert = full_rank_certificate(np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError) as err:
            cert.solve(np.ones(2))
        assert err.value.pivot_index == cert.failed_pivot == 0

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError, match=r"of 3 rows, got shape \(4,\)"):
            full_rank_certificate(np.eye(3)).solve(np.ones(4))
        with pytest.raises(StructuralError):
            full_rank_certificate(np.ones((2, 3)))

    @pytest.mark.parametrize("n", [3, 400])  # below and at the order of the sparse rule
    def test_bad_right_hand_sides_refused_on_both_branches(self, n):
        a = 4 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        assert ybus._prefers_sparse(a.shape, np.count_nonzero(a)) == (n == 400)
        nan = np.ones(n)
        nan[-1] = np.nan
        nan_column = np.zeros((n, 3))  # a matrix's zero columns are not solved; this one is
        nan_column[1, 1] = np.nan
        for cert in (full_rank_certificate(a), full_rank_certificate(scipy.sparse.csr_matrix(a))):
            for b in (np.ones(n + 1), np.ones((n, 2, 2)), np.ones(()), nan,
                      np.full((n, 2), np.inf), np.zeros((n + 1, 2)), nan_column,
                      scipy.sparse.csr_matrix(nan_column), scipy.sparse.eye(n + 1, 2)):
                with pytest.raises(StructuralError):
                    cert.solve(b)
            x = cert.solve(np.ones((n, 2)))
            assert _relative_residual(a, x, np.ones((n, 2))) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64])
    def test_sparse_input_below_the_sparse_order_solves_in_complex128(self, dtype):
        # factored by SuperLU at any order; a real or single-precision input
        # must not narrow the complex right-hand side or the solution
        a = scipy.sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]], dtype=dtype))
        b = np.array([1j, 1.0 - 1e-9j])
        x = full_rank_certificate(a).solve(b)
        assert x.dtype == np.complex128
        np.testing.assert_allclose(x, np.linalg.solve(a.toarray().astype(complex), b),
                                   rtol=1e-15)
        np.testing.assert_allclose(full_rank_certificate(scipy.sparse.csr_matrix(
            np.eye(2))).solve([1j, 0]), [1j, 0])

    def test_vector_rhs_keeps_shape(self):
        assert full_rank_certificate(np.eye(3)).solve(np.ones(3)).shape == (3,)

    @pytest.mark.parametrize("n", [3, 400])  # a dense and a sparse certificate
    def test_sparse_rhs_solves_its_nonzero_columns_as_the_dense_one(self, n):
        a = 4 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        cert = full_rank_certificate(a)
        b = np.zeros((n, 5), dtype=complex)
        b[0, 1], b[-1, 1], b[n // 2, 3] = 1 - 2j, 3j, -0.5
        x = cert.solve(scipy.sparse.csr_matrix(b))
        assert x.dtype == np.complex128 and x.tobytes() == cert.solve(b).tobytes()
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-15)
        zero = x[:, [0, 2, 4]]
        assert not zero.any() and not np.signbit([zero.real, zero.imag]).any()

    @pytest.mark.parametrize("n", [65, 299])
    @pytest.mark.parametrize("width", [2, 63, 64, 65, 129, 300])
    @pytest.mark.parametrize("zero_columns", [False, True])
    def test_wide_dense_solve_is_one_lapack_solve_in_c_order(self, n, width, zero_columns):
        # solved a stripe of columns at a time, with the bits of one whole getrs
        rng = np.random.default_rng(n * width)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
        if zero_columns:
            b[:, ::3] = 0
        nonzero = np.flatnonzero(b.any(axis=0))
        want = np.zeros_like(b)
        want[:, nonzero] = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b[:, nonzero])
        x = full_rank_certificate(a).solve(b)
        assert x.flags.c_contiguous and x.tobytes() == want.tobytes()

    def test_list_of_lists_rhs_solves(self):
        x = full_rank_certificate([[2.0, 0.0], [1.0, 4.0]]).solve([[2, 0], [5, 0]])
        np.testing.assert_array_equal(x, [[1, 0], [1, 0]])
        assert not np.signbit([x.real, x.imag]).any()


def _rank_r_real(rng, m, n, r):
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


def _well_conditioned(rng, n, complex_=False):
    """Invertible matrix with condition at most 1e6 by construction."""
    def gauss(shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if complex_ else g

    q1, _ = np.linalg.qr(gauss((n, n)))
    q2, _ = np.linalg.qr(gauss((n, n)))
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=n))
    return q1 @ np.diag(s) @ q2


class TestRankUnderProducts:
    def test_gram_product_preserves_rank_of_real_matrices(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(2, 10))
            r = int(rng.integers(1, min(m, n) + 1))
            mat = _rank_r_real(rng, m, n, r)
            assert numerical_rank(mat).rank == r
            assert numerical_rank(mat.T @ mat).rank == r

    def test_gram_product_can_lose_rank_for_complex_matrices(self):
        # the reason the real restriction above exists
        m = np.array([[1.0], [1j]])
        assert numerical_rank(m).rank == 1
        assert numerical_rank(m.T @ m).rank == 0

    def test_invertible_factors_preserve_rank(self):
        rng = np.random.default_rng(202)
        for k in range(100):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, min(m, n) + 1))
            use_complex = k % 2 == 1
            mat = _rank_r_real(rng, m, n, r).astype(complex)
            if use_complex:
                mat = mat + 1j * _rank_r_real(rng, m, n, r)
            rank0 = numerical_rank(mat).rank
            left = _well_conditioned(rng, m, complex_=use_complex)
            right = _well_conditioned(rng, n, complex_=use_complex)
            assert numerical_rank(left @ mat).rank == rank0
            assert numerical_rank(mat @ right).rank == rank0


class TestFullRankCertificate:
    def test_invertible_matrix_passes_both_routes(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        lu = full_rank_certificate(a)
        assert lu.full_rank and numerical_rank(a).rank == 5
        assert np.isfinite(lu.condition_estimate)

    def test_exactly_singular_matrix_fails_with_pivot(self):
        cert = full_rank_certificate(np.zeros((3, 3)))
        assert not cert.full_rank
        assert cert.failed_pivot is not None

    def test_numerically_singular_matrix_fails(self):
        a = np.diag([1.0, 1.0, 1e-300])
        assert not full_rank_certificate(a).full_rank
        assert numerical_rank(a).rank < 3

    def test_rectangular_input_rejected(self):
        with pytest.raises(StructuralError):
            full_rank_certificate(np.ones((2, 3)))

    def test_later_zero_pivot_is_the_first_zero_on_the_diagonal_of_u(self):
        a = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SciPy warns on the exactly singular factor
            lu, _ = scipy.linalg.lu_factor(a)
        oracle = int(np.flatnonzero(np.diag(lu) == 0)[0])
        cert = full_rank_certificate(a)
        assert (cert.full_rank, cert.failed_pivot) == (False, oracle) == (False, 1)

    @pytest.mark.parametrize("a", [np.zeros((1, 1)), np.zeros((3, 3)),
                                   [[1, 1, 0], [1, 1, 0], [0, 0, 1]], np.diag([1.0, 1.0, 1e-300])])
    def test_singular_certificate_lets_no_warning_escape(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not full_rank_certificate(a).full_rank

    @pytest.mark.parametrize("n", [2, 400])  # below and above SPARSE_MIN_ORDER
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sparse_input_is_refused_as_dense_input_is(self, n, bad):
        a = scipy.sparse.lil_matrix(scipy.sparse.eye(n))
        a[0, n - 1] = bad
        for m in (a.tocsr(), a.toarray()):
            with pytest.raises(StructuralError, match="must be finite"):
                full_rank_certificate(m)

    def test_empty_certificate_solves_empty_right_hand_sides(self):
        for empty in (np.zeros((0, 0)), scipy.sparse.csr_matrix((0, 0))):  # LAPACK, SuperLU
            cert = full_rank_certificate(empty)
            assert (cert.full_rank, cert.condition_estimate, cert.failed_pivot) == (True, 1.0, None)
            for shape in ((0,), (0, 3)):
                x = cert.solve(np.zeros(shape))
                assert (x.shape, x.dtype) == (shape, np.complex128)


def _hermitian_part_blocks():
    """Dense blocks for the Hermitian-part certificate, verdicts of either sign among them.

    Stamped networks of 1-60 nodes and principal blocks of them, under all
    three phase policies; the same with an antisymmetric imaginary part
    that a loaded matrix may carry (up to ``SYMMETRY_RTOL``); both scaled
    by 2^-500 and 2^500; zero blocks; and Hermitian blocks with G_s = I.
    """
    rng = np.random.default_rng(24)
    for policy in ("re_positive", "arbitrary", "pure_imaginary"):
        for seed in range(12):
            n = 1 if seed == 0 else int(rng.integers(2, 61))
            m = assemble(generate(GenSpec(node_range=(n, n), edge_density=0.2,
                                          shunt_probability=0.2 * (seed % 3), seed=seed,
                                          phase_policy=policy))).matrix
            p = rng.standard_normal((n, n))
            p = (p - p.T) / np.abs(p - p.T).max(initial=1.0)  # antisymmetric, max |p| <= 1
            loaded = m + 0.5j * rng.uniform() * ybus.SYMMETRY_RTOL * np.abs(m).max() * p
            ybus.AdmittanceMatrix(loaded, range(n))  # a document may hold this matrix
            nodes = np.sort(rng.choice(n, max(1, n // 2), replace=False))
            for a in (m, loaded, loaded[np.ix_(nodes, nodes)]):
                yield from (a, a * 2.0 ** -500, a * 2.0 ** 500)
    for n in (1, 2, 5):
        yield np.zeros((n, n), dtype=np.complex128)
    for c in (0.3, 0.45, 0.5, 0.6, 0.9, 1.0):
        yield np.array([[1, c * 1j], [-c * 1j, 1]])


class TestHermitianPartKernel:
    """Dense blocks and compressed rows get one verdict from the one kernel."""

    def test_a_dense_block_gets_the_verdict_of_its_compressed_rows(self):
        # Kron and hybrid certify a block by the entries they gather from
        # Y's compressed rows; a dense document's block must get the verdict
        # of the same block's SciPy compressed rows
        verdicts, routed = [], 0
        for a in _hermitian_part_blocks():
            n = a.shape[0]
            csr = scipy.sparse.csr_matrix(a)  # row-major, without the zeros
            rows = np.repeat(np.arange(n), np.diff(csr.indptr))
            certified = linalg_core._hermitian_part_certifies(n, rows, csr.indices, csr.data)
            verdicts.append(certified)
            try:
                y = ybus.AdmittanceMatrix(a, range(n))
            except StructuralError:  # a Hermitian block is no admittance matrix
                continue
            try:
                cert = reduction._certified(y, np.arange(n), "block", NotReducibleError)
            except NotReducibleError:  # refused, and singular to the LU as well
                cert = None
            assert (cert is not None and np.isnan(cert.condition_estimate)) == certified
            routed += 1
        assert 0 < sum(verdicts) < len(verdicts) and routed > 0.9 * len(verdicts)
        # K = 0.6 i counts in its row and its column: tau exceeds lambda_min(G_s) = 1
        assert not linalg_core._hermitian_part_certifies(
            2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.array([1, 0.6j, -0.6j, 1]))

    def test_mirror_reads_zero_where_it_is_not_stored(self):
        rows, cols = np.array([0, 0, 1, 2]), np.array([1, 2, 0, 2])
        data = np.array([2, 5, 3, 7], dtype=np.complex128)
        assert linalg_core._mirror(3, rows, cols, data).tolist() == [3, 0, 2, 7]
        # the last mirror key lies past every stored key
        assert linalg_core._mirror(3, rows[1:3], cols[1:3], data[1:3]).tolist() == [0, 0]
        m = np.random.default_rng(5).standard_normal((9, 9))
        m[np.arange(81).reshape(9, 9) % 4 != 0] = 0
        r, c = np.nonzero(m)
        assert (linalg_core._mirror(9, r, c, m[r, c]) == m.T[r, c]).all()

    def test_mirror_of_no_entries_is_empty(self):
        for n in (0, 3):
            empty = np.zeros(0, dtype=np.intp)
            assert linalg_core._mirror(n, empty, empty, np.zeros(0, dtype=np.complex128)).size == 0


def _stored(y):
    """The stored entries of a matrix, as the Hermitian-part kernel takes them."""
    return y.size, y._rows(), y.indices, y.data


class TestEliminationKernel:
    """Elimination by least degree against the dense factorization it replaced."""

    @pytest.mark.parametrize("n", [300, 700, 2000])
    def test_verdicts_equal_the_dense_factorization(self, n):
        """Seeded networks of about three branches per node, shunted and grounded shuntless."""
        density = 2 * n / (n * (n - 1) // 2 - (n - 1))
        nets = [generate(GenSpec(node_range=(n, n), edge_density=density, shunt_probability=0.05,
                                 min_shunts=1, phase_policy=policy, seed=n))
                for policy in PHASE_POLICIES]
        nets.append(grid_network(n, np.random.default_rng(n)))
        outcomes = []
        for net in nets:
            for shunts, grounded in ((net.shunts, False), ((), True)):
                args = _stored(assemble(Network(n, net.branches, shunts)))
                assert args[1].size < linalg_core._ELIMINATION_DENSITY * n * n  # eliminated
                certified = linalg_core._hermitian_part_certifies(*args, grounded=grounded)
                assert certified == dense_hermitian_part_certifies(*args, grounded=grounded)
                outcomes.append(certified)
        # re_positive and the grid certify, shunted and grounded; G_s = 0 never does
        assert outcomes[0:2] == outcomes[6:8] == [True, True]
        assert outcomes[4:6] == [False, False]

    def test_dense_blocks_keep_the_dense_verdict(self):
        for a in _hermitian_part_blocks():
            csr = scipy.sparse.csr_matrix(a)
            rows = np.repeat(np.arange(a.shape[0]), np.diff(csr.indptr))
            args = (a.shape[0], rows, csr.indices.astype(np.intp), csr.data)
            assert (linalg_core._hermitian_part_certifies(*args)
                    == dense_hermitian_part_certifies(*args))

    @staticmethod
    def _path(m):
        """A path's Laplacian plus 3 I in row-major order: positive definite, and sparse."""
        i = np.arange(m)
        rows = np.concatenate((i, i[:-1], i[1:]))
        cols = np.concatenate((i, i[1:], i[:-1]))
        g = np.concatenate((np.full(m, 5.0), -np.ones(2 * (m - 1))))
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], g[order]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_pivot_that_is_not_finite_is_refused(self, bad):
        m = 4 * linalg_core._DENSE_ORDER
        rows, cols, g = self._path(m)
        assert rows.size < linalg_core._ELIMINATION_DENSITY * m * m
        assert linalg_core._cholesky_succeeds(m, rows, cols, g, 1.0)
        for node in (0, m // 2, m - 1):  # ends are pivots of the first round, the middle later
            g_bad = g.copy()
            g_bad[(rows == node) & (cols == node)] = bad
            assert not linalg_core._cholesky_succeeds(m, rows, cols, g_bad, 1.0)

    def test_a_factor_entry_that_is_not_finite_is_refused(self):
        """A pivot row's entry that overflows: l_ik is infinite although the pivot is finite."""
        m = 4 * linalg_core._DENSE_ORDER
        rows, cols, g = self._path(m)
        g_bad = g.copy()
        g_bad[((rows == 0) & (cols == 1)) | ((rows == 1) & (cols == 0))] = 1e300
        g_bad[(rows == 0) & (cols == 0)] = 1e-300
        assert not linalg_core._cholesky_succeeds(m, rows, cols, g_bad, 0.0)

    def test_an_asymmetric_pattern_is_symmetrized(self):
        """Entries whose mirror is not stored, as a loaded matrix may hold, with or without a diagonal."""
        n = 300
        m = assemble(grid_network(n, np.random.default_rng(8))).matrix.copy()
        lone = np.flatnonzero(m[0, 1:])[:3] + 1
        m[lone, 0] = 0  # row 0 keeps entries whose mirrors are gone
        verdicts = []
        # with no diagonal G_s is not positive definite; with a dominant one it is, by more
        # than the sums of |K| that the lone entries add to tau
        for diagonal in (0.0, 1.0):
            m[np.arange(n), np.arange(n)] = diagonal * (4 * np.abs(m).sum(axis=1) + 1e3)
            rows, cols = np.nonzero(m)
            args = (n, rows, cols, m[rows, cols])
            assert (linalg_core._mirror_at(n, rows, cols) < 0).sum() == lone.size
            assert rows.size < linalg_core._ELIMINATION_DENSITY * n * n
            verdicts.append(linalg_core._hermitian_part_certifies(*args))
            assert verdicts[-1] == dense_hermitian_part_certifies(*args)
        assert verdicts == [False, True]


def _recorded_stages(monkeypatch) -> list:
    """Record ("forest", verdict) or ("direct", verdict) for each elimination the kernel runs."""
    stages, minorants = [], []
    forest, eliminate = linalg_core._forest_minorant, linalg_core._eliminated_succeeds

    def minorant(*args):
        minorants.append(forest(*args))
        return minorants[-1]

    def eliminated(m, rows, cols, g, shift):
        ok = eliminate(m, rows, cols, g, shift)
        forest_call = bool(minorants) and minorants[-1] is not None and rows is minorants[-1][0]
        stages.append(("forest" if forest_call else "direct", ok))
        return ok

    monkeypatch.setattr(linalg_core, "_forest_minorant", minorant)
    monkeypatch.setattr(linalg_core, "_eliminated_succeeds", eliminated)
    return stages


def _shift(n, rows, cols, data) -> float:
    """tau of the Hermitian-part kernel for an exactly symmetric Y held at (rows, cols)."""
    a = np.abs(data)
    s = np.sqrt(np.bincount(cols, a, n).max()) * np.sqrt(np.bincount(rows, a, n).max())
    return n * (n + 2) * np.finfo(float).eps * s


class TestForestStage:
    """The spanning-forest minorant M <= G ahead of elimination, against dense and exact oracles."""

    @staticmethod
    def _graph(rng, m, pairs, ties):
        """Random edges (u < v, no repeats), with integer weights in 1..ties so that many tie."""
        u = rng.integers(0, m, 3 * pairs)
        v = rng.integers(0, m, 3 * pairs)
        u, v = np.minimum(u, v), np.maximum(u, v)
        keys = np.unique((u * m + v)[u != v])[:pairs]
        u, v = np.divmod(rng.permutation(keys), m)
        return u, v, rng.integers(1, ties + 1, u.size).astype(float)

    def test_the_forest_is_a_maximum_spanning_forest(self):
        """Acyclic, spanning every component, and of the largest total weight, ties included."""
        rng = np.random.default_rng(30)
        for m, pairs, ties in ((1, 0, 1), (6, 0, 1), (40, 30, 2), (200, 150, 3), (300, 900, 4),
                               (500, 2000, 1000)):
            u, v, w = self._graph(rng, m, pairs, ties)
            taken = linalg_core._max_spanning_forest(m, u, v, w)
            assert np.unique(taken).size == taken.size
            labels = network_model._component_labels(m, u, v)
            assert taken.size == m - (int(labels.max()) + 1)  # acyclic and spanning
            # the forest joins what the graph joins
            assert (network_model._component_labels(m, u[taken], v[taken]) == labels).all()
            graph = scipy.sparse.coo_matrix((-w, (u, v)), shape=(m, m)).tocsr()
            best = scipy.sparse.csgraph.minimum_spanning_tree(graph)
            assert w[taken].sum() == -best.sum()

    @staticmethod
    def _exact_check(m, rows, cols, g, d):
        """M's off-diagonal entries are G's on the forest, and each m_ii <= d_i - sum of |g_ij| off it."""
        minorant = linalg_core._forest_minorant(m, rows, cols, g, d)
        if minorant is None:
            return None
        mr, mc, mv = minorant
        on = mr == mc
        assert sorted(mr[on].tolist()) == list(range(m))
        upper = rows < cols
        stored = dict(zip(zip(rows[upper].tolist(), cols[upper].tolist()), g[upper].tolist()))
        forest = set()
        for i, j, x in zip(mr[~on].tolist(), mc[~on].tolist(), mv[~on].tolist()):
            key = (min(i, j), max(i, j))
            assert stored[key] == x
            forest.add(key)
        assert len(forest) * 2 == np.count_nonzero(~on)
        left_out = [Fraction(0)] * m
        for (i, j), x in stored.items():
            if (i, j) not in forest:
                left_out[i] += abs(Fraction(x))
                left_out[j] += abs(Fraction(x))
        for i, x in zip(mr[on].tolist(), mv[on].tolist()):
            assert Fraction(x) <= Fraction(float(d[i])) - left_out[i], i
        return minorant

    def test_the_minorant_stays_below_g_in_exact_arithmetic(self):
        rng = np.random.default_rng(31)
        checked = 0
        for n in (150, 300):
            for policy in PHASE_POLICIES:
                net = generate(GenSpec(node_range=(n, n), edge_density=6 / n, shunt_probability=0.1,
                                       min_shunts=1, phase_policy=policy, seed=n))
                y = assemble(net)
                g2 = 2 * y.matrix.real  # 2 G_s of an exactly symmetric Y
                rows, cols = np.nonzero(g2 - np.diag(np.diag(g2)))
                d = np.abs(np.diag(g2)) * rng.uniform(0.5, 4.0)
                checked += self._exact_check(n, rows, cols, g2[rows, cols], d) is not None
        # sums that round down: node 0's entries outside the forest, 1 + 2^-53 + 2^-53, sum
        # to 1 in floating point, so without a margin m_00 = 2 - 1 would exceed 1 - 2^-52
        edges = [(0, 1, 1.0), (0, 2, 2.0 ** -53), (0, 3, 2.0 ** -53),
                 (0, 4, 4.0), (1, 4, 4.0), (2, 4, 4.0), (3, 4, 4.0)]
        u, v, x = (np.array(t) for t in zip(*edges))
        rows, cols, g = np.r_[u, v], np.r_[v, u], -np.r_[x, x]
        order = np.lexsort((cols, rows))
        rows, cols, g = rows[order], cols[order], g[order]
        d = np.array([2.0, 8.0, 8.0, 8.0, 32.0])
        minorant = self._exact_check(5, rows, cols, g, d)
        assert minorant is not None and checked > 0
        # the same entries, at d_0 = 1 + 2^-52, leave no room for M's first diagonal entry
        d[0] = 1 + 2.0 ** -52
        assert linalg_core._forest_minorant(5, rows, cols, g, d) is None

    @pytest.mark.parametrize("n", [300, 700, 2000])
    def test_verdicts_equal_the_dense_factorization_with_a_small_core(self, monkeypatch, n):
        """Three phase policies and a grid, shunted and grounded; re_positive never factors a big core."""
        density = 2 * n / (n * (n - 1) // 2 - (n - 1))
        nets = [generate(GenSpec(node_range=(n, n), edge_density=density, shunt_probability=0.05,
                                 min_shunts=1, phase_policy=policy, seed=n + 1))
                for policy in PHASE_POLICIES]
        nets.append(grid_network(n, np.random.default_rng(n + 1)))
        cores = []
        dense = linalg_core._dense_cholesky_succeeds

        def recorded(m, *args):
            cores.append(m)
            return dense(m, *args)

        monkeypatch.setattr(linalg_core, "_dense_cholesky_succeeds", recorded)
        stages = _recorded_stages(monkeypatch)
        for k, net in enumerate(nets):
            for shunts, grounded in ((net.shunts, False), ((), True)):
                cores.clear()
                stages.clear()
                args = _stored(assemble(Network(n, net.branches, shunts)))
                certified = linalg_core._hermitian_part_certifies(*args, grounded=grounded)
                assert certified == dense_hermitian_part_certifies(*args, grounded=grounded)
                if k in (0, 3):  # re_positive and the grid: the forest certifies
                    assert certified and stages == [("forest", True)]
                    assert 0 < max(cores) <= linalg_core._DENSE_ORDER
                elif not certified:  # refused by every stage that ran
                    assert all(not ok for _, ok in stages)

    def test_a_negative_branch_off_the_forest_falls_back(self, monkeypatch):
        """G_s is positive definite, M is not: the elimination of G decides.

        A triangle of branches W, W and -0.9 W (Re y < 0) has a Laplacian
        with eigenvalues -0.8 W, 0 and 3 W; shunts of 0.9 W lift it to
        positive definite.  The forest takes the two branches W, and M's
        diagonal keeps 0.1 W at their outer ends against an entry -W.
        """
        n, w = 300, 1e4
        base = grid_network(n, np.random.default_rng(32))
        a, b, c = 10, 150, 290
        net = Network(n, base.branches + (Branch(a, b, w), Branch(b, c, w), Branch(a, c, -0.9 * w)),
                      base.shunts + tuple(Shunt(v, 0.9 * w) for v in (a, b, c)))
        args = _stored(assemble(net))
        g_s = assemble(net).matrix.real
        assert np.linalg.eigvalsh(g_s)[0] > 0
        stages = _recorded_stages(monkeypatch)
        assert linalg_core._hermitian_part_certifies(*args)
        assert dense_hermitian_part_certifies(*args)
        assert stages == [("forest", False), ("direct", True)]

    @staticmethod
    def _gadgets():
        """Small dyadic pieces, near-singular or exactly singular, as (node_count, branches, shunts).

        A path of 4 nodes with one shunt t at its end (lambda_min about t /
        4; singular at t = 0), and the triangle 1, 1, -1/2, whose Laplacian
        has eigenvalues 0, 0 and 3, with a shunt t at every node.
        """
        for t in [0.0] + [2.0 ** -k for k in (20, 26, 30, 32, 34, 36, 40)]:
            yield 4, [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 0.75)], [(3, t)] if t else []
            yield 3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -0.5)], [(v, t) for v in range(3)] if t else []

    def test_near_singular_dyadic_pieces_are_never_certified(self, monkeypatch):
        """A 200-node dyadic network plus a disjoint gadget: no certificate where the theorem fails.

        Neither the forest stage nor the kernel certifies where G_s - tau I
        has an eigenvalue <= 0, or where the exact rank of the gadget, and so
        of Y, drops.
        """
        rng = np.random.default_rng(33)
        big, branches, shunts = random_rational_network(rng, 200, extra_edges=300, shunt_count=20,
                                                        re_positive=True)
        certified_by_forest = 0
        stages = _recorded_stages(monkeypatch)
        for size, gadget, gadget_shunts in self._gadgets():
            net = Network(big + size,
                          tuple(Branch(i, j, y) for i, j, y in branches)
                          + tuple(Branch(big + i, big + j, y) for i, j, y in gadget),
                          tuple(Shunt(v, y) for v, y in shunts)
                          + tuple(Shunt(big + v, y) for v, y in gadget_shunts))
            y = assemble(net)
            n, rows, cols, data = _stored(y)
            tau = _shift(n, rows, cols, data)
            lowest = np.linalg.eigvalsh(y.matrix.real - tau * np.eye(n))[0]
            piece = Network(size, tuple(Branch(i, j, x) for i, j, x in gadget),
                            tuple(Shunt(v, x) for v, x in gadget_shunts))
            drops = exact_rank(exact_assemble(piece)) < size
            stages.clear()
            certified = linalg_core._hermitian_part_certifies(n, rows, cols, data)
            assert stages, "the kernel eliminated"
            forest = [ok for stage, ok in stages if stage == "forest"]
            for ok in (certified, *forest):
                assert not (ok and (lowest <= 0 or drops)), (size, gadget_shunts, lowest)
            certified_by_forest += any(forest)
            if drops:
                assert not certified
        assert certified_by_forest > 0
