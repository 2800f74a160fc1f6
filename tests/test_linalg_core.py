"""Dense complex kernel: coercion, rank, solves, certificates."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from ybuskit import (
    Branch,
    Network,
    NumericalError,
    Shunt,
    SingularMatrixError,
    StructuralError,
    full_rank_certificate,
    numerical_rank,
)
from ybuskit import ybus
from ybuskit.linalg_core import as_cmatrix
from ybuskit.ybus import assemble
from oracles import exact_assemble, exact_rank, random_rational_network


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
