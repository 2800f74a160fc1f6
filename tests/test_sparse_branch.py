"""The sparse path of blocks and certificates, against the dense one.

``AdmittanceMatrix._block`` hands out a block of at least
``SPARSE_MIN_ORDER``² entries with few nonzeros per row as a SciPy CSR
matrix, which the certificate factors by SuperLU; every other block is a
dense array, factored by LAPACK.  The dense path is the oracle here: a
test computes a result once as the library chooses, then again with
``ybus.SPARSE_MIN_ORDER`` raised out of reach, which makes every block,
certificate and Schur complement dense, and compares the two.  A test of
the certificate alone hands it a CSR matrix for SuperLU and an array for
LAPACK.  Networks are grid-like, with about 3 branches per node.
"""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse

from ybuskit import (
    AdmittanceMatrix,
    GenSpec,
    NotReducibleError,
    NumericalError,
    NotSolvableError,
    Partition,
    assemble,
    block_view,
    full_rank_certificate,
    generate,
    hybrid_parameters,
    kron_reduce,
    kron_reduce_nodes,
    verify_block_rank,
)
from ybuskit import linalg_core, ybus
from ybuskit.cli import main
from ybuskit.io import save_matrix

from oracles import blockwise_hybrid, grid_network, kron_fill, reorder, solve_full

EPS = float(np.finfo(float).eps)


def _grid(n, seed, policy="re_positive"):
    """A connected network with about 3 branches per node."""
    return generate(GenSpec(node_range=(n, n), edge_density=2 * n / (n * (n - 1) // 2 - (n - 1)),
                            shunt_probability=0.05, min_shunts=1, phase_policy=policy, seed=seed))


def _rel(a, b) -> float:
    return float(np.abs(a - b).max()) / float(np.abs(b).max())


def _dense_only(monkeypatch):
    monkeypatch.setattr(ybus, "SPARSE_MIN_ORDER", 10**9)


def _sparse_calls(monkeypatch) -> list:
    """Record every attempt at a sparse certificate."""
    original = linalg_core._sparse_certificate
    calls = []

    def counted(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(linalg_core, "_sparse_certificate", counted)
    return calls


def _tridiagonal(n, diag=4.0):
    """A sparse, well-conditioned complex symmetric matrix of order n."""
    m = np.diag(np.full(n, diag + 1j))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = m[idx + 1, idx] = -1.0
    return m


class TestBranchChoice:
    def test_order_and_row_count_pick_the_branch(self):
        n, per_row = ybus.SPARSE_MIN_ORDER, ybus.SPARSE_MAX_ROW_NNZ
        # exactly n² entries with per_row nonzeros per row on average is sparse
        assert ybus._prefers_sparse((n, n), per_row * n)
        assert not ybus._prefers_sparse((n, n), per_row * n + 1)
        assert not ybus._prefers_sparse((n - 1, n), 3 * n)
        assert not ybus._prefers_sparse((n, n), n * n)
        # a wide block counts nonzeros per column
        assert ybus._prefers_sparse((n, 2 * n), per_row * 2 * n)
        assert not ybus._prefers_sparse((n, 2 * n), per_row * 2 * n + 1)

    def test_small_blocks_never_try_the_sparse_branch(self, monkeypatch):
        calls = _sparse_calls(monkeypatch)
        net = _grid(150, seed=3)
        kron_reduce_nodes(assemble(net), range(5, 150))
        assert calls == []


class TestCertificate:
    def test_grid_block_matches_the_dense_certificate(self, monkeypatch):
        y = assemble(_grid(600, seed=1)).matrix
        block = y[5:, 5:]
        calls = _sparse_calls(monkeypatch)
        sparse = full_rank_certificate(scipy.sparse.csr_matrix(block))
        assert calls == [block.shape]
        dense = full_rank_certificate(block)
        assert calls == [block.shape]
        assert sparse.full_rank and dense.full_rank
        assert sparse.failed_pivot is None
        # both are Hager-Higham lower bounds on the same ||A||_1 ||A^-1||_1
        exact = np.linalg.norm(block, 1) * np.linalg.norm(np.linalg.inv(block), 1)
        assert exact / 3 <= sparse.condition_estimate <= exact * (1 + 1e-12)
        assert abs(sparse.condition_estimate - dense.condition_estimate) <= 1e-6 * exact
        rhs = np.random.default_rng(0).standard_normal((block.shape[0], 3)) + 0j
        assert _rel(sparse.solve(rhs), dense.solve(rhs)) <= 1e-12

    def test_exactly_singular_block_defers_to_the_dense_pivot(self, monkeypatch):
        a = _tridiagonal(400)
        a[7, :] = a[:, 7] = 0.0
        calls = _sparse_calls(monkeypatch)
        cert = full_rank_certificate(scipy.sparse.csr_matrix(a))
        assert calls == [a.shape]  # SuperLU met the zero pivot first
        assert cert == full_rank_certificate(a)
        assert not cert.full_rank and cert.failed_pivot is not None

    @pytest.mark.parametrize("tiny", [1e-300, 1e-310, 5e-324])
    def test_numerically_singular_block_fails(self, monkeypatch, tiny):
        a = _tridiagonal(400)
        a[7, :] = a[:, 7] = 0.0
        a[7, 7] = tiny
        calls = _sparse_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow in the estimate stays silent
            cert = full_rank_certificate(scipy.sparse.csr_matrix(a))
        assert calls == [a.shape]
        assert not cert.full_rank and cert.failed_pivot is None
        assert cert.condition_estimate >= 1.0 / (400 * EPS)

    def test_overflowing_norm_raises_on_both_branches(self, monkeypatch):
        # an interior column's |entries| sum to 1.81e308, past the binary64 limit
        a = _tridiagonal(400, diag=10.0) * 1.5e307
        calls = _sparse_calls(monkeypatch)
        with pytest.raises(NumericalError, match="the 1-norm of the matrix overflows"):
            full_rank_certificate(scipy.sparse.csr_matrix(a))
        assert calls == [a.shape]
        with pytest.raises(NumericalError, match="the 1-norm of the matrix overflows"):
            full_rank_certificate(a)
        assert calls == [a.shape]

    def test_no_global_random_state_is_read_or_drawn(self):
        y = assemble(_grid(600, seed=2))
        part = Partition.from_labels([v % 2 for v in range(600)])
        outputs = []
        saved = np.random.get_state()
        try:
            for state in (0, 1):
                np.random.seed(state)
                before = np.random.get_state()
                cert = full_rank_certificate(scipy.sparse.csr_matrix(y.matrix[10:, 10:]))
                red = kron_reduce_nodes(y, range(10, 600))
                hy = hybrid_parameters(block_view(y, part), 1)
                after = np.random.get_state()
                assert after[2:] == before[2:]
                np.testing.assert_array_equal(after[1], before[1])
                outputs.append((cert.condition_estimate, red.reduced.matrix.tobytes(),
                                red.recovery.tobytes(), hy.h.tobytes()))
        finally:
            np.random.set_state(saved)
        assert outputs[0] == outputs[1]


def _dense_and_sparse(monkeypatch, compute):
    sparse = compute()
    with monkeypatch.context() as m:
        _dense_only(m)
        dense = compute()
    return sparse, dense


class TestKronAndHybridAtWorkloadSize:
    """N = 2000: both Kron shapes and hybrid, against the dense path and whole-system solves."""

    N = 2000

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(7)
        y = assemble(_grid(self.N, seed=7))
        ports = np.sort(rng.choice(self.N, self.N // 20, replace=False))
        interior = np.sort(rng.choice(self.N, self.N // 10, replace=False))
        part = Partition.from_labels(rng.permutation(np.arange(self.N) % 3).tolist())
        return y, ports, interior, part

    @staticmethod
    def _port_checks(y, res):
        """Recovered interior voltages carry no current, and a whole-system solve agrees."""
        m = y.matrix
        kept = list(res.reduced.node_order)
        elim = list(res.eliminated_order)
        v_kept = np.random.default_rng(1).standard_normal(len(kept)) + 1j
        v = np.zeros(y.size, dtype=complex)
        v[kept] = v_kept
        v[elim] = res.recovery @ v_kept
        i = m @ v
        scale = np.linalg.norm(m) * np.linalg.norm(v)
        assert np.linalg.norm(i[elim]) <= 1e-10 * scale
        assert np.linalg.norm(i[kept] - res.reduced.matrix @ v_kept) <= 1e-10 * scale
        drive = np.zeros(y.size, dtype=complex)
        drive[kept] = res.reduced.matrix @ v_kept
        assert np.linalg.norm(solve_full(m, drive) - v) <= 1e-10 * np.linalg.norm(v)

    def test_kron_to_ports(self, grid, monkeypatch):
        y, ports, _, _ = grid
        eliminate = np.setdiff1d(np.arange(self.N), ports).tolist()
        calls = _sparse_calls(monkeypatch)
        sparse, dense = _dense_and_sparse(monkeypatch, lambda: kron_reduce_nodes(y, eliminate))
        assert (len(eliminate), len(eliminate)) in calls
        assert sparse.reduced.node_order == dense.reduced.node_order
        assert _rel(sparse.reduced.matrix, dense.reduced.matrix) <= 1e-12
        assert _rel(sparse.recovery, dense.recovery) <= 1e-12
        self._port_checks(y, sparse)

    def test_kron_of_interior_nodes(self, grid, monkeypatch):
        y, _, interior, _ = grid
        sparse, dense = _dense_and_sparse(
            monkeypatch, lambda: kron_reduce_nodes(y, interior.tolist()))
        assert _rel(sparse.reduced.matrix, dense.reduced.matrix) <= 1e-12
        assert _rel(sparse.recovery, dense.recovery) <= 1e-12
        self._port_checks(y, sparse)

    def test_hybrid(self, grid, monkeypatch):
        y, _, _, part = grid
        view = block_view(y, part)
        sparse, dense = _dense_and_sparse(monkeypatch, lambda: hybrid_parameters(view, 0))
        assert _rel(sparse.h, dense.h) <= 1e-12
        m = reorder(view.source, view.node_order).matrix
        want = blockwise_hybrid(m, [part.span(k) for k in range(part.class_count)], 0)
        assert _rel(sparse.h, want) <= 1e-12
        # the transfer against a constrained whole-system solve
        sp = part.span(0)
        u = np.random.default_rng(2).standard_normal(self.N) + 1j
        v_p = solve_full(m[sp, sp], u[sp] - m[sp, sp.stop:] @ u[sp.stop:])
        want_w = np.concatenate([v_p, m[sp.stop:, sp] @ v_p + m[sp.stop:, sp.stop:] @ u[sp.stop:]])
        assert np.linalg.norm(sparse.apply(u) - want_w) <= 1e-10 * np.linalg.norm(want_w)


class TestGridNetworks:
    """Seeded 2000-node grids: both Kron shapes and hybrid against whole-system solves."""

    N = 2000

    @pytest.fixture(scope="class", params=[3, 4])
    def grid(self, request):
        rng = np.random.default_rng(request.param)
        net = grid_network(self.N, rng)
        ports = np.sort(rng.choice(self.N, self.N // 20, replace=False))
        interior = np.sort(rng.choice(self.N, self.N // 10, replace=False))
        part = Partition.from_labels(rng.permutation(np.arange(self.N) % 3).tolist())
        return net, assemble(net), ports, interior, part

    def test_block_rank_matches_dense_slices(self, grid, monkeypatch):
        net, _, _, _, part = grid
        sparse, dense = _dense_and_sparse(monkeypatch, lambda: verify_block_rank(net, part))
        assert sparse.all_full_rank
        pieces = [c for k in sparse.classes for c in k.components]
        assert len(pieces) > 3 * 20  # most components are small and factored densely
        for got, want in zip(pieces, (c for k in dense.classes for c in k.components)):
            assert (got.nodes, got.full_rank, got.grounded) == (want.nodes, want.full_rank,
                                                                want.grounded)
            # gecon and Hager-Higham both bound the same condition number from below
            assert want.condition_estimate / 3 <= got.condition_estimate
            assert got.condition_estimate <= 3 * want.condition_estimate

    def test_kron_to_ports(self, grid):
        _, y, ports, _, _ = grid
        res = kron_reduce_nodes(y, np.setdiff1d(np.arange(self.N), ports).tolist())
        assert res.reduced.node_order == tuple(ports.tolist())
        TestKronAndHybridAtWorkloadSize._port_checks(y, res)
        assert (res.reduced.matrix == res.reduced.matrix.T).all()  # two 64-row stripes

    def test_kron_of_interior_nodes_fills_as_dorfler_and_bullo_predict(self, grid):
        net, y, _, interior, _ = grid
        res = kron_reduce_nodes(y, interior.tolist())
        TestKronAndHybridAtWorkloadSize._port_checks(y, res)
        red = res.reduced
        labels = np.array(red.node_order)
        got = set(zip(labels[red._rows()].tolist(), labels[red.indices].tolist()))
        assert got == kron_fill(net, interior)
        assert (red.matrix == red.matrix.T).all()  # exactly, as the constructor trusts
        assert red.indices.size < 0.02 * red.size ** 2  # stored sparse, not as N^2 entries

    def test_hybrid(self, grid):
        _, y, _, _, part = grid
        view = block_view(y, part)
        hy = hybrid_parameters(view, 1)
        m = reorder(y, view.node_order).matrix
        sp = part.span(1)
        rest = np.r_[0:sp.start, sp.stop:self.N]
        u = np.random.default_rng(5).standard_normal(self.N) + 1j
        v_p = solve_full(m[sp, sp], u[sp] - m[sp][:, rest] @ u[rest])
        want = np.empty(self.N, dtype=complex)
        want[sp] = v_p
        want[rest] = m[rest, sp] @ v_p + m[np.ix_(rest, rest)] @ u[rest]
        assert np.linalg.norm(hy.apply(u) - want) <= 1e-10 * np.linalg.norm(want)
        admittance = hy.h[np.ix_(rest, rest)]
        assert (admittance == admittance.T).all()


def test_interior_kron_allocates_no_dense_matrix():
    # a dense Y of 2000 nodes alone takes 64 MB
    rng = np.random.default_rng(8)
    net = grid_network(2000, rng)
    interior = np.sort(rng.choice(2000, 200, replace=False)).tolist()
    kron_reduce_nodes(assemble(net), interior)  # imports what the kernel imports
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res = kron_reduce_nodes(assemble(net), interior)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert res.reduced.size == 1800
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("policy", ["re_positive", "arbitrary", "pure_imaginary"])
@pytest.mark.parametrize("n", [60, 600])
def test_phase_policies_on_both_sides_of_the_threshold(policy, n, monkeypatch):
    rng = np.random.default_rng(n)
    y = assemble(_grid(n, seed=11, policy=policy))
    eliminate = np.sort(rng.choice(n, n - n // 20, replace=False)).tolist()
    view = block_view(y, Partition.from_labels((rng.permutation(n) % 2).tolist()))
    calls = _sparse_calls(monkeypatch)
    (red, hy), (red_d, hy_d) = _dense_and_sparse(
        monkeypatch, lambda: (kron_reduce_nodes(y, eliminate), hybrid_parameters(view, 0)))
    if n < ybus.SPARSE_MIN_ORDER:
        assert calls == []
        np.testing.assert_array_equal(red.reduced.matrix, red_d.reduced.matrix)
        np.testing.assert_array_equal(hy.h, hy_d.h)
        return
    assert len(calls) == 2
    # the forward error of a solve grows with the condition of its block
    cond_e = full_rank_certificate(y.matrix[np.ix_(eliminate, eliminate)]).condition_estimate
    cond_p = full_rank_certificate(view.block(0, 0)).condition_estimate
    assert _rel(red.reduced.matrix, red_d.reduced.matrix) <= max(1e-12, cond_e * EPS)
    assert _rel(red.recovery, red_d.recovery) <= max(1e-12, cond_e * EPS)
    assert _rel(hy.h, hy_d.h) <= max(1e-12, cond_p * EPS)


class TestSingularBlocksAboveTheThreshold:
    """Singular blocks of the sparse branch give the dense branch's typed errors."""

    N = 400

    def _matrix(self, tmp_path, tiny):
        m = _tridiagonal(self.N)
        m[0, 0] = 10.0  # node 0 stays coupled to node 1 and is retained
        m[7, :] = m[:, 7] = 0.0
        m[7, 7] = tiny
        y = AdmittanceMatrix(m, tuple(range(self.N)))
        path = str(tmp_path / "m.json")
        save_matrix(path, y)
        return y, path

    @pytest.mark.parametrize("tiny, what", [(0.0, "exactly singular (zero pivot at index"),
                                            (1e-300, "numerically singular (condition")])
    def test_library_and_cli(self, tmp_path, capsys, monkeypatch, tiny, what):
        y, path = self._matrix(tmp_path, tiny)
        calls = _sparse_calls(monkeypatch)
        with pytest.raises(NotReducibleError, match=re.escape(what)):
            kron_reduce_nodes(y, range(1, self.N))
        labels = [0] + [1] * (self.N - 1)
        view = block_view(y, Partition.from_labels(labels))
        with pytest.raises(NotReducibleError, match=re.escape(what)):
            kron_reduce(view, 1)
        with pytest.raises(NotSolvableError, match=re.escape(what)):
            hybrid_parameters(view, 1)
        assert len(calls) == 3
        assert main(["kron", path, str(tmp_path / "r.json"), "--retain", "0"]) == 2
        assert main(["hybrid", path, str(tmp_path / "h.json"), "--partition",
                     ",".join(map(str, labels)), "--solve-class", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("precondition not met: ") == 2 and err.count(what) == 2
        assert "Traceback" not in err


class TestBlockForm:
    """``AdmittanceMatrix._block`` alone decides a block's form, by ``ybus._prefers_sparse``.

    It asks the rule before it builds anything: a block that passes comes
    back as a canonical CSR matrix, every other one as a dense array, and
    either holds the dense slice's entries bit for bit.
    """

    N = 400

    @pytest.fixture(scope="class")
    def grids(self):
        # a grid passes the rule wherever a block is large; the denser network
        # (about 20 branches per node) fails it everywhere
        return assemble(_grid(self.N, seed=6)), assemble(generate(GenSpec(
            node_range=(self.N, self.N), edge_density=0.1, shunt_probability=0.05, seed=6)))

    def test_each_form_is_the_dense_slice_bit_for_bit(self, grids):
        perm = np.random.default_rng(1).permutation(self.N)  # unsorted positions
        ramp, none = np.arange(self.N), np.array([], dtype=np.intp)
        cases = [(ramp, ramp), (ramp, perm), (perm[:350], perm[50:]), (perm[:320], perm[:320]),
                 (perm[:20], perm[10:70]), (perm[:299], perm[:300]), (perm, none), (none, perm),
                 (none, none)]
        forms = set()
        for y, (rows, cols) in ((y, case) for y in grids for case in cases):
            want = y.matrix[np.ix_(rows, cols)]
            got = y._block(rows, cols)
            sparse = ybus._prefers_sparse(want.shape, np.count_nonzero(want))
            forms.add((y is grids[0], sparse))
            if sparse:
                assert isinstance(got, scipy.sparse.csr_matrix), (rows.size, cols.size)
                assert got.has_canonical_format and got.nnz == np.count_nonzero(want)
                got = got.toarray()
            else:
                assert isinstance(got, np.ndarray), (rows.size, cols.size)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert forms == {(True, True), (True, False), (False, False)}

    def test_zero_columns_of_a_gathered_recovery_are_negative_zeros(self, grids):
        # Y_ek is solved for its nonzero columns only, at every order, so W's
        # other columns are +0.0 and the recovery -W prints them as -0.0
        for y in (grids[0], assemble(_grid(60, seed=6))):  # gathered, and a dense slice
            res = kron_reduce_nodes(y, list(range(0, y.size, 7)))
            zero = res.recovery[:, ~res.recovery.any(axis=0)]
            assert zero.size > 0
            assert np.signbit(zero.real).all() and np.signbit(zero.imag).all(), y.size
