"""Kron reduction and hybrid parameters against whole-system solves.

The oracle throughout is the full linear system I = Y V solved with
numpy's own dense solver: reductions must reproduce its port behaviour,
hybrid matrices must reproduce its mixed-boundary solutions.
"""

import numpy as np
import pytest

from ybuskit import (
    AdmittanceMatrix,
    Branch,
    GenSpec,
    HybridResult,
    Network,
    NotReducibleError,
    NotSolvableError,
    NumericalError,
    Partition,
    RankCertificate,
    ReductionResult,
    Shunt,
    StructuralError,
    assemble,
    block_view,
    counterexample_block_singular,
    full_rank_certificate,
    generate,
    hybrid_parameters,
    kron_reduce,
    kron_reduce_nodes,
    recover_eliminated,
)
from ybuskit import reduction

from oracles import blockwise_hybrid

RNG = np.random.default_rng(61)


def _random_net(seed, n_lo=5, n_hi=20, shunt_probability=0.4):
    return generate(GenSpec(node_range=(n_lo, n_hi), edge_density=0.25,
                            shunt_probability=shunt_probability,
                            magnitude_range=(1e-1, 1e1), seed=seed,
                            min_shunts=1 if shunt_probability else 0))


def _unit_vector_pair(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class TestKronReduce:
    def test_series_combination(self):
        y = assemble(Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 1.0)), ()))
        res = kron_reduce_nodes(y, {1})
        want = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        assert np.abs(res.reduced.matrix - want).max() <= 1e-15
        assert res.reduced.node_order == (0, 2)
        assert res.eliminated_order == (1,)

    def test_voltage_divider_recovery(self):
        y = assemble(Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 1.0)), ()))
        res = kron_reduce_nodes(y, {1})
        v_mid = recover_eliminated(res, [1.0, 0.0])
        assert abs(v_mid[0] - 0.5) <= 1e-15
        np.testing.assert_array_equal(recover_eliminated(res, [0.0, 0.0]), [0.0])

    def test_empty_elimination_is_identity(self):
        y = assemble(_random_net(seed=3))
        res = kron_reduce_nodes(y, set())
        assert res.reduced is y
        assert res.eliminated_order == ()
        assert res.recovery.shape == (0, y.size)

    def test_cannot_eliminate_everything(self):
        y = assemble(Network(2, (Branch(0, 1, 1.0),), ()))
        with pytest.raises(NotReducibleError):
            kron_reduce_nodes(y, {0, 1})

    def test_bad_labels(self):
        y = assemble(Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 1.0)), ()))
        with pytest.raises(StructuralError):
            kron_reduce_nodes(y, [1, 1])
        with pytest.raises(StructuralError):
            kron_reduce_nodes(y, [7])

    def test_exactly_singular_block_refused(self):
        net, part = counterexample_block_singular()
        view = block_view(assemble(net), part)
        with pytest.raises(NotReducibleError, match="singular"):
            kron_reduce(view, 0)

    def test_numerically_singular_block_refused(self):
        m = np.diag([1.0, 1.0, 1e-300]).astype(complex)
        y = AdmittanceMatrix(m, (0, 1, 2))
        with pytest.raises(NotReducibleError, match="condition") as kron_exc:
            kron_reduce_nodes(y, {1, 2})
        # the same block, solved for by hybrid and certified on its own
        view = block_view(y, Partition.from_labels([1, 0, 0]))
        with pytest.raises(NotSolvableError, match="condition") as hybrid_exc:
            hybrid_parameters(view, 0)
        cert = full_rank_certificate(m[1:, 1:])
        assert not cert.full_rank and cert.failed_pivot is None
        estimate = f"(condition estimate {cert.condition_estimate:.3e})"
        assert str(kron_exc.value) == f"elimination block is numerically singular {estimate}"
        assert str(hybrid_exc.value) == f"block (0,0) is numerically singular {estimate}"

    def test_overflowing_schur_complement_refused(self):
        # W = 1e200 is finite; S = 1 - 1e200 * 1e200 is not
        y = AdmittanceMatrix(np.array([[1, 1e200], [1e200, 1]], dtype=complex), (0, 1))
        with pytest.raises(NumericalError, match="elimination block: the Schur complement"):
            kron_reduce_nodes(y, [0])

    def test_class_route_matches_node_route(self):
        net = _random_net(seed=11, n_lo=8, n_hi=8)
        part = Partition.from_labels([0, 1, 0, 1, 2, 2, 0, 1])
        view = block_view(assemble(net), part)
        via_class = kron_reduce(view, 1)
        via_nodes = kron_reduce_nodes(view.permuted, list(part.classes[1]))
        np.testing.assert_array_equal(via_class.reduced.matrix,
                                      via_nodes.reduced.matrix)
        assert via_class.retained_order == via_nodes.retained_order

    def test_class_index_out_of_range(self):
        net = _random_net(seed=5, n_lo=6, n_hi=6)
        view = block_view(assemble(net), Partition.from_labels([0, 0, 0, 1, 1, 1]))
        with pytest.raises(StructuralError):
            kron_reduce(view, 2)

    def test_reduced_matrix_exactly_symmetric(self):
        for seed in range(6):
            y = assemble(_random_net(seed=seed))
            elim = set(range(0, y.size, 3))
            res = kron_reduce_nodes(y, elim)
            np.testing.assert_array_equal(res.reduced.matrix, res.reduced.matrix.T)


class TestPortEquivalence:
    """Reduced matrix and recovery must reproduce the full system."""

    def test_against_full_solve(self):
        for seed in range(10):
            net = _random_net(seed=100 + seed)
            y = assemble(net)
            n = y.size
            count = int(RNG.integers(1, n))
            elim = sorted(RNG.permutation(n)[:count].tolist())
            try:
                res = kron_reduce_nodes(y, elim)
            except NotReducibleError:
                continue  # random class hit an ill-conditioned block
            kept = list(res.retained_order)

            m = y.matrix
            y_tt = m[np.ix_(elim, elim)]
            y_ts = m[np.ix_(elim, kept)]
            for _ in range(3):
                v_s = _unit_vector_pair(RNG, len(kept))
                # oracle: numpy solve of the interior condition
                v_t_oracle = np.linalg.solve(y_tt, -y_ts @ v_s)
                v_t = recover_eliminated(res, v_s)
                scale = max(np.linalg.norm(v_t_oracle), 1.0)
                assert np.linalg.norm(v_t - v_t_oracle) <= 1e-10 * scale

                # port currents: full system vs reduced matrix
                v_full = np.zeros(n, dtype=complex)
                v_full[kept] = v_s
                v_full[elim] = v_t
                i_full = m @ v_full
                i_red = res.reduced.matrix @ v_s
                scale = max(np.linalg.norm(i_full[kept]), np.linalg.norm(i_red), 1.0)
                assert np.linalg.norm(i_full[kept] - i_red) <= 1e-10 * scale
                # eliminated nodes carry no injection
                interior = np.linalg.norm(i_full[elim])
                assert interior <= 1e-10 * max(np.linalg.norm(m), 1.0) * np.linalg.norm(v_full)

    def test_shuntless_reduction_keeps_zero_row_sums(self):
        for seed in range(5):
            net = generate(GenSpec(node_range=(8, 16), edge_density=0.3,
                                   shunt_probability=0.0,
                                   magnitude_range=(1e-1, 1e1), seed=900 + seed))
            y = assemble(net)
            res = kron_reduce_nodes(y, set(range(0, y.size, 2)))
            r = res.reduced.matrix
            assert np.linalg.norm(r @ np.ones(r.shape[0])) <= 1e-10 * np.linalg.norm(r)

    def test_staged_equals_joint(self):
        for seed in range(8):
            y = assemble(_random_net(seed=200 + seed, n_lo=8, n_hi=18))
            n = y.size
            third = max(1, n // 3)
            order = RNG.permutation(n).tolist()
            t1, t2 = set(order[:third]), set(order[third:2 * third])
            joint = kron_reduce_nodes(y, t1 | t2)
            staged = kron_reduce_nodes(kron_reduce_nodes(y, t1).reduced, t2)
            assert joint.retained_order == staged.retained_order
            scale = max(float(np.abs(joint.reduced.matrix).max()), 1e-300)
            diff = float(np.abs(joint.reduced.matrix - staged.reduced.matrix).max())
            assert diff <= 1e-10 * scale


class TestReductionResultType:
    def test_recovery_read_only(self):
        y = assemble(Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 1.0)), ()))
        res = kron_reduce_nodes(y, {1})
        with pytest.raises(ValueError):
            res.recovery[0, 0] = 9.0

    def test_eliminated_set_and_orders(self):
        y = assemble(Network(4, tuple(Branch(i, i + 1, 1.0) for i in range(3)), ()))
        res = kron_reduce_nodes(y, (2, 1))
        assert res.eliminated == frozenset({1, 2})
        assert res.eliminated_order == (2, 1)  # explicit sequence preserved
        assert res.retained_order == (0, 3)

    def test_recovery_shape_enforced(self):
        y = assemble(Network(2, (Branch(0, 1, 1.0),), (Shunt(0, 1.0),)))
        with pytest.raises(StructuralError):
            ReductionResult(reduced=y, eliminated_order=(5,),
                            recovery=np.zeros((2, 2)))

    def test_recover_input_validation(self):
        y = assemble(Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 1.0)), ()))
        res = kron_reduce_nodes(y, {1})
        with pytest.raises(StructuralError):
            recover_eliminated(res, [1.0, 2.0, 3.0])
        with pytest.raises(StructuralError):
            recover_eliminated(res, np.ones((2, 2)))


class TestHybridParameters:
    def test_minimal_two_node_example(self):
        net = Network(2, (Branch(0, 1, 1.0),), (Shunt(0, 1.0),))
        y = assemble(net)
        np.testing.assert_array_equal(y.matrix, [[2, -1], [-1, 1]])
        view = block_view(y, Partition(((0,), (1,)), 2))
        res = hybrid_parameters(view, 0)
        np.testing.assert_allclose(res.block(0, 0), [[0.5]], atol=1e-15)
        np.testing.assert_allclose(res.block(0, 1), [[0.5]], atol=1e-15)
        np.testing.assert_allclose(res.block(1, 0), [[-0.5]], atol=1e-15)
        np.testing.assert_allclose(res.block(1, 1), [[0.5]], atol=1e-15)
        assert res.solved_class == 0
        assert res.block_roles[(0, 0)] == "impedance"
        assert res.block_roles[(0, 1)] == "voltage-gain"
        assert res.block_roles[(1, 0)] == "current-gain"
        assert res.block_roles[(1, 1)] == "admittance"

    def test_h_pp_inverts_y_pp(self):
        for seed in range(8):
            net = _random_net(seed=300 + seed, n_lo=6, n_hi=14)
            n = net.node_count
            labels = RNG.integers(0, 3, size=n)
            labels[:3] = [0, 1, 2]
            part = Partition.from_labels(labels)
            view = block_view(assemble(net), part)
            p = int(RNG.integers(0, part.class_count))
            try:
                res = hybrid_parameters(view, p)
            except NotSolvableError:
                continue
            y_pp = view.block(p, p)
            ident = res.block(p, p) @ y_pp
            assert np.abs(ident - np.eye(y_pp.shape[0])).max() <= 1e-12

    def test_off_diagonal_skew_transpose_relation(self):
        # Y is complex symmetric, so the voltage-gain and current-gain
        # families are tied: H_kp equals -(H_pk)^T for every k != p.
        net = _random_net(seed=77, n_lo=9, n_hi=9)
        part = Partition.from_labels([0, 1, 2, 0, 1, 2, 0, 1, 2])
        view = block_view(assemble(net), part)
        res = hybrid_parameters(view, 1)
        for k in (0, 2):
            np.testing.assert_allclose(res.block(k, 1), -res.block(1, k).T,
                                       rtol=0, atol=1e-12 * np.abs(res.h).max())

    def test_consistency_with_full_solve(self):
        for seed in range(8):
            net = _random_net(seed=400 + seed, n_lo=6, n_hi=16)
            n = net.node_count
            labels = [i % 2 for i in range(n)]
            part = Partition.from_labels(labels)
            view = block_view(assemble(net), part)
            p = seed % 2
            try:
                res = hybrid_parameters(view, p)
            except NotSolvableError:
                continue

            m = view.permuted.matrix
            sp = part.span(p)
            mask = np.zeros(n, dtype=bool)
            mask[sp] = True

            u = _unit_vector_pair(RNG, n)  # [I_p; V_others] in block order
            w = res.apply(u)

            # independent route: enforce the other-class voltages, solve
            # the p-block row for V_p, then read off the other currents
            i_p = u[mask]
            v_other = u[~mask]
            v_p = np.linalg.solve(m[np.ix_(mask, mask)],
                                  i_p - m[np.ix_(mask, ~mask)] @ v_other)
            v_full = np.zeros(n, dtype=complex)
            v_full[mask] = v_p
            v_full[~mask] = v_other
            i_other = (m @ v_full)[~mask]

            want = np.zeros(n, dtype=complex)
            want[mask] = v_p
            want[~mask] = i_other
            scale = max(np.linalg.norm(want), 1.0)
            assert np.linalg.norm(w - want) <= 1e-10 * scale

    def test_matches_the_blockwise_formula(self):
        # the Schur kernel plus reciprocity against one solve per block and a
        # transposed solve per current-gain block
        for seed in range(12):
            net = _random_net(seed=500 + seed, n_lo=6, n_hi=30)
            n = net.node_count
            labels = np.random.default_rng(seed).integers(0, 3, size=n)
            labels[:3] = [0, 1, 2]
            part = Partition.from_labels(labels)
            view = block_view(assemble(net), part)
            p = seed % 3
            res = hybrid_parameters(view, p)
            want = blockwise_hybrid(view.permuted.matrix,
                                    [part.span(k) for k in range(3)], p)
            assert np.abs(res.h - want).max() <= 1e-12 * np.abs(want).max()

    def test_singular_solve_block_refused(self):
        net, part = counterexample_block_singular()
        view = block_view(assemble(net), part)
        with pytest.raises(NotSolvableError):
            hybrid_parameters(view, 0)

    def test_overflowing_inverse_refused(self, monkeypatch):
        # LAPACK's gecon reports rcond = 0 before an inverse overflows, so the
        # certificate of a block whose inverse overflows is forged here
        forged = RankCertificate(True, 1.0, None, lambda b: np.where(b == 1, np.inf, b))
        monkeypatch.setattr(reduction, "full_rank_certificate", lambda a: forged)
        net = Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 1.0)), (Shunt(0, 1.0),))
        view = block_view(assemble(net), Partition(((0,), (1, 2)), 3))
        with pytest.raises(NumericalError, match=r"block \(0,0\): the inverse"):
            hybrid_parameters(view, 0)

    def test_class_index_validation(self):
        net = _random_net(seed=9, n_lo=4, n_hi=4)
        view = block_view(assemble(net), Partition.from_labels([0, 1, 0, 1]))
        with pytest.raises(StructuralError):
            hybrid_parameters(view, 5)

    def test_result_surface(self):
        net = Network(2, (Branch(0, 1, 1.0),), (Shunt(0, 1.0),))
        view = block_view(assemble(net), Partition(((0,), (1,)), 2))
        res = hybrid_parameters(view, 0)
        with pytest.raises(ValueError):
            res.h[0, 0] = 0.0
        with pytest.raises(StructuralError):
            res.block(0, 3)
        with pytest.raises(StructuralError):
            res.apply([1.0, 2.0, 3.0])
        assert res.node_order == (0, 1)
        assert res.partition.offsets == (0, 1)
