"""Partitions, block extraction, grounded equivalents, block-rank reports."""

import numpy as np
import pytest

from ybuskit import (
    Branch,
    HypothesisError,
    Network,
    Partition,
    PreconditionError,
    Shunt,
    StructuralError,
    assemble,
    block_view,
    full_rank_certificate,
    numerical_rank,
    verify_block_rank,
)
from ybuskit import linalg_core
from ybuskit.suites import run_suite

from oracles import grounded_equivalent, loop_stamp, random_rational_network


def path(n, y=1.0):
    return Network(n, tuple(Branch(i, i + 1, y) for i in range(n - 1)), ())


def _draw_net(rng, n, extra_edges, shunt_count, re_positive=False):
    nodes, branches, shunts = random_rational_network(
        rng, n, extra_edges=extra_edges, shunt_count=shunt_count,
        re_positive=re_positive)
    return Network(nodes,
                   tuple(Branch(i, j, y) for i, j, y in branches),
                   tuple(Shunt(v, y) for v, y in shunts))


def _random_partition(rng, n, k):
    while True:
        labels = rng.integers(0, k, size=n)
        labels[rng.permutation(n)[:k]] = np.arange(k)  # every class nonempty
        if len(set(labels.tolist())) >= 2:
            return Partition.from_labels(labels)


class TestPartitionType:
    def test_basic_construction(self):
        p = Partition(((0, 2), (1,)), 3)
        assert p.class_count == 2
        assert p.classes == ((0, 2), (1,))

    def test_from_labels_orders_by_label(self):
        p = Partition.from_labels([2, 0, 2, 1])
        assert p.classes == ((1,), (3,), (0, 2))
        assert p.node_count == 4

    def test_labels_inverts_from_labels(self):
        p = Partition.from_labels([1, 0, 0, 1, 2])
        assert Partition.from_labels(p.labels()) == p

    @pytest.mark.parametrize(
        "classes,n",
        [
            (((0, 1, 2),), 3),        # one class only
            (((0,), ()), 1),          # empty class
            (((0, 1), (1, 2)), 3),    # overlap
            (((0,), (2,)), 3),        # hole at node 1
            (((0,), (1,)), 3),        # cover too small
        ],
    )
    def test_rejects_malformed(self, classes, n):
        with pytest.raises(StructuralError):
            Partition(classes, n)


class TestBlockExtraction:
    def test_two_node_blocks(self):
        net = Network(2, (Branch(0, 1, 1.0),), (Shunt(0, 1j),))
        view = block_view(assemble(net), Partition(((0,), (1,)), 2))
        np.testing.assert_array_equal(view.block(0, 0), [[1 + 1j]])
        np.testing.assert_array_equal(view.block(0, 1), [[-1]])
        np.testing.assert_array_equal(view.block(1, 1), [[1]])

    def test_off_diagonal_blocks_transpose(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            net = _draw_net(rng, n, 3, 2)
            part = _random_partition(rng, n, int(rng.integers(2, 5)))
            view = block_view(assemble(net), part)
            for i in range(part.class_count):
                for j in range(part.class_count):
                    np.testing.assert_array_equal(
                        view.block(i, j), view.block(j, i).T)

    def test_blocks_tile_the_permuted_matrix(self):
        rng = np.random.default_rng(13)
        n = 9
        net = _draw_net(rng, n, 4, 3)
        part = _random_partition(rng, n, 3)
        view = block_view(assemble(net), part)
        rebuilt = np.block(
            [[view.block(i, j) for j in range(part.class_count)]
             for i in range(part.class_count)])
        np.testing.assert_array_equal(rebuilt, view.permuted.matrix)

    def test_permuted_order_is_class_concatenation(self):
        net = path(4)
        part = Partition(((2, 0), (3, 1)), 4)
        view = block_view(assemble(net), part)
        assert view.permuted.node_order == (2, 0, 3, 1)
        assert part.offsets == (0, 2)
        assert (part.span(0), part.span(1)) == (slice(0, 2), slice(2, 4))

    def test_index_out_of_range(self):
        view = block_view(assemble(path(3)), Partition(((0,), (1, 2)), 3))
        with pytest.raises(StructuralError):
            view.block(0, 2)
        with pytest.raises(StructuralError):
            view.block(-1, 0)
        with pytest.raises(StructuralError):
            view.partition.span(2)

    def test_size_mismatch(self):
        with pytest.raises(StructuralError):
            block_view(assemble(path(3)), Partition(((0,), (1,)), 2))

    def test_block_is_a_copy(self):
        view = block_view(assemble(path(3)), Partition(((0,), (1, 2)), 3))
        b = view.block(1, 1)
        b[0, 0] = 99.0  # must not raise and must not alias the view
        assert view.block(1, 1)[0, 0] != 99.0


class TestGroundedEquivalent:
    def test_keep_two_of_path(self):
        g = grounded_equivalent(path(3), {0, 1})
        assert g.node_count == 2
        assert g.branches == (Branch(0, 1, 1.0),)
        assert g.shunts == (Shunt(1, 1.0),)

    def test_keep_middle_of_path(self):
        g = grounded_equivalent(path(3), {1})
        assert g.node_count == 1
        assert g.branches == ()
        # both boundary branches land on the kept node as shunts
        np.testing.assert_array_equal(assemble(g).matrix, [[2.0]])

    def test_original_shunts_retained(self):
        net = Network(3, path(3).branches, (Shunt(0, 5j), Shunt(2, 1.0)))
        g = grounded_equivalent(net, {0, 1})
        assert Shunt(0, 5j) in g.shunts          # kept, same node
        assert all(s != Shunt(2, 1.0) for s in g.shunts)  # dropped with node 2

    def test_sequence_keep_sets_relabel_order(self):
        g = grounded_equivalent(path(3), (2, 0))
        # node 2 becomes 0, node 0 becomes 1; both had one boundary branch
        assert g.node_count == 2 and g.branches == ()
        assert sorted((s.node, s.admittance) for s in g.shunts) == [(0, 1.0), (1, 1.0)]

    @pytest.mark.parametrize("keep", [set(), {0, 1, 2}])
    def test_empty_or_full_refused(self, keep):
        with pytest.raises(PreconditionError):
            grounded_equivalent(path(3), keep)

    def test_bad_nodes_refused(self):
        with pytest.raises(StructuralError):
            grounded_equivalent(path(3), (0, 0))
        with pytest.raises(StructuralError):
            grounded_equivalent(path(3), (0, 7))

    def test_matches_diagonal_block_exactly_on_dyadic(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(3, 11))
            net = _draw_net(rng, n, 3, 2)
            part = _random_partition(rng, n, int(rng.integers(2, 4)))
            view = block_view(assemble(net), part)
            for p, cls in enumerate(part.classes):
                direct = view.block(p, p)
                via_net = loop_stamp(grounded_equivalent(net, cls), 0.0)
                np.testing.assert_array_equal(via_net, direct)

    def test_matches_diagonal_block_on_float_data(self):
        from ybuskit import GenSpec, generate
        net = generate(GenSpec(node_range=(12, 12), edge_density=0.3,
                               shunt_probability=0.5, seed=99))
        part = Partition.from_labels([i % 3 for i in range(12)])
        view = block_view(assemble(net), part)
        for p, cls in enumerate(part.classes):
            direct = view.block(p, p)
            via_net = loop_stamp(grounded_equivalent(net, cls), 0.0)
            scale = max(np.abs(direct).max(), 1e-300)
            assert np.abs(via_net - direct).max() <= 1e-12 * scale


class TestVerifyBlockRank:
    def test_split_path_two_components(self):
        rep = verify_block_rank(path(3), Partition(((0, 2), (1,)), 3))
        assert rep.connected and rep.hypothesis1_ok and rep.branches_re_positive
        outer = rep.classes[0]
        assert outer.nodes == (0, 2)
        assert len(outer.components) == 2
        assert all(c.full_rank and c.grounded for c in outer.components)
        inner = rep.classes[1]
        assert len(inner.components) == 1 and inner.components[0].full_rank
        assert rep.all_full_rank

    def test_component_certificate_is_the_component_block(self):
        net = Network(4, (Branch(0, 1, 1.0), Branch(1, 2, 2.0 + 1j), Branch(2, 3, 0.5)),
                      (Shunt(3, 0.25),))
        y = assemble(net).matrix
        # one class of two components, and one class that is a single component
        rep = verify_block_rank(net, Partition(((0, 3), (2, 1)), 4))
        assert [[c.nodes for c in cls.components] for cls in rep.classes] == \
            [[(0,), (3,)], [(1, 2)]]
        for cls in rep.classes:
            for c in cls.components:
                sub = y[np.ix_(c.nodes, c.nodes)]
                assert c.condition_estimate == full_rank_certificate(sub).condition_estimate
        assert not hasattr(rep.classes[0], "certificate")  # no LU factors outlive the check

    def test_theorem2_suite_factors_each_block_once(self, monkeypatch):
        calls = []
        original = linalg_core.lu_factor_checked

        def counted(a):
            calls.append(a.tobytes())
            return original(a)

        monkeypatch.setattr(linalg_core, "lu_factor_checked", counted)
        assert run_suite("theorem2", 1, 5).passed
        # one LU per component and nothing else; the residual solve is
        # NumPy's.  Node 23 is a one-node component in two of the three
        # partitions, so 25 LUs see 24 distinct matrices.
        assert len(calls) == 25
        assert len(set(calls)) == 24

    def test_reactive_cancellation_counterexample(self):
        net = Network(2, (Branch(0, 1, 1j),), (Shunt(0, -1j),))
        rep = verify_block_rank(net, Partition(((0,), (1,)), 2))
        # hypothesis Re(y) > 0 fails, and with it the conclusion
        assert not rep.branches_re_positive
        assert rep.hypothesis1_ok  # |y| is fine; only the real part is not
        first = rep.classes[0]
        assert not first.each_component_full_rank
        assert not rep.all_full_rank
        assert any("rank deficient" in msg for msg in rep.findings)
        # the grounded equivalent really is the zero 1x1 matrix
        g = grounded_equivalent(net, {0})
        np.testing.assert_array_equal(loop_stamp(g, 0.0), [[0j]])

    def test_disconnected_interior_component_reported(self):
        # two separate edges; the class {0,1} has no path to ground at all
        net = Network(4, (Branch(0, 1, 1.0), Branch(2, 3, 1.0)), ())
        rep = verify_block_rank(net, Partition(((0, 1), (2, 3)), 4))
        assert not rep.connected
        comp = rep.classes[0].components[0]
        assert not comp.grounded and not comp.full_rank
        assert any("touches no boundary branch or shunt" in m for m in rep.findings)
        # a shunt above zero_tol grounds the component; one below does not
        part = Partition(((0, 1), (2, 3)), 4)
        for y, grounded in ((1.0, True), (1e-13, False)):
            rep = verify_block_rank(Network(4, net.branches, (Shunt(0, y),)), part)
            assert rep.classes[0].components[0].grounded == grounded

    def test_random_re_positive_nets_all_blocks_invertible(self):
        rng = np.random.default_rng(47)
        for _ in range(12):
            n = int(rng.integers(4, 14))
            net = _draw_net(rng, n, 3, int(rng.integers(0, 3)), re_positive=True)
            part = _random_partition(rng, n, int(rng.integers(2, 5)))
            rep = verify_block_rank(net, part)
            assert rep.branches_re_positive
            assert rep.all_full_rank
            for cr in rep.classes:
                assert all(np.isfinite(c.condition_estimate) for c in cr.components)

    def test_cross_component_entries_exactly_zero(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            n = int(rng.integers(5, 12))
            net = _draw_net(rng, n, 2, 1, re_positive=True)
            part = _random_partition(rng, n, 2)
            view = block_view(assemble(net), part)
            rep = verify_block_rank(net, part)
            for p, cls in enumerate(part.classes):
                comps = rep.classes[p].components
                if len(comps) < 2:
                    continue
                blk = view.block(p, p)
                pos = {v: i for i, v in enumerate(cls)}
                for a in range(len(comps)):
                    for b in range(a + 1, len(comps)):
                        ia = [pos[v] for v in comps[a].nodes]
                        ib = [pos[v] for v in comps[b].nodes]
                        assert np.all(blk[np.ix_(ia, ib)] == 0)

    def test_svd_route_agrees(self):
        net = _draw_net(np.random.default_rng(59), 8, 2, 1, re_positive=True)
        part = Partition.from_labels([0, 0, 1, 1, 0, 1, 0, 1])
        rep = verify_block_rank(net, part)
        y = assemble(net).matrix
        for cr in rep.classes:
            for c in cr.components:
                sub = y[np.ix_(c.nodes, c.nodes)]
                assert c.full_rank == (numerical_rank(sub).rank == len(c.nodes))
            blk = y[np.ix_(cr.nodes, cr.nodes)]
            assert cr.each_component_full_rank == (numerical_rank(blk).rank == len(cr.nodes))

    @pytest.mark.parametrize("classes", [((0, 1), (2,)), ((0,), (1, 2))])
    def test_zero_admittance_branch_refused_like_assemble(self, classes):
        net = Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 0j)), (Shunt(0, 1.0),))
        with pytest.raises(HypothesisError, match=r"branch 1 \(1,2\)"):
            assemble(net)
        with pytest.raises(HypothesisError, match=r"branch 1 \(1,2\)"):
            verify_block_rank(net, Partition(classes, 3))

    def test_partition_size_mismatch(self):
        with pytest.raises(StructuralError):
            verify_block_rank(path(4), Partition(((0,), (1, 2)), 3))
