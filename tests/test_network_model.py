"""Data model, validation findings and graph queries."""

import numpy as np
import pytest

from ybuskit import (
    Branch,
    Network,
    Partition,
    Shunt,
    StructuralError,
    incidence_matrix,
    is_connected,
    shunt_totals,
    validate,
    verify_block_rank,
)
from oracles import closure_components, exact_int_rank


def path(n, y=1 + 0j, shunts=()):
    return Network(
        node_count=n,
        branches=tuple(Branch(i, i + 1, y) for i in range(n - 1)),
        shunts=tuple(Shunt(node, v) for node, v in shunts),
    )


class TestDataModel:
    def test_self_loop_rejected(self):
        with pytest.raises(StructuralError):
            Branch(2, 2, 1 + 0j)

    def test_negative_node_ids_rejected(self):
        with pytest.raises(StructuralError):
            Branch(-1, 0, 1j)
        with pytest.raises(StructuralError):
            Shunt(-3, 1j)

    def test_out_of_range_references_rejected(self):
        with pytest.raises(StructuralError):
            Network(2, branches=(Branch(0, 5, 1 + 0j),))
        with pytest.raises(StructuralError):
            Network(2, shunts=(Shunt(2, 1 + 0j),))

    @pytest.mark.parametrize("y", [complex("nan"), complex("inf"), complex(0, float("-inf"))])
    def test_non_finite_admittance_rejected(self, y):
        with pytest.raises(StructuralError, match="finite"):
            Branch(0, 1, y)
        with pytest.raises(StructuralError, match="finite"):
            Shunt(0, y)

    def test_at_least_one_node(self):
        with pytest.raises(StructuralError):
            Network(0)

    def test_values_coerced(self):
        b = Branch(np.int64(0), 1, 2)
        assert isinstance(b.from_node, int)
        assert b.admittance == 2 + 0j
        net = Network(2, branches=[b], shunts=[Shunt(0, 1)])
        assert isinstance(net.branches, tuple)
        assert isinstance(net.shunts, tuple)

    def test_ground_is_not_a_node(self):
        # shunts reference only regular nodes; there is no ground index
        net = Network(1, shunts=(Shunt(0, 1 + 1j),))
        assert net.node_count == 1


class TestValidate:
    def test_minimal_network_all_ok(self):
        report = validate(Network(2, branches=(Branch(0, 1, 1 + 0j),)))
        assert report.connected
        assert report.hypothesis1_ok
        assert report.theorem2_preconditions_ok
        assert report.shunt_passivity_ok
        assert report.messages == ()

    def test_isolated_node_reported(self):
        report = validate(Network(3, branches=(Branch(0, 1, 1 + 0j),)))
        assert not report.connected
        assert any("disconnected" in m for m in report.messages)

    def test_reactive_branch_fails_only_the_re_condition(self):
        report = validate(Network(2, branches=(Branch(0, 1, 1j),)))
        assert report.hypothesis1_ok
        assert not report.theorem2_preconditions_ok

    def test_zero_admittance_branch_reported(self):
        report = validate(Network(2, branches=(Branch(0, 1, 0j),)))
        assert not report.hypothesis1_ok
        assert not report.theorem2_preconditions_ok

    def test_near_zero_branch_respects_tolerance(self):
        # DEFAULT_ZERO_TOL = 1e-12 lies between the two
        assert not validate(Network(2, branches=(Branch(0, 1, 1e-13 + 0j),))).hypothesis1_ok
        assert validate(Network(2, branches=(Branch(0, 1, 1e-11 + 0j),))).hypothesis1_ok

    def test_active_shunt_reported_but_not_gating(self):
        report = validate(Network(1, shunts=(Shunt(0, -2 + 1j),)))
        assert not report.shunt_passivity_ok
        assert report.connected  # reporting, not gating

    def test_theorem2_implies_hypothesis1(self):
        nets = [
            Network(2, branches=(Branch(0, 1, 0j),)),
            Network(2, branches=(Branch(0, 1, 1j),)),
            Network(2, branches=(Branch(0, 1, 1 + 1j),)),
            Network(3, branches=(Branch(0, 1, 1 + 0j), Branch(1, 2, 0j))),
        ]
        for net in nets:
            r = validate(net)
            assert (not r.theorem2_preconditions_ok) or r.hypothesis1_ok


class TestConnectivity:
    def test_singleton_graph_is_connected(self):
        assert is_connected(Network(1))

    def test_path_is_connected(self):
        assert is_connected(path(3))

    def test_missing_edge_disconnects(self):
        assert not is_connected(Network(3, branches=(Branch(0, 1, 1 + 0j),)))

    def test_matches_transitive_closure_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            count = int(rng.integers(0, 2 * n))
            edges = []
            for _ in range(count):
                i, j = rng.choice(n, size=2, replace=False)
                edges.append((int(min(i, j)), int(max(i, j))))
            net = Network(n, branches=tuple(Branch(i, j, 1 + 1j) for i, j in edges))
            expected = len(closure_components(n, edges)) == 1
            assert is_connected(net) == expected


def components(net, subset):
    """Node tuples of the components of the subgraph ``subset`` induces, as
    the block-rank report of the partition (subset, rest) lists them."""
    subset = tuple(sorted(subset))
    rest = tuple(v for v in range(net.node_count) if v not in subset)
    rep = verify_block_rank(net, Partition((subset, rest), net.node_count))
    return [c.nodes for c in rep.classes[0].components]


class TestComponents:
    def test_removing_middle_node_splits_path(self):
        assert components(path(3), {0, 2}) == [(0,), (2,)]

    def test_full_subset_of_connected_network_is_one_component(self):
        # path(4) as the first four nodes of path(5)
        assert components(path(5), range(4)) == [(0, 1, 2, 3)]

    def test_union_of_components_is_the_subset(self):
        rng = np.random.default_rng(7)
        net = path(8)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            subset = set(int(v) for v in rng.choice(8, size=k, replace=False))
            comps = components(net, subset)
            assert set().union(*(set(c) for c in comps)) == subset

    def test_matches_transitive_closure_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(3, 10))
            edges = []
            for _ in range(int(rng.integers(1, 2 * n))):
                i, j = rng.choice(n, size=2, replace=False)
                edges.append((int(i), int(j)))
            net = Network(n, branches=tuple(Branch(i, j, 1 - 1j) for i, j in edges))
            k = int(rng.integers(1, n))  # the rest of the partition is nonempty
            subset = set(int(v) for v in rng.choice(n, size=k, replace=False))
            induced = [(i, j) for i, j in edges if i in subset and j in subset]
            # oracle components over the induced subgraph, restricted to subset
            oracle = {
                frozenset(c & subset)
                for c in closure_components(n, induced)
                if c & subset
            }
            got = {frozenset(c) for c in components(net, subset)}
            assert got == oracle

    def test_component_branches_have_both_ends_inside(self):
        net = Network(
            5,
            branches=(
                Branch(0, 1, 1 + 0j),
                Branch(1, 2, 1 + 0j),
                Branch(3, 4, 1 + 0j),
                Branch(2, 3, 1 + 0j),
            ),
        )
        # branches 1 and 3 have node 2 outside the subset and join nothing
        assert components(net, {0, 1, 3, 4}) == [(0, 1), (3, 4)]


class TestShuntTotals:
    def test_sums_per_node(self):
        net = Network(3, shunts=(Shunt(0, 1 + 1j), Shunt(0, 2 - 1j), Shunt(2, 1j)))
        np.testing.assert_array_equal(shunt_totals(net), [3 + 0j, 0j, 1j])

    def test_opposite_shunts_cancel_exactly(self):
        net = Network(1, shunts=(Shunt(0, 1 + 1j), Shunt(0, -1 - 1j)))
        assert shunt_totals(net)[0] == 0j


class TestIncidence:
    def test_single_branch(self):
        a = incidence_matrix(Network(2, branches=(Branch(0, 1, 1 + 0j),)))
        np.testing.assert_array_equal(a, [[1, -1]])

    def test_path_of_three(self):
        np.testing.assert_array_equal(
            incidence_matrix(path(3)), [[1, -1, 0], [0, 1, -1]]
        )

    def test_connected_networks_have_rank_n_minus_1(self):
        # exact integer elimination as the oracle
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
            extra = int(rng.integers(0, 3))
            for _ in range(extra):
                i, j = rng.choice(n, size=2, replace=False)
                edges.append((int(i), int(j)))
            net = Network(n, branches=tuple(Branch(i, j, 1 + 2j) for i, j in edges))
            assert exact_int_rank(incidence_matrix(net)) == n - 1

    def test_disconnected_rank_drops_per_component(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(3, 9))
            edges = []
            for _ in range(int(rng.integers(0, n))):
                i, j = rng.choice(n, size=2, replace=False)
                edges.append((int(i), int(j)))
            net = Network(n, branches=tuple(Branch(i, j, 1 + 0j) for i, j in edges))
            c = len(closure_components(n, edges))
            assert exact_int_rank(incidence_matrix(net)) == n - c
