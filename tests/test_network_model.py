"""Data model, validation findings and graph queries."""

import dataclasses

import numpy as np
import pytest

from ybuskit import (
    PHASE_POLICIES,
    Branch,
    GenSpec,
    Network,
    Partition,
    PreconditionError,
    Shunt,
    StructuralError,
    assemble,
    generate,
    is_connected,
    rank_verdicts,
    shunt_totals,
    validate,
    verify_block_rank,
)
from ybuskit.network_model import _component_labels
from ybuskit.rank_analysis import _pattern_connected
from oracles import (
    closure_components,
    exact_int_rank,
    incidence_matrix,
    loop_range_error,
    loop_shunt_totals,
)


def assert_arrays_match(net):
    """The network's arrays are read-only and hold its branches and shunts entry for entry."""
    assert net.ends.shape == (len(net.branches), 2)
    assert net.ends.tolist() == [[b.from_node, b.to_node] for b in net.branches]
    assert net.branch_y.tolist() == [b.admittance for b in net.branches]
    assert net.shunt_nodes.tolist() == [s.node for s in net.shunts]
    assert net.shunt_y.tolist() == [s.admittance for s in net.shunts]
    assert net.branch_y.dtype == net.shunt_y.dtype == np.complex128
    for a in (net.ends, net.branch_y, net.shunt_nodes, net.shunt_y):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


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
        assert_arrays_match(net)
        assert net.ends.dtype == net.shunt_nodes.dtype == np.intp
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.ends = np.zeros((1, 2), dtype=np.intp)
        same = Network(2, branches=(b,), shunts=(Shunt(0, 1),))
        assert net == same and hash(net) == hash(same)
        assert net != Network(2, branches=(b,))

        bare = dataclasses.replace(net, shunts=())
        assert_arrays_match(bare)
        assert bare.shunt_nodes.size == bare.shunt_y.size == 0
        assert bare.ends.tolist() == [[0, 1]]

        big = 10**30
        huge = Network(big + 1, (Branch(0, big, 1.0),), (Shunt(big, 2j),))
        assert_arrays_match(huge)
        assert huge.ends.dtype == huge.shunt_nodes.dtype == object

    def test_ground_is_not_a_node(self):
        # shunts reference only regular nodes; there is no ground index
        net = Network(1, shunts=(Shunt(0, 1 + 1j),))
        assert net.node_count == 1


def random_references(rng, n, count):
    """``count`` node indices for ``n`` nodes: mostly in range, some at or past ``n`` or intp."""
    kinds = rng.choice(5, size=count, p=[0.45, 0.45, 0.04, 0.03, 0.03]).tolist()
    steps = rng.integers(0, 3, size=count).tolist()
    return [[k % n, max(n - 1 - k, 0), n + k, 2**63 + k, 10**31 + k][kind]
            for kind, k in zip(kinds, steps)]


class TestRangeCheck:
    """``Network`` names the first bad branch, then the first bad shunt, as a loop would."""

    @pytest.mark.parametrize("base", [0, 2**62, 10**30])
    def test_matches_the_per_branch_loop(self, base):
        rng = np.random.default_rng(base % 1000 + 27)
        for _ in range(150):
            n = base + int(rng.integers(1, 6))
            count = int(rng.integers(0, 5))
            ends = zip(random_references(rng, n, count), random_references(rng, n, count))
            branches = [Branch(i, j, 1 + 1j) for i, j in ends if i != j]
            shunts = [Shunt(v, 1j) for v in random_references(rng, n, int(rng.integers(0, 4)))]
            expected = loop_range_error(n, branches, shunts)
            if expected is None:
                assert_arrays_match(Network(n, branches, shunts))
            else:
                with pytest.raises(StructuralError) as info:
                    Network(n, branches, shunts)
                assert str(info.value) == expected

    def test_first_bad_branch_is_named_before_any_shunt(self):
        branches = (Branch(0, 1, 1.0), Branch(2, 0, 1.0), Branch(0, 2**70, 1.0))
        with pytest.raises(StructuralError) as info:
            Network(2, branches, (Shunt(5, 1.0),))
        assert str(info.value) == "branch 1 references node outside [0, 2): (2, 0)"
        with pytest.raises(StructuralError) as info:
            Network(2, branches[:1], (Shunt(1, 1.0), Shunt(2**64, 1.0), Shunt(2, 1.0)))
        assert str(info.value) == f"shunt 1 references node {2**64} outside [0, 2)"


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

    def test_findings_of_every_kind_keep_their_text_and_order(self):
        net = Network(
            5,
            branches=(
                Branch(0, 1, -2 + 1j),
                Branch(1, 2, 1 + 1j),
                Branch(2, 0, 1e-13 + 0j),
                Branch(3, 4, 0.5j),
            ),
            shunts=(Shunt(1, 1.0), Shunt(4, -0.25 + 1j)),
        )
        assert validate(net).messages == (
            "graph is disconnected: 2 components",
            "branch 2 (2,0) has near-zero admittance (1e-13+0j)",
            "branch 0 (0,1) has Re(y) = -2.0 <= 0",
            "branch 3 (3,4) has Re(y) = 0.0 <= 0",
            "shunt 1 at node 4 has Re(y) = -0.25 < 0",
        )

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

    def test_node_indices_past_int64_are_counted(self):
        big = 10**30
        net = Network(big + 1, (Branch(0, big, 1.0), Branch(big, 2, 1.0)))
        assert validate(net).messages == (f"graph is disconnected: {big - 1} components",)
        assert not is_connected(net)

    def test_branches_that_cancel_in_y_still_connect_the_network(self):
        # the parallel branches cancel exactly, so Y stores no (0, 1) entry:
        # a network's connectivity is its branch graph's, not Y's pattern's
        net = Network(3, (Branch(0, 1, 1.0), Branch(0, 1, -1.0), Branch(1, 2, 1.0)))
        report = validate(net)
        assert report.connected
        assert report.messages == ("branch 1 (0,1) has Re(y) = -1.0 <= 0",)
        assert is_connected(net)
        y = assemble(net)
        assert not _pattern_connected(y)
        [verdict] = rank_verdicts(net, ("direct",))
        assert (verdict.predicted_rank, verdict.measured_rank, verdict.agrees) == (2, 1, False)
        with pytest.raises(PreconditionError, match="off-diagonal pattern is disconnected"):
            rank_verdicts(y, ("direct",))
        rep = verify_block_rank(net, Partition(((0, 1), (2,)), 3))
        assert [[c.nodes for c in r.components] for r in rep.classes] == [[(0, 1)], [(2,)]]


def oracle_labels(n, edges):
    """Component index per node, components numbered in order of their smallest node."""
    labels = [-1] * n
    for k, comp in enumerate(closure_components(n, edges)):
        for v in comp:
            labels[v] = k
    return labels


def shuffled_path(n, rng):
    order = rng.permutation(n).tolist()
    return list(zip(order, order[1:]))


class TestComponentLabels:
    """The labeller against the closure oracle where hooking takes the most rounds."""

    @pytest.mark.parametrize("edges", [
        pytest.param([(k + 1, k) for k in reversed(range(199))], id="reversed-path"),
        pytest.param(shuffled_path(200, np.random.default_rng(5)), id="shuffled-path"),
        pytest.param([(199, k) for k in range(199)], id="star-with-largest-centre"),
        pytest.param([(k, 199) for k in range(0, 199, 2)], id="star-and-isolated-nodes"),
        pytest.param([(3, 7), (7, 3), (3, 7), (0, 9), (9, 0)] * 4, id="parallel-branches"),
        pytest.param([], id="no-edges"),
    ])
    def test_matches_closure_oracle(self, edges):
        n = 1 + max((max(e) for e in edges), default=11)
        u, v = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        assert _component_labels(n, u, v).tolist() == oracle_labels(n, edges)

    def test_random_graphs_match_closure_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            m = int(rng.integers(0, n + 1))
            u, v = rng.integers(0, n, size=(2, m))
            edges = [(i, j) for i, j in zip(u.tolist(), v.tolist()) if i != j]
            keep = u != v
            assert _component_labels(n, u[keep], v[keep]).tolist() == oracle_labels(n, edges)

    def test_block_rank_pieces_of_a_path_in_alternating_classes(self):
        rng = np.random.default_rng(11)
        n = 200
        net = path(n, y=1 - 0.5j)
        runs = rng.integers(1, 6, size=n)  # class k % 2 owns the k-th run of nodes
        labels = np.repeat(np.arange(n) % 2, runs)[:n].tolist()
        part = Partition.from_labels(labels)
        rep = verify_block_rank(net, part)
        edges = [(k, k + 1) for k in range(n - 1)]
        for cls, r in zip(part.classes, rep.classes):
            inside = set(cls)
            induced = [(i, j) for i, j in edges if i in inside and j in inside]
            expected = [tuple(sorted(c)) for c in closure_components(n, induced) if c <= inside]
            assert [c.nodes for c in r.components] == expected


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

    @pytest.mark.parametrize("policy", PHASE_POLICIES)
    def test_bit_identical_to_the_per_shunt_loop(self, policy):
        for seed in range(12):
            net = generate(GenSpec(node_range=(2, 40), shunt_probability=0.6, seed=seed,
                                   phase_policy=policy, magnitude_range=(1e-6, 1e6)))
            assert shunt_totals(net).tobytes() == loop_shunt_totals(net).tobytes()

    def test_repeated_and_signed_zero_shunts_bit_identical_to_the_loop(self):
        shunts = (Shunt(0, 0.1 + 0.2j), Shunt(2, -0j), Shunt(0, 0.2), Shunt(2, complex(-0.0, 0.0)),
                  Shunt(1, 1e16), Shunt(0, 0.3 - 0.2j), Shunt(1, 1.0), Shunt(1, -1e16),
                  Shunt(3, 1 + 1j), Shunt(3, -1 - 1j), Shunt(2, 0j))
        net = Network(5, shunts=shunts)
        assert shunt_totals(net).tobytes() == loop_shunt_totals(net).tobytes()
        rng = np.random.default_rng(7)
        for _ in range(50):
            count = int(rng.integers(0, 12))
            nodes = rng.integers(0, 4, size=count).tolist()
            parts = rng.standard_normal((count, 2)) * 10.0 ** rng.integers(-8, 9, (count, 1))
            parts[rng.random(parts.shape) < 0.2] = 0.0
            parts[rng.random(parts.shape) < 0.2] = -0.0
            shunts = [Shunt(v, complex(re, im)) for v, (re, im) in zip(nodes, parts.tolist())]
            net = Network(4, shunts=shunts)
            assert shunt_totals(net).tobytes() == loop_shunt_totals(net).tobytes()


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
