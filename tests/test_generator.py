"""Random-network generation: determinism, topology, policies, adversarial case."""

import hashlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from ybuskit import (
    DEFAULT_ZERO_TOL,
    PHASE_POLICIES,
    GenSpec,
    Partition,
    StructuralError,
    assemble,
    block_view,
    counterexample_block_singular,
    generate,
    is_connected,
    random_partition,
    validate,
    verify_block_rank,
    verify_rank,
)
from ybuskit.cli import main
from ybuskit.io import emit_json, network_to_dict
from ybuskit.ybus import _stamp

from oracles import loop_generate, loop_stamp


def _bits(net):
    """Node count, then every element's nodes in order with the exact bits of its admittance.

    Real and imaginary parts are packed as binary64, so a differing sign of
    zero or last bit counts as a difference.
    """
    def pack(z):
        return struct.pack("<dd", z.real, z.imag)

    return (
        net.node_count,
        [(b.from_node, b.to_node, pack(b.admittance)) for b in net.branches],
        [(s.node, pack(s.admittance)) for s in net.shunts],
    )


def test_same_seed_same_network():
    spec = GenSpec(node_range=(5, 30), edge_density=0.2, shunt_probability=0.5, seed=1234)
    assert generate(spec) == generate(spec)


def test_different_seeds_differ():
    a = generate(GenSpec(seed=1))
    b = generate(GenSpec(seed=2))
    assert a != b


def test_single_node():
    net = generate(GenSpec(node_range=(1, 1), edge_density=0.0, seed=0))
    assert net.node_count == 1 and net.branches == () and net.shunts == ()


def test_node_range_is_inclusive():
    seen = set()
    for seed in range(60):
        net = generate(GenSpec(node_range=(3, 5), seed=seed))
        seen.add(net.node_count)
        assert 3 <= net.node_count <= 5
    assert seen == {3, 4, 5}


def test_density_zero_gives_tree():
    for seed in range(10):
        net = generate(GenSpec(node_range=(8, 20), edge_density=0.0, seed=seed))
        assert len(net.branches) == net.node_count - 1
        assert is_connected(net)


def test_density_one_gives_complete_graph():
    net = generate(GenSpec(node_range=(7, 7), edge_density=1.0, seed=5))
    n = net.node_count
    assert len(net.branches) == n * (n - 1) // 2
    pairs = {(min(b.from_node, b.to_node), max(b.from_node, b.to_node))
             for b in net.branches}
    assert len(pairs) == len(net.branches)  # no duplicates


def test_no_self_loops_or_duplicate_pairs():
    for seed in range(15):
        net = generate(GenSpec(node_range=(5, 25), edge_density=0.4, seed=seed))
        pairs = [(min(b.from_node, b.to_node), max(b.from_node, b.to_node))
                 for b in net.branches]
        assert all(i != j for i, j in pairs)
        assert len(set(pairs)) == len(pairs)


def test_all_three_node_trees_occur():
    seen = set()
    for seed in range(200):
        net = generate(GenSpec(node_range=(3, 3), edge_density=0.0, seed=seed))
        seen.add(tuple(sorted((min(b.from_node, b.to_node), max(b.from_node, b.to_node))
                              for b in net.branches)))
    assert seen == {((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))}


class TestPhasePolicies:
    def test_re_positive(self):
        net = generate(GenSpec(node_range=(20, 20), edge_density=0.3,
                               shunt_probability=0.5, phase_policy="re_positive",
                               magnitude_range=(1e-1, 1e1), seed=8))
        for b in net.branches:
            assert b.admittance.real > 0
            assert 1e-1 <= b.admittance.real <= 1e1
            assert 1e-1 <= abs(b.admittance.imag) <= 1e1
        for s in net.shunts:
            assert s.admittance.real > 0

    def test_pure_imaginary(self):
        net = generate(GenSpec(node_range=(15, 15), phase_policy="pure_imaginary",
                               shunt_probability=0.3, seed=9))
        for b in net.branches:
            assert b.admittance.real == 0.0 and b.admittance.imag != 0.0

    def test_arbitrary_magnitudes_in_range(self):
        net = generate(GenSpec(node_range=(25, 25), phase_policy="arbitrary",
                               magnitude_range=(1e-2, 1e2), edge_density=0.2, seed=10))
        for b in net.branches:
            assert 1e-2 * (1 - 1e-12) <= abs(b.admittance) <= 1e2 * (1 + 1e-12)


class TestShunts:
    def test_probability_zero_means_none(self):
        net = generate(GenSpec(node_range=(10, 10), shunt_probability=0.0, seed=3))
        assert net.shunts == ()

    def test_probability_one_means_all(self):
        net = generate(GenSpec(node_range=(10, 10), shunt_probability=1.0, seed=3))
        assert sorted(s.node for s in net.shunts) == list(range(10))

    def test_min_shunts_tops_up(self):
        net = generate(GenSpec(node_range=(12, 12), shunt_probability=0.0,
                               min_shunts=3, seed=4))
        assert len(net.shunts) == 3
        assert len({s.node for s in net.shunts}) == 3

    def test_min_shunts_exceeding_nodes(self):
        with pytest.raises(StructuralError):
            generate(GenSpec(node_range=(2, 2), min_shunts=5, seed=0))


@pytest.mark.parametrize("policy", ["re_positive", "arbitrary", "pure_imaginary"])
def test_every_draw_is_connected_and_hypothesis_clean(policy):
    for seed in range(25):
        net = generate(GenSpec(node_range=(2, 30), edge_density=0.15,
                               shunt_probability=0.3, phase_policy=policy,
                               seed=seed))
        rep = validate(net)
        assert rep.connected and rep.hypothesis1_ok


def test_shuntless_draws_verify_rank_case_one():
    # bulk check against the rank machinery: every shuntless draw must hit
    # rank N-1 on the nose
    for seed in range(500):
        net = generate(GenSpec(node_range=(2, 30), edge_density=0.15,
                               shunt_probability=0.0, phase_policy="re_positive",
                               seed=seed))
        v = verify_rank(net)
        assert v.agrees and v.measured_rank == net.node_count - 1


class TestGenSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(node_range=(0, 5)),
            dict(node_range=(5, 3)),
            dict(edge_density=-0.1),
            dict(edge_density=1.5),
            dict(shunt_probability=2.0),
            dict(magnitude_range=(0.0, 1.0)),
            dict(magnitude_range=(2.0, 1.0)),
            dict(magnitude_range=(1.0, float("inf"))),
            dict(phase_policy="positive"),
            dict(min_shunts=-1),
            dict(seed=-1),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(StructuralError):
            GenSpec(**kwargs)


class TestRandomPartition:
    def test_shape_and_cover(self):
        rng = np.random.default_rng(0)
        part = random_partition(10, 4, rng)
        assert part.class_count == 4
        assert sorted(v for c in part.classes for v in c) == list(range(10))

    def test_deterministic_under_seeded_rng(self):
        a = random_partition(12, 3, np.random.default_rng(7))
        b = random_partition(12, 3, np.random.default_rng(7))
        assert a == b

    @pytest.mark.parametrize("n,k", [(5, 1), (5, 6), (3, 0)])
    def test_rejects_bad_class_counts(self, n, k):
        with pytest.raises(StructuralError):
            random_partition(n, k, np.random.default_rng(0))


class TestCounterexample:
    def test_block_is_exactly_zero(self):
        net, part = counterexample_block_singular()
        view = block_view(assemble(net), part)
        np.testing.assert_array_equal(view.block(0, 0), [[0j]])

    def test_hypotheses_split(self):
        net, _ = counterexample_block_singular()
        rep = validate(net)
        assert rep.hypothesis1_ok            # |y| = 1 on the only branch
        assert not rep.theorem2_preconditions_ok  # but Re(y) = 0

    def test_flagged_by_block_rank_verification(self):
        net, part = counterexample_block_singular()
        rep = verify_block_rank(net, part)
        assert not rep.all_full_rank
        assert not rep.classes[0].components[0].full_rank

    def test_partition_is_singletons(self):
        _, part = counterexample_block_singular()
        assert part == Partition(((0,), (1,)), 2)


class TestSameNetworksAsThePerElementGenerator:
    """The array generator and stamp reproduce the per-element loops bit for bit."""

    @pytest.mark.parametrize("policy", PHASE_POLICIES)
    def test_oracle_agreement(self, policy):
        # 1040 specs per policy: single nodes, two nodes, trees, complete
        # graphs, and shunt top-ups with and without a probability draw
        for node_range, density, min_shunts, k in itertools.product(
            ((1, 1), (2, 2), (1, 8), (3, 30), (31, 45)), (0.0, 0.15, 0.5, 1.0), (0, 3), range(26)
        ):
            spec = GenSpec(
                node_range=node_range, edge_density=density,
                shunt_probability=0.25 if k % 2 else 0.0, magnitude_range=(1e-3, 1e3),
                phase_policy=policy, seed=7919 * k + 13, min_shunts=min(min_shunts, node_range[0]),
            )
            net = generate(spec)
            assert _bits(net) == _bits(loop_generate(spec)), spec
            stamped = _stamp(net, DEFAULT_ZERO_TOL)
            assert stamped.tobytes() == loop_stamp(net, DEFAULT_ZERO_TOL).tobytes(), spec

    def test_fixed_specs_keep_their_networks(self, tmp_path):
        # SHA-256 of the network documents these specs gave before generation
        # worked on whole arrays; the first is the README randgen example
        out = tmp_path / "demo.json"
        assert main(["randgen", str(out), "--nodes", "8,12", "--density", "0.2",
                     "--shunt-prob", "0.3", "--seed", "3"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4a1e0c795374f7a8eb24f7f4cd34592bb0541d1c2e62f715fce441f67db202c9")
        pinned = {
            GenSpec(node_range=(40, 40), edge_density=0.3, shunt_probability=0.2,
                    phase_policy="arbitrary", seed=2024, min_shunts=3):
            "47b87fe21336cc49d49afc51c5ad5c7ccc01d4b015b1729b27056946102270e0",
            GenSpec(node_range=(20, 60), edge_density=0.05, magnitude_range=(1e-6, 1e6),
                    phase_policy="pure_imaginary", seed=99, min_shunts=4):
            "594a1c0c091a5dbaf0cdcf6fee6dfe3cc12106d88aff87a1ad6eaa9cfe5dcad4",
        }
        for spec, digest in pinned.items():
            text = emit_json(network_to_dict(generate(spec)))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, spec


def test_generation_memory_is_linear_in_nodes_plus_branches():
    # 20000 nodes and about 3 branches per node: the 2e8 non-tree pairs are
    # never listed, so the traced peak stays near the network itself (about
    # 16 MiB); listing the candidate pairs took 416 MiB already at 3000 nodes
    n = 20000
    spec = GenSpec(node_range=(n, n), edge_density=2e-4, shunt_probability=0.05, seed=1)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        net = generate(spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert 2.5 * n < len(net.branches) < 3.5 * n
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"
