"""Rank prediction and its two verification routes.

Oracle strategy: numerical verdicts are cross-checked against exact
Gaussian elimination over rational complex numbers (tests/oracles.py) on
networks with dyadic admittances, where float assembly is exact.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from ybuskit import (
    AdmittanceMatrix,
    Branch,
    GenSpec,
    Network,
    PreconditionError,
    RankVerdict,
    Shunt,
    assemble,
    generate,
    numerical_rank,
    rank_verdicts,
    shunt_totals,
    verify_matrix_rank,
    verify_rank,
    verify_rank_via_augmentation,
)
from ybuskit import rank_analysis, ybus
from ybuskit.rank_analysis import _augment_virtual_ground, _block_form_error
from ybuskit.suites import run_suite

from oracles import (
    augmented_network,
    block_form_error,
    block_form_matrix,
    dyadic_admittance,
    exact_assemble,
    exact_rank,
    grid_network,
    random_rational_network,
)


def path(n, y=1.0):
    return Network(n, tuple(Branch(i, i + 1, y) for i in range(n - 1)), ())


def star(n, y=1.0):
    return Network(n, tuple(Branch(0, i, y) for i in range(1, n)), ())


def with_shunts(net, *shunts):
    return Network(net.node_count, net.branches, net.shunts + tuple(shunts))


def _draw_net(rng, n, extra_edges, shunt_count):
    nodes, branches, shunts = random_rational_network(
        rng, n, extra_edges=extra_edges, shunt_count=shunt_count)
    return Network(nodes,
                   tuple(Branch(i, j, y) for i, j, y in branches),
                   tuple(Shunt(v, y) for v, y in shunts))


def predicted_rank(net):
    """The rank the direct verdict predicts: N-1 with all shunt totals zero, else N."""
    return rank_verdicts(net, ("direct",))[0].predicted_rank


class TestPredictRank:
    def test_shuntless_path(self):
        assert predicted_rank(path(3)) == 2

    def test_small_shunt_still_counts(self):
        assert predicted_rank(with_shunts(path(3), Shunt(0, 1e-3 + 0j))) == 3

    def test_single_node_with_shunt(self):
        assert predicted_rank(Network(1, (), (Shunt(0, 2.0 - 1j),))) == 1

    def test_cancelling_shunts_count_as_none(self):
        # two shunts at the same node summing to zero: the assembled
        # diagonal sees nothing, so the prediction is the shuntless one
        net = with_shunts(path(3), Shunt(1, 1j), Shunt(1, -1j))
        assert predicted_rank(net) == 2

    def test_disconnected_refused(self):
        net = Network(3, (Branch(0, 1, 1.0),), ())
        with pytest.raises(PreconditionError, match="connected"):
            predicted_rank(net)

    def test_zero_branch_refused(self):
        net = Network(2, (Branch(0, 1, 0j),), ())
        with pytest.raises(PreconditionError):
            predicted_rank(net)


class TestVerifyRank:
    def test_star_shuntless(self):
        v = verify_rank(star(5))
        assert v.predicted_rank == 4 and v.measured_rank == 4
        assert v.agrees and v.shunt_count == 0 and v.method == "direct"

    def test_star_with_leaf_shunt(self):
        v = verify_rank(with_shunts(star(5), Shunt(4, 0.5 + 0.1j)))
        assert v.predicted_rank == 5 and v.measured_rank == 5 and v.agrees
        assert v.shunt_count == 1

    def test_purely_reactive_case(self):
        # branch 1i, shunt 1i: no real parts anywhere, still full rank
        net = Network(2, (Branch(0, 1, 1j),), (Shunt(0, 1j),))
        v = verify_rank(net)
        assert v.predicted_rank == 2 and v.agrees

    def test_gap_is_finite_for_deficient_full_size(self):
        v = verify_rank(path(4))
        assert v.measured_rank == 3
        assert np.isfinite(v.singular_gap) and v.singular_gap > 1e6

    def test_gap_is_inf_at_full_rank(self):
        v = verify_rank(with_shunts(path(4), Shunt(2, 1.0)))
        assert v.singular_gap == float("inf")

    def test_measured_matches_exact_oracle(self):
        rng = np.random.default_rng(23)
        for k in range(25):
            net = _draw_net(rng, int(rng.integers(2, 10)),
                            int(rng.integers(0, 4)),
                            shunt_count=(0 if k % 2 == 0 else int(rng.integers(1, 4))))
            v = verify_rank(net)
            assert v.measured_rank == exact_rank(exact_assemble(net))

    def test_ones_vector_spans_nullspace_when_shuntless(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            net = _draw_net(rng, int(rng.integers(3, 12)), 2, 0)
            y = assemble(net).matrix
            resid = np.linalg.norm(y @ np.ones(net.node_count))
            assert resid <= 1e-10 * np.linalg.norm(y)


def test_exact_cancellation_instance_is_reported_not_hidden():
    # A cycle whose admittances cancel exactly: (1, 1, -1/2) around a
    # triangle collapses the shuntless matrix to rank 1, below the generic
    # N-1.  The verdict must report the honest measurement and flag the
    # disagreement rather than massage it away.
    net = Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 1.0), Branch(0, 2, -0.5)), ())
    y = assemble(net).matrix
    np.testing.assert_array_equal(
        y, np.array([[0.5, -1, 0.5], [-1, 2, -1], [0.5, -1, 0.5]], dtype=complex))
    assert exact_rank(exact_assemble(net)) == 1
    v = verify_rank(net)
    assert v.predicted_rank == 2 and v.measured_rank == 1 and not v.agrees


def _same_bits(a, b):
    """Whether two matrices hold the same node order and compressed rows, bit for bit."""
    return a.node_order == b.node_order and all(
        getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in ("indptr", "indices", "data"))


class TestAugmentVirtualGround:
    """The augmented matrix, stamped from arrays, is the augmented network's, bit for bit."""

    def test_single_node(self):
        aug = _augment_virtual_ground(Network(1, (), (Shunt(0, 3j),)))
        assert aug.size == 2
        np.testing.assert_array_equal(aug.matrix, [[3j, -3j], [-3j, 3j]])
        assert _same_bits(aug, assemble(Network(2, (Branch(0, 1, 3j),))))

    def test_two_node_path_plus_shunt(self):
        net = Network(2, (Branch(0, 1, 1.0),), (Shunt(0, 2.0),))
        aug = _augment_virtual_ground(net)
        assert aug.size == 3
        # original branch plus one converted shunt: a 3-node path 1-0-2
        assert _same_bits(aug, assemble(Network(3, (Branch(0, 1, 1.0), Branch(0, 2, 2.0)))))

    def test_result_is_connected_and_shuntless(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            net = _draw_net(rng, int(rng.integers(2, 10)), 1,
                            shunt_count=int(rng.integers(1, 4)))
            if not any(abs(s.admittance) > 0 for s in net.shunts):
                continue
            aug = _augment_virtual_ground(net)
            assert rank_analysis._pattern_connected(aug)
            reference = augmented_network(net)
            assert reference.shunts == () and _same_bits(aug, assemble(reference))

    def test_zero_valued_shunts_are_dropped(self):
        net = Network(2, (Branch(0, 1, 1.0),), (Shunt(0, 0j), Shunt(1, 5.0)))
        aug = _augment_virtual_ground(net)
        # only the nonzero shunt converts
        assert _same_bits(aug, assemble(Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 5.0)))))

    def test_no_shunts_refused(self):
        with pytest.raises(PreconditionError, match="shunt"):
            _augment_virtual_ground(path(3))
        with pytest.raises(PreconditionError, match="shunt"):
            _augment_virtual_ground(with_shunts(path(3), Shunt(0, 0j)))

    def test_random_networks_match_the_augmented_network(self):
        for k in range(20):
            policy = ("re_positive", "arbitrary", "pure_imaginary")[k % 3]
            net = generate(GenSpec(node_range=(2, 40), edge_density=0.2, shunt_probability=0.4,
                                   phase_policy=policy, seed=k, min_shunts=1))
            net = with_shunts(net, Shunt(0, 1e-13), Shunt(net.node_count - 1, 0.25j))
            assert _same_bits(_augment_virtual_ground(net), assemble(augmented_network(net)))


def test_block_form_matrix_layout():
    y = np.array([[2.0, -1.0], [-1.0, 1.5]], dtype=complex)
    t = np.array([1j, 0.5], dtype=complex)
    out = block_form_matrix(y, t)
    want = np.array(
        [[2.0, -1.0, -1j],
         [-1.0, 1.5, -0.5],
         [-1j, -0.5, 0.5 + 1j]], dtype=complex)
    np.testing.assert_array_equal(out, want)


class TestVerifyViaAugmentation:
    def test_path_with_one_shunt(self):
        v = verify_rank_via_augmentation(with_shunts(path(3), Shunt(1, 1.0 + 1j)))
        assert v.method == "virtual_ground"
        assert v.predicted_rank == 3 and v.measured_rank == 3 and v.agrees
        assert v.block_form_max_rel_error is not None
        assert v.block_form_max_rel_error <= 1e-12

    def test_agrees_with_direct_route(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            n = int(rng.integers(2, 11))
            net = _draw_net(rng, n, 2, shunt_count=max(1, n // 2))
            if not any(abs(s.admittance) > 0 for s in net.shunts):
                continue
            direct = verify_rank(net)
            aug = verify_rank_via_augmentation(net)
            assert (direct.predicted_rank, direct.measured_rank, direct.agrees) == \
                   (aug.predicted_rank, aug.measured_rank, aug.agrees)

    def test_augmented_assembly_equals_block_form_exactly(self):
        # dyadic admittances: both sides are sums of the same exact values
        rng = np.random.default_rng(41)
        for _ in range(10):
            net = _draw_net(rng, int(rng.integers(2, 9)), 1, shunt_count=2)
            if not any(abs(s.admittance) > 0 for s in net.shunts):
                continue
            lhs = _augment_virtual_ground(net).matrix
            rhs = block_form_matrix(assemble(net).matrix, shunt_totals(net))
            np.testing.assert_array_equal(lhs, rhs)

    def test_shuntless_refused(self):
        with pytest.raises(PreconditionError):
            verify_rank_via_augmentation(path(4))

    def test_block_form_mismatch_breaks_agreement(self, monkeypatch):
        # the rank still matches, so only the block-form check can refuse
        def skewed(net):  # grounded branches doubled
            aug = augmented_network(net)
            return assemble(Network(aug.node_count, tuple(
                Branch(b.from_node, b.to_node, 2.0 * b.admittance) if b.to_node == net.node_count
                else b for b in aug.branches), ()))
        monkeypatch.setattr("ybuskit.rank_analysis._augment_virtual_ground", skewed)
        v = verify_rank_via_augmentation(with_shunts(path(3), Shunt(1, 1.0)))
        assert v.predicted_rank == v.measured_rank == 3
        assert v.block_form_max_rel_error > 1e-12 and not v.agrees


def _compressed_and_dense_block_form_errors(net, a):
    y, t = assemble(net), shunt_totals(net)
    return _block_form_error(a, y, t), block_form_error(a.matrix, y.matrix, t)


class TestBlockFormError:
    """The O(nnz) comparison against the dense oracle, bit for bit."""

    def test_random_networks(self):
        rng = np.random.default_rng(47)
        nonzero = 0
        for k in range(30):
            net = generate(GenSpec(node_range=(2, 40), edge_density=0.2, shunt_probability=0.4,
                                   phase_policy=("re_positive", "arbitrary")[k % 2],
                                   seed=int(rng.integers(2**31)), min_shunts=1))
            # several shunts on some nodes: the augmented diagonal adds them one at a time
            extra = tuple(Shunt(int(v), complex(*rng.normal(size=2)))
                          for v in rng.integers(0, net.node_count, 3))
            net = with_shunts(net, *extra)
            got, want = _compressed_and_dense_block_form_errors(net, _augment_virtual_ground(net))
            assert got == want
            nonzero += got > 0
        assert nonzero > 0  # rounding differences, not only exact matches, were compared

    def test_shunts_that_cancel_at_a_node(self):
        # node 1's shunts sum to zero: its border entries are -0 on one side
        # and cancelled (unstored) on the other
        net = with_shunts(path(4, 0.3 + 0.7j), Shunt(1, 0.1 + 0.2j), Shunt(1, -0.1 - 0.2j),
                          Shunt(3, 0.5j))
        assert shunt_totals(net)[1] == 0
        got, want = _compressed_and_dense_block_form_errors(net, _augment_virtual_ground(net))
        assert got == want

    def test_positions_only_one_side_stores(self):
        net = with_shunts(path(5), Shunt(0, 0.5), Shunt(2, 1.0), Shunt(4, 0.5j))
        y, t = assemble(net), shunt_totals(net)
        form = block_form_matrix(y.matrix, t)
        extra = form.copy()  # an entry the block form does not store, and the largest error
        extra[0, 3] = extra[3, 0] = 0.75
        missing = form.copy()  # a border entry the block form stores, dropped
        missing[2, 5] = missing[5, 2] = 0
        for bad in (extra, missing):
            a = AdmittanceMatrix(bad, range(6))
            got, want = _block_form_error(a, y, t), block_form_error(bad, y.matrix, t)
            assert got == want and got > 1e-12

    @pytest.mark.parametrize("n", [300, 700])
    def test_grid_networks(self, n):
        rng = np.random.default_rng(n)
        net = grid_network(n, rng)
        net = with_shunts(net, *(Shunt(s.node, 0.5 * s.admittance) for s in net.shunts[::2]))
        got, want = _compressed_and_dense_block_form_errors(net, _augment_virtual_ground(net))
        assert got == want


def _count_svds(monkeypatch) -> list:
    """Record the shape of every matrix the rank verdicts hand to ``numerical_rank``."""
    calls = []
    original = rank_analysis.numerical_rank

    def counted(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(rank_analysis, "numerical_rank", counted)
    return calls


def _svd_verdicts(monkeypatch, source, methods):
    """The verdicts as the SVD of the dense view gives them, the certificate turned off."""
    with monkeypatch.context() as m:
        m.setattr(rank_analysis, "_hermitian_part_certifies", lambda *args, **kwargs: False)
        return rank_verdicts(source, methods)


def _without_gap(verdicts):
    """The verdicts with their singular gaps set aside, which only an SVD reports."""
    return [dataclasses.replace(v, singular_gap=None) for v in verdicts]


def test_both_methods_measure_one_rank(monkeypatch):
    n = 400
    net = grid_network(n, np.random.default_rng(5))
    calls = _count_svds(monkeypatch)
    rank_verdicts(net, ("direct", "virtual_ground"))  # imports and warms up
    assert calls == []  # the certificate settles the full rank without an SVD
    tracemalloc.start()
    try:
        direct, aug = rank_verdicts(net, ("direct", "virtual_ground"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert direct.agrees and aug.agrees and direct.measured_rank == aug.measured_rank == n
    assert peak < 2 * n * n * 16, f"peak {peak / (n * n * 16):.2f} x N^2 complex"
    assert calls == []
    assert [direct, aug] == _svd_verdicts(monkeypatch, net, ("direct", "virtual_ground"))

    # one branch conductance negated far past the sum of all the others: G is indefinite
    b = net.branches[0]
    negated = Network(n, (Branch(b.from_node, b.to_node, complex(-1e6, b.admittance.imag)),)
                      + net.branches[1:], net.shunts)
    assert np.linalg.eigvalsh(assemble(negated).matrix.real)[0] < 0
    calls.clear()
    verdicts = rank_verdicts(negated, ("direct", "virtual_ground"))
    assert calls == [(n, n)] and all(v.measured_rank == n for v in verdicts)

    # shuntless: the grounded certificate and the Y 1 bound, no complex N^2 array
    shuntless = Network(n, net.branches, ())
    calls.clear()
    tracemalloc.start()
    try:
        (v,) = rank_verdicts(shuntless, ("direct",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and v.agrees and v.measured_rank == n - 1
    assert peak < 1.5 * n * n * 16, f"peak {peak / (n * n * 16):.2f} x N^2 complex"


def test_a_certified_verdict_allocates_only_the_dense_core(monkeypatch):
    """3000 nodes and 1.5 branches per node: no N x N array, on either input, either rank."""
    n = 3000
    net = generate(GenSpec(node_range=(n, n), edge_density=3.3e-4, shunt_probability=0.05,
                           min_shunts=1, seed=3))
    shuntless = Network(n, net.branches, ())
    calls = _count_svds(monkeypatch)
    rank_verdicts(net, ("direct",))  # imports and warms up
    for source in (net, assemble(net), shuntless, assemble(shuntless)):
        tracemalloc.start()
        try:
            (v,) = rank_verdicts(source, ("direct",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.agrees and v.singular_gap == float("inf")
        assert peak < 8 * n * n / 5, f"peak {peak / (8 * n * n):.3f} x 8 N^2 bytes"
    assert calls == []


def _certificate_shift(y) -> float:
    """tau of ``_hermitian_part_certifies`` for an exactly symmetric Y, from the dense view.

    Grounded or not, tau is that of the whole Y.
    """
    m = np.abs(y.matrix)
    s = np.sqrt(m.sum(axis=0).max() * m.sum(axis=1).max())
    return y.size * (y.size + 2) * np.finfo(float).eps * s


class TestHermitianPartCertificate:
    """The Cholesky certificate of full rank against the SVD of the dense view it replaces."""

    @pytest.mark.parametrize("n", [300, 700])
    @pytest.mark.parametrize("policy", ["re_positive", "arbitrary", "pure_imaginary"])
    def test_verdicts_equal_the_svd_verdicts(self, monkeypatch, n, policy):
        density = 0.004 if n == 700 else 2 * n / (n * (n - 1) // 2 - (n - 1))
        net = generate(GenSpec(node_range=(n, n), edge_density=density, shunt_probability=0.05,
                               phase_policy=policy, seed=n, min_shunts=1))
        outcomes = []
        original = rank_analysis._hermitian_part_certifies

        def recorded(*args, **kwargs):
            outcomes.append(original(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(rank_analysis, "_hermitian_part_certifies", recorded)
        for source in (net, assemble(net)):
            want = _svd_verdicts(monkeypatch, source, ("direct", "virtual_ground"))
            assert all(v.measured_rank == n for v in want)
            assert rank_verdicts(source, ("direct", "virtual_ground")) == want
            assert rank_verdicts(source, ("direct",)) == want[:1]
        if policy != "arbitrary":  # Re(y) > 0 everywhere certifies; a purely imaginary Y never
            assert outcomes == [policy == "re_positive"] * 4

    @pytest.mark.parametrize("n", [300, 700])
    @pytest.mark.parametrize("factor, certified", [(0.5, False), (2.0, True)])
    def test_margin(self, monkeypatch, n, factor, certified):
        """lambda_min(G_s) at a multiple of tau: below tau the SVD decides, above it it agrees."""
        grid = grid_network(n, np.random.default_rng(n))
        shuntless = Network(n, grid.branches, ())
        delta = factor * _certificate_shift(assemble(shuntless))
        net = Network(n, grid.branches, tuple(Shunt(k, delta) for k in range(n)))
        y = assemble(net)
        tau = _certificate_shift(y)
        lam = np.linalg.eigvalsh(y.matrix.real)[0]
        assert lam == pytest.approx(factor * tau, rel=1e-3)
        assert rank_analysis._hermitian_part_certifies(n, y._rows(), y.indices, y.data) == certified
        calls = _count_svds(monkeypatch)
        got = rank_verdicts(net, ("direct",))
        assert calls == ([] if certified else [(n, n)])
        assert got == _svd_verdicts(monkeypatch, net, ("direct",))
        assert got[0].measured_rank == n and got[0].agrees

    def test_loaded_dense_matrix_with_imaginary_asymmetry(self, monkeypatch):
        n = 300
        y = assemble(grid_network(n, np.random.default_rng(3))).matrix
        rng = np.random.default_rng(4)
        skew = rng.uniform(-1, 1, (n, n))
        m = y + 1e-15 * np.abs(y).max() * 1j * (skew - skew.T)  # every entry stored
        loaded = AdmittanceMatrix(m, range(n))
        assert loaded.data.size == n * n and np.abs((m - m.T).imag).max() > 0
        calls = _count_svds(monkeypatch)
        got = rank_verdicts(loaded, ("direct", "virtual_ground"))
        assert calls == []
        assert got == _svd_verdicts(monkeypatch, loaded, ("direct", "virtual_ground"))

    @pytest.mark.parametrize("a, certified", [(1.0, False), (0.6, False), (0.4, True)])
    def test_antisymmetric_imaginary_part_counts(self, a, certified):
        """Y = [[1, ia], [-ia, 1]]: G_s = I, sigma_min = 1 - a, and ||K||_1 = a is counted as 2a."""
        rows, cols = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        data = np.array([1, 1j * a, -1j * a, 1])
        assert rank_analysis._hermitian_part_certifies(2, rows, cols, data) == certified
        if certified:
            assert numerical_rank(np.array([[1, 1j * a], [-1j * a, 1]])).rank == 2

    @pytest.mark.parametrize("d", [(1.5e308, -1e308), (1e308, -1.7e308)])
    def test_overflow_refuses(self, d):
        """2 G_s and the shift overflow; the NaN they leave must not pass as a factor."""
        data = np.array([d[0], d[1], d[1], d[0]], dtype=complex)
        rows, cols = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        assert not rank_analysis._hermitian_part_certifies(2, rows, cols, data)


class TestGroundedCertificate:
    """The certificate of rank N-1 against the SVD of the dense view it replaces."""

    @pytest.mark.parametrize("n", [300, 700])
    @pytest.mark.parametrize("policy", ["re_positive", "arbitrary", "pure_imaginary"])
    def test_verdicts_equal_the_svd_verdicts(self, monkeypatch, n, policy):
        density = 0.004 if n == 700 else 2 * n / (n * (n - 1) // 2 - (n - 1))
        net = generate(GenSpec(node_range=(n, n), edge_density=density, phase_policy=policy,
                               seed=n))
        calls = _count_svds(monkeypatch)
        for source in (net, assemble(net)):
            want = _svd_verdicts(monkeypatch, source, ("direct",))
            assert want[0].measured_rank == n - 1 and want[0].agrees
            calls.clear()
            got = rank_verdicts(source, ("direct",))
            assert _without_gap(got) == _without_gap(want)
            assert (got[0].singular_gap == float("inf")) == (calls == [])
            if policy == "re_positive":
                assert calls == []
            elif policy == "pure_imaginary":  # G_s = 0 is never positive definite
                assert calls == [(n, n)] and got == want

    @pytest.mark.parametrize("n", [300, 700])
    @pytest.mark.parametrize("factor, certified", [(0.5, False), (2.0, True)])
    def test_margin(self, monkeypatch, n, factor, certified):
        """A pendant node on node 0 by conductance c: grounded, lambda_min(G_g) = c exactly."""
        grid = grid_network(n - 1, np.random.default_rng(n))
        c = factor * _certificate_shift(assemble(Network(n, grid.branches, ())))
        net = Network(n, grid.branches + (Branch(0, n - 1, c),), ())
        y = assemble(net)
        lam = np.linalg.eigvalsh(y.matrix.real[1:, 1:])[0]
        assert lam == pytest.approx(factor * _certificate_shift(y), rel=1e-3)
        assert rank_analysis._hermitian_part_certifies(
            n, y._rows(), y.indices, y.data, grounded=True) == certified
        calls = _count_svds(monkeypatch)
        got = rank_verdicts(net, ("direct",))
        assert calls == ([] if certified else [(n, n)])
        want = _svd_verdicts(monkeypatch, net, ("direct",))
        assert _without_gap(got) == _without_gap(want)
        assert got[0].measured_rank == n - 1 and got[0].agrees

    def test_exact_rank_drop_falls_back(self, monkeypatch):
        """A triangle (1, 1, -0.5) at a cut vertex: its grounded determinant is 1 - 0.5 - 0.5 = 0."""
        triangle = ((0, 1, 1.0), (1, 2, 1.0), (0, 2, -0.5))
        assert exact_rank(exact_assemble(
            Network(3, tuple(Branch(i, j, y) for i, j, y in triangle), ()))) == 1
        grid = grid_network(300, np.random.default_rng(7))
        ends = {0: 7, 1: 300, 2: 301}  # joined to the grid at node 7
        n = 302
        net = Network(n, grid.branches + tuple(Branch(ends[i], ends[j], y)
                                               for i, j, y in triangle), ())
        y = assemble(net)
        assert not rank_analysis._hermitian_part_certifies(
            n, y._rows(), y.indices, y.data, grounded=True)
        calls = _count_svds(monkeypatch)
        for source in (net, y):
            calls.clear()
            (v,) = rank_verdicts(source, ("direct",))
            assert calls == [(n, n)]
            assert v.predicted_rank == n - 1 and v.measured_rank == n - 2 and not v.agrees

    def test_never_above_the_exact_rank(self):
        """On dyadic networks, whose stamp is exact, a certified rank is the exact rank.

        Every other draw carries the triangle (1, 1, -0.5) at a cut vertex,
        which drops the exact rank below the predicted one, shunted or not.
        The shunted draws are small and have Re(y) of either sign.  The Y 1
        bound holds from about 20 nodes on, so the shuntless draws have 20,
        under either sign of Re(y).
        """
        rng = np.random.default_rng(21)
        draws = [(int(rng.integers(2, 9)), 1, False, k % 2 == 0) for k in range(100)]
        draws += [(20, 0, k % 2 == 0, k % 4 < 2) for k in range(8)]
        outcomes = set()
        for n, shunts, re_positive, triangle in draws:
            nodes, branches, _ = random_rational_network(rng, n, extra_edges=n,
                                                         re_positive=re_positive)
            if triangle:
                branches += [(n - 1, n, 1.0), (n, n + 1, 1.0), (n - 1, n + 1, -0.5)]
                nodes += 2
            shunt = (Shunt(0, dyadic_admittance(rng)),) if shunts else ()
            net = Network(nodes, tuple(Branch(i, j, y) for i, j, y in branches), shunt)
            y, grounded = assemble(net), not shunts
            certified = rank_analysis._hermitian_part_certifies(
                nodes, y._rows(), y.indices, y.data, grounded=grounded)
            exact = exact_rank(exact_assemble(net))
            assert exact == nodes - grounded or not certified
            outcomes.add((grounded, certified, exact == nodes - grounded))
        # both kinds certify, and both kinds drop below the predicted rank somewhere
        assert {(g, True, True) for g in (False, True)} <= outcomes
        assert {(g, False, False) for g in (False, True)} <= outcomes

    def test_bare_matrix_with_a_small_shunt_falls_back(self, monkeypatch):
        """||Y 1|| above the rank tolerance but below the shuntless threshold: the SVD decides."""
        n = 300
        y = assemble(Network(n, grid_network(n, np.random.default_rng(9)).branches, ()))
        sigma = np.linalg.svd(y.matrix, compute_uv=False)
        tol = n * np.finfo(float).eps * sigma[0]
        threshold = rank_analysis.MATRIX_SHUNTLESS_RTOL * np.linalg.norm(y.matrix)
        delta = np.sqrt(tol * threshold / np.sqrt(n))  # ||Y 1|| = delta sqrt(n)
        assert 10 * tol < delta and delta * np.sqrt(n) < threshold / 10
        shunted = AdmittanceMatrix(y.matrix + delta * np.eye(n), range(n))
        calls = _count_svds(monkeypatch)
        (v,) = rank_verdicts(shunted, ("direct",))
        assert calls == [(n, n)]
        assert v.shunt_count == 0 and v.predicted_rank == n - 1
        assert v.measured_rank == n and not v.agrees


class TestVerifyMatrixRank:
    def test_direct_shuntless(self):
        v = verify_matrix_rank(assemble(path(4)))
        assert v.predicted_rank == 3 and v.measured_rank == 3 and v.agrees
        assert v.shunt_count == 0

    def test_direct_shunted(self):
        v = verify_matrix_rank(assemble(with_shunts(path(4), Shunt(0, 1j))))
        assert v.predicted_rank == 4 and v.agrees and v.shunt_count == 1

    def test_virtual_ground_method(self):
        y = assemble(with_shunts(path(4), Shunt(2, 0.5)))
        v = verify_matrix_rank(y, method="virtual_ground")
        assert v.method == "virtual_ground"
        assert v.predicted_rank == 4 and v.measured_rank == 4 and v.agrees

    def test_virtual_ground_needs_shunts(self):
        with pytest.raises(PreconditionError, match="shunt"):
            verify_matrix_rank(assemble(path(3)), method="virtual_ground")

    def test_unknown_method(self):
        with pytest.raises(PreconditionError, match="method"):
            verify_matrix_rank(assemble(path(3)), method="qr")

    def test_disconnected_pattern_refused(self):
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = [[1, -1], [-1, 1]]
        m[2:, 2:] = [[1, -1], [-1, 1]]
        # a path on nodes 0..2 with a shunt on the isolated last node
        isolated = np.zeros((4, 4), dtype=complex)
        isolated[:3, :3] = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        isolated[3, 3] = 1
        for bad in (m, isolated):
            with pytest.raises(PreconditionError, match="disconnected"):
                verify_matrix_rank(AdmittanceMatrix(bad, (0, 1, 2, 3)))
        # a single node is connected: the verdict goes ahead
        v = verify_matrix_rank(AdmittanceMatrix(np.array([[2j]]), (0,)))
        assert v.predicted_rank == v.measured_rank == 1 and v.agrees

    def test_empty_matrix_refused(self):
        empty = AdmittanceMatrix(np.zeros((0, 0), dtype=complex), ())
        for method in ("direct", "virtual_ground"):
            with pytest.raises(PreconditionError, match="at least one node"):
                verify_matrix_rank(empty, method=method)

    def test_rank_one_cancellation_matrix_flagged(self):
        # same triangle as above, loaded as a bare matrix: row sums vanish
        # so the prediction is N-1 = 2, yet the true rank is 1
        m = np.array([[0.5, -1, 0.5], [-1, 2, -1], [0.5, -1, 0.5]], dtype=complex)
        v = verify_matrix_rank(AdmittanceMatrix(m, (0, 1, 2)))
        assert v.predicted_rank == 2 and v.measured_rank == 1
        assert not v.agrees

    def test_matches_network_route(self):
        rng = np.random.default_rng(43)
        for k in range(20):
            net = _draw_net(rng, int(rng.integers(2, 10)), 2,
                            shunt_count=(0 if k % 2 else 2))
            via_net = verify_rank(net)
            via_mat = verify_matrix_rank(assemble(net))
            assert via_net.predicted_rank == via_mat.predicted_rank
            assert via_net.measured_rank == via_mat.measured_rank
            assert via_net.agrees == via_mat.agrees
            assert via_net.shunt_count == via_mat.shunt_count
            # both routes measure the same assembled matrix
            assert via_net.singular_gap == via_mat.singular_gap
            if k % 2 == 0:
                vg_net = verify_rank_via_augmentation(net)
                vg_mat = verify_matrix_rank(assemble(net), "virtual_ground")
                assert vg_net.predicted_rank == vg_mat.predicted_rank
                assert vg_net.measured_rank == vg_mat.measured_rank
                assert vg_net.agrees == vg_mat.agrees


def test_verdict_is_frozen():
    v = RankVerdict(2, 2, True, 0, "direct", float("inf"))
    with pytest.raises(AttributeError):
        v.agrees = False


def test_theorem1_suite_stamps_each_network_once(monkeypatch):
    stamped = []
    original = ybus._stamp_arrays

    def counted(n, *args):
        stamped.append(n)
        return original(n, *args)

    for module in (ybus, rank_analysis):  # the network's Y, and the augmented one
        monkeypatch.setattr(module, "_stamp_arrays", counted)
    assert run_suite("theorem1", 1, 5).passed
    # the shuntless sample's Y serves its verdict and its row sums; the
    # shunted sample stamps its own Y and its virtual-ground matrix
    assert len(stamped) == 3
    assert stamped[2] == stamped[1] + 1
