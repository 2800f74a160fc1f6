"""Acceptance gate: one test per published claim, at the stated tolerances.

Each test prints a single summary line (visible under ``pytest -v -s`` or
on failure) and asserts the claim over freshly seeded instance families,
so ``pytest -v tests/test_acceptance.py`` yields one pass/fail line per
criterion.
"""

import time
import zlib

import numpy as np

from ybuskit import (
    Branch,
    GenSpec,
    Network,
    NotReducibleError,
    assemble,
    block_view,
    counterexample_block_singular,
    full_rank_certificate,
    generate,
    hybrid_parameters,
    kron_reduce,
    kron_reduce_nodes,
    numerical_rank,
    random_partition,
    recover_eliminated,
    shunt_totals,
    verify_block_rank,
    verify_rank,
    verify_rank_via_augmentation,
)
from ybuskit.cli import main

from oracles import closure_components

MASTER_SEED = 20260814


def _seeds(label: str, count: int) -> list[int]:
    root = np.random.default_rng([MASTER_SEED, zlib.crc32(label.encode())])
    return [int(s) for s in root.integers(0, 2**63 - 1, size=count)]


def _shunted_spec(seed: int) -> GenSpec:
    return GenSpec(node_range=(5, 50), edge_density=0.15, shunt_probability=0.3,
                   magnitude_range=(1e-2, 1e2), phase_policy="re_positive",
                   seed=seed, min_shunts=1)


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_criterion_01_shuntless_rank_and_zero_row_sums():
    t0 = time.perf_counter()
    seeds = _seeds("c1", 200)
    for i, s in enumerate(seeds):
        policy = "re_positive" if i % 2 == 0 else "arbitrary"
        net = generate(GenSpec(node_range=(5, 50), edge_density=0.15,
                               shunt_probability=0.0, magnitude_range=(1e-2, 1e2),
                               phase_policy=policy, seed=s))
        y = assemble(net).matrix
        rank = numerical_rank(y).rank
        assert rank == net.node_count - 1, f"sample {i}: rank {rank} != N-1"
        resid = np.linalg.norm(y @ np.ones(net.node_count))
        assert resid <= 1e-10 * np.linalg.norm(y), f"sample {i}: |Y*1| = {resid:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f} s, budget is 10 s"
    print(f"criterion 1: PASS (200 shuntless nets, rank N-1 and "
          f"|Y*1| <= 1e-10 |Y|_F, {elapsed:.2f} s)")


def test_criterion_02_shunted_full_rank():
    seeds = _seeds("c23", 200)
    for i, s in enumerate(seeds):
        net = generate(_shunted_spec(s))
        assert len(net.shunts) >= 1
        rank = numerical_rank(assemble(net).matrix).rank
        assert rank == net.node_count, f"sample {i}: rank {rank} != N"
    print("criterion 2: PASS (200 shunted nets, full rank N)")


def test_criterion_03_virtual_ground_agreement():
    seeds = _seeds("c23", 200)
    worst_block = 0.0
    for i, s in enumerate(seeds):
        net = generate(_shunted_spec(s))
        direct = verify_rank(net)
        aug = verify_rank_via_augmentation(net)
        assert direct.agrees and aug.agrees, f"sample {i}: a route disagrees"
        assert (direct.predicted_rank, direct.measured_rank) == \
               (aug.predicted_rank, aug.measured_rank), f"sample {i}: routes differ"
        assert aug.block_form_max_rel_error <= 1e-12, \
            f"sample {i}: block form error {aug.block_form_max_rel_error:.3e}"
        worst_block = max(worst_block, aug.block_form_max_rel_error)
    print(f"criterion 3: PASS (200 shunted nets, virtual-ground route agrees, "
          f"worst block-form error {worst_block:.2e})")


def test_criterion_04_row_and_column_sums_recover_shunts():
    seeds = _seeds("c4", 200)
    policies = ("re_positive", "arbitrary", "pure_imaginary")
    for i, s in enumerate(seeds):
        net = generate(GenSpec(node_range=(5, 50), edge_density=0.15,
                               shunt_probability=0.5, magnitude_range=(1e-2, 1e2),
                               phase_policy=policies[i % 3], seed=s))
        y = assemble(net).matrix
        t = shunt_totals(net)
        scale = max(float(np.abs(y).max()), 1e-300)
        assert np.abs(y.sum(axis=1) - t).max() <= 1e-12 * scale, f"sample {i}: rows"
        assert np.abs(y.sum(axis=0) - t).max() <= 1e-12 * scale, f"sample {i}: cols"
    print("criterion 4: PASS (200 nets, row and column sums match shunt totals "
          "to 1e-12 relative)")


def test_criterion_05_diagonal_blocks_invertible_and_component_pattern():
    seeds = _seeds("c5", 200)
    for i, s in enumerate(seeds):
        net = generate(GenSpec(node_range=(5, 50), edge_density=0.15,
                               shunt_probability=0.2, magnitude_range=(1e-2, 1e2),
                               phase_policy="re_positive", seed=s))
        rng = np.random.default_rng(s)
        y = assemble(net)
        for want in (2, 3, 5):
            k = min(want, net.node_count)
            if k < 2:
                continue
            part = random_partition(net.node_count, k, rng)
            rep = verify_block_rank(net, part)
            assert rep.all_full_rank, f"sample {i}, |P|={k}: deficient block"
            view = block_view(y, part)
            for ci, cls in enumerate(part.classes):
                blk = view.block(ci, ci)
                rhs = _cvec(rng, blk.shape[0])
                x = full_rank_certificate(blk).solve(rhs)
                residual = np.linalg.norm(blk @ x - rhs) / np.linalg.norm(rhs)
                assert residual <= 1e-10, f"sample {i}, class {ci}: residual {residual:.3e}"
                # connected components of the class must equal the components
                # of the block's off-diagonal zero pattern
                sz = len(cls)
                pos = {v: j for j, v in enumerate(cls)}
                pattern_edges = [(a, b) for a in range(sz) for b in range(a + 1, sz)
                                 if blk[a, b] != 0]
                from_pattern = set(closure_components(sz, pattern_edges))
                from_graph = {frozenset(pos[v] for v in comp.nodes)
                              for comp in rep.classes[ci].components}
                assert from_pattern == from_graph, \
                    f"sample {i}, class {ci}: component mismatch"
    print("criterion 5: PASS (200 dissipative nets x 3 partitions, all diagonal "
          "blocks solve to 1e-10 and match the zero-pattern decomposition)")


def test_criterion_06_hypothesis_necessity_counterexample():
    net, part = counterexample_block_singular()
    view = block_view(assemble(net), part)
    np.testing.assert_array_equal(view.block(0, 0), [[0j]])

    rep = verify_block_rank(net, part)
    assert not rep.all_full_rank
    assert not rep.classes[0].components[0].full_rank

    try:
        kron_reduce(view, 0)
        raise AssertionError("reduction of a singular block must fail")
    except NotReducibleError:
        pass
    print("criterion 6: PASS (counterexample block is exactly singular, flagged, "
          "and not reducible)")


def test_criterion_07_kron_port_equivalence():
    # exact series case first
    y3 = assemble(Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 1.0)), ()))
    red = kron_reduce_nodes(y3, {1}).reduced.matrix
    assert np.abs(red - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() <= 1e-15

    seeds = _seeds("c7", 100)
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        net = generate(GenSpec(node_range=(5, 40), edge_density=0.2,
                               shunt_probability=0.4, magnitude_range=(1e-1, 1e1),
                               phase_policy="re_positive", seed=s, min_shunts=1))
        n = net.node_count
        y = assemble(net)
        m = y.matrix
        t_nodes = sorted(int(v) for v in rng.permutation(n)[:int(rng.integers(1, n - 1))])
        result = kron_reduce_nodes(y, t_nodes)
        s_nodes = list(result.reduced.node_order)

        v_s = _cvec(rng, len(s_nodes))
        v_full = np.zeros(n, dtype=complex)
        v_full[s_nodes] = v_s
        v_full[t_nodes] = recover_eliminated(result, v_s)
        i_full = m @ v_full

        i_red = result.reduced.matrix @ v_s
        err = np.linalg.norm(i_full[s_nodes] - i_red)
        scale = max(np.linalg.norm(i_full[s_nodes]), np.linalg.norm(i_red), 1e-300)
        assert err <= 1e-10 * scale, f"sample {i}: port mismatch {err / scale:.3e}"

        res_t = np.linalg.norm(i_full[t_nodes])
        scale_t = max(np.linalg.norm(m[t_nodes, :]) * np.linalg.norm(v_full), 1e-300)
        assert res_t <= 1e-10 * scale_t, f"sample {i}: interior current {res_t:.3e}"
    print("criterion 7: PASS (100 reductions port-equivalent to 1e-10; series "
          "case exact to 1e-15)")


def test_criterion_08_schur_quotient_property():
    seeds = _seeds("c8", 50)
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        net = generate(GenSpec(node_range=(6, 40), edge_density=0.2,
                               shunt_probability=0.4, magnitude_range=(1e-1, 1e1),
                               phase_policy="re_positive", seed=s, min_shunts=1))
        n = net.node_count
        y = assemble(net)
        count = int(rng.integers(2, n - 1))
        t_nodes = sorted(int(v) for v in rng.permutation(n)[:count])
        half = count // 2
        joint = kron_reduce_nodes(y, t_nodes)
        staged = kron_reduce_nodes(kron_reduce_nodes(y, t_nodes[:half]).reduced,
                                   t_nodes[half:])
        assert staged.retained_order == joint.retained_order
        diff = np.abs(staged.reduced.matrix - joint.reduced.matrix).max()
        scale = max(float(np.abs(joint.reduced.matrix).max()), 1e-300)
        assert diff <= 1e-10 * scale, f"sample {i}: staged differs by {diff / scale:.3e}"
    print("criterion 8: PASS (50 samples, two-stage elimination equals joint "
          "to 1e-10)")


def test_criterion_09_hybrid_consistency():
    seeds = _seeds("c9", 100)
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        net = generate(GenSpec(node_range=(5, 40), edge_density=0.2,
                               shunt_probability=0.4, magnitude_range=(0.5, 2.0),
                               phase_policy="re_positive", seed=s, min_shunts=1))
        n = net.node_count
        part = random_partition(n, min(int(rng.integers(2, 4)), n), rng)
        view = block_view(assemble(net), part)
        p = int(rng.integers(0, part.class_count))
        hy = hybrid_parameters(view, p)

        y_pp = view.block(p, p)
        inv_err = np.abs(hy.block(p, p) @ y_pp - np.eye(y_pp.shape[0])).max()
        assert inv_err <= 1e-12, f"sample {i}: H_pp*Y_pp off by {inv_err:.3e}"

        u = _cvec(rng, n)
        w = hy.apply(u)
        m = view.permuted.matrix
        mask = np.zeros(n, dtype=bool)
        mask[part.span(p)] = True
        v_p = np.linalg.solve(m[np.ix_(mask, mask)],
                              u[mask] - m[np.ix_(mask, ~mask)] @ u[~mask])
        v_full = u.astype(complex)  # keeps the enforced voltages at ~mask
        v_full[mask] = v_p
        ref = np.empty(n, dtype=complex)
        ref[mask] = v_p
        ref[~mask] = (m @ v_full)[~mask]
        err = np.linalg.norm(w - ref)
        assert err <= 1e-10 * max(np.linalg.norm(ref), 1e-300), \
            f"sample {i}: hybrid transfer off by {err:.3e}"
    print("criterion 9: PASS (100 instances, hybrid solves match full system to "
          "1e-10; H_pp*Y_pp = I to 1e-12)")


def _orthonormal(rng, k, complex_=False):
    a = rng.standard_normal((k, k))
    if complex_:
        a = a + 1j * rng.standard_normal((k, k))
    q, _ = np.linalg.qr(a)
    return q


def _with_rank(rng, rows, cols, r, complex_=False):
    u = _orthonormal(rng, rows, complex_)
    v = _orthonormal(rng, cols, complex_)
    sv = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=r))
    return (u[:, :r] * sv) @ v[:r, :]


def _invertible(rng, k, complex_=False):
    sv = np.exp(rng.uniform(np.log(1e-1), np.log(1e1), size=k))
    return (_orthonormal(rng, k, complex_) * sv) @ _orthonormal(rng, k, complex_)


def test_criterion_10_rank_under_products():
    rng = np.random.default_rng(_seeds("c10", 1)[0])

    # gram products of real matrices keep the rank
    for _ in range(100):
        rows = int(rng.integers(2, 30))
        cols = int(rng.integers(2, 30))
        r = int(rng.integers(0, min(rows, cols) + 1))
        m = _with_rank(rng, rows, cols, r, complex_=False)
        assert numerical_rank(m).rank == r
        assert numerical_rank(m.T @ m).rank == r

    # invertible factors on either side keep the rank, real and complex
    for trial in range(100):
        complex_ = trial % 2 == 1
        rows = int(rng.integers(2, 30))
        cols = int(rng.integers(2, 30))
        r = int(rng.integers(0, min(rows, cols) + 1))
        m = _with_rank(rng, rows, cols, r, complex_)
        e = _invertible(rng, rows, complex_)
        f = _invertible(rng, cols, complex_)
        assert numerical_rank(e @ m @ f).rank == r
    print("criterion 10: PASS (rank preserved under real gram products and "
          "invertible factors, 100 instances each)")


def test_criterion_11_cli_round_trip_and_full_verify(tmp_path, capsys):
    from ybuskit.io import save_network
    for i, s in enumerate(_seeds("c11", 20)):
        net = generate(GenSpec(node_range=(3, 20), edge_density=0.2,
                               shunt_probability=(0.0 if i % 2 else 0.5),
                               phase_policy="re_positive", seed=s))
        npath = str(tmp_path / f"net{i}.json")
        mpath = str(tmp_path / f"y{i}.json")
        save_network(npath, net)
        assert main(["ybus", npath, mpath]) == 0
        capsys.readouterr()
        assert main(["rank", npath]) == 0
        from_net = capsys.readouterr().out
        assert main(["rank", mpath]) == 0
        from_file = capsys.readouterr().out
        assert from_net == from_file, f"fixture {i}: pipeline output diverged"

    t0 = time.perf_counter()
    code = main(["verify", "--suite", "all", "--samples", "200", "--seed", "42"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0, f"cmd_verify failed:\n{out}"
    assert elapsed < 60.0, f"cmd_verify took {elapsed:.1f} s, budget is 60 s"
    print(f"criterion 11: PASS (20 fixtures byte-identical through the file "
          f"pipeline; full verify in {elapsed:.1f} s)")
