"""Seeded property suites exercising the package's structural claims.

Each suite draws fresh random instances from a master seed, evaluates the
relevant identities at fixed tolerances, and reports every violation with
the child seed that reproduces it.  The suites are the engine behind the
``verify`` command; the same checks exist independently in the test
suite.  Each suite is a private generator over one sample that yields
``(failed, message)`` per check; ``run_suite`` is the one loop that draws
the child seeds, counts the checks, keeps the failures and times the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .generator import GenSpec, generate, random_partition
from .linalg_core import TINY
from .network_model import shunt_totals
from .partition import block_view, verify_block_rank
from .rank_analysis import rank_verdicts
from .reduction import hybrid_parameters, kron_reduce, kron_reduce_nodes, recover_eliminated
from .ybus import assemble

#: Residual / port-equivalence tolerance (relative).
RESIDUAL_RTOL = 1e-10
#: Structural identity tolerance (relative): Lemma-2 sums, inverse check.
IDENTITY_RTOL = 1e-12

SUITE_NAMES = ("theorem1", "theorem2", "kron", "hybrid", "lemma2")
#: Child seeds drawn at a time, so memory does not grow with the sample count.
_SEED_CHUNK = 1000


@dataclass(frozen=True)
class SuiteOutcome:
    name: str
    samples: int
    checks: int
    failures: tuple[str, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return not self.failures


def _rel(err: float, scale: float) -> float:
    return err / max(scale, TINY)


def _random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _theorem1(i: int, seed: int, samples: int):
    """Rank of the assembled matrix: N-1 without shunts, N with.

    Samples below ``samples`` are shuntless; they alternate between
    dissipative and arbitrary-phase admittances and must also satisfy the
    zero-row-sum identity.  Each is stamped once, and its verdict is the
    bare matrix's, whose prediction reads the shunts off the row sums and
    connectivity off the zero pattern.  The rest are shunted and are
    verified both directly and through the virtual-ground construction,
    whose assembled matrix must match the bordered block form.
    """
    if i < samples:
        policy = "re_positive" if i % 2 == 0 else "arbitrary"
        net = generate(GenSpec(
            node_range=(5, 50), edge_density=0.15, shunt_probability=0.0,
            magnitude_range=(1e-2, 1e2), phase_policy=policy, seed=seed,
        ))
        y = assemble(net)
        v = rank_verdicts(y, ("direct",))[0]
        yield (not v.agrees or v.predicted_rank != net.node_count - 1,
               f"shuntless sample {i} (seed {seed}): predicted {v.predicted_rank}, "
               f"measured {v.measured_rank}")
        row_sum = float(np.linalg.norm(y.matrix.sum(axis=1)))
        yield (_rel(row_sum, float(np.linalg.norm(y.matrix))) > RESIDUAL_RTOL,
               f"shuntless sample {i} (seed {seed}): nonzero row sums |Y*1|={row_sum:.3e}")
        return

    i -= samples
    net = generate(GenSpec(
        node_range=(5, 50), edge_density=0.15, shunt_probability=0.3,
        magnitude_range=(1e-2, 1e2), phase_policy="re_positive", seed=seed,
        min_shunts=1,
    ))
    direct, aug = rank_verdicts(net, ("direct", "virtual_ground"))
    yield (not direct.agrees or direct.predicted_rank != net.node_count,
           f"shunted sample {i} (seed {seed}): predicted {direct.predicted_rank}, "
           f"measured {direct.measured_rank}")
    yield (not aug.agrees,
           f"shunted sample {i} (seed {seed}): virtual-ground disagrees "
           f"(measured {aug.measured_rank}, block error {aug.block_form_max_rel_error:.3e})")


def _theorem2(i: int, seed: int, samples: int):
    """Diagonal blocks of dissipative networks are invertible.

    Every class block of three random partitions per network must pass the
    full-rank certificate componentwise, and NumPy's solve of the block for
    a random right-hand side must leave a small relative residual.
    """
    net = generate(GenSpec(
        node_range=(5, 50), edge_density=0.15, shunt_probability=0.2,
        magnitude_range=(1e-2, 1e2), phase_policy="re_positive", seed=seed,
    ))
    rng = np.random.default_rng(seed)
    y = assemble(net).matrix
    for k in (2, 3, 5):
        part = random_partition(net.node_count, k, rng)
        report = verify_block_rank(net, part)
        yield (not report.all_full_rank,
               f"sample {i} (seed {seed}), |P|={k}: a diagonal block "
               f"failed the full-rank certificate")
        for ci, cls in enumerate(report.classes):
            y_cc = y[np.ix_(cls.nodes, cls.nodes)]
            rhs = _random_complex(rng, y_cc.shape[0])
            x = np.linalg.solve(y_cc, rhs)
            residual = _rel(float(np.linalg.norm(y_cc @ x - rhs)),
                            float(np.linalg.norm(rhs)))
            yield (residual > RESIDUAL_RTOL,
                   f"sample {i} (seed {seed}), |P|={k}, class {ci}: "
                   f"solve residual {residual:.3e}")


def _kron(i: int, seed: int, samples: int):
    """Kron reduction keeps the port behaviour of the retained nodes.

    For a random eliminated set: the full system driven by recovered
    interior voltages must reproduce the reduced matrix's currents, the
    interior current residual must vanish, and eliminating in two stages
    must equal eliminating at once.
    """
    rng = np.random.default_rng(seed)
    net = generate(GenSpec(
        node_range=(5, 40), edge_density=0.2, shunt_probability=0.4,
        magnitude_range=(1e-1, 1e1), phase_policy="re_positive", seed=seed,
        min_shunts=1,
    ))
    n = net.node_count
    y = assemble(net)
    m = y.matrix
    t_count = int(rng.integers(1, n - 1))
    t_nodes = sorted(int(v) for v in rng.permutation(n)[:t_count])
    result = kron_reduce_nodes(y, t_nodes)
    s_nodes = list(result.reduced.node_order)

    v_s = _random_complex(rng, len(s_nodes))
    v_t = recover_eliminated(result, v_s)
    v_full = np.zeros(n, dtype=np.complex128)
    v_full[s_nodes] = v_s
    v_full[t_nodes] = v_t
    i_full = m @ v_full

    reduced_currents = result.reduced.matrix @ v_s
    err = float(np.linalg.norm(i_full[s_nodes] - reduced_currents))
    scale = max(float(np.linalg.norm(i_full[s_nodes])),
                float(np.linalg.norm(reduced_currents)))
    yield (_rel(err, scale) > RESIDUAL_RTOL,
           f"sample {i} (seed {seed}): port mismatch {_rel(err, scale):.3e}")

    res_t = float(np.linalg.norm(i_full[t_nodes]))
    scale_t = float(np.linalg.norm(m[t_nodes, :])) * float(np.linalg.norm(v_full))
    yield (_rel(res_t, scale_t) > RESIDUAL_RTOL,
           f"sample {i} (seed {seed}): interior current residual {res_t:.3e}")

    if t_count >= 2:
        half = t_count // 2
        first, second = t_nodes[:half], t_nodes[half:]
        staged = kron_reduce_nodes(kron_reduce_nodes(y, first).reduced, second)
        diff = float(np.abs(staged.reduced.matrix - result.reduced.matrix).max())
        yield (_rel(diff, float(np.abs(result.reduced.matrix).max())) > RESIDUAL_RTOL,
               f"sample {i} (seed {seed}): staged elimination differs by {diff:.3e}")


def _hybrid(i: int, seed: int, samples: int):
    """Hybrid parameters agree with constrained full solves and with Kron reduction.

    The solved block times its inverse must be the identity; the
    current-gain blocks must equal both Y_qp H_pp and -(H_pq)^T
    (reciprocity of the complex-symmetric Y); the admittance and
    voltage-gain blocks must be the Kron reduction of the solved class and
    its recovery matrix; and the hybrid transfer must reproduce (V_p, I_q)
    from an independent solve of the full system with I_p prescribed and
    the other voltages enforced.
    """
    rng = np.random.default_rng(seed)
    net = generate(GenSpec(
        node_range=(5, 40), edge_density=0.2, shunt_probability=0.4,
        magnitude_range=(0.5, 2.0), phase_policy="re_positive", seed=seed,
        min_shunts=1,
    ))
    n = net.node_count
    k = min(int(rng.integers(2, 4)), n)
    part = random_partition(n, k, rng)
    view = block_view(assemble(net), part)
    p = int(rng.integers(0, part.class_count))
    hy = hybrid_parameters(view, p)

    y_pp = view.block(p, p)
    h_pp = hy.block(p, p)
    inv_err = float(np.abs(h_pp @ y_pp - np.eye(y_pp.shape[0])).max())
    yield (inv_err > IDENTITY_RTOL,
           f"sample {i} (seed {seed}): H_pp*Y_pp deviates from I by {inv_err:.3e}")

    m = view.source.matrix[np.ix_(view.positions, view.positions)]  # Y in block order
    sp = part.span(p)
    mask = np.zeros(n, dtype=bool)
    mask[sp] = True
    h_qp, h_pq = hy.h[np.ix_(~mask, mask)], hy.h[np.ix_(mask, ~mask)]
    recip = max(float(np.abs(h_qp + h_pq.T).max()),
                float(np.abs(h_qp - m[np.ix_(~mask, mask)] @ h_pp).max()))
    yield (_rel(recip, float(np.abs(h_qp).max())) > RESIDUAL_RTOL,
           f"sample {i} (seed {seed}): current gain breaks reciprocity by {recip:.3e}")

    red = kron_reduce(view, p)
    kron_err = max(float(np.abs(hy.h[np.ix_(~mask, ~mask)] - red.reduced.matrix).max()),
                   float(np.abs(h_pq - red.recovery).max()))
    yield (_rel(kron_err, float(np.abs(hy.h).max())) > IDENTITY_RTOL,
           f"sample {i} (seed {seed}): hybrid differs from Kron reduction by "
           f"{kron_err:.3e}")

    # mixed input: currents at class p, voltages elsewhere
    u = _random_complex(rng, n)
    w = hy.apply(u)
    rhs = u[sp] - m[np.ix_(mask, ~mask)] @ u[~mask]
    v_p = np.linalg.solve(m[np.ix_(mask, mask)], rhs)  # independent of hy's certificate
    i_q = m[np.ix_(~mask, mask)] @ v_p + m[np.ix_(~mask, ~mask)] @ u[~mask]
    ref = np.empty(n, dtype=np.complex128)
    ref[mask] = v_p
    ref[~mask] = i_q
    err = float(np.linalg.norm(w - ref))
    yield (_rel(err, float(np.linalg.norm(ref))) > RESIDUAL_RTOL,
           f"sample {i} (seed {seed}): hybrid transfer off by {err:.3e}")


def _lemma2(i: int, seed: int, samples: int):
    """Row and column sums of the assembled matrix equal the shunt totals."""
    net = generate(GenSpec(
        node_range=(5, 50), edge_density=0.15, shunt_probability=0.5,
        magnitude_range=(1e-2, 1e2), seed=seed,
        phase_policy=("re_positive", "arbitrary", "pure_imaginary")[i % 3],
    ))
    y = assemble(net).matrix
    t = shunt_totals(net)
    scale = max(float(np.abs(y).max()), TINY)
    row_err = float(np.abs(y.sum(axis=1) - t).max())
    col_err = float(np.abs(y.sum(axis=0) - t).max())
    yield (row_err / scale > IDENTITY_RTOL,
           f"sample {i} (seed {seed}): row sums off by {row_err:.3e}")
    yield (col_err / scale > IDENTITY_RTOL,
           f"sample {i} (seed {seed}): column sums off by {col_err:.3e}")


#: name -> (generator over one sample ``(i, child seed, samples)``, child seeds per sample)
_SUITES = {
    "theorem1": (_theorem1, 2),
    "theorem2": (_theorem2, 1),
    "kron": (_kron, 1),
    "hybrid": (_hybrid, 1),
    "lemma2": (_lemma2, 1),
}


def _child_seeds(seed: int, count: int):
    """The ``count`` child seeds of ``seed``, drawn ``_SEED_CHUNK`` at a time.

    Successive draws continue one stream, so the seeds are those of a
    single draw of ``count``, without holding them all at once.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, count, _SEED_CHUNK):
        yield from rng.integers(0, 2**63 - 1, size=min(_SEED_CHUNK, count - start)).tolist()


def run_suite(name: str, samples: int, seed: int) -> SuiteOutcome:
    """Run ``samples`` samples of one suite (theorem1: twice that), each from a child seed."""
    if name not in _SUITES:
        raise StructuralError(f"unknown suite {name!r}; choose from {SUITE_NAMES} or 'all'")
    if samples < 1:
        raise StructuralError("samples must be positive")
    if seed < 0:
        raise StructuralError(f"seed must be nonnegative, got {seed}")
    sample, per = _SUITES[name]
    if per * samples > np.iinfo(np.intp).max // 8:  # past the int64 arrays NumPy can hold
        raise StructuralError(f"{samples} samples are too many for a NumPy array of child seeds")
    t0 = time.perf_counter()
    checks = 0
    failures: list[str] = []
    for i, child in enumerate(_child_seeds(seed, per * samples)):
        for failed, message in sample(i, child, samples):
            checks += 1
            if failed:
                failures.append(message)
    return SuiteOutcome(name, per * samples, checks, tuple(failures),
                        time.perf_counter() - t0)
