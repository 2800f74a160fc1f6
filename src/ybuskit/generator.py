"""Seeded random network generation for property suites.

Topologies are built as a uniform random labeled spanning tree (decoded
from a random Prüfer sequence) plus extra edges sampled without
replacement, so every generated network is connected and free of
self-loops and duplicate pairs.  All randomness flows through one
``numpy.random.default_rng`` (PCG64) instance seeded from
``GenSpec.seed``, so a ``GenSpec`` value determines the network
completely.

Extra edges are drawn as indices into the lexicographic list of the
non-tree pairs, which is never built.  Among all N(N-1)/2 pairs, (i, j)
with i < j has index i(2N - i - 1)/2 + j - i - 1.  The sorted draws are
shifted past the tree pairs with one ``searchsorted`` over the tree's
sorted indices, then decoded to (i, j) with one ``searchsorted`` over the
row starts.  Admittances come from one block of uniform doubles, consumed
in the order the scalar draws took them.  Generation therefore costs time
and memory linear in nodes plus branches, and every seed gives the
network the element-by-element construction gave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .network_model import Branch, Network, Shunt
from .partition import Partition

PHASE_POLICIES = ("re_positive", "arbitrary", "pure_imaginary")


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random network draw.

    ``node_range`` is inclusive on both ends.  ``edge_density`` is the
    fraction of non-tree node pairs added on top of the spanning tree.
    ``magnitude_range`` bounds are sampled log-uniformly so the decades in
    between are covered evenly.  ``min_shunts`` forces at least that many
    shunts regardless of the per-node probability draw.
    """

    node_range: tuple[int, int] = (5, 50)
    edge_density: float = 0.1
    shunt_probability: float = 0.0
    magnitude_range: tuple[float, float] = (1e-2, 1e2)
    phase_policy: str = "re_positive"
    seed: int = 0
    min_shunts: int = 0

    def __post_init__(self):
        lo, hi = (int(v) for v in self.node_range)
        object.__setattr__(self, "node_range", (lo, hi))
        if lo < 1 or hi < lo:
            raise StructuralError(f"degenerate node range ({lo}, {hi})")
        if hi > np.iinfo(np.intp).max // 8:  # past the int64 arrays NumPy can hold
            raise StructuralError(f"node range ({lo}, {hi}) is too large for a NumPy array")
        if not 0.0 <= float(self.edge_density) <= 1.0:
            raise StructuralError(f"edge density {self.edge_density} outside [0, 1]")
        if not 0.0 <= float(self.shunt_probability) <= 1.0:
            raise StructuralError(
                f"shunt probability {self.shunt_probability} outside [0, 1]"
            )
        mlo, mhi = (float(v) for v in self.magnitude_range)
        object.__setattr__(self, "magnitude_range", (mlo, mhi))
        if not (math.isfinite(mlo) and math.isfinite(mhi) and 0.0 < mlo <= mhi):
            raise StructuralError(f"degenerate magnitude range ({mlo}, {mhi})")
        if self.phase_policy not in PHASE_POLICIES:
            raise StructuralError(
                f"unknown phase policy {self.phase_policy!r}; choose from {PHASE_POLICIES}"
            )
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise StructuralError(f"seed must be nonnegative, got {self.seed}")
        object.__setattr__(self, "min_shunts", int(self.min_shunts))
        if self.min_shunts < 0:
            raise StructuralError("min_shunts must be nonnegative")


def _tree_from_prufer(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence into the edge list of a labeled tree."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges: list[tuple[int, int]] = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((min(leaf, n - 1), max(leaf, n - 1)))
    return edges


def _extra_pairs(picks: np.ndarray, tree: np.ndarray, n: int) -> np.ndarray:
    """The non-tree pairs with the given ascending candidate indices, as (i, j) rows.

    Candidate k is the k-th pair (i < j) in lexicographic order once the
    tree pairs are skipped: a tree pair at lexicographic index ``t[r]`` (the
    r-th smallest) precedes candidate k exactly when ``t[r] - r <= k``.
    """
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # index of the pair (i, i + 1)
    tree_idx = np.sort(starts[tree[:, 0]] + tree[:, 1] - tree[:, 0] - 1)
    idx = picks + np.searchsorted(tree_idx - np.arange(tree_idx.size), picks, side="right")
    i = np.searchsorted(starts, idx, side="right") - 1
    return np.column_stack((i, idx - starts[i] + i + 1))


def _draw_admittances(rng: np.random.Generator, spec: GenSpec, count: int) -> list[complex]:
    """``count`` admittances from one ``rng.random`` call.

    Each admittance takes two or three consecutive doubles of the stream:
    log-uniform magnitudes (``rng.uniform(a, b)`` is ``a + (b - a) * u``)
    and a sign (``u < 0.5``), or for ``arbitrary`` a uniform phase and then
    a magnitude.  The arbitrary-phase product stays the scalar
    ``float * complex(math.cos, math.sin)``, whose last bits NumPy's
    vectorized cosine need not reproduce.
    """
    lo, hi = spec.magnitude_range
    log_lo, log_hi = math.log(lo), math.log(hi)
    width = 3 if spec.phase_policy == "re_positive" else 2
    u = rng.random(count * width).reshape(count, width)

    def magnitude(col: int) -> np.ndarray:
        return np.exp(log_lo + (log_hi - log_lo) * u[:, col])

    def sign(col: int) -> np.ndarray:
        return np.where(u[:, col] < 0.5, 1.0, -1.0)

    if spec.phase_policy == "arbitrary":
        theta = -math.pi + (math.pi - -math.pi) * u[:, 0]  # rng.uniform(-pi, pi)
        return [
            m * complex(math.cos(t), math.sin(t))
            for m, t in zip(magnitude(1).tolist(), theta.tolist())
        ]
    y = np.zeros(count, dtype=np.complex128)
    if spec.phase_policy == "re_positive":
        y.real = magnitude(0)
        y.imag = magnitude(1) * sign(2)
    else:  # pure_imaginary
        y.imag = magnitude(0) * sign(1)
    return y.tolist()


def generate(spec: GenSpec) -> Network:
    """Draw one random connected network.

    The node count is uniform over ``node_range``; a spanning tree
    guarantees connectivity; extra edges are sampled without replacement
    from the non-tree pairs; each node receives a shunt with probability
    ``shunt_probability`` (topped up to ``min_shunts`` if the draw came
    up short).  Same spec, same network.  Cost is linear in nodes plus
    branches.
    """
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.node_range
    n = int(rng.integers(lo, hi + 1))
    if spec.min_shunts > n:
        raise StructuralError(f"min_shunts={spec.min_shunts} exceeds node count {n}")

    if n == 1:
        pairs = np.empty((0, 2), dtype=np.int64)
    else:
        prufer = rng.integers(0, n, size=max(n - 2, 0)).tolist()
        pairs = np.array(_tree_from_prufer(prufer, n), dtype=np.int64)

    candidates = n * (n - 1) // 2 - (n - 1)  # every pair but the n - 1 tree pairs
    extra = int(round(spec.edge_density * candidates))
    if extra:
        picks = np.sort(rng.choice(candidates, size=extra, replace=False))
        pairs = np.concatenate((pairs, _extra_pairs(picks, pairs, n)))

    adms = _draw_admittances(rng, spec, len(pairs))
    branches = tuple(map(Branch, pairs[:, 0].tolist(), pairs[:, 1].tolist(), adms))

    shunted = rng.random(n) < spec.shunt_probability
    deficit = spec.min_shunts - int(np.count_nonzero(shunted))
    if deficit > 0:
        bare = np.flatnonzero(~shunted)
        shunted[bare[rng.choice(bare.size, size=deficit, replace=False)]] = True
    nodes = np.flatnonzero(shunted)
    shunts = tuple(map(Shunt, nodes.tolist(), _draw_admittances(rng, spec, nodes.size)))
    return Network(node_count=n, branches=branches, shunts=shunts)


def random_partition(node_count: int, class_count: int, rng: np.random.Generator) -> Partition:
    """Uniform-ish random partition into exactly ``class_count`` nonempty classes.

    One node seeds each class, the rest are assigned uniformly.
    """
    if class_count < 2 or class_count > node_count:
        raise StructuralError(
            f"cannot split {node_count} nodes into {class_count} nonempty classes"
        )
    labels = np.empty(node_count, dtype=np.intp)
    seeds = rng.permutation(node_count)[:class_count]
    labels[:] = rng.integers(0, class_count, size=node_count)
    labels[seeds] = np.arange(class_count)
    return Partition.from_labels(labels.tolist())
