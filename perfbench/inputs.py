"""Workload inputs built from a seed with numpy alone.

``build_grid`` does not call ``ybuskit.generate``, so a change to the
library's random stream cannot swap the benchmark's inputs.  Networks
are transmission-like: a random spanning tree plus two extra distinct
branches per node (about 3 branches per node), shunts on 5% of the
nodes, and ``re_positive`` admittances whose real and imaginary
magnitudes are log-uniform in the library's default range 1e-2..1e2.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

MAGNITUDE_RANGE = (1e-2, 1e2)
EXTRA_BRANCHES_PER_NODE = 2
SHUNT_SHARE = 0.05


@dataclass(frozen=True, eq=False)
class GridArrays:
    """A network as arrays: branch endpoints and admittances, shunt nodes and admittances."""

    node_count: int
    edges: np.ndarray  # (branches, 2) int64
    branch_y: np.ndarray  # (branches,) complex128
    shunt_nodes: np.ndarray  # (shunts,) int64, ascending
    shunt_y: np.ndarray  # (shunts,) complex128

    def digest(self, *extra: np.ndarray) -> str:
        """SHA-256 over the arrays, plus any extra arrays (partitions, port lists)."""
        h = hashlib.sha256(np.int64(self.node_count).tobytes())
        for a in (self.edges, self.branch_y, self.shunt_nodes, self.shunt_y) + extra:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def shuntless(self) -> "GridArrays":
        empty = np.zeros(0, dtype=np.int64)
        return GridArrays(self.node_count, self.edges, self.branch_y, empty,
                          np.zeros(0, dtype=np.complex128))

    def to_network(self):
        import ybuskit

        branches = tuple(
            ybuskit.Branch(int(a), int(b), complex(y))
            for (a, b), y in zip(self.edges.tolist(), self.branch_y.tolist())
        )
        shunts = tuple(
            ybuskit.Shunt(int(v), complex(y))
            for v, y in zip(self.shunt_nodes.tolist(), self.shunt_y.tolist())
        )
        return ybuskit.Network(self.node_count, branches, shunts)

    def to_json(self) -> bytes:
        """The network in the documented JSON network format."""
        doc = {
            "nodes": self.node_count,
            "branches": [
                {"from": a, "to": b, "y": [y.real, y.imag]}
                for (a, b), y in zip(self.edges.tolist(), self.branch_y.tolist())
            ],
            "shunts": [
                {"node": v, "y": [y.real, y.imag]}
                for v, y in zip(self.shunt_nodes.tolist(), self.shunt_y.tolist())
            ],
        }
        return (json.dumps(doc) + "\n").encode("ascii")


def _admittances(rng: np.random.Generator, count: int) -> np.ndarray:
    lo, hi = np.log(MAGNITUDE_RANGE[0]), np.log(MAGNITUDE_RANGE[1])
    re = np.exp(rng.uniform(lo, hi, count))
    im = np.exp(rng.uniform(lo, hi, count)) * np.where(rng.random(count) < 0.5, 1.0, -1.0)
    return re + 1j * im


def build_grid(node_count: int, rng: np.random.Generator) -> GridArrays:
    """A connected network with about 3 branches per node and 5% shunted nodes."""
    n = node_count
    order = rng.permutation(n)
    # node order[i] hangs off a uniformly chosen earlier node: a random tree
    attach = order[(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)]
    tree = np.stack([order[1:], attach], axis=1)
    tree_keys = np.minimum(tree[:, 0], tree[:, 1]) * n + np.maximum(tree[:, 0], tree[:, 1])

    want = EXTRA_BRANCHES_PER_NODE * n
    if want > n * (n - 1) // 2 - (n - 1):
        raise ValueError(f"{n} nodes cannot hold {want} extra distinct branches")
    extra = np.zeros(0, dtype=np.int64)
    while extra.size < want:
        pairs = rng.integers(0, n, size=(2 * want, 2))
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keys = (lo * n + hi)[lo != hi]
        keys = np.concatenate([extra, keys])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        extra = keys[~np.isin(keys, tree_keys)][:want]
    extra_edges = np.stack([extra // n, extra % n], axis=1)
    edges = np.concatenate([tree, extra_edges]).astype(np.int64)

    shunt_count = max(1, int(round(SHUNT_SHARE * n)))
    shunt_nodes = np.sort(rng.choice(n, size=shunt_count, replace=False)).astype(np.int64)
    return GridArrays(
        node_count=n,
        edges=edges,
        branch_y=_admittances(rng, len(edges)),
        shunt_nodes=shunt_nodes,
        shunt_y=_admittances(rng, shunt_count),
    )


def three_class_labels(node_count: int, rng: np.random.Generator) -> np.ndarray:
    """Balanced random labels 0, 1, 2: every class is nonempty for node_count >= 3."""
    return rng.permutation(np.arange(node_count, dtype=np.int64) % 3)


def node_sample(node_count: int, share: float, rng: np.random.Generator) -> np.ndarray:
    """An ascending random subset holding ``share`` of the nodes (at least one)."""
    count = max(1, int(round(share * node_count)))
    return np.sort(rng.choice(node_count, size=count, replace=False)).astype(np.int64)
