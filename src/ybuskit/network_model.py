"""Electrical network data model and graph queries.

A network consists of ``node_count`` nodes indexed 0..N-1, a list of
branches (series admittances between two distinct nodes) and a list of
shunts (admittances from a node to ground).  Ground is implicit: it never
appears in the node index space, and every shunt connects to it.  Branches
carry no mutual coupling terms; the schema enforces that by construction.

All types are frozen dataclasses; every operation here is a pure function.
"""

from __future__ import annotations

import cmath
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError

#: Default threshold (in siemens) below which an admittance counts as zero.
DEFAULT_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class Branch:
    """Series admittance between two distinct non-ground nodes."""

    from_node: int
    to_node: int
    admittance: complex

    def __post_init__(self):
        object.__setattr__(self, "from_node", int(self.from_node))
        object.__setattr__(self, "to_node", int(self.to_node))
        object.__setattr__(self, "admittance", complex(self.admittance))
        if self.from_node == self.to_node:
            raise StructuralError(
                f"self-loop branch at node {self.from_node}; branches must join two distinct nodes"
            )
        if self.from_node < 0 or self.to_node < 0:
            raise StructuralError("branch endpoints must be nonnegative node indices")
        if not cmath.isfinite(self.admittance):
            raise StructuralError(f"branch admittance must be finite, got {self.admittance}")


@dataclass(frozen=True)
class Shunt:
    """Admittance from a node to the implicit ground node."""

    node: int
    admittance: complex

    def __post_init__(self):
        object.__setattr__(self, "node", int(self.node))
        object.__setattr__(self, "admittance", complex(self.admittance))
        if self.node < 0:
            raise StructuralError("shunt node must be a nonnegative node index")
        if not cmath.isfinite(self.admittance):
            raise StructuralError(f"shunt admittance must be finite, got {self.admittance}")


@dataclass(frozen=True)
class Network:
    """Node count, branch list and shunt list of one electrical network.

    Multiple branches between the same node pair are allowed (parallel
    circuits are distinct edges).  Multiple shunts at the same node are
    allowed and get summed when the nodal matrix is assembled.
    """

    node_count: int
    branches: tuple[Branch, ...] = ()
    shunts: tuple[Shunt, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "node_count", int(self.node_count))
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "shunts", tuple(self.shunts))
        if self.node_count < 1:
            raise StructuralError("a network needs at least one node")
        n = self.node_count
        for i, b in enumerate(self.branches):
            if b.from_node >= n or b.to_node >= n:
                raise StructuralError(
                    f"branch {i} references node outside [0, {n}): ({b.from_node}, {b.to_node})"
                )
        for i, s in enumerate(self.shunts):
            if s.node >= n:
                raise StructuralError(f"shunt {i} references node {s.node} outside [0, {n})")


@dataclass(frozen=True)
class ValidationReport:
    """Per-precondition findings for one network.  Reporting, not gating."""

    connected: bool
    hypothesis1_ok: bool
    theorem2_preconditions_ok: bool
    shunt_passivity_ok: bool
    messages: tuple[str, ...]


@dataclass(frozen=True)
class Component:
    """One connected component of an induced subgraph.

    ``branch_indices`` point into the originating network's branch list and
    select the branches with both endpoints inside this component.
    """

    nodes: tuple[int, ...]
    branch_indices: tuple[int, ...]


def shunt_totals(net: Network) -> np.ndarray:
    """Per-node sums of shunt admittances, as a complex vector of length N."""
    totals = np.zeros(net.node_count, dtype=np.complex128)
    for s in net.shunts:
        totals[s.node] += s.admittance
    return totals


def _component_labels(n: int, edges) -> list[int]:
    """Component index of each of ``n`` nodes under an undirected edge list.

    Components are numbered 0, 1, ... in order of their smallest node.  A
    breadth-first search over adjacency lists, O(n + |edges|).
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    labels = [-1] * n
    count = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            for v in adj[queue.popleft()]:
                if labels[v] < 0:
                    labels[v] = count
                    queue.append(v)
        count += 1
    return labels


def _component_count(net: Network) -> int:
    """Number of connected components of the branch graph.

    Shunts are ignored; a node with no branches is a component of its own.
    Only nodes that end a branch are searched, so the cost is
    O(|branches|) whatever the node count.
    """
    ends = sorted({v for b in net.branches for v in (b.from_node, b.to_node)})
    local = {v: k for k, v in enumerate(ends)}
    labels = _component_labels(
        len(ends), ((local[b.from_node], local[b.to_node]) for b in net.branches))
    return max(labels, default=-1) + 1 + net.node_count - len(ends)


def is_connected(net: Network) -> bool:
    """True iff the branch graph is a single connected component.

    Shunts are ignored; a single node with no branches is connected.  A
    network with more nodes than branches plus one is disconnected at
    once; otherwise the search runs in O(N + |branches|) = O(|branches|).
    """
    if net.node_count > len(net.branches) + 1:
        return False  # a connected graph on N nodes needs N - 1 branches
    edges = ((b.from_node, b.to_node) for b in net.branches)
    return not any(_component_labels(net.node_count, edges))


def components(net: Network, node_subset) -> list[Component]:
    """Connected components of the subgraph induced by ``node_subset``.

    Only branches with both endpoints in the subset are kept.  Components
    are returned sorted by their smallest node; node and branch listings
    are ascending.  The union of the returned node sets equals the subset.
    """
    nodes = sorted(set(int(v) for v in node_subset))
    for v in nodes:
        if v < 0 or v >= net.node_count:
            raise StructuralError(f"subset node {v} outside [0, {net.node_count})")

    local = {v: k for k, v in enumerate(nodes)}
    induced: list[int] = []
    edges: list[tuple[int, int]] = []
    for i, b in enumerate(net.branches):
        if b.from_node in local and b.to_node in local:
            induced.append(i)
            edges.append((local[b.from_node], local[b.to_node]))
    labels = _component_labels(len(nodes), edges)

    count = max(labels, default=-1) + 1
    comp_nodes: list[list[int]] = [[] for _ in range(count)]
    comp_branches: list[list[int]] = [[] for _ in range(count)]
    for v, lab in zip(nodes, labels):
        comp_nodes[lab].append(v)
    for i, (u, _) in zip(induced, edges):
        comp_branches[labels[u]].append(i)
    return [Component(nodes=tuple(c), branch_indices=tuple(b))
            for c, b in zip(comp_nodes, comp_branches)]


def incidence_matrix(net: Network) -> np.ndarray:
    """Branch-by-node incidence matrix, shape (|branches|, N), dtype int64.

    Row l carries +1 at the branch's ``from_node`` and -1 at its
    ``to_node``.  The orientation convention is arbitrary but fixed; the
    assembled nodal matrix does not depend on it.
    """
    a = np.zeros((len(net.branches), net.node_count), dtype=np.int64)
    for l, b in enumerate(net.branches):
        a[l, b.from_node] = 1
        a[l, b.to_node] = -1
    return a


def validate(net: Network, zero_tol: float = DEFAULT_ZERO_TOL) -> ValidationReport:
    """Check the modeling preconditions and report each one independently.

    Never raises on a precondition violation: the report carries the
    findings.  ``zero_tol`` is the admittance magnitude below which a
    branch counts as zero.
    """
    if zero_tol < 0:
        raise StructuralError("zero_tol must be nonnegative")
    messages: list[str] = []

    connected = is_connected(net)
    if not connected:
        messages.append(f"graph is disconnected: {_component_count(net)} components")

    hypothesis1_ok = True
    for i, b in enumerate(net.branches):
        if abs(b.admittance) <= zero_tol:
            hypothesis1_ok = False
            messages.append(
                f"branch {i} ({b.from_node},{b.to_node}) has near-zero admittance {b.admittance}"
            )

    re_positive = True
    for i, b in enumerate(net.branches):
        if not b.admittance.real > 0.0:
            re_positive = False
            messages.append(
                f"branch {i} ({b.from_node},{b.to_node}) has Re(y) = {b.admittance.real} <= 0"
            )
    # Re(y) > 0 for a zero-magnitude branch is impossible, so the implication
    # theorem2_preconditions_ok => hypothesis1_ok holds by construction.
    theorem2_ok = hypothesis1_ok and re_positive

    passivity_ok = True
    for i, s in enumerate(net.shunts):
        if s.admittance.real < 0.0:
            passivity_ok = False
            messages.append(f"shunt {i} at node {s.node} has Re(y) = {s.admittance.real} < 0")

    return ValidationReport(
        connected=connected,
        hypothesis1_ok=hypothesis1_ok,
        theorem2_preconditions_ok=theorem2_ok,
        shunt_passivity_ok=passivity_ok,
        messages=tuple(messages),
    )
