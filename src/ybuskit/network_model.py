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


def _zero_admittances(adm: np.ndarray, zero_tol: float) -> list[int]:
    """Positions of the admittances that count as zero, |y| <= ``zero_tol``.

    |y| >= max(|Re y|, |Im y|), so only entries within that bound are
    measured, and a magnitude that overflows (such a y is not zero) is
    never taken.  The measure is Python's abs, which NumPy's complex abs
    can miss by an ulp.
    """
    near = np.maximum(abs(adm.real), abs(adm.imag)) <= zero_tol
    return [k for k in np.flatnonzero(near).tolist() if abs(complex(adm[k])) <= zero_tol]


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
    """True iff the branch graph, shunts ignored, is one component; O(|branches|)."""
    return _component_count(net) == 1


def validate(net: Network) -> ValidationReport:
    """Check the modeling preconditions and report each one independently.

    Never raises on a precondition violation: the report carries the
    findings.  A branch counts as zero when |y| <= ``DEFAULT_ZERO_TOL``; one
    whose magnitude overflows counts as nonzero.
    """
    messages: list[str] = []

    count = _component_count(net)
    connected = count == 1
    if not connected:
        messages.append(f"graph is disconnected: {count} components")

    adm = np.array([b.admittance for b in net.branches], dtype=np.complex128)
    zero = _zero_admittances(adm, DEFAULT_ZERO_TOL)
    hypothesis1_ok = not zero
    for i in zero:
        b = net.branches[i]
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
