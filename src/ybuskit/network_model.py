"""Electrical network data model and graph queries.

A network consists of ``node_count`` nodes indexed 0..N-1, a list of
branches (series admittances between two distinct nodes) and a list of
shunts (admittances from a node to ground).  Ground is implicit: it never
appears in the node index space, and every shunt connects to it.  Branches
carry no mutual coupling terms; the schema enforces that by construction.

All types are frozen dataclasses.  A network checks its node references
once, when it is made, and keeps its branches and shunts as read-only
arrays, which ``validate``, ``assemble``, the rank verdicts and
``verify_block_rank`` read.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError

#: Default threshold (in siemens) below which an admittance counts as zero.
DEFAULT_ZERO_TOL = 1e-12
_INTP_MAX = np.iinfo(np.intp).max


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

    Construction checks all node references at once and keeps, in list
    order, the read-only arrays every layer reads: ``ends`` (N_b x 2),
    ``branch_y``, ``shunt_nodes`` and ``shunt_y``.  Node indices are intp,
    or Python ints in object arrays past intp (possible in a network file).
    Equality and hashing see the node count, branches and shunts only.
    """

    node_count: int
    branches: tuple[Branch, ...] = ()
    shunts: tuple[Shunt, ...] = ()
    ends: np.ndarray = field(init=False, compare=False, repr=False)
    branch_y: np.ndarray = field(init=False, compare=False, repr=False)
    shunt_nodes: np.ndarray = field(init=False, compare=False, repr=False)
    shunt_y: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "node_count", n := int(self.node_count))
        object.__setattr__(self, "branches", branches := tuple(self.branches))
        object.__setattr__(self, "shunts", shunts := tuple(self.shunts))
        if n < 1:
            raise StructuralError("a network needs at least one node")
        nb = len(branches)  # nodes: the from nodes, then the to nodes, then the shunt nodes
        nodes = ([b.from_node for b in branches] + [b.to_node for b in branches]
                 + [s.node for s in shunts])
        try:
            nodes = np.array(nodes, dtype=np.intp if n <= _INTP_MAX else object)
        except OverflowError:  # an index past intp is past ``n`` too, and kept to be named
            nodes = np.array(nodes, dtype=object)
        if nodes.size and nodes.max() >= n:
            outside = nodes >= n
            bad = np.flatnonzero(outside[:nb] | outside[nb:2 * nb])
            if bad.size:
                b = branches[bad[0]]
                raise StructuralError(f"branch {bad[0]} references node outside [0, {n}): "
                                      f"({b.from_node}, {b.to_node})")
            i = np.flatnonzero(outside[2 * nb:])[0]
            raise StructuralError(f"shunt {i} references node {shunts[i].node} outside [0, {n})")
        branch_y = np.array([b.admittance for b in branches], dtype=np.complex128)
        shunt_y = np.array([s.admittance for s in shunts], dtype=np.complex128)
        for name, a in (("ends", nodes[:2 * nb].reshape(2, -1).T), ("branch_y", branch_y),
                        ("shunt_nodes", nodes[2 * nb:]), ("shunt_y", shunt_y)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


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
    """Per-node sums of shunt admittances, added in shunt order, as a complex N-vector."""
    totals = np.zeros(net.node_count, dtype=np.complex128)
    np.add.at(totals, net.shunt_nodes, net.shunt_y)
    return totals


def _component_labels(n: int, u, v) -> np.ndarray:
    """Component index of each of ``n`` nodes joined by the edges of intp arrays ``u``, ``v``.

    In each round every root hooks onto the smallest root across its edges
    and every node then jumps to its root, until no edge joins two roots.
    A root only hooks onto a smaller one, so each component ends rooted at
    its smallest node, and components are numbered 0, 1, ... in the order
    of their roots.  A root that no root hooked onto in one round hooks in
    the next, so a component's roots halve every two rounds: O(log n)
    rounds, each O(|edges| + n log n).
    """
    root = np.arange(n)
    while True:
        u, v = root[u], root[v]
        cross = u != v
        if not np.count_nonzero(cross):
            return np.cumsum(root == np.arange(n))[root] - 1
        u, v = u[cross], v[cross]
        np.minimum.at(root, u, v)
        np.minimum.at(root, v, u)
        while np.count_nonzero((up := root[root]) != root):
            root = up


def _component_count(n: int, ends: np.ndarray) -> int:
    """Number of connected components of ``n`` nodes joined by the branch ``ends``.

    Shunts are ignored; a node with no branches is a component of its own.
    Only nodes that end a branch are labelled, so the cost is that of
    :func:`_component_labels` on |branches| edges, whatever ``n`` is.
    """
    nodes, local = np.unique(ends, return_inverse=True)
    labels = _component_labels(nodes.size, *local.reshape(-1, 2).T)
    return int(labels.max(initial=-1)) + 1 + n - nodes.size


def is_connected(net: Network) -> bool:
    """True iff the branch graph, shunts ignored, is one component; labels branch ends only."""
    return _component_count(net.node_count, net.ends) == 1


def validate(net: Network) -> ValidationReport:
    """Check the modeling preconditions and report each one independently.

    Never raises on a precondition violation: the report carries the
    findings.  A branch counts as zero when |y| <= ``DEFAULT_ZERO_TOL``; one
    whose magnitude overflows counts as nonzero.
    """
    messages: list[str] = []
    count = _component_count(net.node_count, net.ends)
    connected = count == 1
    if not connected:
        messages.append(f"graph is disconnected: {count} components")

    zero = _zero_admittances(net.branch_y, DEFAULT_ZERO_TOL)
    hypothesis1_ok = not zero
    for i in zero:
        b = net.branches[i]
        messages.append(
            f"branch {i} ({b.from_node},{b.to_node}) has near-zero admittance {b.admittance}"
        )

    re_nonpositive = np.flatnonzero(net.branch_y.real <= 0.0).tolist()
    for i in re_nonpositive:
        b = net.branches[i]
        messages.append(
            f"branch {i} ({b.from_node},{b.to_node}) has Re(y) = {b.admittance.real} <= 0"
        )
    # Re(y) > 0 for a zero-magnitude branch is impossible, so the implication
    # theorem2_preconditions_ok => hypothesis1_ok holds by construction.
    theorem2_ok = hypothesis1_ok and not re_nonpositive

    active = np.flatnonzero(net.shunt_y.real < 0.0).tolist()
    for i in active:
        s = net.shunts[i]
        messages.append(f"shunt {i} at node {s.node} has Re(y) = {s.admittance.real} < 0")

    return ValidationReport(
        connected=connected,
        hypothesis1_ok=hypothesis1_ok,
        theorem2_preconditions_ok=theorem2_ok,
        shunt_passivity_ok=not active,
        messages=tuple(messages),
    )
