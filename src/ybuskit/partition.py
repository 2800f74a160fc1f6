"""Node partitions, block addressing and diagonal-block rank verification.

Partitioning the node set and reordering the nodal matrix accordingly
exposes blocks Y_ij relating the currents of class i to the voltages of
class j.  When the network is connected, branch admittances are nonzero
and every branch has positive real part, each diagonal block is
invertible: grounding the other classes turns boundary branches into
shunts, and every connected piece of a class then owns at least one
effective shunt.  ``verify_block_rank`` checks exactly that argument,
component by component.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError
from .linalg_core import full_rank_certificate
from .network_model import DEFAULT_ZERO_TOL, Network, _component_labels, validate
from .ybus import AdmittanceMatrix, _stamp, reorder


@dataclass(frozen=True)
class Partition:
    """Ordered partition of the node set into at least two nonempty classes.

    In block order class i occupies the contiguous row/column range
    starting at ``offsets[i]``.
    """

    classes: tuple[tuple[int, ...], ...]
    node_count: int
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cls = tuple(tuple(int(v) for v in c) for c in self.classes)
        object.__setattr__(self, "classes", cls)
        object.__setattr__(self, "node_count", int(self.node_count))
        if len(cls) < 2:
            raise StructuralError("a partition needs at least two classes")
        seen: set[int] = set()
        offsets: list[int] = []
        total = 0
        for i, c in enumerate(cls):
            if not c:
                raise StructuralError(f"partition class {i} is empty")
            for v in c:
                if v in seen:
                    raise StructuralError(f"node {v} appears in more than one class")
                seen.add(v)
            offsets.append(total)
            total += len(c)
        if total != self.node_count or seen != set(range(self.node_count)):
            raise StructuralError(
                f"classes must cover exactly the nodes 0..{self.node_count - 1}"
            )
        object.__setattr__(self, "offsets", tuple(offsets))

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Build from a per-node class-label vector.

        Classes are ordered by ascending label; nodes within a class keep
        ascending order.
        """
        labels = [int(x) for x in labels]
        by_label: dict[int, list[int]] = {}
        for node, lab in enumerate(labels):
            by_label.setdefault(lab, []).append(node)
        ordered = tuple(tuple(by_label[lab]) for lab in sorted(by_label))
        return cls(classes=ordered, node_count=len(labels))

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def labels(self) -> list[int]:
        """Per-node class-index vector (inverse of :meth:`from_labels`)."""
        out = [0] * self.node_count
        for i, c in enumerate(self.classes):
            for v in c:
                out[v] = i
        return out

    def span(self, i: int) -> slice:
        """Rows/columns of class i in block order."""
        if not 0 <= i < self.class_count:
            raise StructuralError(f"class index {i} out of range for {self.class_count} classes")
        return slice(self.offsets[i], self.offsets[i] + len(self.classes[i]))


@dataclass(frozen=True, eq=False)
class BlockView:
    """A matrix addressed in block order under a partition.

    In block order class i occupies the contiguous row/column range
    ``partition.span(i)``; ``positions[k]`` is the row of ``source`` that
    block-order row k refers to.  Blocks are sliced out of ``source``
    directly; ``permuted`` builds the reordered matrix only when asked.
    """

    source: AdmittanceMatrix
    partition: Partition
    positions: np.ndarray = field(repr=False)

    @property
    def node_order(self) -> tuple[int, ...]:
        """Node labels in block order: the classes, concatenated."""
        return tuple(v for c in self.partition.classes for v in c)

    def block(self, i: int, j: int) -> np.ndarray:
        """The block relating class-i currents to class-j voltages (a copy)."""
        p, pos = self.partition, self.positions
        return self.source.matrix[np.ix_(pos[p.span(i)], pos[p.span(j)])]

    @functools.cached_property
    def permuted(self) -> AdmittanceMatrix:
        """``source`` reordered so that class i occupies ``partition.span(i)``."""
        return reorder(self.source, self.node_order)


def block_view(source: AdmittanceMatrix, part: Partition) -> BlockView:
    """Address a matrix in block form under a partition of its nodes."""
    if part.node_count != source.size:
        raise StructuralError(
            f"partition covers {part.node_count} nodes but matrix has {source.size}"
        )
    pos = {v: i for i, v in enumerate(source.node_order)}
    if pos.keys() != set(range(part.node_count)):
        raise StructuralError(
            f"partition nodes 0..{part.node_count - 1} are not the matrix node order"
        )
    positions = np.array([pos[v] for c in part.classes for v in c], dtype=np.intp)
    positions.flags.writeable = False
    return BlockView(source=source, partition=part, positions=positions)


@dataclass(frozen=True)
class ComponentReport:
    """Verification outcome for one connected component of a class."""

    nodes: tuple[int, ...]
    full_rank: bool
    grounded: bool  # touches a boundary branch or a nonzero original shunt
    condition_estimate: float


@dataclass(frozen=True)
class ClassBlockReport:
    """Verification outcome for one diagonal block, one report per component."""

    class_index: int
    nodes: tuple[int, ...]
    components: tuple[ComponentReport, ...]
    each_component_full_rank: bool


@dataclass(frozen=True)
class BlockRankReport:
    """Hypothesis findings plus per-class diagonal-block verification.

    Hypothesis status and measured invertibility are reported separately:
    the hypotheses are sufficient, not necessary, so verification proceeds
    even when they fail (as a falsification probe).
    """

    connected: bool
    hypothesis1_ok: bool
    branches_re_positive: bool
    classes: tuple[ClassBlockReport, ...]
    findings: tuple[str, ...]

    @property
    def all_full_rank(self) -> bool:
        return all(c.each_component_full_rank for c in self.classes)


def verify_block_rank(net: Network, part: Partition) -> BlockRankReport:
    """Verify that every diagonal block of the partition has full rank.

    Grounding every other class turns boundary branches into shunts, so a
    diagonal block of Y is the nodal matrix of that grounded equivalent,
    and it is block-diagonal across the connected components of the
    class's induced subgraph.  Y is stamped once, the components of every
    class are labelled in one pass over the class-internal branches, and
    each component sub-block gets its own LU condition certificate; no
    other factorization runs.  The structural claim that every component
    touches a boundary branch or a nonzero shunt is checked as well.
    """
    if part.node_count != net.node_count:
        raise StructuralError(
            f"partition covers {part.node_count} nodes but network has {net.node_count}"
        )
    report = validate(net)
    findings = list(report.messages)
    y = _stamp(net, 0.0)

    # a branch inside a class joins two nodes of its grounded equivalent; a
    # branch between classes grounds both of its ends, as does a nonzero shunt
    labels = part.labels()
    grounded = [False] * net.node_count
    internal: list[tuple[int, int]] = []
    for b in net.branches:
        if labels[b.from_node] == labels[b.to_node]:
            internal.append((b.from_node, b.to_node))
        else:
            grounded[b.from_node] = grounded[b.to_node] = True
    for s in net.shunts:
        if abs(s.admittance) > DEFAULT_ZERO_TOL:
            grounded[s.node] = True
    # numbered by smallest node, so grouping a class's sorted nodes by label
    # lists its components in order of their smallest node
    piece = _component_labels(net.node_count, internal)

    class_reports: list[ClassBlockReport] = []
    for ci, keep in enumerate(part.classes):
        pieces: dict[int, list[int]] = {}
        for v in sorted(keep):
            pieces.setdefault(piece[v], []).append(v)
        comp_reports: list[ComponentReport] = []
        for nodes in map(tuple, pieces.values()):
            cert = full_rank_certificate(y[np.ix_(nodes, nodes)])
            touched = any(grounded[v] for v in nodes)
            comp_reports.append(
                ComponentReport(nodes, cert.full_rank, touched, cert.condition_estimate))
            if not cert.full_rank:
                findings.append(
                    f"class {ci}: component {nodes} is rank deficient "
                    f"(condition estimate {cert.condition_estimate:.3e})"
                )
            if not touched:
                findings.append(
                    f"class {ci}: component {nodes} touches no boundary branch or shunt"
                )
        class_reports.append(ClassBlockReport(
            ci, keep, tuple(comp_reports), all(c.full_rank for c in comp_reports)))

    return BlockRankReport(
        connected=report.connected,
        hypothesis1_ok=report.hypothesis1_ok,
        branches_re_positive=report.theorem2_preconditions_ok,
        classes=tuple(class_reports),
        findings=tuple(findings),
    )
