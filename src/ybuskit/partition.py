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
from .linalg_core import RankCertificate, full_rank_certificate
from .network_model import DEFAULT_ZERO_TOL, Network, components, validate
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
    """Verification outcome for one diagonal block.

    ``certificate`` is the block's full-rank certificate, which solves with
    its LU factors; it stays out of the repr and of comparisons.
    """

    class_index: int
    nodes: tuple[int, ...]
    components: tuple[ComponentReport, ...]
    each_component_full_rank: bool
    block_condition_estimate: float
    certificate: RankCertificate = field(repr=False, compare=False)


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


def verify_block_rank(
    net: Network,
    part: Partition,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> BlockRankReport:
    """Verify that every diagonal block of the partition has full rank.

    Grounding every other class turns boundary branches into shunts, so a
    diagonal block of Y is the nodal matrix of that grounded equivalent.
    Y is stamped once; each class is decomposed into the connected
    components of its induced subgraph, and since the block is
    block-diagonal across them every component sub-block gets its own LU
    condition certificate.  The whole block's certificate is kept on its
    report; when the class is one component, that component's serves.  The
    structural claim that every component touches a boundary branch or a
    nonzero shunt is checked as well.
    """
    if part.node_count != net.node_count:
        raise StructuralError(
            f"partition covers {part.node_count} nodes but network has {net.node_count}"
        )
    report = validate(net, zero_tol=zero_tol)
    findings = list(report.messages)
    y = _stamp(net, 0.0)

    # a node is grounded when a branch leaves its class there, or when it
    # carries a nonzero shunt of its own
    labels = part.labels()
    grounded = [False] * net.node_count
    for b in net.branches:
        if labels[b.from_node] != labels[b.to_node]:
            grounded[b.from_node] = grounded[b.to_node] = True
    for s in net.shunts:
        if abs(s.admittance) > zero_tol:
            grounded[s.node] = True

    class_reports: list[ClassBlockReport] = []
    for ci, keep in enumerate(part.classes):
        comp_reports: list[ComponentReport] = []
        comps = components(net, keep)
        for comp in comps:
            cert = full_rank_certificate(y[np.ix_(comp.nodes, comp.nodes)])
            touched = any(grounded[v] for v in comp.nodes)
            comp_reports.append(
                ComponentReport(
                    nodes=comp.nodes,
                    full_rank=cert.full_rank,
                    grounded=touched,
                    condition_estimate=cert.condition_estimate,
                )
            )
            if not cert.full_rank:
                findings.append(
                    f"class {ci}: component {comp.nodes} is rank deficient "
                    f"(condition estimate {cert.condition_estimate:.3e})"
                )
            if not touched:
                findings.append(
                    f"class {ci}: component {comp.nodes} touches no boundary branch or shunt"
                )

        if len(comps) == 1 and comps[0].nodes == keep:
            block_cert = cert  # the component is the block, in the same order
        else:
            block_cert = full_rank_certificate(y[np.ix_(keep, keep)])
        class_reports.append(
            ClassBlockReport(
                class_index=ci,
                nodes=keep,
                components=tuple(comp_reports),
                each_component_full_rank=all(c.full_rank for c in comp_reports),
                block_condition_estimate=block_cert.condition_estimate,
                certificate=block_cert,
            )
        )

    return BlockRankReport(
        connected=report.connected,
        hypothesis1_ok=report.hypothesis1_ok,
        branches_re_positive=report.theorem2_preconditions_ok,
        classes=tuple(class_reports),
        findings=tuple(findings),
    )
