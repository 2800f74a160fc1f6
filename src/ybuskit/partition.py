"""Node partitions, block addressing and diagonal-block rank verification.

Partitioning the rows of the nodal matrix and ordering them class by class
exposes blocks Y_ij relating the currents of class i to the voltages of
class j.  When the network is connected, branch admittances are nonzero
and every branch has positive real part, each diagonal block is
invertible: grounding the other classes turns boundary branches into
shunts, and every connected piece of a class then owns at least one
effective shunt.  ``verify_block_rank`` checks exactly that argument,
for all components at once, and for each one only if that fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError
from .linalg_core import RankCertificate, _dense, _hermitian_part_certifies, full_rank_certificate
from .network_model import (
    DEFAULT_ZERO_TOL, Network, _component_labels, shunt_totals, validate)
from .ybus import AdmittanceMatrix, _stamp


@dataclass(frozen=True)
class Partition:
    """Ordered partition of the positions 0..N-1 into at least two nonempty classes.

    A position is a row of the matrix, so a class names rows, not node
    labels; for a network's matrix the two coincide.  In block order class
    i occupies the contiguous row/column range starting at ``offsets[i]``.
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
                    raise StructuralError(f"position {v} appears in more than one class")
                seen.add(v)
            offsets.append(total)
            total += len(c)
        if total != self.node_count or seen != set(range(self.node_count)):
            raise StructuralError(
                f"classes must cover exactly the positions 0..{self.node_count - 1}"
            )
        object.__setattr__(self, "offsets", tuple(offsets))

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Build from a class label per position.

        Classes are ordered by ascending label; positions within a class keep
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
        """Class index per position (inverse of :meth:`from_labels`)."""
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
    block-order row k refers to.  Blocks are sliced out of ``source`` one
    at a time; no reordered copy is built.
    """

    source: AdmittanceMatrix
    partition: Partition
    positions: np.ndarray = field(repr=False)

    @property
    def node_order(self) -> tuple[int, ...]:
        """Node labels in block order: the labels of the classes' rows, concatenated."""
        order = self.source.node_order
        return tuple(order[k] for k in self.positions.tolist())

    def block(self, i: int, j: int) -> np.ndarray:
        """The block relating class-i currents to class-j voltages, as a dense array."""
        p, pos = self.partition, self.positions
        return _dense(self.source._block(pos[p.span(i)], pos[p.span(j)]))


def block_view(source: AdmittanceMatrix, part: Partition) -> BlockView:
    """Address a matrix in block form under a partition of its rows."""
    if part.node_count != source.size:
        raise StructuralError(
            f"partition covers {part.node_count} nodes but matrix has {source.size}"
        )
    positions = np.array([k for c in part.classes for k in c], dtype=np.intp)
    positions.flags.writeable = False
    return BlockView(source=source, partition=part, positions=positions)


@dataclass(frozen=True)
class ComponentReport:
    """Verification outcome for one connected component of a class."""

    nodes: tuple[int, ...]
    full_rank: bool
    grounded: bool  # touches a boundary branch or a nonzero shunt total
    condition_estimate: float  # NaN where one kernel call certified the partition: no LU ran


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
    class's induced subgraph.  Y is stamped once from the network's arrays,
    and the components of every class are labelled by one call on the
    class-internal branches.  Y's stored entries whose ends share a
    component hold B, the block diagonal of all components, and one call of
    the Hermitian-part kernel certifies B at order N.  B's singular values
    are the union of its components', so for each A_c of order m_c <= N,
    sigma_min(A_c) >= sigma_min(B) > N eps sigma_max(B) >= m_c eps
    sigma_max(A_c).  Only a refused B gives each component sub-block its
    own LU condition certificate.  Every component must also touch a
    boundary branch or a nonzero shunt total.
    """
    if part.node_count != net.node_count:
        raise StructuralError(
            f"partition covers {part.node_count} nodes but network has {net.node_count}"
        )
    report = validate(net)
    findings = list(report.messages)
    y = _stamp(net, 0.0)

    # a branch inside a class joins two nodes of its grounded equivalent; a
    # branch between classes grounds both of its ends, as does a nonzero shunt total
    ends = net.ends
    class_of = np.array(part.labels())[ends]
    inside = class_of[:, 0] == class_of[:, 1]
    grounded = np.abs(shunt_totals(net)) > DEFAULT_ZERO_TOL
    grounded[ends[~inside]] = True
    grounded = grounded.tolist()
    # numbered by smallest node, so grouping a class's sorted nodes by label
    # lists its components in order of their smallest node
    piece = _component_labels(net.node_count, *ends[inside].T)
    rows = y._rows()
    same = piece[rows] == piece[y.indices]  # row-major still
    certified = _hermitian_part_certifies(y.size, rows[same], y.indices[same], y.data[same])
    piece, kernel = piece.tolist(), RankCertificate(True, float("nan"), None)

    class_reports: list[ClassBlockReport] = []
    for ci, keep in enumerate(part.classes):
        pieces: dict[int, list[int]] = {}
        for v in sorted(keep):
            pieces.setdefault(piece[v], []).append(v)
        comp_reports: list[ComponentReport] = []
        for nodes in map(tuple, pieces.values()):
            cert = kernel if certified else full_rank_certificate(y._block(nodes, nodes))
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

    return BlockRankReport(connected=report.connected, hypothesis1_ok=report.hypothesis1_ok,
                           branches_re_positive=report.theorem2_preconditions_ok,
                           classes=tuple(class_reports), findings=tuple(findings))
