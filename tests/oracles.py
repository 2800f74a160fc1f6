"""Independent reference implementations used to cross-check the library.

Everything here deliberately takes a different route than the package:
exact rational arithmetic instead of floating point, Warshall transitive
closure instead of breadth-first search, whole-system dense solves
instead of Schur complements, the incidence triple product instead of
direct stamping, and an explicit grounded-equivalent network instead of a
slice of the assembled matrix.  The element-by-element generator and
stamping loops, the per-branch range check and the per-shunt sum that
the package's array code replaced are kept here too, as the bit-for-bit
reference for it, and so are the dense N x N stamp, permuted copy and
bordered block form that compressed-row storage replaced, the
Hermitian-part certificate that factors the whole of G_s densely, which
elimination by least degree replaced, the virtual-ground network built of
``Branch`` objects, which stamping from arrays replaced, and the
per-component LU loop of ``verify_block_rank``, which one certificate of
the whole partition replaced where it succeeds.  Values produced by these oracles are
what the tests compare the library against.  ``counterexample_block_singular``
is the one fixed instance kept here: the network that shows why Theorem 2
needs positive branch real parts.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ybuskit import (
    AdmittanceMatrix,
    Branch,
    HypothesisError,
    Network,
    Partition,
    PreconditionError,
    Shunt,
    StructuralError,
    full_rank_certificate,
    shunt_totals,
    validate,
)
from ybuskit.partition import BlockRankReport, ClassBlockReport, ComponentReport
from ybuskit.generator import _tree_from_prufer
from ybuskit.linalg_core import EPS, TINY, _mirror
from ybuskit.network_model import DEFAULT_ZERO_TOL, _component_labels
from ybuskit.ybus import _stamp


class QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def from_complex(cls, z: complex) -> "QC":
        # Fraction(float) is exact, so dyadic test values survive unchanged
        return cls(Fraction(z.real), Fraction(z.imag))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, o: "QC") -> "QC":
        return QC(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "QC") -> "QC":
        return QC(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def __mul__(self, o: "QC") -> "QC":
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o: "QC") -> "QC":
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return QC((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __eq__(self, o) -> bool:
        return isinstance(o, QC) and self.re == o.re and self.im == o.im

    def __repr__(self) -> str:
        return f"QC({self.re}, {self.im})"


def exact_rank(rows: list[list[QC]]) -> int:
    """Rank by Gaussian elimination over the Gaussian rationals (exact)."""
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if not m[r][col].is_zero()), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for r in range(rank + 1, n_rows):
            if m[r][col].is_zero():
                continue
            f = m[r][col] / lead
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def exact_int_rank(a: np.ndarray) -> int:
    """Exact rank of an integer matrix (e.g. an incidence matrix)."""
    return exact_rank([[QC(int(v)) for v in row] for row in np.asarray(a)])


def exact_assemble(net) -> list[list[QC]]:
    """Stamp the nodal matrix in exact rational arithmetic.

    Independent reconstruction of what assembly must produce: every branch
    adds its admittance on both diagonal entries and subtracts it on both
    off-diagonal entries; every shunt adds on one diagonal entry.
    """
    n = net.node_count
    y = [[QC() for _ in range(n)] for _ in range(n)]
    for b in net.branches:
        z = QC.from_complex(b.admittance)
        i, j = b.from_node, b.to_node
        y[i][i] = y[i][i] + z
        y[j][j] = y[j][j] + z
        y[i][j] = y[i][j] - z
        y[j][i] = y[j][i] - z
    for s in net.shunts:
        z = QC.from_complex(s.admittance)
        y[s.node][s.node] = y[s.node][s.node] + z
    return y


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


def incidence_assemble(net) -> np.ndarray:
    """The nodal matrix as the triple product ``A^T diag(y_L) A + diag(t)``.

    ``A`` is the public branch-by-node incidence matrix, ``y_L`` the branch
    admittances and ``t`` the per-node shunt totals.
    """
    a = incidence_matrix(net).astype(np.complex128)
    y_l = np.array([b.admittance for b in net.branches], dtype=np.complex128)
    return a.T @ (y_l[:, None] * a) + np.diag(shunt_totals(net))


def grounded_equivalent(net, keep):
    """The network seen by a node subset when everything else is grounded.

    Branches inside ``keep`` are retained; each branch leaving ``keep``
    becomes a shunt at its inside endpoint; original shunts on ``keep``
    are retained.  Nodes are relabeled 0..len(keep)-1 following the order
    of ``keep`` (sets are sorted first), so assembling the result
    reproduces the corresponding diagonal block.
    """
    if isinstance(keep, (set, frozenset)):
        keep_order = sorted(int(v) for v in keep)
    else:
        keep_order = [int(v) for v in keep]
    if not keep_order:
        raise PreconditionError("keep set must be nonempty")
    if len(set(keep_order)) != len(keep_order):
        raise StructuralError("keep set contains duplicates")
    for v in keep_order:
        if v < 0 or v >= net.node_count:
            raise StructuralError(f"keep node {v} outside [0, {net.node_count})")
    if len(keep_order) == net.node_count:
        raise PreconditionError("keep set must be a proper subset of the nodes")

    new_index = {v: i for i, v in enumerate(keep_order)}
    branches = []
    shunts = []
    for b in net.branches:
        fin = b.from_node in new_index
        tin = b.to_node in new_index
        if fin and tin:
            branches.append(Branch(new_index[b.from_node], new_index[b.to_node], b.admittance))
        elif fin:
            shunts.append(Shunt(new_index[b.from_node], b.admittance))
        elif tin:
            shunts.append(Shunt(new_index[b.to_node], b.admittance))
    for s in net.shunts:
        if s.node in new_index:
            shunts.append(Shunt(new_index[s.node], s.admittance))
    return Network(node_count=len(keep_order), branches=tuple(branches), shunts=tuple(shunts))


def exact_to_array(rows: list[list[QC]]) -> np.ndarray:
    return np.array([[q.to_complex() for q in row] for row in rows], dtype=np.complex128)


def closure_reachability(n: int, edges) -> np.ndarray:
    """Boolean reachability matrix by Floyd-Warshall transitive closure."""
    reach = np.eye(n, dtype=bool)
    for i, j in edges:
        reach[i, j] = True
        reach[j, i] = True
    for k in range(n):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return reach


def closure_components(n: int, edges) -> list[frozenset[int]]:
    """Connected components read off the transitive closure."""
    reach = closure_reachability(n, edges)
    comps: list[frozenset[int]] = []
    seen: set[int] = set()
    for v in range(n):
        if v in seen:
            continue
        comp = frozenset(int(u) for u in np.flatnonzero(reach[v]))
        seen |= comp
        comps.append(comp)
    return comps


def dyadic_admittance(rng: np.random.Generator, re_positive: bool = False) -> complex:
    """Random small admittance with exactly representable quarter-unit parts."""
    while True:
        a = int(rng.integers(-12, 13))
        b = int(rng.integers(-12, 13))
        if re_positive:
            a = abs(a) or 1
        if a or b:
            return complex(a / 4, b / 4)


def random_rational_network(rng: np.random.Generator, n: int, *,
                            extra_edges: int = 2, shunt_count: int = 0,
                            re_positive: bool = False):
    """Connected network with dyadic-rational admittances.

    Built independently of the package's generator: a random attachment
    tree (node i hooks onto a random earlier node) plus extra distinct
    pairs.  Returns (node_count, branch list, shunt list) as plain tuples
    so callers construct the package types themselves.
    """
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    have = set(edges)
    pool = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in have]
    for k in rng.permutation(len(pool))[:extra_edges]:
        edges.append(pool[int(k)])
    branches = [(i, j, dyadic_admittance(rng, re_positive)) for i, j in edges]
    nodes = rng.permutation(n)[:shunt_count]
    shunts = [(int(v), dyadic_admittance(rng, re_positive)) for v in nodes]
    return n, branches, shunts


def solve_full(y: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Whole-system dense solve, the reference route for reduction checks."""
    return np.linalg.solve(y, rhs)


def blockwise_hybrid(m: np.ndarray, spans, p: int) -> np.ndarray:
    """Hybrid parameters block by block, the reference for ``hybrid_parameters``.

    ``m`` is Y in block order and ``spans[k]`` the slice of class k.  One
    LU of Y_pp; block (p, p) is its inverse, each block (p, k) a solve,
    each block (q, k) the update Y_qk - Y_qp W_k, and each block (q, p) a
    transposed solve, Y_qp Y_pp^{-1} = (Y_pp^{-T} Y_qp^T)^T.  No Schur
    complement, no symmetrization and no reciprocity are used.
    """
    import scipy.linalg

    sp = spans[p]
    lu = scipy.linalg.lu_factor(m[sp, sp])
    h = np.zeros_like(m, dtype=np.complex128)
    h[sp, sp] = scipy.linalg.lu_solve(lu, np.eye(sp.stop - sp.start, dtype=np.complex128))
    for k, sk in enumerate(spans):
        if k == p:
            continue
        w_k = scipy.linalg.lu_solve(lu, m[sp, sk])
        h[sp, sk] = -w_k
        for q, sq in enumerate(spans):
            if q != p:
                h[sq, sk] = m[sq, sk] - m[sq, sp] @ w_k
    for q, sq in enumerate(spans):
        if q != p:
            h[sq, sp] = scipy.linalg.lu_solve(lu, m[sq, sp].T, trans=1).T
    return h


def _loop_admittance(rng: np.random.Generator, spec) -> complex:
    lo, hi = spec.magnitude_range
    log_lo, log_hi = math.log(lo), math.log(hi)

    def magnitude() -> float:
        return float(np.exp(rng.uniform(log_lo, log_hi)))

    if spec.phase_policy == "re_positive":
        re = magnitude()
        im = magnitude() * (1.0 if rng.random() < 0.5 else -1.0)
        return complex(re, im)
    if spec.phase_policy == "pure_imaginary":
        return complex(0.0, magnitude() * (1.0 if rng.random() < 0.5 else -1.0))
    theta = rng.uniform(-math.pi, math.pi)
    return magnitude() * complex(math.cos(theta), math.sin(theta))


def loop_generate(spec) -> Network:
    """``generate`` one element at a time: the candidate-pair list and scalar draws.

    The reference for the array generator, which must reproduce every
    network of this loop from the same random stream.
    """
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.node_range
    n = int(rng.integers(lo, hi + 1))
    if spec.min_shunts > n:
        raise StructuralError(f"min_shunts={spec.min_shunts} exceeds node count {n}")
    if n == 1:
        edges: list[tuple[int, int]] = []
    else:
        prufer = rng.integers(0, n, size=max(n - 2, 0)).tolist()
        edges = _tree_from_prufer(prufer, n)
    tree_set = set(edges)
    candidates = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree_set
    ]
    extra = int(round(spec.edge_density * len(candidates)))
    if extra:
        picks = rng.choice(len(candidates), size=extra, replace=False)
        edges.extend(candidates[int(k)] for k in sorted(picks))
    branches = tuple(Branch(i, j, _loop_admittance(rng, spec)) for i, j in edges)
    shunted = rng.random(n) < spec.shunt_probability
    deficit = spec.min_shunts - int(np.count_nonzero(shunted))
    if deficit > 0:
        bare = np.flatnonzero(~shunted)
        for k in rng.choice(bare.size, size=deficit, replace=False):
            shunted[bare[int(k)]] = True
    shunts = tuple(
        Shunt(int(v), _loop_admittance(rng, spec)) for v in np.flatnonzero(shunted)
    )
    return Network(node_count=n, branches=branches, shunts=shunts)


def loop_range_error(node_count: int, branches, shunts) -> str | None:
    """The message ``Network`` must raise for these lists, checked one element at a time.

    Names the first branch with an endpoint outside [0, node_count), else
    the first such shunt; None when every reference is in range.
    """
    n = node_count
    for i, b in enumerate(branches):
        if b.from_node >= n or b.to_node >= n:
            return f"branch {i} references node outside [0, {n}): ({b.from_node}, {b.to_node})"
    for i, s in enumerate(shunts):
        if s.node >= n:
            return f"shunt {i} references node {s.node} outside [0, {n})"
    return None


def loop_shunt_totals(net) -> np.ndarray:
    """Per-node shunt sums, one shunt at a time in list order."""
    totals = np.zeros(net.node_count, dtype=np.complex128)
    for s in net.shunts:
        totals[s.node] += s.admittance
    return totals


def loop_stamp(net, zero_tol: float) -> np.ndarray:
    """The nodal matrix stamped branch by branch, the reference for :func:`dense_stamp`."""
    for i, b in enumerate(net.branches):
        if abs(b.admittance) <= zero_tol:
            raise HypothesisError(
                f"branch {i} ({b.from_node},{b.to_node}) has admittance {b.admittance} "
                f"with magnitude <= {zero_tol}; zero-admittance branches are not representable"
            )
    n = net.node_count
    y = np.zeros((n, n), dtype=np.complex128)
    for b in net.branches:
        i, j, adm = b.from_node, b.to_node, b.admittance
        y[i, i] += adm
        y[j, j] += adm
        y[i, j] -= adm
        y[j, i] -= adm
    y[np.diag_indices(n)] += shunt_totals(net)
    return y


def dense_stamp(net, zero_tol: float) -> np.ndarray:
    """The nodal matrix stamped into a dense N x N array by one ``np.add.at``.

    The assembly the compressed-row stamp replaced, and its bit-for-bit
    reference: all branches go into the flat matrix in branch order, then
    the shunt totals onto the diagonal, so every entry sums its terms in
    the order :func:`loop_stamp` does.
    """
    adm = np.array([b.admittance for b in net.branches], dtype=np.complex128)
    for k, b in enumerate(net.branches):
        if abs(b.admittance) <= zero_tol:
            raise HypothesisError(
                f"branch {k} ({b.from_node},{b.to_node}) has admittance {b.admittance} "
                f"with magnitude <= {zero_tol}; zero-admittance branches are not representable"
            )
    n = net.node_count
    ends = np.array([(b.from_node, b.to_node) for b in net.branches], dtype=np.intp)
    i, j = ends.reshape(-1, 2).T
    flat = np.column_stack((i * (n + 1), j * (n + 1), i * n + j, j * n + i)).ravel()
    y = np.zeros((n, n), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(y.reshape(-1), flat, np.column_stack((adm, adm, -adm, -adm)).ravel())
        y[np.diag_indices(n)] += shunt_totals(net)
    return y


def block_form_matrix(matrix: np.ndarray, shunts: np.ndarray) -> np.ndarray:
    """The (N+1)-square block matrix ``[[Y, -t], [-t^T, sum(t)]]``.

    This is the matrix the virtual-ground construction must reproduce,
    with ``t`` the per-node shunt vector and the corner the total shunt
    admittance.
    """
    n = matrix.shape[0]
    out = np.zeros((n + 1, n + 1), dtype=np.complex128)
    out[:n, :n] = matrix
    out[:n, n] = -shunts
    out[n, :n] = -shunts
    out[n, n] = shunts.sum()
    return out


def block_form_error(augmented: np.ndarray, y: np.ndarray, shunts: np.ndarray) -> float:
    """Largest entrywise distance of dense ``augmented`` from the block form of ``y``, relative.

    The dense computation the compressed-row comparison replaced, and its
    bit-for-bit reference.
    """
    expected = block_form_matrix(y, shunts)
    scale = max(float(np.abs(expected).max()), TINY)
    return float(np.abs(augmented - expected).max()) / scale


def augmented_network(net: Network) -> Network:
    """The network rebuilt over a virtual ground node N, one ``Branch`` per nonzero shunt.

    Every shunt (n, y) with |y| > ``DEFAULT_ZERO_TOL`` becomes the branch
    (n, N, y), after the network's own branches; the result has no shunts.
    Assembled, it is the reference for the augmented matrix that the rank
    verdicts stamp from arrays.
    """
    grounded = tuple(Branch(s.node, net.node_count, s.admittance)
                     for s in net.shunts if abs(s.admittance) > DEFAULT_ZERO_TOL)
    if not grounded:
        raise PreconditionError("virtual-ground augmentation needs at least one nonzero shunt")
    return Network(net.node_count + 1, net.branches + grounded)


def per_component_block_rank(net: Network, part: Partition) -> BlockRankReport:
    """``verify_block_rank`` with one LU certificate per class component, and no kernel call.

    The loop every partition took before one Hermitian-part certificate of
    the whole block diagonal replaced it; a partition that certificate
    refuses still takes it.  Components, ``grounded`` flags and findings
    come out as the library's, in the same order.
    """
    if part.node_count != net.node_count:
        raise StructuralError(
            f"partition covers {part.node_count} nodes but network has {net.node_count}"
        )
    report = validate(net)
    findings = list(report.messages)
    y = _stamp(net, 0.0)
    ends = net.ends
    class_of = np.array(part.labels())[ends]
    inside = class_of[:, 0] == class_of[:, 1]
    grounded = np.abs(shunt_totals(net)) > DEFAULT_ZERO_TOL
    grounded[ends[~inside]] = True
    grounded = grounded.tolist()
    piece = _component_labels(net.node_count, *ends[inside].T).tolist()
    class_reports = []
    for ci, keep in enumerate(part.classes):
        pieces: dict[int, list[int]] = {}
        for v in sorted(keep):
            pieces.setdefault(piece[v], []).append(v)
        comp_reports = []
        for nodes in map(tuple, pieces.values()):
            cert = full_rank_certificate(y._block(nodes, nodes))
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
    return BlockRankReport(report.connected, report.hypothesis1_ok,
                           report.theorem2_preconditions_ok, tuple(class_reports),
                           tuple(findings))


def dense_hermitian_part_certifies(n: int, rows, cols, data, grounded: bool = False) -> bool:
    """The Hermitian-part certificate with G_s - tau I scattered into one dense array.

    The same tau and the same checks as ``linalg_core._hermitian_part_certifies``;
    ``numpy.linalg.cholesky`` then factors the whole (grounded) G_s - tau I
    in its natural order.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the factorization
        a = np.abs(data)
        row_abs = np.bincount(rows, a, n)
        s = np.sqrt(np.bincount(cols, a, n).max()) * np.sqrt(row_abs.max())
        if grounded:  # norms taken of x / max(x), whose squares cannot overflow
            sigma_low = a.max() * np.sqrt(np.bincount(cols, (a / a.max()) ** 2, n).max())
            b = (np.hypot(np.bincount(rows, data.real, n), np.bincount(rows, data.imag, n))
                 + (np.bincount(rows, minlength=n) + 1) * EPS * row_abs)
            if not b.max() * np.linalg.norm(b / b.max()) <= n * np.sqrt(n) * EPS * sigma_low / 2:
                return False
        mirror = _mirror(n, rows, cols, data)
        k = np.abs((data - mirror).imag) / 2  # |K| at the stored positions
        tau = n * (n + 2) * EPS * s + (np.bincount(rows, k, n) + np.bincount(cols, k, n)).max()
        if not tau >= TINY:
            return False
        g = np.zeros((n - int(grounded),) * 2)
        g2 = (data + mirror).real  # 2 G_s at the stored positions, exactly symmetric
        if grounded:  # the factor keeps G_s without its first row and column
            kept = (rows > 0) & (cols > 0)
            rows, cols, g2 = rows[kept] - 1, cols[kept] - 1, g2[kept]
        g[rows, cols] = g[cols, rows] = g2
        g.ravel()[::g.shape[0] + 1] -= 2 * tau  # doubling is exact
        try:  # NaN can pass the factorization and fill the factor; an overflowing sum refuses too
            return math.isfinite(np.linalg.cholesky(g).sum())
        except np.linalg.LinAlgError:
            return False


def reorder(y, perm) -> AdmittanceMatrix:
    """``y`` with rows and columns permuted to the node order ``perm``, as a dense copy.

    ``perm`` must be a bijection on ``y.node_order``; row k of the result
    refers to node ``perm[k]``.  The reference for block-order addressing.
    """
    order = tuple(int(v) for v in perm)
    if sorted(order) != sorted(y.node_order):
        raise StructuralError(f"perm {order} is not a bijection on node_order {y.node_order}")
    pos = {node: k for k, node in enumerate(y.node_order)}
    idx = np.array([pos[node] for node in order], dtype=np.intp)
    return AdmittanceMatrix(matrix=y.matrix[np.ix_(idx, idx)], node_order=order)


def grid_network(n: int, rng: np.random.Generator) -> Network:
    """A transmission-grid-like network: a random spanning tree plus two extra branches per node.

    Node i > 0 hooks onto a random earlier node; each node then gets two
    branches to random other nodes, parallel branches allowed.  5% of the
    nodes carry a shunt.  Admittances have positive real parts and
    log-uniform magnitudes in 1e-2..1e2, as in the benchmark's grids.
    """
    tree = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    a = np.repeat(np.arange(n), 2)
    b = (a + rng.integers(1, n, size=a.size)) % n
    ends = tree + list(zip(a.tolist(), b.tolist()))

    def admittances(k):
        return 10.0 ** rng.uniform(-2, 2, k) * np.exp(1j * rng.uniform(-1.5, 1.5, k))

    branches = tuple(Branch(i, j, y) for (i, j), y in zip(ends, admittances(len(ends))))
    nodes = np.sort(rng.choice(n, n // 20, replace=False))
    shunts = tuple(Shunt(int(v), y) for v, y in zip(nodes, admittances(nodes.size)))
    return Network(n, branches, shunts)


def kron_fill(net, eliminate) -> set[tuple[int, int]]:
    """The nonzero pattern of a Kron reduction, by Dorfler and Bullo's fill rule.

    The retained block keeps the branch adjacency among retained nodes and
    their diagonal, and each connected set of eliminated nodes joins all of
    its retained neighbours into a clique (Kron Reduction of Graphs, IEEE
    TCAS-I 2013).  Components come from the transitive closure; the
    pattern is a set of (label, label) pairs, both orientations.
    """
    gone = sorted(set(int(v) for v in eliminate))
    local = {v: k for k, v in enumerate(gone)}
    kept = [v for v in range(net.node_count) if v not in local]
    pattern = {(v, v) for v in kept}
    inner = []
    touches = [set() for _ in gone]
    for b in net.branches:
        i, j = b.from_node, b.to_node
        if i in local and j in local:
            inner.append((local[i], local[j]))
        elif i in local:
            touches[local[i]].add(j)
        elif j in local:
            touches[local[j]].add(i)
        else:
            pattern |= {(i, j), (j, i)}
    for comp in closure_components(len(gone), inner):
        rim = set().union(*(touches[k] for k in comp))
        pattern |= {(a, b) for a in rim for b in rim}
    return pattern


def counterexample_block_singular() -> tuple[Network, Partition]:
    """Instance showing why positive branch real parts matter.

    A purely imaginary branch cancels an equal-and-opposite shunt exactly,
    so the 1x1 diagonal block of the first class is the zero matrix even
    though the network is connected and every admittance is nonzero.
    """
    net = Network(
        node_count=2,
        branches=(Branch(0, 1, 1j),),
        shunts=(Shunt(0, -1j),),
    )
    part = Partition(classes=((0,), (1,)), node_count=2)
    return net, part
