"""The four benchmark workloads: inputs, one operation, and the correctness gate.

Each workload is closed-loop with one caller: the next operation starts
only after the previous one returns.  A workload object builds its
inputs from the seed when constructed (part of set-up), runs one
operation per :meth:`run`, and checks outputs outside the timed region:

* :meth:`check_reference` is the full gate, run once on the warm-up
  operation (whole-system solves, file reloads);
* :meth:`check` is the per-operation gate on every timed operation.  Where
  the full gate is too costly to repeat, it compares the operation's
  output with the fully gated warm-up output.

Both return a list of failure messages; an empty list means correct.
The grid and CLI workloads repeat one identical operation.  ``block_ops``
is the number of consecutive operations averaged into one sample of
``op_p50_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ybuskit
from inputs import build_grid, node_sample, three_class_labels

#: Entrywise tolerance of the virtual-ground block-form match.
BLOCK_FORM_TOL = 1e-12
#: Relative tolerance of Kron and hybrid checks against whole-system solves.
SOLVE_TOL = 1e-10
#: Relative tolerance of an output against the fully gated reference.
MATCH_TOL = 1e-12

HERE = Path(__file__).resolve().parent
CLI_CHILD = HERE / "cli_child.py"
CLI_TIMEOUT_S = 60


def _phase(tracer, name: str):
    return tracer.span(f"bench.{name}") if tracer is not None else contextlib.nullcontext()


def rel_diff(a, b) -> float:
    """max|a - b| / max|b| (0 for two empty arrays)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    if b.size == 0:
        return 0.0
    return float(np.abs(a - b).max()) / max(float(np.abs(b).max()), np.finfo(float).tiny)


def _probe(label: str, length: int) -> np.ndarray:
    """A fixed random complex vector, seeded by ``label``."""
    seed = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


def fingerprint(a: np.ndarray) -> np.ndarray:
    """A @ z for a fixed random z: compares two large matrices at the cost of a matvec."""
    return np.asarray(a) @ _probe("fingerprint", np.asarray(a).shape[1])


def kron_failures(label: str, y: np.ndarray, result) -> list[str]:
    """Port equivalence, interior-current residual and recovery of one Kron reduction.

    Retained voltages are random.  Recovered interior voltages must give
    zero interior current, the retained currents must equal the reduced
    matrix's, and a whole-system ``numpy.linalg.solve`` driven by those
    port currents must return the same voltages.
    """
    n = y.shape[0]
    kept = np.array(result.reduced.node_order, dtype=np.intp)
    elim = np.array(result.eliminated_order, dtype=np.intp)
    v_kept = _probe(label, kept.size)
    v = np.zeros(n, dtype=np.complex128)
    v[kept] = v_kept
    v[elim] = result.recovery @ v_kept
    i_full = y @ v
    scale = float(np.linalg.norm(y)) * float(np.linalg.norm(v))
    i_ports = result.reduced.matrix @ v_kept
    out = []
    interior = float(np.linalg.norm(i_full[elim])) / scale
    if not interior <= SOLVE_TOL:
        out.append(f"{label}: interior-current residual {interior:.3e}")
    port = float(np.linalg.norm(i_full[kept] - i_ports)) / scale
    if not port <= SOLVE_TOL:
        out.append(f"{label}: port-equivalence residual {port:.3e}")
    drive = np.zeros(n, dtype=np.complex128)
    drive[kept] = i_ports
    solved = np.linalg.solve(y, drive)
    err = float(np.linalg.norm(solved - v)) / float(np.linalg.norm(v))
    if not err <= SOLVE_TOL:
        out.append(f"{label}: whole-system solve differs by {err:.3e}")
    return out


def hybrid_failures(y: np.ndarray, node_order, class_sizes, solved: int, h: np.ndarray) -> list[str]:
    """The hybrid transfer H u against a constrained whole-system solve.

    ``u`` holds the solved class's current injections and the other
    classes' voltages, in block order.  Fixing those voltages, the solved
    class's voltages come from its block row, and the other classes'
    currents from I = Y V.
    """
    order = np.array(node_order, dtype=np.intp)
    bounds = np.cumsum([0] + list(class_sizes))
    p = order[bounds[solved]:bounds[solved + 1]]
    others = np.concatenate(
        [order[bounds[k]:bounds[k + 1]] for k in range(len(class_sizes)) if k != solved]
    )
    u = _probe("hybrid", order.size)
    in_block = np.zeros(order.size, dtype=bool)
    in_block[bounds[solved]:bounds[solved + 1]] = True
    i_p, v_others = u[in_block], u[~in_block]
    v_p = np.linalg.solve(y[np.ix_(p, p)], i_p - y[np.ix_(p, others)] @ v_others)
    i_others = y[np.ix_(others, p)] @ v_p + y[np.ix_(others, others)] @ v_others
    expected = np.empty(order.size, dtype=np.complex128)
    expected[in_block] = v_p
    expected[~in_block] = i_others
    err = float(np.linalg.norm(h @ u - expected)) / float(np.linalg.norm(expected))
    if not err <= SOLVE_TOL:
        return [f"hybrid transfer differs from the constrained solve by {err:.3e}"]
    return []


class GridRank:
    """Five rank verdicts on an N=600 network: both verdict paths, both ranks."""

    name = "grid_rank"
    nodes = 600
    block_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.grid = build_grid(self.nodes, np.random.default_rng(seed))
        self.net = self.grid.to_network()
        self.twin = self.grid.shuntless().to_network()
        self.y = ybuskit.assemble(self.net)
        self.y_twin = ybuskit.assemble(self.twin)

    def inputs(self) -> dict:
        return {"network_sha256": self.grid.digest()}

    def run(self, op: int, tracer):
        yb = ybuskit
        out = []
        with _phase(tracer, "rank_shunted"):
            out.append(yb.verify_rank(self.net))
        with _phase(tracer, "rank_virtual_ground"):
            out.append(yb.verify_rank_via_augmentation(self.net))
        with _phase(tracer, "rank_shuntless"):
            out.append(yb.verify_rank(self.twin))
        with _phase(tracer, "matrix_rank_shunted"):
            out.append(yb.verify_matrix_rank(self.y, "direct"))
        with _phase(tracer, "matrix_rank_shuntless"):
            out.append(yb.verify_matrix_rank(self.y_twin, "direct"))
        return out

    def check(self, out) -> list[str]:
        n = self.nodes
        want = [(n, "direct"), (n, "virtual_ground"), (n - 1, "direct"),
                (n, "direct"), (n - 1, "direct")]
        fails = [] if len(out) == len(want) else [f"{len(out)} verdicts, expected {len(want)}"]
        for k, (v, (rank, method)) in enumerate(zip(out, want)):
            if not (v.agrees and v.predicted_rank == rank and v.method == method):
                fails.append(f"verdict {k}: {v}")
        err = out[1].block_form_max_rel_error
        if err is None or not err <= BLOCK_FORM_TOL:
            fails.append(f"virtual-ground block-form error {err}")
        return fails

    check_reference = check


class GridReduce:
    """Assembly, block rank, two Kron reductions and hybrid parameters at N=2000."""

    name = "grid_reduce"
    nodes = 2000
    block_ops = 1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.grid = build_grid(self.nodes, rng)
        self.labels = three_class_labels(self.nodes, rng)
        self.ports = node_sample(self.nodes, 0.05, rng)
        self.interior = node_sample(self.nodes, 0.10, rng)
        self.net = self.grid.to_network()
        self.part = ybuskit.Partition.from_labels(self.labels.tolist())
        self.port_complement = np.setdiff1d(np.arange(self.nodes), self.ports).tolist()
        self.interior_list = self.interior.tolist()
        self.reference = None

    def inputs(self) -> dict:
        return {"network_sha256": self.grid.digest(),
                "partition_ports_interior_sha256":
                    self.grid.digest(self.labels, self.ports, self.interior)}

    def run(self, op: int, tracer):
        yb = ybuskit
        with _phase(tracer, "assemble"):
            y = yb.assemble(self.net)
        with _phase(tracer, "block_rank"):
            report = yb.verify_block_rank(self.net, self.part)
        with _phase(tracer, "kron_ports"):
            ports = yb.kron_reduce_nodes(y, self.port_complement)
        with _phase(tracer, "kron_interior"):
            interior = yb.kron_reduce_nodes(y, self.interior_list)
        with _phase(tracer, "hybrid"):
            hybrid = yb.hybrid_parameters(yb.block_view(y, self.part), 0)
        return y, report, ports, interior, hybrid

    @staticmethod
    def _prints(out) -> dict:
        y, _report, ports, interior, hybrid = out
        return {
            "y": fingerprint(y.matrix),
            "ports.reduced": fingerprint(ports.reduced.matrix),
            "ports.recovery": fingerprint(ports.recovery),
            "interior.reduced": fingerprint(interior.reduced.matrix),
            "interior.recovery": fingerprint(interior.recovery),
            "hybrid": fingerprint(hybrid.h),
            "orders": (ports.reduced.node_order, ports.eliminated_order,
                       interior.reduced.node_order, interior.eliminated_order,
                       hybrid.node_order),
        }

    def check_reference(self, out) -> list[str]:
        y, report, ports, interior, hybrid = out
        fails = [] if report.all_full_rank else ["a diagonal block is not full rank"]
        if set(ports.reduced.node_order) != set(self.ports.tolist()):
            fails.append("port Kron kept the wrong nodes")
        if sorted(interior.eliminated_order) != self.interior_list:
            fails.append("interior Kron eliminated the wrong nodes")
        fails += kron_failures("kron to ports", y.matrix, ports)
        fails += kron_failures("interior kron", y.matrix, interior)
        sizes = [len(c) for c in hybrid.partition.classes]
        fails += hybrid_failures(y.matrix, hybrid.node_order, sizes, hybrid.solved_class, hybrid.h)
        if not fails:
            self.reference = self._prints(out)
        return fails

    def check(self, out) -> list[str]:
        if self.reference is None:
            return ["no gated reference output"]
        fails = [] if out[1].all_full_rank else ["a diagonal block is not full rank"]
        prints = self._prints(out)
        if prints.pop("orders") != self.reference["orders"]:
            fails.append("node orders differ from the reference")
        for key, value in prints.items():
            err = rel_diff(value, self.reference[key])
            if not err <= MATCH_TOL:
                fails.append(f"{key} differs from the gated reference by {err:.3e}")
        return fails


class SuiteSmall:
    """One ``run_suite(name, 1, child_seed)`` per operation, cycling the five suites.

    Every operation draws a fresh child seed from the workload seed's
    stream.  Operation times mix five suites and 5-50-node networks, so
    their distribution has several modes; ``op_p50_s`` is therefore taken
    over blocks of ``block_ops`` consecutive operations.
    """

    name = "suite_small"
    block_ops = 500
    digest_ops = 50
    _draw = 4096

    def __init__(self, seed: int, workdir: Path):
        self._rng = np.random.default_rng(seed)
        self._seeds = self._rng.integers(0, 2**63 - 1, size=self._draw)
        self._seed_digest = hashlib.sha256(self._seeds.tobytes()).hexdigest()
        self._checks = {name: 0 for name in ybuskit.SUITE_NAMES}

    def inputs(self) -> dict:
        return {f"first_{self._draw}_child_seeds_sha256": self._seed_digest,
                f"checks_per_suite_first_{self.digest_ops}_ops": self._checks}

    def run(self, op: int, tracer):
        while op >= self._seeds.size:
            more = self._rng.integers(0, 2**63 - 1, size=self._draw)
            self._seeds = np.concatenate([self._seeds, more])
        names = ybuskit.SUITE_NAMES
        outcome = ybuskit.run_suite(names[op % len(names)], 1, int(self._seeds[op]))
        if op < self.digest_ops:
            self._checks[outcome.name] += outcome.checks
        return outcome

    def check(self, out) -> list[str]:
        return [] if out.passed else [f"suite {out.name} failed: {out.failures}"]

    check_reference = check


def verdict_line(v) -> str:
    """A ``rank`` stdout line, in the format the CLI documents."""
    extras = [f"nonzero shunt totals {v.shunt_count}"]
    if math.isfinite(v.singular_gap):
        extras.append(f"singular gap {v.singular_gap:.3e}")
    if v.block_form_max_rel_error is not None:
        extras.append(f"block form error {v.block_form_max_rel_error:.3e}")
    status = "agrees" if v.agrees else "DISAGREES"
    return (f"{v.method.replace('_', '-')}: predicted {v.predicted_rank}, "
            f"measured {v.measured_rank}, {status} ({', '.join(extras)})")


def cli_process_failures(results, expected: list[str]) -> list[str]:
    """Every CLI step must exit 0 and print exactly the expected stdout."""
    fails = []
    for (command, code, stdout, stderr), want in zip(results, expected):
        if code != 0:
            fails.append(f"{command}: exit code {code}: {stderr.strip()[-500:]}")
        elif stdout != want:
            fails.append(f"{command}: stdout {stdout!r}, expected {want!r}")
    if len(results) != len(expected):
        fails.append(f"{len(results)} steps ran, expected {len(expected)}")
    return fails


class CliPipeline:
    """Six ``ybuskit.cli`` child processes per operation on an N=300 network."""

    name = "cli_pipeline"
    nodes = 300
    block_ops = 1
    outputs = ("randgen.json", "y.json", "red.json", "red.recovery.json", "h.json")

    def __init__(self, seed: int, workdir: Path):
        n = self.nodes
        rng = np.random.default_rng(seed)
        self.grid = build_grid(n, rng)
        self.labels = three_class_labels(n, rng)
        self.ports = node_sample(n, 0.05, rng)
        self.randgen_seed = int(rng.integers(0, 2**31 - 1))
        # about 3 branches per node, as in the built network
        self.density = 2 * n / (n * (n - 1) // 2 - (n - 1))
        self.workdir = workdir
        self.net_json = self.grid.to_json()
        (workdir / "net.json").write_bytes(self.net_json)
        self.steps = (
            ("randgen", ["randgen", "randgen.json", "--nodes", str(n), "--density",
                         repr(self.density), "--shunt-prob", "0.05",
                         "--seed", str(self.randgen_seed)]),
            ("ybus", ["ybus", "net.json", "y.json"]),
            ("rank", ["rank", "y.json", "--method", "both"]),
            ("rank", ["rank", "net.json", "--method", "both"]),
            ("kron", ["kron", "y.json", "red.json", "--retain",
                      ",".join(str(v) for v in self.ports.tolist())]),
            ("hybrid", ["hybrid", "y.json", "h.json", "--partition",
                        ",".join(str(v) for v in self.labels.tolist()), "--solve-class", "0"]),
        )
        self.expected = None
        self.reference = None

    def inputs(self) -> dict:
        return {"net_json_sha256": hashlib.sha256(self.net_json).hexdigest(),
                "partition_ports_sha256": self.grid.digest(self.labels, self.ports),
                "randgen_seed": self.randgen_seed}

    def run(self, op: int, tracer):
        results = []
        for command, argv in self.steps:
            if tracer is None:
                cmd = [sys.executable, "-m", "ybuskit.cli", *argv]
                proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
            else:
                with tracer.span(f"cli.{command}") as sid:
                    trace_path = self.workdir / f"trace-{sid}.jsonl"
                    cmd = [sys.executable, str(CLI_CHILD), str(trace_path), str(tracer.op), sid,
                           *argv]
                    proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True, text=True,
                                          timeout=CLI_TIMEOUT_S)
                tracer.pending.append(trace_path)
            results.append((command, proc.returncode, proc.stdout, proc.stderr))
        return results

    def output_bytes(self) -> int:
        """Bytes of the files the gated warm-up pass wrote."""
        return self._written

    def _library_results(self):
        """What the CLI steps must reproduce, computed in this process."""
        yb = ybuskit
        n = self.nodes
        spec = yb.GenSpec(node_range=(n, n), edge_density=self.density, shunt_probability=0.05,
                          seed=self.randgen_seed)
        generated = yb.generate(spec)
        net = self.grid.to_network()
        y = yb.assemble(net)
        kron = yb.kron_reduce_nodes(y, np.setdiff1d(np.arange(n), self.ports).tolist())
        part = yb.Partition.from_labels(self.labels.tolist())
        hybrid = yb.hybrid_parameters(yb.block_view(y, part), 0)
        verdicts = [
            [yb.verify_matrix_rank(y, "direct"), yb.verify_matrix_rank(y, "virtual_ground")],
            [yb.verify_rank(net), yb.verify_rank_via_augmentation(net)],
        ]
        stdout = [
            f"wrote {generated.node_count} nodes, {len(generated.branches)} branches, "
            f"{len(generated.shunts)} shunts to randgen.json\n",
            f"wrote {n} x {n} admittance matrix to y.json\n",
            "".join(verdict_line(v) + "\n" for v in verdicts[0]),
            "".join(verdict_line(v) + "\n" for v in verdicts[1]),
            f"eliminated {n - self.ports.size} nodes, kept {self.ports.size}; "
            "wrote red.json and red.recovery.json\n",
            f"solved class 0 of 3; wrote hybrid parameters to h.json\n",
        ]
        return generated, y, kron, hybrid, stdout

    def _file_failures(self) -> list[str]:
        """Reload every output file and compare it with the in-process result."""
        import json

        from ybuskit import io as fileio

        generated, y, kron, hybrid, _ = self.library
        d = self.workdir
        fails = []
        got = fileio.load_network(str(d / "randgen.json"))
        same = (got.node_count == generated.node_count
                and [(b.from_node, b.to_node) for b in got.branches]
                == [(b.from_node, b.to_node) for b in generated.branches]
                and [s.node for s in got.shunts] == [s.node for s in generated.shunts])
        if not same or rel_diff([b.admittance for b in got.branches],
                                [b.admittance for b in generated.branches]) > MATCH_TOL \
                or rel_diff([s.admittance for s in got.shunts],
                            [s.admittance for s in generated.shunts]) > MATCH_TOL:
            fails.append("randgen.json does not match the library's generated network")
        for path, want in (("y.json", y), ("red.json", kron.reduced)):
            got = fileio.load_matrix(str(d / path))
            if got.node_order != want.node_order or rel_diff(got.matrix, want.matrix) > MATCH_TOL:
                fails.append(f"{path} does not match the library result")
        doc = json.loads((d / "red.recovery.json").read_text())
        rec = np.array([complex(*e) for e in doc["entries"]]).reshape(doc["rows"], doc["cols"])
        if (tuple(doc["row_nodes"]) != kron.eliminated_order
                or tuple(doc["col_nodes"]) != kron.reduced.node_order
                or rel_diff(rec, kron.recovery) > MATCH_TOL):
            fails.append("red.recovery.json does not match the library result")
        doc = json.loads((d / "h.json").read_text())
        h = np.array([complex(*e) for e in doc["entries"]]).reshape(doc["n"], doc["n"])
        if (tuple(doc["node_order"]) != hybrid.node_order or doc["solved_class"] != 0
                or rel_diff(h, hybrid.h) > MATCH_TOL):
            fails.append("h.json does not match the library result")
        return fails

    def _file_digests(self) -> dict:
        return {f: hashlib.sha256((self.workdir / f).read_bytes()).hexdigest()
                for f in self.outputs}

    def _missing(self) -> list[str]:
        return [f"{f} was not written" for f in self.outputs if not (self.workdir / f).is_file()]

    def _clear_outputs(self) -> None:
        """Delete every output file, so that the next pass must write its own."""
        for f in self.outputs:
            (self.workdir / f).unlink(missing_ok=True)

    def check_reference(self, out) -> list[str]:
        self.library = self._library_results()
        self.expected = self.library[-1]
        fails = cli_process_failures(out, self.expected) or self._missing()
        if not fails:
            fails = self._file_failures()
        if not fails:
            self.reference = self._file_digests()
        self._written = sum(os.path.getsize(self.workdir / f) for f in self.outputs
                            if (self.workdir / f).is_file())
        self._clear_outputs()
        return fails

    def check(self, out) -> list[str]:
        if self.reference is None:
            return ["no gated reference output"]
        fails = cli_process_failures(out, self.expected) or self._missing()
        if not fails and self._file_digests() != self.reference:
            fails = self._file_failures()
        self._clear_outputs()
        return fails


WORKLOADS = {w.name: w for w in (GridRank, GridReduce, SuiteSmall, CliPipeline)}
