"""Command-line interface.

Subcommands wrap one library operation each; all randomness is seeded
through flags, so output on stdout is reproducible byte for byte.
Timing goes to stderr.  Exit codes: 0 success, 1 usage, I/O or overflow
problem, 2 theorem precondition unmet, 3 numerical disagreement.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as fileio
from .errors import (
    FileFormatError,
    HypothesisError,
    NotReducibleError,
    NotSolvableError,
    NumericalError,
    PreconditionError,
    StructuralError,
    YbusError,
)
from .generator import PHASE_POLICIES, GenSpec, generate
from .network_model import Network, validate
from .partition import Partition, block_view
from .rank_analysis import RankVerdict, rank_verdicts
from .reduction import _node_positions, hybrid_parameters, kron_reduce_nodes
from .suites import SUITE_NAMES, run_suites
from .ybus import AdmittanceMatrix, assemble

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_DISAGREEMENT = 3


class UsageError(YbusError):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through our exit codes
        raise UsageError(f"{self.prog}: {message}")


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"{what} must be a comma-separated integer list: {text!r}") from exc


def _parse_pair(text: str, what: str, cast) -> tuple:
    toks = [t for t in text.split(",") if t.strip() != ""]
    try:
        vals = [cast(t) for t in toks]
    except ValueError as exc:
        raise UsageError(f"{what}: cannot parse {text!r}") from exc
    if len(vals) == 1:
        return (vals[0], vals[0])
    if len(vals) == 2:
        return (vals[0], vals[1])
    raise UsageError(f"{what} takes one value or a low,high pair, got {text!r}")


def _as_matrix(loaded) -> AdmittanceMatrix:
    if isinstance(loaded, Network):
        return assemble(loaded)
    return loaded


def _verdict_line(v: RankVerdict) -> str:
    status = "agrees" if v.agrees else "DISAGREES"
    line = (
        f"{v.method.replace('_', '-')}: predicted {v.predicted_rank}, "
        f"measured {v.measured_rank}, {status}"
    )
    extras = [f"nonzero shunt totals {v.shunt_count}"]
    if np.isfinite(v.singular_gap):
        extras.append(f"singular gap {v.singular_gap:.3e}")
    if v.block_form_max_rel_error is not None:
        extras.append(f"block form error {v.block_form_max_rel_error:.3e}")
    return line + " (" + ", ".join(extras) + ")"


def cmd_validate(args) -> int:
    net = fileio.load_network(args.path)
    report = validate(net)
    for name, ok in (
        ("connected", report.connected),
        ("hypothesis1_ok", report.hypothesis1_ok),
        ("theorem2_preconditions_ok", report.theorem2_preconditions_ok),
        ("shunt_passivity_ok", report.shunt_passivity_ok),
    ):
        print(f"{name}: {'yes' if ok else 'no'}")
    for msg in report.messages:
        print(f"finding: {msg}")
    return EXIT_OK if (report.connected and report.hypothesis1_ok) else EXIT_PRECONDITION


def cmd_ybus(args) -> int:
    net = fileio.load_network(args.path)
    y = assemble(net)
    fileio.save_matrix(args.out, y)
    print(f"wrote {y.size} x {y.size} admittance matrix to {args.out}")
    return EXIT_OK


def cmd_rank(args) -> int:
    methods = ("direct", "virtual-ground") if args.method == "both" else (args.method,)
    verdicts = rank_verdicts(fileio.load_any(args.path), [m.replace("-", "_") for m in methods])
    for v in verdicts:
        print(_verdict_line(v))
    return EXIT_OK if all(v.agrees for v in verdicts) else EXIT_DISAGREEMENT


def cmd_kron(args) -> int:
    if (args.eliminate is None) == (args.retain is None):
        raise UsageError("give exactly one of --eliminate or --retain")
    y = _as_matrix(fileio.load_any(args.path))
    if args.eliminate is not None:
        eliminate = _parse_ints(args.eliminate, "--eliminate")
    else:
        retain = _parse_ints(args.retain, "--retain")
        pos = _node_positions(y, retain)  # refuses the first label the matrix lacks, as --eliminate does
        eliminate = sorted(pos.keys() - set(retain), key=pos.get)  # in matrix order
    result = kron_reduce_nodes(y, eliminate)
    fileio.save_matrix(args.out, result.reduced)
    recovery_out = args.recovery_out or _sidecar_path(args.out)
    fileio.save_recovery(recovery_out, result)
    print(
        f"eliminated {len(result.eliminated_order)} nodes, kept {result.reduced.size}; "
        f"wrote {args.out} and {recovery_out}"
    )
    return EXIT_OK


def _sidecar_path(out: str) -> str:
    stem = out[:-5] if out.lower().endswith(".json") else out
    return stem + ".recovery.json"


def cmd_hybrid(args) -> int:
    y = _as_matrix(fileio.load_any(args.path))
    if args.partition is not None:
        labels = _parse_ints(args.partition, "--partition")
        if len(labels) != y.size:
            raise UsageError(
                f"--partition lists {len(labels)} labels for a {y.size}-node matrix"
            )
        part = Partition.from_labels(labels)
    elif args.cls:
        classes = tuple(tuple(_parse_ints(c, "--class")) for c in args.cls)
        part = Partition(classes=classes, node_count=y.size)
    else:
        raise UsageError("give --partition or at least two --class flags")
    view = block_view(y, part)
    hy = hybrid_parameters(view, args.solve_class)
    fileio.save_hybrid(args.out, hy)
    print(
        f"solved class {hy.solved_class} of {part.class_count}; "
        f"wrote hybrid parameters to {args.out}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    outcomes = run_suites(names, args.samples, args.seed)
    for o in outcomes:
        print(
            f"suite {o.name}: {o.samples} samples, {o.checks} checks, "
            f"{'PASS' if o.passed else 'FAIL'}"
        )
        for f in o.failures:
            print(f"  failure: {f}")
        print(f"suite {o.name} took {o.elapsed_seconds:.2f} s", file=sys.stderr)
    return EXIT_OK if all(o.passed for o in outcomes) else EXIT_DISAGREEMENT


def cmd_randgen(args) -> int:
    spec = GenSpec(
        node_range=_parse_pair(args.nodes, "--nodes", int),
        edge_density=args.density,
        shunt_probability=args.shunt_prob,
        magnitude_range=_parse_pair(args.magnitude, "--magnitude", float),
        phase_policy=args.phase,
        seed=args.seed,
        min_shunts=args.min_shunts,
    )
    net = generate(spec)
    fileio.save_network(args.out, net)
    print(
        f"wrote {net.node_count} nodes, {len(net.branches)} branches, "
        f"{len(net.shunts)} shunts to {args.out}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ybuskit",
        description="Admittance-matrix construction, rank verification and reduction.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("validate", help="check structural findings of a network file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ybus", help="assemble the admittance matrix")
    p.add_argument("path")
    p.add_argument("out")
    p.set_defaults(func=cmd_ybus)

    p = sub.add_parser("rank", help="predict and measure matrix rank")
    p.add_argument("path", help="network or matrix file")
    p.add_argument(
        "--method",
        choices=("direct", "virtual-ground", "both"),
        default="direct",
    )
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("kron", help="eliminate zero-injection nodes")
    p.add_argument("path", help="network or matrix file")
    p.add_argument("out", help="reduced matrix file")
    p.add_argument("--eliminate", help='nodes to eliminate, e.g. "0,3,7"')
    p.add_argument("--retain", help="nodes to keep (complement is eliminated)")
    p.add_argument("--recovery-out", help="recovery matrix path (default: <out>.recovery.json)")
    p.set_defaults(func=cmd_kron)

    p = sub.add_parser("hybrid", help="extract hybrid parameters for one class")
    p.add_argument("path", help="network or matrix file")
    p.add_argument("out", help="hybrid parameter file")
    p.add_argument("--partition", help='per-node class labels, e.g. "0,0,1,1,2"')
    p.add_argument(
        "--class", dest="cls", action="append", metavar="NODES",
        help='class as a node list, e.g. --class "0,1" --class "2,3" (repeatable)',
    )
    p.add_argument("--solve-class", type=int, required=True, metavar="P")
    p.set_defaults(func=cmd_hybrid)

    p = sub.add_parser("verify", help="run seeded property suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("randgen", help="generate a seeded random network file")
    p.add_argument("out")
    p.add_argument("--nodes", default="5,50", help='count or "low,high" range (inclusive)')
    p.add_argument("--density", type=float, default=0.1, help="extra-edge fraction in [0,1]")
    p.add_argument("--shunt-prob", type=float, default=0.0)
    p.add_argument("--magnitude", default="1e-2,1e2", help='"low,high" admittance magnitudes')
    p.add_argument("--phase", choices=PHASE_POLICIES, default="re_positive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-shunts", type=int, default=0)
    p.set_defaults(func=cmd_randgen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileFormatError, StructuralError, NumericalError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, HypothesisError, NotReducibleError, NotSolvableError) as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
