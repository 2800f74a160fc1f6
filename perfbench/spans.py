"""Span tracing of ybuskit, installed from outside the package.

A :class:`Tracer` wraps every public function of each ybuskit layer
module, plus the validating constructors of ``AdmittanceMatrix`` and
``Network``, and rebinds each wrapper under every name a ybuskit module
bound to the original.  Nested library calls therefore become child
spans.  Spans stay in memory as tuples
``(id, parent, op, name, start, end, extra)`` and are written as JSONL
when the run ends.  ``start``/``end`` come from ``time.perf_counter``,
which reads the system-wide monotonic clock on Linux, so spans recorded
in CLI child processes line up with the parent's.

The layer of a span is the part of its name before the first dot.  Spans
named ``bench.*`` are the benchmark's own: one root per operation and one
per phase inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = (
    "generator",
    "network_model",
    "ybus",
    "linalg_core",
    "rank_analysis",
    "partition",
    "reduction",
    "io",
    "suites",
    "cli",
)

#: (module, class) pairs whose ``__post_init__`` validation is traced.
CONSTRUCTORS = (("ybus", "AdmittanceMatrix"), ("network_model", "Network"))

#: Subcommands timed as whole CLI child processes (span ``cli.<command>``).
CLI_COMMANDS = ("randgen", "ybus", "rank", "kron", "hybrid")

_SAVE = frozenset(
    f"io.{n}"
    for n in ("save_network", "save_matrix", "emit_json", "network_to_dict",
              "matrix_to_dict", "recovery_to_dict")
)
_LOAD = frozenset(
    f"io.{n}"
    for n in ("load_network", "load_matrix", "load_any", "network_from_dict",
              "matrix_from_dict", "network_from_csv")
)
_NETWORK_VERDICTS = frozenset(
    ("rank_analysis.verify_rank", "rank_analysis.verify_rank_via_augmentation")
)
#: Spans that mark which Kron use a ``kron_reduce_nodes`` call serves.
_KRON_ROLES = {
    "bench.kron_ports": "kron_ports",
    "cli.kron": "kron_ports",
    "bench.kron_interior": "kron_interior",
}


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _dense_n3(args, kwargs, result):
    """rows * cols * min(rows, cols) of the matrix handed to SVD or LU (n^3 if square)."""
    shape = getattr(_first_arg(args, kwargs), "shape", None)
    if shape is None or len(shape) != 2:
        return None
    rows, cols = (int(v) for v in shape)
    return {"n3": rows * cols * min(rows, cols)}


def _result_nbytes(args, kwargs, result):
    return {"bytes": int(result.matrix.nbytes)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_first_arg(args, kwargs))}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


#: Extra data recorded after a successful call, by span name.
_EXTRAS = {
    "linalg_core.numerical_rank": _dense_n3,
    "linalg_core.lu_factor_checked": _dense_n3,
    "ybus.assemble": _result_nbytes,
    "io.load_network": _file_bytes,
    "io.load_matrix": _file_bytes,
    "io.load_any": _file_bytes,
    "io.emit_json": _text_bytes,
}


class Tracer:
    """Records spans for one process.

    ``prefix`` keeps span ids unique when a child process's spans are
    merged into the parent's; ``root`` is the parent id given to spans
    opened with no enclosing span.
    """

    def __init__(self, prefix: str = "", root=None):
        self.spans: list[tuple] = []
        self.op = None
        self.root = root
        self._prefix = prefix
        self._count = 0
        self._stack: list[str] = []
        self._restore: list[tuple] = []
        #: trace files of child processes, merged by :meth:`merge_pending`
        self.pending: list = []

    def new_id(self) -> str:
        self._count += 1
        return f"{self._prefix}{self._count}"

    def current(self):
        return self._stack[-1] if self._stack else self.root

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the code in the ``with`` block; yields its id."""
        sid = self.new_id()
        parent = self.current()
        self._stack.append(sid)
        start = time.perf_counter()
        extra = None
        try:
            yield sid
        except Exception as exc:
            extra = {"error": type(exc).__name__}
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end, extra))

    def _wrap(self, name: str, fn):
        tracer = self
        extra_fn = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if extra_fn is not None:  # the span just closed is the last one recorded
                tracer.spans[-1] = tracer.spans[-1][:6] + (extra_fn(args, kwargs, result),)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind them across ybuskit."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ybuskit.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ybuskit" or mod_name.startswith("ybuskit.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(importlib.import_module(f"ybuskit.{layer}"), cls_name)
            original = cls.__dict__["__post_init__"]
            self._restore.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(f"{layer}.{cls_name}", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def merge_pending(self) -> None:
        """Add the spans that child processes wrote, and delete their files."""
        for path in self.pending:
            self.spans.extend(read_spans(path))
            os.remove(path)
        self.pending.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, extra in self.spans:
                rec = {"id": sid, "parent": parent, "op": op, "name": name,
                       "start": start, "end": end}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_spans(path: str) -> list[tuple]:
    """Inverse of :meth:`Tracer.write`."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            base = [rec.pop(k) for k in ("id", "parent", "op", "name", "start", "end")]
            out.append(tuple(base) + (rec or None,))
    return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for sid, parent, _op, _name, start, end, _extra in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _parent, _op, _name, start, end, _extra in spans
    }


def _outermost(spans, members: frozenset, by_id: dict):
    """Spans named in ``members`` with no ancestor named in ``members``."""
    for span in spans:
        if span[3] not in members:
            continue
        parent = by_id.get(span[1])
        while parent is not None and parent[3] not in members:
            parent = by_id.get(parent[1])
        if parent is None:
            yield span


def _kron_role(span, by_id: dict):
    parent = by_id.get(span[1])
    while parent is not None:
        role = _KRON_ROLES.get(parent[3])
        if role is not None:
            return role
        parent = by_id.get(parent[1])
    return None


def layer_metrics(spans, op_count: int) -> dict:
    """Per-layer metrics per operation, from the spans of ``op_count`` operations.

    Also checks that, on every operation, the self times of all spans in it
    add up to the operation span's duration, and raises if they do not.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    totals = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("self_s", "calls", "errors")}
    for key in ("linalg_core.svd_calls", "linalg_core.lu_calls", "linalg_core.dense_n3",
                "rank_analysis.network_path_s", "rank_analysis.matrix_path_s",
                "ybus.matrix_bytes", "reduction.kron_ports_s", "reduction.kron_interior_s",
                "reduction.hybrid_s", "io.save_s", "io.load_s", "io.bytes_written",
                "io.bytes_read", "bench.self_s", "trace.op_s"):
        totals[key] = 0.0
    for command in CLI_COMMANDS:
        totals[f"cli.{command}_s"] = 0.0

    per_op_self: dict = {}
    for span in spans:
        sid, parent, op, name, start, end, extra = span
        layer = name.split(".", 1)[0]
        per_op_self[op] = per_op_self.get(op, 0.0) + selfs[sid]
        totals[f"{layer}.self_s"] += selfs[sid]
        if layer == "bench":
            continue
        totals[f"{layer}.calls"] += 1
        if extra and "error" in extra:
            up = by_id.get(parent)
            if up is None or up[3].split(".", 1)[0] != layer:
                totals[f"{layer}.errors"] += 1
        if name == "linalg_core.numerical_rank":
            totals["linalg_core.svd_calls"] += 1
        elif name == "linalg_core.lu_factor_checked":
            totals["linalg_core.lu_calls"] += 1
        if extra and "n3" in extra:
            totals["linalg_core.dense_n3"] += extra["n3"]
        if name == "ybus.assemble" and extra:
            totals["ybus.matrix_bytes"] += extra["bytes"]
        elif name == "io.emit_json" and extra:
            totals["io.bytes_written"] += extra["bytes"]
        elif name == "reduction.kron_reduce_nodes":
            role = _kron_role(span, by_id)
            if role is not None:
                totals[f"reduction.{role}_s"] += end - start
        elif name == "reduction.hybrid_parameters":
            totals["reduction.hybrid_s"] += end - start
        elif name == "rank_analysis.verify_matrix_rank":
            totals["rank_analysis.matrix_path_s"] += end - start
        elif name in _NETWORK_VERDICTS:
            totals["rank_analysis.network_path_s"] += end - start
        if layer == "cli" and name[4:] in CLI_COMMANDS:
            totals[f"{name}_s"] += end - start

    for span in _outermost(spans, _SAVE, by_id):
        totals["io.save_s"] += span[5] - span[4]
    for span in _outermost(spans, _LOAD, by_id):
        totals["io.load_s"] += span[5] - span[4]
        if span[6] and "bytes" in span[6]:
            totals["io.bytes_read"] += span[6]["bytes"]

    roots = [s for s in spans if s[3] == "bench.op"]
    if len(roots) != op_count:
        raise ValueError(f"expected {op_count} operation spans, found {len(roots)}")
    for sid, _parent, op, _name, start, end, _extra in roots:
        totals["trace.op_s"] += end - start
        if abs(per_op_self[op] - (end - start)) > 1e-6 * (1.0 + end - start):
            raise ValueError(
                f"operation {op}: self times sum to {per_op_self[op]!r} s, "
                f"operation took {end - start!r} s"
            )
    return {key: value / op_count for key, value in totals.items()}
