"""SHA-256 digests of seeded CLI pipelines, to compare two trees byte for byte.

Usage: ``python tests/pipeline_digests.py [SRC]``

Imports ``ybuskit`` from SRC (default: the ``src`` directory of this
checkout) and runs ``ybuskit.cli.main`` in a temporary directory, one
subdirectory per pipeline.  Kron and hybrid results change in their
last bits with the BLAS thread count, and so does the singular gap a
shuntless ``rank`` prints where an SVD measures it, so the script sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to
1 unless they are already set, before NumPy loads, and prints their
values as its first line.  Every command prints one line with its exit
code and the digest of its stdout, then one line per file it writes.
Pipelines: ``randgen`` at N = 12, 60 and 150 (dense blocks only) and
N = 300 and 700 (the sparse branches), each under all three phase
policies, then ``ybus``, ``rank`` direct and ``--method both`` on the
network and on the matrix, ``kron --eliminate`` and ``--retain``, a staged
second ``kron``, ``hybrid --partition`` solving a middle and then the last
of three classes, and ``hybrid --class``.  At 60 and 150 nodes a dense
document of Y plus an antisymmetric imaginary part of 1e-15 max|Y|, so
that K = Im(Y - Y^T) / 2 is not zero, goes through ``rank --method
both``, ``kron --eliminate`` and ``hybrid --partition``.  At 300 and 700 nodes a
shuntless ``randgen`` follows, with ``ybus`` and ``rank`` on the network
and on the matrix.  From ``SPARSE_MIN_ORDER`` (300) nodes on, the
Cholesky certificates settle the ``re_positive`` ranks without an SVD,
rank N when shunted and N-1 when shuntless; under the other two policies
the SVD measures them.  A 2000-node ``re_positive`` network, shunted and
shuntless, then gets ``ybus`` and ``rank`` on the network and on the
matrix (``--method both`` when shunted): its certificates run rounds of
elimination before they factor a dense core.  Last, ``verify --suite all
--samples 20`` and ``verify --suite theorem2 --samples 200 --seed 7``,
whose partitions each take one Hermitian-part certificate.  Run
it on two trees and ``diff`` the outputs: equal lines mean equal stdout
and equal files.  Paths are relative, so the digests do not depend on the
temporary directory.  This is a script, not a test module; pytest does
not collect it.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

#: (nodes, extra-edge density, shunt probability) per pipeline.
SIZES = ((12, 0.2, 0.3), (60, 0.1, 0.2), (150, 0.03, 0.1),
         (300, 2 * 300 / (300 * 299 // 2 - 299), 0.05), (700, 0.004, 0.05))
#: Node counts that also get a shuntless network.
SHUNTLESS_SIZES = (300, 700)
#: Node counts whose Y is also read with a small antisymmetric imaginary part.
PERTURBED_SIZES = (60, 150)
#: (nodes, extra-edge density, shunt probability) of the re_positive rank pipeline.
ELIMINATION_SIZE = (2000, 2 * 2000 / (2000 * 1999 // 2 - 1999), 0.05)
POLICIES = ("re_positive", "arbitrary", "pure_imaginary")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _step(main, tag: str, argv: list[str], *outputs: str) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    print(f"{tag} {argv[0]} exit {code} stdout {_digest(out.getvalue().encode())}")
    for name in outputs:
        path = Path(name)
        print(f"{tag}   {name} {_digest(path.read_bytes()) if path.exists() else 'absent'}")


def _labels(nodes) -> str:
    return ",".join(map(str, nodes))


def _perturbed(src: str, dst: str, n: int) -> None:
    """Write sparse matrix ``src`` densely, with 1e-15 max|Y| (U - U^T) added to Im Y.

    U is uniform on [0, 1) at seed n.  The largest |Y - Y^T| then stays
    below the reader's symmetry tolerance of 1e-14 max|Y|.
    """
    import numpy as np

    doc = json.loads(Path(src).read_text())
    m = np.zeros((n, n), dtype=np.complex128)
    for i, j, re, im in doc["nonzeros"]:
        m[i, j] = complex(re, im)
    u = np.random.default_rng(n).uniform(size=(n, n))
    m.imag += 1e-15 * np.abs(m).max() * (u - u.T)
    entries = [[z.real, z.imag] for z in m.ravel().tolist()]
    Path(dst).write_text(json.dumps({"n": n, "node_order": doc["node_order"], "entries": entries}))


def _pipeline(main, n: int, density: float, shunts: float, policy: str) -> None:
    tag = f"n{n}-{policy}"
    step = functools.partial(_step, main, tag)
    step(["randgen", "net.json", "--nodes", str(n), "--density", repr(density),
          "--shunt-prob", repr(shunts), "--min-shunts", "1", "--phase", policy,
          "--seed", str(n)], "net.json")
    step(["validate", "net.json"])
    step(["ybus", "net.json", "y.json"], "y.json")
    for path in ("net.json", "y.json"):
        step(["rank", path])
        step(["rank", path, "--method", "both"])
    interior = list(range(0, n, 7))  # sparse Y_ek, solved for its nonzero columns
    step(["kron", "y.json", "k1.json", "--eliminate", _labels(interior)],
         "k1.json", "k1.recovery.json")
    step(["kron", "net.json", "k2.json", "--eliminate", _labels(range(1, n, 3))],
         "k2.json", "k2.recovery.json")
    ports = list(range(0, n, 20))  # a large elimination block
    step(["kron", "y.json", "p.json", "--retain", _labels(ports)], "p.json", "p.recovery.json")
    kept = [v for v in range(n) if v % 7]
    step(["kron", "k1.json", "k3.json", "--eliminate", _labels(kept[1::4])],
         "k3.json", "k3.recovery.json")
    thirds = _labels(k % 3 for k in range(n))
    step(["hybrid", "y.json", "h1.json", "--partition", thirds, "--solve-class", "1"], "h1.json")
    step(["hybrid", "y.json", "h3.json", "--partition", thirds, "--solve-class", "2"], "h3.json")
    step(["hybrid", "k1.json", "h2.json", "--class", _labels(kept[::2]),
          "--class", _labels(kept[1::2]), "--solve-class", "0"], "h2.json")
    if n in PERTURBED_SIZES:
        _perturbed("y.json", "a.json", n)
        print(f"{tag}   a.json {_digest(Path('a.json').read_bytes())}")
        step(["rank", "a.json", "--method", "both"])
        step(["kron", "a.json", "ka.json", "--eliminate", _labels(interior)],
             "ka.json", "ka.recovery.json")
        step(["hybrid", "a.json", "ha.json", "--partition", thirds, "--solve-class", "1"],
             "ha.json")
    if n in SHUNTLESS_SIZES:
        step(["randgen", "s.json", "--nodes", str(n), "--density", repr(density),
              "--phase", policy, "--seed", str(n)], "s.json")
        step(["ybus", "s.json", "sy.json"], "sy.json")
        for path in ("s.json", "sy.json"):
            step(["rank", path])


def _rank_pipeline(main, n: int, density: float, shunts: float) -> None:
    step = functools.partial(_step, main, f"n{n}-re_positive")
    common = ["--nodes", str(n), "--density", repr(density), "--phase", "re_positive",
              "--seed", str(n)]
    for net, y, extra, method in (
            ("net.json", "y.json", ["--shunt-prob", repr(shunts), "--min-shunts", "1"],
             ["--method", "both"]),
            ("s.json", "sy.json", [], [])):
        step(["randgen", net, *common, *extra], net)
        step(["ybus", net, y], y)
        for path in (net, y):
            step(["rank", path, *method])


def main(argv: list[str]) -> int:
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    print(" ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS))
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    from ybuskit.cli import main as cli_main

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for n, density, shunts in SIZES:
                for policy in POLICIES:
                    work = Path(tmp) / f"n{n}-{policy}"
                    work.mkdir()
                    os.chdir(work)
                    _pipeline(cli_main, n, density, shunts, policy)
            work = Path(tmp) / f"n{ELIMINATION_SIZE[0]}-re_positive"
            work.mkdir()
            os.chdir(work)
            _rank_pipeline(cli_main, *ELIMINATION_SIZE)
            os.chdir(tmp)
            _step(cli_main, "all", ["verify", "--suite", "all", "--samples", "20"])
            _step(cli_main, "theorem2",
                  ["verify", "--suite", "theorem2", "--samples", "200", "--seed", "7"])
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
