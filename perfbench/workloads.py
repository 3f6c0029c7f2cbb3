"""Seeded input documents and the fixed op list of each benchmark workload.

Every workload is a fixed list of ops (one pass). An op is either one
``fusionframes.cli.main(argv)`` call, or, for the discrete enumeration that
no command reaches at r > 1, the public-API sequence parse -> bridge ->
compact -> canonical dual -> ``discrete_worst_case``.

Why each workload exists, and which layer it exercises or bypasses:

* ``fixtures``: every command on the five bundled fixtures, text and --json.
  Inputs are tiny (n <= 4, m <= 3), so time goes to cli parsing and report
  building and to per-call Python overhead in linalg, fusion, duality,
  discrete and optimality. Enumeration is trivial here: it bypasses any
  enumeration change. It also covers the fixed-set (partial) erasure path and
  20 documented refusals that must exit with status 1.
* ``enum``: seeded fusion frames at (4,20,2), (8,30,3), (6,40,2) through
  ``erasure --r`` under both norms, up to C(40,5) = 658,008 subsets under
  Frobenius, plus ``discrete_worst_case`` on a small bridged frame. Subset
  enumeration in erasures dominates; the largest report's value table is far
  larger than any cache while the small ones fit.
* ``large-n``: one seeded (64,200,8) document through classify, certify
  canonical|tight, ``erasure --r 1`` under both norms and ``erasure --fixed``,
  text and --json. Only 200 subsets are enumerated (bypasses enumeration);
  time goes to orthonormal_basis, rebuilding S_W^{-1} and the frame operator,
  and --json emission of the echoed 102,400-number frame document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIXTURES = (
    "overlap_r4",
    "overlap_r4_extended_dual",
    "orthobasis_r3",
    "overcomplete_r3",
    "preserving_nondual_r3",
)

FIXTURE_COMMANDS = (
    ("classify", {}),
    ("verify-dual", {}),
    ("erasure", {"r": 1, "norm": "frobenius"}),
    ("erasure", {"r": 1, "norm": "operator"}),
    ("erasure", {"fixed": (1, 2)}),
    ("certify", {"which": "canonical"}),
    ("certify", {"which": "dual"}),
    ("certify", {"which": "tight"}),
    ("construct", {"what": "bridge"}),
    ("construct", {"what": "expand", "index": 1}),
    ("construct", {"what": "parseval-family"}),
)

# (n, m, k) of the enumerated frames and of the bridged discrete frame
ENUM_FRAMES = ((4, 20, 2), (8, 30, 3), (6, 40, 2))
ENUM_DISCRETE_FRAME = (4, 5, 2)
ENUM_R_MAX = 5
ENUM_DISCRETE_R_MAX = 4
# the operator norm costs about three times Frobenius per subset
ENUM_OPERATOR_CAP = 10**5
LARGE_FRAME = (64, 200, 8)

TINY_ENUM_FRAMES = ((3, 8, 2), (4, 10, 2))
TINY_ENUM_DISCRETE_FRAME = (3, 3, 1)
TINY_ENUM_R_MAX = 3
TINY_ENUM_DISCRETE_R_MAX = 2
TINY_LARGE_FRAME = (8, 16, 2)

# enum warm-up runs every op up to this many subsets
WARMUP_SUBSETS = 10**4


def document(seed: int, n: int, m: int, k: int, basis: bool = False) -> bytes:
    """Frame document for (seed, n, m, k); identical arguments give identical bytes.

    Members are spanned by k Gaussian vectors, weights are uniform in
    [0.5, 1.5), and the optional basis is a random orthonormal basis.
    """
    rng = np.random.default_rng([seed, n, m, k])
    subspaces = [
        {"weight": float(0.5 + rng.random()), "spanning_vectors": rng.standard_normal((k, n)).tolist()}
        for _ in range(m)
    ]
    doc = {"ambient_dim": n, "field": "real", "subspaces": subspaces}
    if basis:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        doc["basis"] = q.T.tolist()
    return json.dumps(doc).encode()


def fixed_subset(seed: int, m: int, size: int = 3) -> tuple[int, ...]:
    """Seeded lost set of ``size`` members (1-based) for ``erasure --fixed``."""
    rng = np.random.default_rng([seed, m, size])
    return tuple(sorted(int(i) + 1 for i in rng.choice(m, size=size, replace=False)))


@dataclass(frozen=True)
class Op:
    """One timed operation; ``argv`` is None for the discrete API op."""

    key: str
    doc: str
    command: str
    params: dict
    json: bool = False
    argv: tuple[str, ...] | None = None
    subsets: int = 0


def cli_op(doc: str, name: str, command: str, params: dict, as_json: bool, subsets: int = 0) -> Op:
    flags = []
    for flag, value in params.items():
        flags += [f"--{flag}", ",".join(map(str, value)) if flag == "fixed" else str(value)]
    argv = (["--json"] if as_json else []) + [command, doc, *flags]
    key = f"{name}:{'json' if as_json else 'text'}:{' '.join([command, name, *flags])}"
    return Op(key, doc, command, dict(params), as_json, tuple(argv), subsets)


def discrete_op(doc: str, name: str, r: int, norm: str, count: int) -> Op:
    return Op(f"{name}:api:discrete_worst_case --r {r} --norm {norm}", doc, "discrete",
              {"r": r, "norm": norm}, subsets=math.comb(count, r))


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    docs: list[str]


def _write(directory: Path, name: str, data: bytes) -> str:
    path = directory / f"{name}.json"
    path.write_bytes(data)
    return str(path)


def fixtures_workload(root: Path) -> Workload:
    docs, ops = [], []
    for name in FIXTURES:
        path = root / "fixtures" / f"{name}.json"
        if not path.is_file():
            raise FileNotFoundError(f"missing fixture {path}")
        docs.append(str(path))
        for command, params in FIXTURE_COMMANDS:
            for as_json in (False, True):
                ops.append(cli_op(str(path), name, command, params, as_json))
    return Workload(ops, list(ops), docs)


def enum_workload(directory: Path, seed: int, tiny: bool = False) -> Workload:
    frames = TINY_ENUM_FRAMES if tiny else ENUM_FRAMES
    r_max = TINY_ENUM_R_MAX if tiny else ENUM_R_MAX
    docs, ops = [], []
    for n, m, k in frames:
        name = f"enum_{n}_{m}_{k}"
        path = _write(directory, name, document(seed, n, m, k))
        docs.append(path)
        for norm in ("frobenius", "operator"):
            for r in range(1, r_max + 1):
                count = math.comb(m, r)
                if norm == "operator" and count > ENUM_OPERATOR_CAP:
                    continue
                ops.append(cli_op(path, name, "erasure", {"r": r, "norm": norm}, True, count))
    n, m, k = TINY_ENUM_DISCRETE_FRAME if tiny else ENUM_DISCRETE_FRAME
    name = f"bridge_{n}_{m}_{k}"
    path = _write(directory, name, document(seed, n, m, k, basis=True))
    docs.append(path)
    for norm in ("frobenius", "operator"):
        for r in range(1, (TINY_ENUM_DISCRETE_R_MAX if tiny else ENUM_DISCRETE_R_MAX) + 1):
            ops.append(discrete_op(path, name, r, norm, n * m))
    warmup = [op for op in ops if op.subsets <= WARMUP_SUBSETS]
    return Workload(ops, warmup, docs)


def large_n_workload(directory: Path, seed: int, tiny: bool = False) -> Workload:
    n, m, k = TINY_LARGE_FRAME if tiny else LARGE_FRAME
    name = f"large_{n}_{m}_{k}"
    path = _write(directory, name, document(seed, n, m, k))
    commands = (
        ("classify", {}),
        ("certify", {"which": "canonical"}),
        ("certify", {"which": "tight"}),
        ("erasure", {"r": 1, "norm": "frobenius"}),
        ("erasure", {"r": 1, "norm": "operator"}),
        ("erasure", {"fixed": fixed_subset(seed, m)}),
    )
    ops = [
        cli_op(path, name, command, params, as_json, m if "r" in params else 0)
        for command, params in commands
        for as_json in (False, True)
    ]
    # one text op per command absorbs the cold start of the first large SVD
    warmup = [op for op in ops if not op.json]
    return Workload(ops, warmup, [path])


WORKLOADS = ("fixtures", "enum", "large-n")


def build(name: str, root: Path, directory: Path, seed: int, tiny: bool = False) -> Workload:
    if name == "fixtures":
        return fixtures_workload(root)
    if name == "enum":
        return enum_workload(directory, seed, tiny)
    if name == "large-n":
        return large_n_workload(directory, seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
