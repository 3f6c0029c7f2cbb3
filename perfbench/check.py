"""Output checker for benchmark ops.

References are recomputed from the input documents with plain numpy, never
with fusionframes:

* worst-case reports: stack the error components w_i v_i P_{V_i} S_W^{-1} P_{W_i}
  (or g_k f_k^T for discrete frames) and enumerate every subset; the worst
  value must match within a relative 1e-9 and the argmax sets exactly;
* classification bounds against eigvalsh(S_W);
* ``certify --which canonical``: c, lambda1/lambda2 and the span dimensions;
* fixed-set errors, the reconstruction map of ``verify-dual`` and the echoed
  frame document (compared as projectors, since bases are not canonical).

Fixture ops are additionally checked against ``expected_fixtures.json``:
exit status, refusal messages, the report fields and text lines recorded
from the fusionframes reports, and the values the README states. Numbers
compare within ``TOL`` relative to max(1, |expected|), so ulp-level changes
pass and wrong values do not.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

TOL = 1e-9
TIE_REL = 1e-12
CHUNK = 16384
EXPECTED_FILE = Path(__file__).resolve().parent / "expected_fixtures.json"


def close(a, b, tol: float = TOL) -> bool:
    if a == b:
        return True
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def _scalar(x) -> float:
    return float(Fraction(x)) if isinstance(x, str) else float(x)


def _orthonormal(vectors, rank_eps: float, n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the span of ``vectors``, by SVD."""
    a = np.array([[_scalar(x) for x in v] for v in vectors], dtype=float).reshape(-1, n).T
    if a.size == 0:
        return np.zeros((n, 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    scale = float(np.linalg.norm(a, axis=0).max())
    return u[:, : int(np.sum(s > rank_eps * scale))]


def _projector(vectors, n: int, rank_eps: float = 1e-9) -> np.ndarray:
    b = _orthonormal(vectors, rank_eps, n)
    return b @ b.T


def _members(entries, rank_eps, n, default_weights=None):
    bases, weights = [], []
    for k, entry in enumerate(entries):
        bases.append(_orthonormal(entry["spanning_vectors"], rank_eps, n))
        fallback = default_weights[k] if default_weights is not None else 1
        weights.append(_scalar(entry.get("weight", fallback)))
    return bases, np.array(weights)


def _rank(columns: list[np.ndarray], n: int, eps: float) -> int:
    stacked = np.hstack([np.zeros((n, 0)), *columns])
    if stacked.shape[1] == 0:
        return 0
    return int(np.sum(np.linalg.svd(stacked, compute_uv=False) > eps))


def _norms(mats: np.ndarray, norm: str) -> np.ndarray:
    if norm == "frobenius":
        return np.sqrt(np.einsum("kij,kij->k", mats, mats))
    return np.linalg.norm(mats, 2, axis=(1, 2))


def worst_case(components: np.ndarray, r: int, norm: str):
    """(worst value, argmax subsets, per-subset values or None) over all r-subsets.

    Subsets are enumerated in chunks so the checker never holds the whole
    value table.
    """
    m = components.shape[0]
    combos = itertools.combinations(range(m), r)
    worst, best, table = -1.0, [], [] if math.comb(m, r) <= 4096 else None
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, CHUNK)), dtype=np.int64)
        if flat.size == 0:
            break
        idx = flat.reshape(-1, r)
        acc = components[idx[:, 0]].copy()
        for j in range(1, r):
            acc += components[idx[:, j]]
        values = _norms(acc, norm)
        if table is not None:
            table += [(tuple(int(i) + 1 for i in row), float(v)) for row, v in zip(idx, values)]
        chunk_max = float(values.max())
        if chunk_max > worst:
            worst = chunk_max
        # keep candidates within the tie window of the running maximum
        keep = values >= worst * (1.0 - TIE_REL)
        best = [(s, v) for s, v in best if v >= worst * (1.0 - TIE_REL)]
        best += [(tuple(int(i) + 1 for i in row), float(v)) for row, v in zip(idx[keep], values[keep])]
    argmax = sorted(s for s, v in best if v >= worst * (1.0 - TIE_REL))
    return worst, argmax, table


class FrameRef:
    """Numpy reference quantities of one frame document."""

    def __init__(self, raw: dict):
        n = raw["ambient_dim"]
        tol = raw.get("tolerance") or {}
        self.rank_eps = _scalar(tol.get("rank_eps", 1e-9))
        self.residual_eps = _scalar(tol.get("residual_eps", 1e-9))
        self.n = n
        self.bases, self.weights = _members(raw["subspaces"], self.rank_eps, n)
        self.projectors = np.array([b @ b.T for b in self.bases])
        self.s = np.einsum("i,ijk->jk", self.weights**2, self.projectors)
        self.eigs = np.linalg.eigvalsh(self.s)
        self.basis = np.array(raw["basis"], dtype=float) if "basis" in raw else None
        if self.eigs[0] <= self.rank_eps:
            self.s_inv = None
            return
        vals, vecs = np.linalg.eigh(self.s)
        self.s_inv = (vecs / vals) @ vecs.T
        if "dual" in raw:
            entries = raw["dual"]["subspaces"] if isinstance(raw["dual"], dict) else raw["dual"]
            dual_bases, dual_weights = _members(entries, self.rank_eps, n, self.weights)
        else:
            dual_bases = [_orthonormal((self.s_inv @ b).T.tolist(), self.rank_eps, n) for b in self.bases]
            dual_weights = self.weights
        self.components = np.array([
            w * v * (d @ d.T) @ self.s_inv @ p
            for w, v, d, p in zip(self.weights, dual_weights, dual_bases, self.projectors)
        ])

    def bounds(self) -> tuple[float, float]:
        lower, upper = float(self.eigs[0]), float(self.eigs[-1])
        return (0.0 if lower <= self.rank_eps else lower), (0.0 if upper <= self.rank_eps else upper)

    def discrete(self):
        """Compacted bridged frame f (rows w_i P_i S^{-1} b_j) and its canonical dual g."""
        rows = np.array([
            w * p @ self.s_inv @ b for w, p in zip(self.weights, self.projectors) for b in self.basis
        ])
        scale = max(1.0, float(np.abs(rows).max()))
        f = rows[np.linalg.norm(rows, axis=1) > self.rank_eps * scale]
        vals, vecs = np.linalg.eigh(f.T @ f)
        g = f @ ((vecs / vals) @ vecs.T)
        return f, g

    def discrete_components(self) -> np.ndarray:
        f, g = self.discrete()
        return np.einsum("ki,kj->kij", g, f)

    def canonical_certificate(self):
        values = [
            w**2 * np.linalg.norm(self.s_inv @ p, "fro") for w, p in zip(self.weights, self.projectors)
        ]
        c = max(values)
        lambda1 = [i for i, v in enumerate(values, start=1) if v >= c * (1.0 - TIE_REL)]
        lambda2 = [i for i in range(1, len(values) + 1) if i not in lambda1]
        eps = self.rank_eps
        h1 = _rank([self.bases[i - 1] for i in lambda1], self.n, eps)
        h2 = _rank([self.bases[i - 1] for i in lambda2], self.n, eps)
        both = _rank([b for b in self.bases], self.n, eps)
        return {"c_value": float(c), "lambda1": lambda1, "lambda2": lambda2,
                "h1_dim": h1, "h2_dim": h2, "intersection_dim": h1 + h2 - both}


# --- reading reports ---------------------------------------------------------

_SET = re.compile(r"\{([^{}]*)\}")


def _sets(text: str) -> list[list[int]]:
    return [[int(x) for x in body.split(",") if x.strip()] for body in _SET.findall(text)]


def _text_facts(command: str, params: dict, out: str) -> dict:
    """The checked quantities of a text report, keyed like the JSON result."""
    lines = out.splitlines()
    facts: dict = {}

    def field(label: str) -> str | None:
        for line in lines:
            if line.startswith(label):
                return line[len(label):].strip()
        return None

    if command == "classify":
        lo, hi = field("bounds:").strip("()").split(",")
        facts.update(lower_bound=float(lo), upper_bound=float(hi))
    elif command == "erasure" and "fixed" not in params:
        facts["worst_value"] = float(field("worst value:"))
        facts["argmax_subsets"] = _sets(field("argmax sets:"))
        table = [line for line in lines if line.startswith("    {")]
        facts["table"] = [{"subset": _sets(line)[0], "value": float(line.rsplit(":", 1)[1])} for line in table]
    elif command == "erasure":
        value = field("value:")
        if value is not None:
            facts["value"] = float(value)
        canonical = field("canonical error:")
        if canonical is not None:
            facts["canonical_value"] = float(canonical)
    elif command == "certify":
        facts["kind"] = field("certificate kind:")
        facts["c_value"] = float(field("extremal value c:"))
        facts["lambda1"] = _sets(field("lambda1 (extremal):"))[0]
        facts["lambda2"] = _sets(field("lambda2 (rest):"))[0]
        dims = dict(part.split("=") for part in field("span dims:").replace(" ", "").split(","))
        facts.update(h1_dim=int(dims["H1"]), h2_dim=int(dims["H2"]), intersection_dim=int(dims["H1^H2"]))
        facts["verdict"] = field("verdict:")
    elif command == "verify-dual":
        facts["residual"] = float(field("residual:"))
        start = lines.index("reconstruction map:") + 1
        facts["reconstruction"] = [[float(x) for x in line.strip(" []").split(",")] for line in lines[start:]]
    return facts


# --- comparisons -------------------------------------------------------------


def _compare_worst(problems, facts, worst, argmax, table):
    if not close(facts["worst_value"], worst):
        problems.append(f"worst value {facts['worst_value']!r}, reference {worst!r}")
    if [list(s) for s in facts["argmax_subsets"]] != [list(s) for s in argmax]:
        problems.append(f"argmax sets {facts['argmax_subsets']}, reference {argmax}")
    if table is not None and facts.get("table"):
        got = {tuple(e["subset"]): e["value"] for e in facts["table"]}
        if set(got) != {s for s, _ in table} or any(not close(got[s], v) for s, v in table):
            problems.append("per-subset value table differs from the reference")


def check_reference(ref: FrameRef, command: str, params: dict, facts: dict) -> list[str]:
    """Compare the facts of one successful report with the numpy reference."""
    problems: list[str] = []
    if command == "classify":
        lower, upper = ref.bounds()
        scale = max(1.0, upper)
        if not (close(facts["lower_bound"], lower, TOL * scale) and close(facts["upper_bound"], upper, TOL * scale)):
            problems.append(f"bounds ({facts['lower_bound']}, {facts['upper_bound']}), reference ({lower}, {upper})")
    elif command == "erasure" and "fixed" not in params:
        _compare_worst(problems, facts, *worst_case(ref.components, params["r"], params["norm"]))
    elif command == "erasure":
        norm = params.get("norm", "frobenius")
        lost = [i - 1 for i in params["fixed"]]
        if ref.basis is None:
            want = float(_norms(ref.components[lost].sum(0)[None], norm)[0])
            if not close(facts["value"], want):
                problems.append(f"fixed erasure value {facts['value']!r}, reference {want!r}")
        else:
            want = float(_norms(ref.discrete_components()[lost].sum(0)[None], norm)[0])
            if not close(facts["canonical_value"], want):
                problems.append(f"canonical value {facts['canonical_value']!r}, reference {want!r}")
    elif command == "certify" and params["which"] == "canonical":
        want = ref.canonical_certificate()
        if not close(facts["c_value"], want["c_value"]):
            problems.append(f"c {facts['c_value']!r}, reference {want['c_value']!r}")
        for key in ("lambda1", "lambda2", "h1_dim", "h2_dim", "intersection_dim"):
            if facts[key] != want[key]:
                problems.append(f"{key} {facts[key]}, reference {want[key]}")
    elif command == "certify" and params["which"] == "tight":
        dims = [b.shape[1] for b in ref.bases]
        want = max(w**2 * math.sqrt(d) for w, d in zip(ref.weights, dims))
        if not close(facts["c_value"], want):
            problems.append(f"tight c {facts['c_value']!r}, reference {want!r}")
        lower, upper = ref.bounds()
        if upper - lower > ref.residual_eps * max(1.0, upper) and facts["verdict"] != "not_applicable":
            problems.append(f"non-tight frame certified ({facts['verdict']})")
    elif command == "verify-dual":
        recon = ref.components.sum(0)
        residual = float(np.linalg.norm(recon - np.eye(ref.n), "fro"))
        got = np.array(facts["reconstruction"], dtype=float)
        if got.shape != recon.shape or np.abs(got - recon).max() > TOL * max(1.0, np.abs(recon).max()):
            problems.append("reconstruction map differs from the reference")
        if not close(facts["residual"], residual):
            problems.append(f"residual {facts['residual']!r}, reference {residual!r}")
    return problems


def check_discrete(ref: FrameRef, params: dict, report: dict) -> list[str]:
    problems: list[str] = []
    components = ref.discrete_components()
    if report["count"] != components.shape[0]:
        problems.append(f"compacted frame has {report['count']} vectors, reference {components.shape[0]}")
        return problems
    _compare_worst(problems, report, *worst_case(components, params["r"], params["norm"]))
    return problems


def check_frame_document(ref: FrameRef, doc: dict) -> list[str]:
    members = doc.get("subspaces", [])
    if doc.get("ambient_dim") != ref.n or len(members) != len(ref.bases):
        return ["echoed frame document has the wrong shape"]
    for i, (entry, p, w) in enumerate(zip(members, ref.projectors, ref.weights), start=1):
        if not close(entry["weight"], w) or np.abs(_projector(entry["spanning_vectors"], ref.n, ref.rank_eps) - p).max() > 1e-8:
            return [f"echoed frame document differs at member {i}"]
    return []


# --- stored fixture expectations ----------------------------------------------

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|\b(?:inf|nan)\b")


def _split_line(line: str) -> tuple[str, list[float]]:
    return _NUMBER.sub("#", line), [float(x) for x in _NUMBER.findall(line)]


def _line_present(expected: str, actual: list[tuple[str, list[float]]]) -> bool:
    skeleton, numbers = _split_line(expected)
    return any(
        sk == skeleton and len(nums) == len(numbers) and all(close(a, b) for a, b in zip(nums, numbers))
        for sk, nums in actual
    )


def _same_span(got, want) -> bool:
    if not got or not want:
        return not got and not want
    n = len(want[0])
    return all(len(v) == n for v in got) and np.abs(_projector(got, n) - _projector(want, n)).max() <= 1e-8


def match_expected(got, want, path: str = "result") -> list[str]:
    """Every field of ``want`` must be in ``got`` with an equal value (numbers within TOL).

    Spanning vectors are compared as spans, since bases are not canonical.
    Fields that ``got`` adds are allowed.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key, value in want.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            elif key == "spanning_vectors":
                if not _same_span(got[key], value):
                    problems.append(f"{path}.{key}: different span")
            elif key == "member_vectors":
                if len(got[key]) != len(value) or not all(map(_same_span, got[key], value)):
                    problems.append(f"{path}.{key}: different spans")
            else:
                problems += match_expected(got[key], value, f"{path}.{key}")
        return problems
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected {len(want)} entries"]
        return [p for k, (g, w) in enumerate(zip(got, want)) for p in match_expected(g, w, f"{path}[{k}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) and close(got, want)
        return [] if ok else [f"{path}: {got!r}, expected {want!r}"]
    return [] if got == want else [f"{path}: {got!r}, expected {want!r}"]


def _at(report: dict, path: list):
    node = report
    for key in path:
        node = node[key]
    return node


class Checker:
    """Checks op outcomes; a repeat with output identical to a checked one reuses its verdict."""

    def __init__(self, use_expected: bool):
        self.refs: dict[str, FrameRef] = {}
        self.verdicts: dict[str, tuple[str, bool]] = {}
        self.expected = json.loads(EXPECTED_FILE.read_text()) if use_expected else None
        self.problems: list[str] = []

    def ref(self, path: str) -> FrameRef:
        if path not in self.refs:
            self.refs[path] = FrameRef(json.loads(Path(path).read_text()))
        return self.refs[path]

    def check(self, op, code, out: str, err: str, report: dict | None = None) -> bool:
        digest = hashlib.sha256(repr((code, out, err, report)).encode()).hexdigest()
        seen = self.verdicts.get(op.key)
        if seen is not None and seen[0] == digest:
            return seen[1]
        try:
            problems = self._problems(op, code, out, err, report)
        except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
            problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
        self.verdicts[op.key] = (digest, not problems)
        self.problems += [f"{op.key}: {p}" for p in problems]
        return not problems

    def _problems(self, op, code, out, err, report) -> list[str]:
        if op.argv is None:
            if report is None:
                return [f"raised {err.strip()[-200:]}"]
            return check_discrete(self.ref(op.doc), op.params, report)
        want = self.expected["ops"][op.key] if self.expected is not None else {"exit": 0}
        if code != want["exit"]:
            return [f"exit status {code}, expected {want['exit']} ({err.strip()[:200]})"]
        if want["exit"] != 0:
            return [] if err.strip() == want["message"] else [f"message {err.strip()!r}, expected {want['message']!r}"]
        problems: list[str] = []
        if op.json:
            data = json.loads(out)
            result = data["result"]
            if data["command"] != op.command:
                problems.append(f"command {data['command']!r}")
            if data["input"]["sha256"] != hashlib.sha256(Path(op.doc).read_bytes()).hexdigest():
                problems.append("input digest does not match the document")
            problems += check_frame_document(self.ref(op.doc), result["frame_document"])
            facts = result
            if "want" in want:
                problems += match_expected(result, want["want"])
            for fact in self.expected["readme"] if self.expected is not None else ():
                if fact["op"] == op.key and not close(_at(data, fact["path"]), fact["value"]):
                    problems.append(f"README value {fact['note']}: got {_at(data, fact['path'])!r}")
        else:
            facts = _text_facts(op.command, op.params, out)
            if "lines" in want:
                actual = [_split_line(line) for line in out.splitlines()]
                problems += [f"missing line {line!r}" for line in want["lines"] if not _line_present(line, actual)]
        problems += check_reference(self.ref(op.doc), op.command, op.params, facts)
        return problems
