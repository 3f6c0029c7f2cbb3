"""File ingestion, command dispatch, and report emission.

Input documents are UTF-8 JSON; scalars may be numbers or exact-fraction
strings like ``"5/7"``. Reports come in an aligned plain-text form (decimals
to 12 significant digits) and, with ``--json``, a machine-readable form that
is bitwise reproducible for identical inputs.

Exit status 0 means the analysis completed (even with a negative verdict),
1 an input error (an ``error:`` line on stderr), 2 a usage error (from
argparse), and 3 a failed internal cross-check, such as an emitted dual that
does not verify (an ``error: internal check failed:`` line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .discrete import (
    bridge_fusion_to_discrete,
    compact_nonzero,
    discrete_canonical_dual,
    halving_dual,
)
from .duality import DualPair, canonical_pair, make_dual_pair, verify_dual
from .erasures import (
    ErasureMask,
    fusion_partial_error,
    partial_erasure_error,
    worst_case_error,
)
from .fusion import (
    FusionFrame,
    classify,
    is_nontrivial,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    orthonormal_bases,
)
from .optimality import (
    certify_canonical_optimal,
    certify_dual_optimal,
    certify_tight_uniform,
    expand_optimal_family,
    parseval_optimal_family,
)

__all__ = ["DocumentError", "ParsedDocument", "parse_document", "run", "main"]


class DocumentError(ValueError):
    """Input document failed to parse or violated its schema."""


@dataclass(frozen=True, eq=False)
class ParsedDocument:
    frame: FusionFrame
    dual: FusionFrame | None
    basis: np.ndarray | None
    tol: Tolerance
    sha256: str


_PLAIN_NUMBERS = {int, float}


def _known_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    """Refuse any key outside ``allowed``, since a misspelt key would otherwise fall back to its default."""
    for key in obj:
        if key not in allowed:
            raise DocumentError(f"{where}: unknown key {key!r}")


def _scalar(x, where: str) -> float:
    if isinstance(x, bool):
        raise DocumentError(f"{where}: expected a number, got a boolean")
    if not isinstance(x, (int, float, str)):
        raise DocumentError(f"{where}: expected a number or fraction string, got {type(x).__name__}")
    try:
        return float(Fraction(x)) if isinstance(x, str) else float(x)
    except OverflowError as exc:
        raise DocumentError(f"{where}: number too large for a float") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{where}: cannot parse scalar {x!r}") from exc


def _vector(entry, dim: int, where: str) -> np.ndarray:
    if not isinstance(entry, list) or len(entry) != dim:
        raise DocumentError(f"{where}: expected a list of {dim} scalars")
    return np.array([_scalar(v, f"{where}[{k}]") for k, v in enumerate(entry)])


def _vectors(entries: list, dim: int, where: str) -> np.ndarray:
    """``entries`` as a finite ``(len, dim)`` float array; plain numbers convert in one call, anything
    else goes vector by vector and entry by entry, so a refusal names its entry."""
    block = None
    if set(map(type, entries)) == {list} and set(map(len, entries)) == {dim}:
        if set(map(type, chain.from_iterable(entries))) <= _PLAIN_NUMBERS:
            try:
                block = np.array(entries, dtype=float)
            except OverflowError:
                pass
    if block is None:
        block = np.array([_vector(v, dim, f"{where}[{k}]") for k, v in enumerate(entries)])
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise DocumentError(f"{where}[{finite.argmin()}]: non-finite entry")
    return block


def _subspace_family(entries, ambient_dim: int, tol: Tolerance, where: str, default_weights=()) -> FusionFrame:
    """The member list at ``where`` as a frame; every refusal, FusionFrame's included, names ``where``."""
    if not isinstance(entries, list) or not entries:
        raise DocumentError(f"{where}: expected a non-empty list of subspaces")
    blocks: list[np.ndarray] = []
    weights: list[float] = []
    for k, entry in enumerate(entries):
        spot = f"{where}[{k}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{spot}: expected an object with spanning_vectors")
        _known_keys(entry, ("spanning_vectors", "weight"), spot)
        vecs = entry.get("spanning_vectors")
        if not isinstance(vecs, list) or not vecs:
            raise DocumentError(f"{spot}.spanning_vectors: expected a non-empty list")
        blocks.append(_vectors(vecs, ambient_dim, f"{spot}.spanning_vectors"))
        fallback = default_weights[k] if k < len(default_weights) else 1
        weight = _scalar(entry.get("weight", fallback), f"{spot}.weight")
        if weight <= 0:
            raise DocumentError(f"{spot}.weight: must be positive")
        weights.append(weight)
    subspaces = tuple(orthonormal_bases(blocks, tol))
    try:
        return FusionFrame(ambient_dim, subspaces, tuple(weights))
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def parse_document(path: str | Path, tol_override: float | None = None) -> ParsedDocument:
    """Parse a frame specification document from a JSON file, read once and decoded as
    ``read_text(encoding="utf-8")`` decodes; ``sha256`` is the digest of the bytes read."""
    path = Path(path)
    try:
        data = path.read_bytes()
        raw = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise DocumentError(f"{path}: top level must be an object")
    _known_keys(raw, ("ambient_dim", "field", "subspaces", "dual", "basis", "tolerance"), "top level")

    field = raw.get("field", "real")
    if field != "real":
        raise DocumentError(f'field: only "real" is supported, got {field!r}')
    ambient_dim = raw.get("ambient_dim")
    if isinstance(ambient_dim, bool) or not isinstance(ambient_dim, int) or ambient_dim <= 0:
        raise DocumentError("ambient_dim: expected a positive integer")

    tol = DEFAULT_TOL
    tol_raw = raw.get("tolerance", {})
    if not isinstance(tol_raw, dict):
        raise DocumentError("tolerance: expected an object")
    _known_keys(tol_raw, ("rank_eps", "residual_eps"), "tolerance")
    if tol_raw:
        tol = Tolerance(
            rank_eps=_scalar(tol_raw.get("rank_eps", DEFAULT_TOL.rank_eps), "tolerance.rank_eps"),
            residual_eps=_scalar(
                tol_raw.get("residual_eps", DEFAULT_TOL.residual_eps), "tolerance.residual_eps"
            ),
        )
    if tol_override is not None:
        tol = Tolerance(rank_eps=tol_override, residual_eps=tol_override)

    frame = _subspace_family(raw.get("subspaces"), ambient_dim, tol, "subspaces")

    dual = None
    if "dual" in raw:
        entries = raw["dual"]
        if isinstance(entries, dict):
            _known_keys(entries, ("subspaces",), "dual")
            entries = entries.get("subspaces")
        # dual weights default to the corresponding primal weights
        dual = _subspace_family(entries, ambient_dim, tol, "dual.subspaces", default_weights=frame.weights)
        if dual.member_count != frame.member_count:
            raise DocumentError(
                f"dual.subspaces: member count {dual.member_count} does not match "
                f"the frame's {frame.member_count}"
            )

    basis = None
    if "basis" in raw:
        rows = raw["basis"]
        if not isinstance(rows, list) or len(rows) != ambient_dim:
            raise DocumentError(f"basis: expected {ambient_dim} vectors")
        basis = _vectors(rows, ambient_dim, "basis")

    return ParsedDocument(frame, dual, basis, tol, hashlib.sha256(data).hexdigest())


# --- report helpers ---------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _json_default(x):
    """``json.dumps`` hook for numpy values (``np.float64`` is a float) and frozensets."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, frozenset):
        return sorted(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _json_text(report) -> str:
    """``json.dumps(report, sort_keys=True, indent=2, default=_json_default)``, byte for byte.

    With ``indent`` set, ``json`` encodes in pure Python. This walks
    non-empty ``str``-keyed dicts and non-empty lists (ndarrays as lists)
    itself, writes plain strings, ints and finite floats as ``json`` would,
    and hands whole lists of plain numbers, and lists of records column by
    column, to the C encoder's compact form, whose ``", "`` separators become
    line breaks (no number's text contains ``", "``). Any other value is
    ``json.dumps``'s own text, indented to its depth. Pieces are joined once,
    at the end.
    """
    chunks: list[str] = []
    _json_chunks(report, 0, chunks)
    return "".join(chunks)


def _json_chunks(x, level: int, out: list[str]) -> None:
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, dict) and x and all(type(k) is str for k in x):
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for k, v in sorted(x.items()):
            out += (sep, _json_str(k), ": ")
            _json_chunks(v, level + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * level + "}")
    elif isinstance(x, (list, tuple)) and x:
        inner = "\n" + "  " * (level + 1)
        close = "\n" + "  " * level
        if set(map(type, x)) <= _PLAIN_NUMBERS:
            out += ("[", inner, json.dumps(x)[1:-1].replace(", ", "," + inner), close, "]")
        elif not _json_records(x, level, out):
            sep = "[" + inner
            for v in x:
                out.append(sep)
                _json_chunks(v, level + 1, out)
                sep = "," + inner
            out.append(close + "]")
    elif type(x) is str:
        out.append(_json_str(x))
    elif type(x) is int:
        out.append(int.__repr__(x))
    elif type(x) is float and math.isfinite(x):
        out.append(float.__repr__(x))
    else:
        # json.dumps breaks lines only between tokens, so indenting its lines nests it exactly
        text = json.dumps(x, sort_keys=True, indent=2, default=_json_default)
        out.append(text.replace("\n", "\n" + "  " * level))


def _json_records(rows, level: int, out: list[str]) -> bool:
    """Write a list of records that share one set of ``str`` keys, one C-encoder call per column.

    Every column must hold plain numbers only, or non-empty lists of plain
    numbers only; returns False, having written nothing, for any other list.
    """
    first = rows[0]
    if type(first) is not dict or not first or not all(type(k) is str for k in first):
        return False
    keys = first.keys()
    if set(map(type, rows)) != {dict} or not all(map(keys.__eq__, map(dict.keys, rows))):
        return False
    row_in, field_in, item_in = ("\n" + "  " * (level + d) for d in (1, 2, 3))
    fields, columns = [], []
    for key in sorted(keys):
        column = [row[key] for row in rows]
        kinds = set(map(type, column))
        name = _json_str(key).replace("%", "%%") + ": "
        if kinds <= _PLAIN_NUMBERS:
            fields.append(name + "%s")
            columns.append(json.dumps(column)[1:-1].split(", "))
        elif kinds <= {list, tuple} and all(column) and set(map(type, chain.from_iterable(column))) <= _PLAIN_NUMBERS:
            # "]," + item_in + "[" can only fall between two rows' lists
            fields.append(name + "[" + item_in + "%s" + field_in + "]")
            text = json.dumps(column)[2:-2].replace(", ", "," + item_in)
            columns.append(text.split("]," + item_in + "["))
        else:
            return False
    body = "{" + field_in + ("," + field_in).join(fields) + row_in + "}"
    filled = zip(*columns)
    out.append("[" + row_in + body % next(filled))
    out += map(("," + row_in + body).__mod__, filled)
    out.append("\n" + "  " * level + "]")
    return True


def _frame_document(frame: FusionFrame) -> dict:
    return {
        "ambient_dim": frame.ambient_dim,
        "field": "real",
        "subspaces": [
            {"weight": w, "spanning_vectors": s.basis.T.tolist()}
            for s, w in zip(frame.subspaces, frame.weights)
        ],
    }


def _document_pair(doc: ParsedDocument) -> tuple[DualPair, str]:
    """The document's dual pair, or the canonical one."""
    if doc.dual is not None:
        return make_dual_pair(doc.frame, doc.dual, doc.tol), "file"
    return canonical_pair(doc.frame, doc.tol), "canonical"


def _bridged(doc: ParsedDocument, basis: np.ndarray):
    """Canonical-weighted bridge over ``basis``, its nonzero rows, their raw indices and canonical dual."""
    bridged = bridge_fusion_to_discrete(doc.frame, basis, "canonical_weighted", doc.tol)
    compacted, kept = compact_nonzero(bridged, doc.tol)
    return bridged, compacted, kept, discrete_canonical_dual(compacted, doc.tol)


# --- commands: each returns one result dict, which --json writes and _text renders


def _cmd_classify(doc: ParsedDocument, args) -> dict:
    cls = classify(doc.frame, doc.tol)
    if not cls.is_frame:
        summary = "not a fusion frame (family does not span; lower bound 0)"
    elif cls.is_orthonormal_fusion_basis:
        summary = "orthonormal fusion basis"
    elif cls.is_riesz_fusion_basis:
        summary = f"Riesz fusion basis, bounds ({_fmt(cls.lower_bound)}, {_fmt(cls.upper_bound)})"
    elif cls.is_parseval:
        summary = "Parseval fusion frame"
    elif cls.is_tight:
        summary = f"tight fusion frame (bound {_fmt(cls.lower_bound)})"
    else:
        summary = f"fusion frame, not Riesz, bounds ({_fmt(cls.lower_bound)}, {_fmt(cls.upper_bound)})"
    return {
        "summary": summary,
        **asdict(cls),
        "nontrivial": is_nontrivial(doc.frame),
        "member_dims": [s.dim for s in doc.frame.subspaces],
    }


def _cmd_verify_dual(doc: ParsedDocument, args) -> dict:
    if doc.dual is None:
        raise DocumentError("verify-dual requires a dual section in the document")
    pair = make_dual_pair(doc.frame, doc.dual, doc.tol)
    ok, residual, recon = verify_dual(pair)
    return {"is_dual": ok, "residual": residual, "reconstruction": recon, "member_count": pair.member_count}


def _cmd_erasure(doc: ParsedDocument, args) -> dict:
    norm, subset = args.norm, args.fixed
    if subset is None:
        pair, dual_source = _document_pair(doc)
        report = worst_case_error(pair, args.r, norm)
        return {
            "mode": "worst",
            "r": report.r,
            "norm_kind": report.norm_kind,
            "dual_source": dual_source,
            "worst_value": report.worst_value,
            "argmax_subsets": [list(s) for s in report.argmax_subsets],
            "table": [{"subset": list(s), "value": v} for s, v in (report.per_subset_values or ())],
        }

    if not subset:
        raise ValueError("--fixed needs at least one index")
    repeated = sorted({i for i in subset if subset.count(i) > 1})
    if repeated:
        raise ValueError(f"--fixed repeats index {', '.join(map(str, repeated))}")
    if doc.basis is not None:
        # fixed erasures of a bridged frame: compare the canonical dual with
        # the halving construction on the same lost set
        _, compacted, kept, canonical = _bridged(doc, doc.basis)
        mask = ErasureMask(compacted.count, subset)
        value_canonical = partial_erasure_error(compacted, canonical, mask, norm)
        result = {
            "mode": "fixed-discrete",
            "norm_kind": norm,
            "subset": sorted(subset),
            "kept_raw_indices": list(kept),
            "canonical_value": value_canonical,
        }
        try:
            halved = halving_dual(compacted, subset, doc.tol)
            value_halved = partial_erasure_error(compacted, halved, mask, norm)
            ratio = value_canonical / value_halved if value_halved else float("inf")
            result.update(halving_feasible=True, halved_value=value_halved, ratio=ratio)
        except ValueError as exc:
            result.update(halving_feasible=False, halving_note=str(exc))
        return result

    pair, dual_source = _document_pair(doc)
    value = fusion_partial_error(pair, ErasureMask(pair.member_count, subset), norm)
    return {"mode": "fixed", "norm_kind": norm, "dual_source": dual_source, "subset": sorted(subset), "value": value}


def _cmd_certify(doc: ParsedDocument, args) -> dict:
    if args.which == "canonical":
        cert = certify_canonical_optimal(doc.frame, doc.tol)
    elif args.which == "dual":
        if doc.dual is None:
            raise DocumentError("certify --which dual requires a dual section in the document")
        cert = certify_dual_optimal(make_dual_pair(doc.frame, doc.dual, doc.tol))
    else:
        cert = certify_tight_uniform(_document_pair(doc)[0])
    return asdict(cert)


def _cmd_construct(doc: ParsedDocument, args) -> dict:
    if args.what == "bridge":
        basis = doc.basis if doc.basis is not None else np.eye(doc.frame.ambient_dim)
        bridged, compacted, kept, canonical = _bridged(doc, basis)
        return {
            "what": "bridge",
            "raw_vectors": bridged.vectors,
            "raw_labels": [list(l) for l in bridged.labels],
            "compact_vectors": compacted.vectors,
            "kept_raw_indices": list(kept),
            "canonical_dual_vectors": canonical.vectors,
        }

    if args.what == "expand":
        if args.index is None:
            raise DocumentError("construct --what expand requires --index")
        pair, dual_source = _document_pair(doc)
        variants = expand_optimal_family(pair, args.index)
        d1 = worst_case_error(pair, 1, "frobenius").worst_value if pair.member_count > 1 else None
        entries = []
        for variant in variants:
            vpair = make_dual_pair(doc.frame, variant, doc.tol)
            entry = {
                "member_dims": [s.dim for s in variant.subspaces],
                "member_vectors": [s.basis.T.tolist() for s in variant.subspaces],
                "residual": vpair.duality_residual,
            }
            if d1 is not None:
                entry["d1_frobenius"] = worst_case_error(vpair, 1, "frobenius").worst_value
            entries.append(entry)
        return {
            "what": "expand",
            "index": args.index,
            "dual_source": dual_source,
            "variant_count": len(variants),
            "d1_frobenius_input": d1,
            "variants": entries,
        }

    # parseval-family
    extensions = None if doc.dual is None else list(doc.dual.subspaces)
    f, duals, parseval_residual, checks = parseval_optimal_family(doc.frame, extensions, doc.tol, basis=doc.basis)
    compacted, kept = compact_nonzero(f, doc.tol)
    return {
        "what": "parseval-family",
        "frame_vectors": f.vectors,
        "labels": [list(l) for l in f.labels],
        "compact_vectors": compacted.vectors,
        "kept_raw_indices": list(kept),
        "parseval_residual": parseval_residual,
        "duals": [
            {"vectors": g.vectors, "residual": residual, "is_dual": ok, "d1_operator": d1}
            for g, (ok, residual, d1) in zip(duals, checks)
        ],
    }


_COMMANDS = {
    "classify": _cmd_classify,
    "verify-dual": _cmd_verify_dual,
    "erasure": _cmd_erasure,
    "certify": _cmd_certify,
    "construct": _cmd_construct,
}


def _set(indices) -> str:
    return "{" + ", ".join(map(str, indices)) + "}"


def _listing(vectors, labels) -> list[str]:
    return [f"    ({i},{j}): (" + ", ".join(map(_fmt, row)) + ")" for (i, j), row in zip(labels, vectors)]


def _text(command: str, result: dict) -> Iterable[str]:
    """The text report's lines, read from ``result`` alone (the command's dict or its --json echo read back).

    The per-subset lines of an erasure table are formatted only as they are consumed.
    """
    r = result
    if command == "classify":
        return [
            f"classification:  {r['summary']}",
            f"member dims:     {r['member_dims']}",
            f"bounds:          ({_fmt(r['lower_bound'])}, {_fmt(r['upper_bound'])})",
            f"nontrivial:      {'yes' if r['nontrivial'] else 'no'}",
        ]
    if command == "verify-dual":
        return [
            f"dual verification: {'PASS' if r['is_dual'] else 'FAIL'}",
            f"residual:          {_fmt(r['residual'])}",
            "reconstruction map:",
            *("    [" + ", ".join(map(_fmt, row)) + "]" for row in r["reconstruction"]),
        ]
    if command == "certify":
        return [
            f"certificate kind:    {r['kind']}",
            f"extremal value c:    {_fmt(r['c_value'])}",
            f"lambda1 (extremal):  {_set(r['lambda1'])}",
            f"lambda2 (rest):      {_set(r['lambda2'])}",
            f"span dims:           H1={r['h1_dim']}, H2={r['h2_dim']}, H1^H2={r['intersection_dim']}",
            f"riesz side:          {'lambda1' if r['lambda_side_riesz'] else 'lambda2'}",
            f"verdict:             {r['verdict']}",
            f"notes:               {r['notes']}",
        ]
    if command == "erasure" and r["mode"] == "worst":
        lines = [
            f"worst-case erasure error (r={r['r']}, norm={r['norm_kind']}, dual={r['dual_source']})",
            f"worst value:  {_fmt(r['worst_value'])}",
            "argmax sets:  " + ", ".join(map(_set, r["argmax_subsets"])),
        ]
        if not r["table"]:
            return lines
        table = (f"    {_set(row['subset'])}: {_fmt(row['value'])}" for row in r["table"])
        return chain(lines, ["per-subset values:"], table)
    if command == "erasure" and r["mode"] == "fixed-discrete":
        lines = [
            f"fixed erasure on bridged frame (norm={r['norm_kind']})",
            f"lost vectors:      {_set(r['subset'])} of {len(r['kept_raw_indices'])}",
            f"canonical error:   {_fmt(r['canonical_value'])}",
        ]
        if not r["halving_feasible"]:
            return lines + [f"halving dual:      infeasible ({r['halving_note']})"]
        return lines + [f"halved-dual error: {_fmt(r['halved_value'])}", f"ratio:             {_fmt(r['ratio'])}"]
    if command == "erasure":
        return [
            f"fixed erasure error (norm={r['norm_kind']}, dual={r['dual_source']})",
            f"lost members: {_set(r['subset'])}",
            f"value:        {_fmt(r['value'])}",
        ]
    if r["what"] == "bridge":
        kept_labels = [r["raw_labels"][k - 1] for k in r["kept_raw_indices"]]
        return [
            "bridged frame (raw, zero vectors flagged by omission below):",
            *_listing(r["raw_vectors"], r["raw_labels"]),
            f"nonzero vectors kept: {r['kept_raw_indices']}",
            "compacted frame:",
            *_listing(r["compact_vectors"], kept_labels),
            "canonical dual of the compacted frame:",
            *_listing(r["canonical_dual_vectors"], kept_labels),
        ]
    if r["what"] == "expand":
        lines = [f"expansion variants at member {r['index']}: {r['variant_count']}"]
        if r["d1_frobenius_input"] is not None:
            lines.append(f"input worst single-erasure (frobenius): {_fmt(r['d1_frobenius_input'])}")
        for k, entry in enumerate(r["variants"], start=1):
            d1 = f", d1 {_fmt(entry['d1_frobenius'])}" if "d1_frobenius" in entry else ""
            lines.append(f"variant {k}: dims {entry['member_dims']}, residual {_fmt(entry['residual'])}{d1}")
        return lines
    lines = [f"parseval family (residual {_fmt(r['parseval_residual'])}):", "frame vectors:"]
    lines += _listing(r["frame_vectors"], r["labels"])
    for k, entry in enumerate(r["duals"], start=1):
        lines.append(
            f"dual {k}: residual {_fmt(entry['residual'])}, "
            f"worst single-erasure (operator) {_fmt(entry['d1_operator'])}"
        )
        lines += _listing(entry["vectors"], r["labels"])
    return lines


def run(args) -> str:
    """Run one parsed command line; returns the text report, or the JSON one under ``--json``.

    The input is read once; only the JSON report echoes the frame document and the sha256 of those bytes.
    """
    doc = parse_document(args.file, args.tol)
    result = _COMMANDS[args.command](doc, args)
    if not args.json:
        return "\n".join(_text(args.command, result))
    result["frame_document"] = _frame_document(doc.frame)
    report = {
        "command": args.command,
        "input": {"path": str(args.file), "sha256": doc.sha256},
        "tolerance": {"rank_eps": doc.tol.rank_eps, "residual_eps": doc.tol.residual_eps},
        "result": result,
    }
    return _json_text(report)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every later ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="fusionframes",
        description="Analyze fusion frames: classification, duality, erasure errors, certificates.",
    )
    parser.add_argument("--tol", type=float, default=None, help="override both tolerances")
    parser.add_argument("--json", action="store_true", help="emit the machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", help="frame bounds and classification").add_argument("file")
    sub.add_parser("verify-dual", help="check the document's dual family").add_argument("file")

    erasure = sub.add_parser("erasure", help="worst-case or fixed erasure errors")
    erasure.add_argument("file")
    erasure.add_argument("--r", type=int, default=1, help="erasure count for worst-case mode")
    erasure.add_argument("--norm", choices=["frobenius", "operator"], default="frobenius")
    erasure.add_argument(
        "--fixed",
        type=lambda s: [int(x) for x in s.split(",") if x],
        default=None,
        metavar="I,J,...",
        help="fixed lost index set (1-based); with a basis in the file this "
        "compares the canonical and halved duals of the bridged frame",
    )

    certify = sub.add_parser("certify", help="sufficient-condition optimality certificates")
    certify.add_argument("file")
    certify.add_argument("--which", choices=["canonical", "dual", "tight"], required=True)

    construct = sub.add_parser("construct", help="constructive families and bridges")
    construct.add_argument("file")
    construct.add_argument(
        "--what", choices=["parseval-family", "expand", "bridge"], required=True
    )
    construct.add_argument("--index", type=int, default=None, help="member index for expand")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; safe to call repeatedly in one process."""
    args = _build_parser().parse_args(argv)
    try:
        output = run(args)
    except (DocumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
