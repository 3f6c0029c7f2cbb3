"""File ingestion, command dispatch, and report emission.

Input documents are UTF-8 JSON; scalars may be numbers or exact-fraction
strings like ``"5/7"``. Reports come in an aligned plain-text form (decimals
to 12 significant digits) and, with ``--json``, a machine-readable form that
is bitwise reproducible for identical inputs.

Exit status 0 means the analysis completed (even with a negative verdict), 1
an input error or too little memory for the input (an ``error:`` line on
stderr), 2 a usage error (from argparse), 3 a failed internal cross-check,
such as an emitted dual that does not verify (an ``error: internal check
failed:`` line on stderr), and 141 (128 + SIGPIPE, what a shell reports for a
filter killed by a closed pipe) when stdout was closed before the whole report
was written, as by ``fusionframes ... | head -1``; nothing more is written
then.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
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
    """A parsed frame document. What its commands derive from it alone (the dual
    pair, the --json echo) is built on first use and lives as long as the document:
    ``parse_document`` hands the same object to every call on the same bytes and
    tolerance, so each is built once. A refused build is not kept."""

    frame: FusionFrame
    dual: FusionFrame | None
    basis: np.ndarray | None
    tol: Tolerance
    sha256: str

    @functools.cached_property
    def _frame_echo(self) -> _Encoded:
        """The --json reports' ``result.frame_document``, encoded at the depth ``_report`` puts it."""
        chunks: list[str] = []
        _json_chunks(_frame_document(self.frame), 2, chunks)
        return _Encoded("".join(chunks))

    @functools.cached_property
    def _pair(self) -> tuple[DualPair, str]:
        """The document's dual pair, or the canonical one, and which of the two it is."""
        if self.dual is not None:
            return make_dual_pair(self.frame, self.dual, self.tol), "file"
        return canonical_pair(self.frame, self.tol), "canonical"


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


# the last document parsed, keyed by its bytes and the tolerance override
_last_parse: tuple[tuple, ParsedDocument] | None = None


def parse_document(path: str | Path, tol_override: float | None = None) -> ParsedDocument:
    """Parse a frame specification document from a JSON file, read once and decoded as
    ``read_text(encoding="utf-8")`` decodes; ``sha256`` is the digest of the bytes read.

    The file is read on every call and its bytes compared with those of the last
    document parsed in this process, which are kept with it. When they and
    ``tol_override`` match, that same object is returned, with the spectra its
    frames have cached and, once a command has used them, its dual pair and
    encoded frame-document echo, so each is built once per kept document. The
    bytes are hashed only when they are parsed, once per kept document; a
    refused document is never hashed or kept. Parsing itself builds neither the
    pair nor the echo. Every array reachable from the result is read-only.
    """
    global _last_parse
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    # the type too: an int override echoes as "1", a float one as "1.0"
    key = (data, type(tol_override), tol_override)
    last = _last_parse  # one read: another thread may replace the slot, never change a kept pair
    if last is not None and last[0] == key:
        return last[1]
    try:
        raw = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{path}: nested too deep to parse") from exc
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
        basis.setflags(write=False)

    doc = ParsedDocument(frame, dual, basis, tol, hashlib.sha256(data).hexdigest())
    _last_parse = key, doc
    return doc


# --- report helpers ---------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


class _Encoded(str):
    """JSON text already encoded at the depth it is written at; ``_json_chunks`` writes it verbatim."""


class _Table(list):
    """An erasure report's per-subset rows, ``{"subset": [...], "value": v}`` with one subset length,
    which ``_json_chunks`` writes from one row template. The indices are ints and the values ints or
    finite Python floats (``_sum_norms`` refuses the rest), so ``%d`` and ``%r`` give ``json.dumps``' text."""


def _json_chunks(x, level: int, out: list[str]) -> None:
    """Append ``json.dumps(x, sort_keys=True, indent=2)`` (ndarrays as lists) to ``out`` in pieces,
    each line after the first indented ``level`` steps more. A non-empty ``_Table`` is one piece, each
    row its template filled. Lists of plain numbers go to the C encoder's compact form, whose ``", "``
    separators become line breaks. Any other value, such as a boolean, None, a non-finite float or an
    empty container, is ``json.dumps(x)``."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, dict) and x:
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
        if type(x) is _Table:
            field, item = ("\n" + "  " * (level + d) for d in (2, 3))
            subset = "[" + item + ("," + item).join(["%d"] * len(x[0]["subset"])) + field + "]"
            row = "{" + field + '"subset": ' + subset + "," + field + '"value": %r' + inner + "}"
            slots: list = []
            for r in x:
                slots += r["subset"]
                slots.append(r["value"])
            out.append("[" + inner + ("," + inner).join([row] * len(x)) % tuple(slots) + close + "]")
        elif set(map(type, x)) <= _PLAIN_NUMBERS:
            out += ("[", inner, json.dumps(x)[1:-1].replace(", ", "," + inner), close, "]")
        else:
            sep = "[" + inner
            for v in x:
                out.append(sep)
                _json_chunks(v, level + 1, out)
                sep = "," + inner
            out.append(close + "]")
    elif type(x) is str:
        out.append(_json_str(x))
    elif type(x) is _Encoded:
        out.append(x)
    elif type(x) is int:
        out.append(int.__repr__(x))
    elif type(x) is float and math.isfinite(x):
        out.append(float.__repr__(x))
    else:
        out.append(json.dumps(x))


def _frame_document(frame: FusionFrame) -> dict:
    # arrays, not lists: the writer converts one member at a time
    return {
        "ambient_dim": frame.ambient_dim,
        "field": "real",
        "subspaces": [
            {"weight": w, "spanning_vectors": s.basis.T}
            for s, w in zip(frame.subspaces, frame.weights)
        ],
    }


def _bridged(doc: ParsedDocument, basis: np.ndarray):
    """Canonical-weighted bridge over ``basis``, its nonzero rows, their raw indices and canonical dual."""
    bridged = bridge_fusion_to_discrete(doc.frame, basis, "canonical_weighted", doc.tol)
    compacted, kept = compact_nonzero(bridged, doc.tol)
    return bridged, compacted, kept, discrete_canonical_dual(compacted, doc.tol)


# --- commands: each returns one result dict, which --json writes and _text renders


def _field_dict(record) -> dict:
    """A flat dataclass's fields by name, their values shared rather than deep-copied as ``asdict`` copies them."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


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
        **_field_dict(cls),
        "nontrivial": is_nontrivial(doc.frame),
        "member_dims": [s.dim for s in doc.frame.subspaces],
    }


def _cmd_verify_dual(doc: ParsedDocument, args) -> dict:
    if doc.dual is None:
        raise DocumentError("verify-dual requires a dual section in the document")
    pair = doc._pair[0]
    ok, residual, recon = verify_dual(pair)
    return {"is_dual": ok, "residual": residual, "reconstruction": recon, "member_count": pair.member_count}


def _cmd_erasure(doc: ParsedDocument, args) -> dict:
    norm, subset = args.norm, args.fixed
    if subset is None:
        pair, dual_source = doc._pair
        report = worst_case_error(pair, 1 if args.r is None else args.r, norm)
        return {
            "mode": "worst",
            "r": report.r,
            "norm_kind": report.norm_kind,
            "dual_source": dual_source,
            "worst_value": report.worst_value,
            "argmax_subsets": [list(s) for s in report.argmax_subsets],
            "table": _Table({"subset": list(s), "value": v} for s, v in (report.per_subset_values or ())),
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

    pair, dual_source = doc._pair
    value = fusion_partial_error(pair, ErasureMask(pair.member_count, subset), norm)
    return {"mode": "fixed", "norm_kind": norm, "dual_source": dual_source, "subset": sorted(subset), "value": value}


def _cmd_certify(doc: ParsedDocument, args) -> dict:
    if args.which == "canonical":
        cert = certify_canonical_optimal(doc.frame, doc.tol)
    elif args.which == "dual":
        if doc.dual is None:
            raise DocumentError("certify --which dual requires a dual section in the document")
        cert = certify_dual_optimal(doc._pair[0])
    else:
        cert = certify_tight_uniform(doc._pair[0])
    return _field_dict(cert)


def _cmd_construct(doc: ParsedDocument, args) -> dict:
    if args.index is not None and args.what != "expand":
        raise DocumentError("construct --index applies to --what expand only")
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
        pair, dual_source = doc._pair
        variants = expand_optimal_family(pair, args.index)
        d1 = worst_case_error(pair, 1, "frobenius").worst_value if pair.member_count > 1 else None
        entries = []
        for vpair in variants:
            variant = vpair.dual_candidate
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

    # parseval-family: the dual section's members are the extensions, which carry no weights
    extensions = None if doc.dual is None else list(doc.dual.subspaces)
    for k, weight in enumerate(doc.dual.weights if doc.dual else ()):
        if abs(weight - 1.0) > doc.tol.residual_eps:
            raise DocumentError(f"dual.subspaces[{k}].weight: the Parseval family requires unit weights, got {weight:.12g}")
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


def _report(args) -> list[str]:
    """The report ``run`` returns, as the pieces that join to it."""
    doc = parse_document(args.file, args.tol)
    result = _COMMANDS[args.command](doc, args)
    if not args.json:
        return ["\n".join(_text(args.command, result))]
    result["frame_document"] = doc._frame_echo
    report = {
        "command": args.command,
        "input": {"path": str(args.file), "sha256": doc.sha256},
        "tolerance": {"rank_eps": doc.tol.rank_eps, "residual_eps": doc.tol.residual_eps},
        "result": result,
    }
    chunks: list[str] = []
    _json_chunks(report, 0, chunks)
    return chunks


def run(args) -> str:
    """Run one parsed command line; returns the text report, or the JSON one under ``--json``.

    The input is read once; only the JSON report echoes the frame document and the
    sha256 of those bytes. The bytes are hashed, the document's dual pair built and
    the echo encoded once per document ``parse_document`` keeps, so a later report
    on the same bytes and ``--tol`` only compares the bytes and reuses the rest.
    """
    return "".join(_report(args))


def _index_list(text: str) -> list[int]:
    """``--fixed``'s comma-separated integers; empty tokens are skipped, anything else non-integer is refused."""
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


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
    erasure.add_argument("--norm", choices=["frobenius", "operator"], default="frobenius")
    # default None, not 1: argparse lets a default-valued option pass its group, and int("1") is 1
    mode = erasure.add_mutually_exclusive_group()
    mode.add_argument("--r", type=int, default=None, help="erasure count for worst-case mode (default 1)")
    mode.add_argument(
        "--fixed",
        type=_index_list,
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
    """Run one command line; safe to call repeatedly in one process.

    The report is written to stdout piece by piece, as ``run`` would return it, then a newline.
    """
    args = _build_parser().parse_args(argv)
    try:
        chunks = _report(args)
    except (DocumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy names the allocation it could not make; Python's own MemoryError names nothing
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 1
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
