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
import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .discrete import (
    bridge_fusion_to_discrete,
    compact_nonzero,
    discrete_canonical_dual,
    halving_dual,
    verify_discrete_dual,
)
from .duality import DualPair, canonical_pair, make_dual_pair, verify_dual
from .erasures import (
    ErasureMask,
    discrete_worst_case,
    fusion_partial_error,
    partial_erasure_error,
    worst_case_error,
)
from .fusion import (
    FusionFrame,
    canonical_dual,
    classify,
    frame_operator,
    is_nontrivial,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    image_subspace,
    orthonormal_basis,
    spd_inv_sqrt,
)
from .optimality import (
    Certificate,
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
    # plain numbers convert in one call; anything else goes entry by entry for a located message
    if set(map(type, entry)) <= {int, float}:
        try:
            return np.array(entry, dtype=float)
        except OverflowError:
            pass
    return np.array([_scalar(v, f"{where}[{k}]") for k, v in enumerate(entry)])


def _subspace_family(entries, ambient_dim: int, tol: Tolerance, where: str, default_weights=None):
    if not isinstance(entries, list) or not entries:
        raise DocumentError(f"{where}: expected a non-empty list of subspaces")
    subspaces: list[Subspace] = []
    weights: list[float] = []
    for k, entry in enumerate(entries):
        spot = f"{where}[{k}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{spot}: expected an object with spanning_vectors")
        vecs = entry.get("spanning_vectors")
        if not isinstance(vecs, list) or not vecs:
            raise DocumentError(f"{spot}.spanning_vectors: expected a non-empty list")
        vectors = [_vector(v, ambient_dim, f"{spot}.spanning_vectors[{j}]") for j, v in enumerate(vecs)]
        subspaces.append(orthonormal_basis(vectors, tol, ambient_dim=ambient_dim))
        fallback = 1 if default_weights is None or k >= len(default_weights) else default_weights[k]
        weight = _scalar(entry.get("weight", fallback), f"{spot}.weight")
        if weight <= 0:
            raise DocumentError(f"{spot}.weight: must be positive")
        weights.append(weight)
    return subspaces, weights


def parse_document(path: str | Path, tol_override: float | None = None) -> ParsedDocument:
    """Parse a frame specification document from a JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise DocumentError(f"{path}: top level must be an object")

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
    if tol_raw:
        tol = Tolerance(
            rank_eps=_scalar(tol_raw.get("rank_eps", DEFAULT_TOL.rank_eps), "tolerance.rank_eps"),
            residual_eps=_scalar(
                tol_raw.get("residual_eps", DEFAULT_TOL.residual_eps), "tolerance.residual_eps"
            ),
        )
    if tol_override is not None:
        tol = Tolerance(rank_eps=tol_override, residual_eps=tol_override)

    subspaces, weights = _subspace_family(raw.get("subspaces"), ambient_dim, tol, "subspaces")
    frame = FusionFrame(ambient_dim, tuple(subspaces), tuple(weights))

    dual = None
    if "dual" in raw:
        dual_raw = raw["dual"]
        entries = dual_raw.get("subspaces") if isinstance(dual_raw, dict) else dual_raw
        # dual weights default to the corresponding primal weights
        dual_subs, dual_weights = _subspace_family(
            entries, ambient_dim, tol, "dual.subspaces", default_weights=weights
        )
        if len(dual_subs) != frame.member_count:
            raise DocumentError(
                f"dual.subspaces: member count {len(dual_subs)} does not match "
                f"the frame's {frame.member_count}"
            )
        dual = FusionFrame(ambient_dim, tuple(dual_subs), tuple(dual_weights))

    basis = None
    if "basis" in raw:
        rows = raw["basis"]
        if not isinstance(rows, list) or len(rows) != ambient_dim:
            raise DocumentError(f"basis: expected {ambient_dim} vectors")
        basis = np.vstack([_vector(v, ambient_dim, f"basis[{k}]") for k, v in enumerate(rows)])

    return ParsedDocument(frame=frame, dual=dual, basis=basis, tol=tol)


# --- report helpers ---------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _fmt_vector(v: np.ndarray) -> str:
    return "(" + ", ".join(_fmt(x) for x in v) + ")"


def _json_default(x):
    """``json.dumps`` hook for numpy values (``np.float64`` is a float) and frozensets."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, frozenset):
        return sorted(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _frame_document(frame: FusionFrame) -> dict:
    return {
        "ambient_dim": frame.ambient_dim,
        "field": "real",
        "subspaces": [
            {"weight": w, "spanning_vectors": s.basis.T.tolist()}
            for s, w in zip(frame.subspaces, frame.weights)
        ],
    }


def _certificate_dict(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "c_value": cert.c_value,
        "lambda1": list(cert.lambda1),
        "lambda2": list(cert.lambda2),
        "h1_dim": cert.h1_dim,
        "h2_dim": cert.h2_dim,
        "intersection_dim": cert.intersection_dim,
        "lambda_side_riesz": cert.lambda_side_riesz,
        "verdict": cert.verdict,
        "notes": cert.notes,
    }


def _certificate_lines(cert: Certificate) -> list[str]:
    return [
        f"certificate kind:    {cert.kind}",
        f"extremal value c:    {_fmt(cert.c_value)}",
        f"lambda1 (extremal):  {{{', '.join(map(str, cert.lambda1))}}}",
        f"lambda2 (rest):      {{{', '.join(map(str, cert.lambda2))}}}",
        f"span dims:           H1={cert.h1_dim}, H2={cert.h2_dim}, H1^H2={cert.intersection_dim}",
        f"riesz side:          {'lambda1' if cert.lambda_side_riesz else 'lambda2'}",
        f"verdict:             {cert.verdict}",
        f"notes:               {cert.notes}",
    ]


def _document_pair(doc: ParsedDocument) -> tuple[DualPair, str]:
    """The document's dual pair, or the canonical one; S_W^{-1} is inverted once."""
    if doc.dual is not None:
        return make_dual_pair(doc.frame, doc.dual, doc.tol), "file"
    return canonical_pair(doc.frame, doc.tol), "canonical"


# --- commands ---------------------------------------------------------------


def _cmd_classify(doc: ParsedDocument, args) -> tuple[dict, list[str]]:
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
    result = {
        "summary": summary,
        "is_frame": cls.is_frame,
        "lower_bound": cls.lower_bound,
        "upper_bound": cls.upper_bound,
        "is_tight": cls.is_tight,
        "is_parseval": cls.is_parseval,
        "is_riesz_fusion_basis": cls.is_riesz_fusion_basis,
        "is_orthonormal_fusion_basis": cls.is_orthonormal_fusion_basis,
        "nontrivial": is_nontrivial(doc.frame),
        "member_dims": [s.dim for s in doc.frame.subspaces],
    }
    lines = [
        f"classification:  {summary}",
        f"member dims:     {result['member_dims']}",
        f"bounds:          ({_fmt(cls.lower_bound)}, {_fmt(cls.upper_bound)})",
        f"nontrivial:      {'yes' if result['nontrivial'] else 'no'}",
    ]
    return result, lines


def _cmd_verify_dual(doc: ParsedDocument, args) -> tuple[dict, list[str]]:
    if doc.dual is None:
        raise DocumentError("verify-dual requires a dual section in the document")
    pair = make_dual_pair(doc.frame, doc.dual, doc.tol)
    ok, residual, recon = verify_dual(pair)
    result = {
        "is_dual": ok,
        "residual": residual,
        "reconstruction": recon,
        "member_count": pair.member_count,
    }
    lines = [
        f"dual verification: {'PASS' if ok else 'FAIL'}",
        f"residual:          {_fmt(residual)}",
        "reconstruction map:",
    ]
    lines += ["    [" + ", ".join(_fmt(x) for x in row) + "]" for row in recon]
    return result, lines


def _cmd_erasure(doc: ParsedDocument, args) -> tuple[dict, list[str]]:
    norm, subset = args.norm, args.fixed
    if subset is None:
        pair, dual_source = _document_pair(doc)
        report = worst_case_error(pair, args.r, norm)
        result = {
            "mode": "worst",
            "r": report.r,
            "norm_kind": report.norm_kind,
            "dual_source": dual_source,
            "worst_value": report.worst_value,
            "argmax_subsets": [list(s) for s in report.argmax_subsets],
            "table": [
                {"subset": list(s), "value": v} for s, v in (report.per_subset_values or ())
            ],
        }
        lines = [
            f"worst-case erasure error (r={report.r}, norm={report.norm_kind}, dual={dual_source})",
            f"worst value:  {_fmt(report.worst_value)}",
            "argmax sets:  " + ", ".join("{" + ", ".join(map(str, s)) + "}" for s in report.argmax_subsets),
        ]
        if report.per_subset_values:
            lines.append("per-subset values:")
            lines += [
                f"    {{{', '.join(map(str, s))}}}: {_fmt(v)}"
                for s, v in report.per_subset_values
            ]
        return result, lines

    repeated = sorted({i for i in subset if subset.count(i) > 1})
    if repeated:
        raise ValueError(f"--fixed repeats index {', '.join(map(str, repeated))}")
    if doc.basis is not None:
        # fixed erasures of a bridged frame: compare the canonical dual with
        # the halving construction on the same lost set
        bridged = bridge_fusion_to_discrete(doc.frame, doc.basis, "canonical_weighted", doc.tol)
        compacted, kept = compact_nonzero(bridged, doc.tol)
        mask = ErasureMask(compacted.count, subset)
        canonical = discrete_canonical_dual(compacted, doc.tol)
        value_canonical = partial_erasure_error(compacted, canonical, mask, norm)
        result = {
            "mode": "fixed-discrete",
            "norm_kind": norm,
            "subset": sorted(subset),
            "kept_raw_indices": list(kept),
            "canonical_value": value_canonical,
        }
        lines = [
            f"fixed erasure on bridged frame (norm={norm})",
            f"lost vectors:      {{{', '.join(map(str, sorted(subset)))}}} of {compacted.count}",
            f"canonical error:   {_fmt(value_canonical)}",
        ]
        try:
            halved = halving_dual(compacted, subset, doc.tol)
            value_halved = partial_erasure_error(compacted, halved, mask, norm)
            result["halving_feasible"] = True
            result["halved_value"] = value_halved
            result["ratio"] = value_canonical / value_halved if value_halved else float("inf")
            lines.append(f"halved-dual error: {_fmt(value_halved)}")
            lines.append(f"ratio:             {_fmt(result['ratio'])}")
        except ValueError as exc:
            result["halving_feasible"] = False
            result["halving_note"] = str(exc)
            lines.append(f"halving dual:      infeasible ({exc})")
        return result, lines

    pair, dual_source = _document_pair(doc)
    mask = ErasureMask(pair.member_count, subset)
    value = fusion_partial_error(pair, mask, norm)
    result = {
        "mode": "fixed",
        "norm_kind": norm,
        "dual_source": dual_source,
        "subset": sorted(subset),
        "value": value,
    }
    lines = [
        f"fixed erasure error (norm={norm}, dual={dual_source})",
        f"lost members: {{{', '.join(map(str, sorted(subset)))}}}",
        f"value:        {_fmt(value)}",
    ]
    return result, lines


def _cmd_certify(doc: ParsedDocument, args) -> tuple[dict, list[str]]:
    if args.which == "canonical":
        cert = certify_canonical_optimal(doc.frame, doc.tol)
    elif args.which == "dual":
        if doc.dual is None:
            raise DocumentError("certify --which dual requires a dual section in the document")
        pair = make_dual_pair(doc.frame, doc.dual, doc.tol)
        cert = certify_dual_optimal(pair)
    else:
        dual = doc.dual if doc.dual is not None else canonical_dual(doc.frame, doc.tol)
        cert = certify_tight_uniform(doc.frame, dual, doc.tol)
    return _certificate_dict(cert), _certificate_lines(cert)


def _frame_listing(vectors: np.ndarray, labels=None) -> list[str]:
    out = []
    for k, row in enumerate(vectors, start=1):
        tag = f"({labels[k - 1][0]},{labels[k - 1][1]})" if labels else str(k)
        out.append(f"    {tag}: {_fmt_vector(row)}")
    return out


def _cmd_construct(doc: ParsedDocument, args) -> tuple[dict, list[str]]:
    w = doc.frame
    if args.what == "bridge":
        basis = doc.basis if doc.basis is not None else np.eye(w.ambient_dim)
        bridged = bridge_fusion_to_discrete(w, basis, "canonical_weighted", doc.tol)
        compacted, kept = compact_nonzero(bridged, doc.tol)
        canonical = discrete_canonical_dual(compacted, doc.tol)
        result = {
            "what": "bridge",
            "raw_vectors": bridged.vectors,
            "raw_labels": [list(l) for l in bridged.labels],
            "compact_vectors": compacted.vectors,
            "kept_raw_indices": list(kept),
            "canonical_dual_vectors": canonical.vectors,
        }
        lines = ["bridged frame (raw, zero vectors flagged by omission below):"]
        lines += _frame_listing(bridged.vectors, bridged.labels)
        lines.append(f"nonzero vectors kept: {list(kept)}")
        lines.append("compacted frame:")
        lines += _frame_listing(compacted.vectors, compacted.labels)
        lines.append("canonical dual of the compacted frame:")
        lines += _frame_listing(canonical.vectors, canonical.labels)
        return result, lines

    if args.what == "expand":
        if args.index is None:
            raise DocumentError("construct --what expand requires --index")
        pair, dual_source = _document_pair(doc)
        variants = expand_optimal_family(pair, args.index)
        d1 = worst_case_error(pair, 1, "frobenius").worst_value if pair.member_count > 1 else None
        entries = []
        for variant in variants:
            vpair = make_dual_pair(w, variant, doc.tol)
            entry = {
                "member_dims": [s.dim for s in variant.subspaces],
                "member_vectors": [s.basis.T.tolist() for s in variant.subspaces],
                "residual": vpair.duality_residual,
            }
            if d1 is not None:
                entry["d1_frobenius"] = worst_case_error(vpair, 1, "frobenius").worst_value
            entries.append(entry)
        result = {
            "what": "expand",
            "index": args.index,
            "dual_source": dual_source,
            "variant_count": len(variants),
            "d1_frobenius_input": d1,
            "variants": entries,
        }
        lines = [f"expansion variants at member {args.index}: {len(variants)}"]
        if d1 is not None:
            lines.append(f"input worst single-erasure (frobenius): {_fmt(d1)}")
        for k, entry in enumerate(entries, start=1):
            lines.append(f"variant {k}: dims {entry['member_dims']}, residual {_fmt(entry['residual'])}")
            if "d1_frobenius" in entry:
                lines[-1] += f", d1 {_fmt(entry['d1_frobenius'])}"
        return result, lines

    # parseval-family
    if doc.dual is not None:
        extensions = list(doc.dual.subspaces)
    else:
        root_inv = spd_inv_sqrt(frame_operator(w), doc.tol)
        extensions = [image_subspace(root_inv, s, doc.tol) for s in w.subspaces]
    f, duals = parseval_optimal_family(w, extensions, doc.tol, basis=doc.basis)
    s_f = f.vectors.T @ f.vectors
    parseval_residual = float(np.linalg.norm(s_f - np.eye(w.ambient_dim), "fro"))
    compacted, kept = compact_nonzero(f, doc.tol)
    dual_entries = []
    for g in duals:
        ok, residual = verify_discrete_dual(f, g, doc.tol)
        d1 = discrete_worst_case(f, g, 1, "operator").worst_value
        dual_entries.append(
            {"vectors": g.vectors, "residual": residual, "is_dual": ok, "d1_operator": d1}
        )
    result = {
        "what": "parseval-family",
        "frame_vectors": f.vectors,
        "labels": [list(l) for l in f.labels],
        "compact_vectors": compacted.vectors,
        "kept_raw_indices": list(kept),
        "parseval_residual": parseval_residual,
        "duals": dual_entries,
    }
    lines = [
        f"parseval family (residual {_fmt(parseval_residual)}):",
        "frame vectors:",
    ]
    lines += _frame_listing(f.vectors, f.labels)
    for k, entry in enumerate(dual_entries, start=1):
        lines.append(
            f"dual {k}: residual {_fmt(entry['residual'])}, "
            f"worst single-erasure (operator) {_fmt(entry['d1_operator'])}"
        )
        lines += _frame_listing(entry["vectors"], f.labels)
    return result, lines


_COMMANDS = {
    "classify": _cmd_classify,
    "verify-dual": _cmd_verify_dual,
    "erasure": _cmd_erasure,
    "certify": _cmd_certify,
    "construct": _cmd_construct,
}


def run(args) -> str:
    """Run one parsed command line; returns the text report, or the JSON one under ``--json``.

    Only the JSON report echoes the frame document and the input's sha256.
    """
    doc = parse_document(args.file, args.tol)
    result, lines = _COMMANDS[args.command](doc, args)
    if not args.json:
        return "\n".join(lines)
    result["frame_document"] = _frame_document(doc.frame)
    digest = hashlib.sha256(Path(args.file).read_bytes()).hexdigest()
    report = {
        "command": args.command,
        "input": {"path": str(args.file), "sha256": digest},
        "tolerance": {"rank_eps": doc.tol.rank_eps, "residual_eps": doc.tol.residual_eps},
        "result": result,
    }
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default)


def _build_parser() -> argparse.ArgumentParser:
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
    parser = _build_parser()
    args = parser.parse_args(argv)
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
