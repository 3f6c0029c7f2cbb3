"""Optimality certificates and constructive optimal-dual families.

Optimality is certified through sufficient conditions or refuted by
exhibiting a better dual from a probe family; nothing here ever claims
global optimality from search alone, since the set of duals is infinite.
A certificate verdict of ``not_applicable`` means the hypotheses failed,
not that the dual is suboptimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discrete import (
    DiscreteFrame,
    _bridge_rows,
    _check_orthonormal_basis,
    _whitened_members,
    bridge_fusion_to_discrete,
    discrete_canonical_dual,
    dual_from_perturbation,
    verify_discrete_dual,
)
from .duality import (
    DualPair,
    _require_verified,
    canonical_pair,
    lift_to_component_preserving,
    make_dual_pair,
    verify_dual,
)
from .erasures import (
    _TIE_REL,
    block_mask,
    discrete_worst_case,
    partial_erasure_error,
    worst_case_error,
)
from .fusion import (
    FusionFrame,
    _image_frame,
    _inverse,
    classify,
    is_nontrivial,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    frobenius_norm,
    image_subspace,
    orthogonal_complement,
    projector,
    subspace_contains,
    subspace_intersection,
    subspace_sum,
    subspaces_equal,
    zero_subspace,
)

__all__ = [
    "Certificate",
    "certify_canonical_optimal",
    "certify_dual_optimal",
    "certify_tight_uniform",
    "expand_optimal_family",
    "parseval_optimal_family",
    "riesz_bridge_partial_optimal",
    "transport_by_unitary",
    "probe_duals",
]


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of a sufficient-condition optimality check.

    ``lambda1`` collects the members attaining the extremal single-erasure
    value ``c_value``; ``lambda2`` is the rest. ``lambda_side_riesz`` is True
    when the Riesz hypothesis was checked on the lambda1 side (dual-family
    certificate) and False when on the lambda2 side (canonical certificate).
    """

    kind: str
    c_value: float
    lambda1: tuple[int, ...]
    lambda2: tuple[int, ...]
    h1_dim: int
    h2_dim: int
    intersection_dim: int
    lambda_side_riesz: bool
    verdict: str
    notes: str


def _argmax_split(values: Sequence[float]) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    c = max(values)
    lambda1 = tuple(i for i, v in enumerate(values, start=1) if v >= c * (1.0 - _TIE_REL))
    lambda2 = tuple(i for i in range(1, len(values) + 1) if i not in lambda1)
    return float(c), lambda1, lambda2


def _span_of_members(w: FusionFrame, indices: Sequence[int], tol: Tolerance) -> Subspace:
    return subspace_sum([w.subspaces[i - 1] for i in indices], tol, ambient_dim=w.ambient_dim)


def _nontriviality_note(w: FusionFrame) -> str:
    return "nontrivial fusion frame" if is_nontrivial(w) else "trivial fusion frame (some member is the whole space)"


def _split_certificate(
    w: FusionFrame, values: Sequence[float], tol: Tolerance, kind: str, riesz_on_extremal: bool, success: str
) -> Certificate:
    """The 1-loss certificate shared by the canonical and dual-family checks.

    Splits the members at the extremal single-erasure value into lambda1 and
    lambda2, and requires that their spans intersect trivially and that the
    members on the Riesz side (lambda1 when ``riesz_on_extremal``, else
    lambda2) sum directly in their span.
    """
    c, lambda1, lambda2 = _argmax_split(values)
    h1 = _span_of_members(w, lambda1, tol)
    h2 = _span_of_members(w, lambda2, tol)
    inter = subspace_intersection(h1, h2, tol)
    side, span, name = (lambda1, h1, "extremal") if riesz_on_extremal else (lambda2, h2, "complementary")
    dims_add = sum(w.subspaces[i - 1].dim for i in side) == span.dim
    overlap = [f"extremal and complementary spans overlap ({inter.dim}-dimensional)"] if inter.dim > 0 else []
    direct = [] if dims_add else [f"{name} members do not sum directly in their span"]
    reasons = direct + overlap if riesz_on_extremal else overlap + direct
    notes = "; ".join(reasons) if reasons else success
    return Certificate(
        kind=kind,
        c_value=c,
        lambda1=lambda1,
        lambda2=lambda2,
        h1_dim=h1.dim,
        h2_dim=h2.dim,
        intersection_dim=inter.dim,
        lambda_side_riesz=riesz_on_extremal,
        verdict="not_applicable" if reasons else "certified_optimal",
        notes=f"{notes}; {_nontriviality_note(w)}",
    )


def certify_canonical_optimal(w: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Certify the canonical dual as a 1-loss optimal dual.

    Hypotheses checked: the spans of the extremal and non-extremal members
    intersect trivially, and the non-extremal members form a Riesz fusion
    basis of their span (dimension count). When both hold the canonical dual
    is optimal, though never the unique one.
    """
    s_inv = _inverse(w, tol)
    values = [
        weight**2 * frobenius_norm(s_inv @ projector(sub))
        for sub, weight in zip(w.subspaces, w.weights)
    ]
    success = "canonical dual certified 1-loss optimal (not unique)"
    return _split_certificate(w, values, tol, "canonical", False, success)


def certify_dual_optimal(pair: DualPair) -> Certificate:
    """Certify a verified dual pair as 1-loss optimal.

    Unlike the canonical certificate, the Riesz hypothesis here sits on the
    extremal side: the members attaining the worst single-erasure value must
    form a Riesz fusion basis of their span, and that span must intersect
    the complementary span trivially. Member i's single-erasure value is the
    Frobenius norm of the pair's component w_i v_i proj_{V_i} S_W^{-1} proj_{W_i}.
    """
    _require_verified(pair)
    values = [frobenius_norm(e) for e in pair.components]
    success = "dual family certified 1-loss optimal"
    return _split_certificate(pair.primal, values, pair.tol, "dual_family", True, success)


def certify_tight_uniform(pair: DualPair) -> Certificate:
    """Certify every mildly-weighted dual of a tight frame with uniform member size.

    Requires, for the pair's frame w and dual v: w tight, w_i^2 * sqrt(dim W_i)
    constant across members, v a verified dual, and max(v_i / w_i) <= 1. The
    certified dual's worst single-erasure Frobenius error is recorded in the
    notes together with the bound c / alpha.
    """
    w, v, tol = pair.primal, pair.dual_candidate, pair.tol
    cls = classify(w, tol)
    reasons = []
    alpha = cls.lower_bound
    if not cls.is_tight:
        reasons.append(f"frame is not tight (bounds {cls.lower_bound:.6g}, {cls.upper_bound:.6g})")
    member_values = [
        weight**2 * np.sqrt(sub.dim) for sub, weight in zip(w.subspaces, w.weights)
    ]
    c = float(max(member_values))
    spread = c - float(min(member_values))
    if spread > tol.residual_eps * c:
        reasons.append("member value w_i^2 sqrt(dim W_i) is not constant")
    ok, residual, _ = verify_dual(pair)
    if not ok:
        reasons.append(f"dual verification failed (residual {residual:.3e})")
    ratio = max(vw / ww for ww, vw in zip(w.weights, v.weights))
    if ratio > 1.0 + tol.residual_eps:
        reasons.append(f"max dual/primal weight ratio {ratio:.6g} exceeds 1")
    certified = not reasons
    if certified:
        note = f"certified; bound c/alpha = {c / alpha:.12g}"
        if w.member_count >= 2:
            d1 = worst_case_error(pair, 1, "frobenius").worst_value
            note += f"; worst single-erasure Frobenius error {d1:.12g}"
    else:
        note = "; ".join(reasons)
    m = w.member_count
    return Certificate(
        kind="tight_uniform",
        c_value=c,
        lambda1=tuple(range(1, m + 1)),
        lambda2=(),
        h1_dim=w.ambient_dim,
        h2_dim=0,
        intersection_dim=0,
        lambda_side_riesz=False,
        verdict="certified_optimal" if certified else "not_applicable",
        notes=f"{note}; {_nontriviality_note(w)}",
    )


def expand_optimal_family(pair: DualPair, i: int) -> list[FusionFrame]:
    """All single-member rewrites of an optimal dual that keep every erasure value.

    At member ``i`` (1-based) this emits, when applicable: the zero-member
    variant (dual member equals the complement of the canonical member), the
    trimmed variant (complement properly contained in the dual member), and
    one enlarged variant per direction orthogonal to both the dual member and
    the canonical member. Every emitted family is re-verified as a dual, and its
    component stack must lie within ``residual_eps`` of the input's (Frobenius),
    since equal components give equal erasure values for every r and both
    norms; an empty list means no variant applies.
    """
    _require_verified(pair)
    tol = pair.tol
    w = pair.primal
    v = pair.dual_candidate
    ws, _ = w.member(i)
    vs, _ = v.member(i)
    canonical_i = image_subspace(pair.s_inv, ws, tol)
    comp = orthogonal_complement(canonical_i)

    variants: list[FusionFrame] = []
    if comp.dim > 0 and subspace_contains(vs, comp, tol):
        if subspaces_equal(comp, vs, tol):
            variants.append(v.replace_member(i, zero_subspace(w.ambient_dim)))
        else:
            trimmed = subspace_intersection(canonical_i, vs, tol)
            variants.append(v.replace_member(i, trimmed))
    extension_room = subspace_intersection(orthogonal_complement(vs), comp, tol)
    for k in range(extension_room.dim):
        direction = Subspace(w.ambient_dim, extension_room.basis[:, k : k + 1])
        enlarged = subspace_sum([vs, direction], tol)
        variants.append(v.replace_member(i, enlarged))

    for variant in variants:
        new_pair = make_dual_pair(w, variant, tol)
        ok, residual, _ = verify_dual(new_pair)
        if not ok:
            raise ArithmeticError(f"emitted variant failed dual verification ({residual:.3e})")
        drift = float(np.linalg.norm(new_pair.components - pair.components))
        if drift > tol.residual_eps:
            raise ArithmeticError(f"emitted variant changed the error components (distance {drift:.3e})")
    return variants


def _pick_and_complete_basis(
    members: Sequence[Subspace], ambient_dim: int, tol: Tolerance
) -> np.ndarray:
    """One normalized representative per member, completed to an orthonormal basis.

    The representative of each member is the projection of the first standard
    basis direction that meets it; the rows after them are the basis of the
    :func:`orthogonal_complement` of their span. Deterministic so constructed
    fixtures are reproducible.
    """
    eye = np.eye(ambient_dim)
    chosen: list[np.ndarray] = []
    for s in members:
        p = projector(s)
        for k in range(ambient_dim):
            cand = p @ eye[k]
            norm = float(np.linalg.norm(cand))
            if norm > tol.rank_eps:
                chosen.append(cand / norm)
                break
        else:
            raise ValueError("a member has no nonzero projection of any coordinate direction")
    rest = orthogonal_complement(Subspace(ambient_dim, np.array(chosen).T))
    return np.vstack([*chosen, *rest.basis.T])


def parseval_optimal_family(
    w: FusionFrame,
    extensions: Sequence[Subspace] | None = None,
    tol: Tolerance = DEFAULT_TOL,
    basis: Sequence | None = None,
) -> tuple[DiscreteFrame, list[DiscreteFrame], float, list[tuple[bool, float, float]]]:
    """Parseval frame from a unit-weight Riesz fusion basis, with optimal duals.

    Emits F built from projections of an orthonormal basis onto the
    whitened members, plus two duals: the canonical dual of F and the dual
    built from ``extensions`` (members must contain the whitened subspaces;
    omitted, they are the whitened subspaces themselves).
    When ``basis`` is omitted it is constructed deterministically with one
    representative inside each whitened member, which guarantees the unit
    worst single-erasure error; an explicit basis is validated against the
    same property.

    Returns ``(F, duals, parseval_residual, checks)`` with the values found
    while checking the output: F's residual as its own dual, and per dual
    ``(passed, residual, d1)`` from :func:`verify_discrete_dual` and the
    worst single-erasure operator-norm error.
    """
    cls = classify(w, tol)
    if not cls.is_riesz_fusion_basis:
        raise ValueError("the family is not a Riesz fusion basis")
    if any(abs(weight - 1.0) > tol.residual_eps for weight in w.weights):
        raise ValueError("unit weights are required")
    if extensions is not None and len(extensions) != w.member_count:
        raise ValueError("one extension subspace per member is required")
    whitened = _whitened_members(w, tol)
    if extensions is None:
        extensions = whitened
    for idx, (inner, outer) in enumerate(zip(whitened, extensions), start=1):
        if not subspace_contains(outer, inner, tol):
            raise ValueError(f"extension {idx} does not contain the whitened member")
    if basis is None:
        basis = _pick_and_complete_basis(whitened, w.ambient_dim, tol)
    b = _check_orthonormal_basis(basis, w.ambient_dim, tol)
    ones = [1.0] * w.member_count
    # the rows of bridge_fusion_to_discrete's parseval_sqrt mode, from the members whitened above
    f = _bridge_rows(whitened, ones, b)
    parseval_residual = verify_discrete_dual(f, f, tol)[1]  # F is its own dual iff Parseval
    if parseval_residual > max(tol.residual_eps, 1e-9):
        raise ArithmeticError("bridged frame is not Parseval")
    duals = [
        discrete_canonical_dual(f, tol),
        _bridge_rows(extensions, ones, b),
    ]
    checks = []
    for g in duals:
        ok, residual = verify_discrete_dual(f, g, tol)
        if not ok:
            raise ArithmeticError(f"emitted dual failed verification (residual {residual:.3e})")
        d1 = discrete_worst_case(f, g, 1, "operator", tol).worst_value
        if abs(d1 - 1.0) > max(tol.residual_eps, 1e-9):
            raise ValueError(
                f"basis does not attain unit worst single-erasure error (got {d1!r})"
            )
        checks.append((ok, residual, d1))
    return f, duals, parseval_residual, checks


def riesz_bridge_partial_optimal(
    w: FusionFrame,
    basis: Sequence,
    u: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> list[tuple[float, float]]:
    """Block erasure errors of the dual perturbed by ``u`` versus the canonical dual.

    For a Riesz fusion basis, every dual of the bridged frame has the same
    error on each member block; the returned per-member pairs (perturbed,
    canonical) therefore agree to numerical precision.
    """
    if not classify(w, tol).is_riesz_fusion_basis:
        raise ValueError("the family is not a Riesz fusion basis")
    f = bridge_fusion_to_discrete(w, basis, "canonical_weighted", tol)
    g = dual_from_perturbation(f, u, tol)
    canonical = discrete_canonical_dual(f, tol)
    out: list[tuple[float, float]] = []
    for i in range(1, w.member_count + 1):
        mask = block_mask(f, i)
        out.append(
            (
                partial_erasure_error(f, g, mask, "frobenius"),
                partial_erasure_error(f, canonical, mask, "frobenius"),
            )
        )
    return out


def transport_by_unitary(pair: DualPair, u: np.ndarray) -> DualPair:
    """Transport a dual pair by a unitary map; every erasure value is preserved.

    ``u`` is refused unless it passes the bridge's orthonormal-basis test (U U^T = I).
    """
    tol = pair.tol
    u = _check_orthonormal_basis(u, pair.primal.ambient_dim, tol)
    return make_dual_pair(_image_frame(u, pair.primal, tol), _image_frame(u, pair.dual_candidate, tol), tol)


def probe_duals(
    w: FusionFrame, count: int, rng: np.random.Generator, tol: Tolerance = DEFAULT_TOL
) -> list[FusionFrame]:
    """Randomized family of verified duals of ``w`` used to challenge optimality claims.

    Draws member-wise enlargements of the canonical dual by directions
    orthogonal to the canonical members, the applicable single-member
    variants from :func:`expand_optimal_family`, and component-preserving
    lifts. Refutation by a probe is sound; exhausting probes without finding
    a better dual is inconclusive.
    """
    base = canonical_pair(w, tol)
    canonical_members = base.dual_candidate.subspaces
    probes: list[FusionFrame] = [base.dual_candidate]
    m = w.member_count
    while len(probes) < count:
        mode = rng.integers(0, 3)
        if mode == 0:
            members = []
            for can in canonical_members:
                comp = orthogonal_complement(can)
                if comp.dim > 0 and rng.random() < 0.6:
                    coeffs = rng.standard_normal(comp.dim)
                    direction = comp.basis @ coeffs
                    extra = Subspace(
                        w.ambient_dim,
                        (direction / np.linalg.norm(direction)).reshape(-1, 1),
                    )
                    members.append(subspace_sum([can, extra], tol))
                else:
                    members.append(can)
            probes.append(FusionFrame(w.ambient_dim, tuple(members), base.dual_candidate.weights))
        elif mode == 1 and probes:
            source = make_dual_pair(w, probes[int(rng.integers(0, len(probes)))], tol)
            variants = expand_optimal_family(source, int(rng.integers(1, m + 1)))
            probes.extend(variants[: max(0, count - len(probes))])
        else:
            source = make_dual_pair(w, probes[int(rng.integers(0, len(probes)))], tol)
            probes.append(lift_to_component_preserving(source))
    return probes[:count]
