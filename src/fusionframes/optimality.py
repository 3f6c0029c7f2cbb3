"""Optimality certificates and constructive optimal-dual families.

Optimality is established only by certificates, sufficient conditions
checked on the frame; nothing here claims optimality from search or
sampling, since the set of duals is infinite. A certificate verdict of
``not_applicable`` means the hypotheses failed, not that the dual is
suboptimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discrete import (
    DiscreteFrame,
    _bridge_rows,
    _check_orthonormal_basis,
    discrete_canonical_dual,
    verify_discrete_dual,
)
from .duality import (
    DualPair,
    _require_verified,
    make_dual_pair,
    verify_dual,
)
from .erasures import (
    _TIE_REL,
    _member_norms,
    discrete_worst_case,
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
    _frobenius_norms,
    image_subspace,
    orthogonal_complement,
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
    "transport_by_unitary",
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
    extremal = set(lambda1)
    lambda2 = tuple(i for i in range(1, len(values) + 1) if i not in extremal)
    return float(c), lambda1, lambda2


def _span_dim(w: FusionFrame, indices: Sequence[int], tol: Tolerance) -> int:
    """Dimension of the members' span: singular values of their stacked basis rows above ``rank_eps``.

    The N x n stack R of the members' basis rows, gathered from the frame's
    basis stack without its padding, is first screened on its
    Gram: when N >= n and ``cholesky(fl(R^T R) - tau I)`` succeeds, the count
    is n and no SVD is taken. Otherwise the SVD counts. The screen only ever
    answers "full"; it never counts a deficient rank from the Gram, whose
    rounding (about eps N) hides every singular value below about sqrt(eps N).

    Slack: let u = eps / 2. Every row is a unit vector within 16 n eps, so
    ||R||_F^2 is about N. (i) The SVD returns the exact singular values of
    some R + E with ||E||_2 <= p u ||R||_2, p a modest function of N and n;
    for p <= 4 n N that is at most delta = 2 n N^(3/2) eps, so by Weyl's
    inequality the SVD counts all n values once sigma_min(R) exceeds
    rank_eps + delta. (ii) The Gram rounds to R^T R + F with
    |F| <= gamma_N |R|^T |R|, so ||F||_2 <= gamma_N ||R||_F^2, about N^2 u.
    (iii) A Cholesky that succeeds on A = fl(Gram - tau I) returns C with
    C^T C = A + D and |D| <= gamma_(n+1) |C|^T |C| (Higham, Thm 10.3), so
    lambda_min(A) >= -||D||_2 >= -gamma_(n+1) tr(C^T C), about -(n + 1) N u;
    squaring the cutoff and shifting the diagonal round tau by about 3 u tau.
    Success thus gives lambda_min(R^T R) >= tau - (N + n + 1) N u - 3 u tau,
    and since it needs tau below tr(Gram) / n, about N / n, that is above
    (rank_eps + delta)^2 for ``tau = (rank_eps + delta)^2 + 4 (n^2 + N) N eps``:
    the screen returns n only where the SVD would, at any ``rank_eps``. One
    too large to square makes tau infinite, and the Cholesky fails at once.
    """
    n, stack = w.ambient_dim, w._basis_stack
    sel = np.asarray(indices, dtype=np.intp) - 1
    # row (at, col) is column col of member sel[at]'s basis, member by member as their rows stack
    at, col = (np.arange(stack.shape[2]) < w._member_dims[sel, None]).nonzero()
    rows = np.ascontiguousarray(stack[sel[at], :, col])
    big_n = len(rows)
    if big_n >= n:
        eps = float(np.finfo(float).eps)
        cutoff = tol.rank_eps + 2 * n * big_n**1.5 * eps
        shifted = rows.T @ rows
        shifted.flat[:: n + 1] -= cutoff * cutoff + 4 * (n * n + big_n) * big_n * eps
        try:
            np.linalg.cholesky(shifted)
            return n
        except np.linalg.LinAlgError:
            pass
    return int(np.sum(np.linalg.svd(rows, compute_uv=False) > tol.rank_eps))


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
    h1 = _span_dim(w, lambda1, tol)
    h2 = _span_dim(w, lambda2, tol)
    # both callers passed the frame test, so the members together span R^n and h1 + h2 >= n
    inter = h1 + h2 - w.ambient_dim
    side, span_dim, name = (lambda1, h1, "extremal") if riesz_on_extremal else (lambda2, h2, "complementary")
    dims_add = sum(w.subspaces[i - 1].dim for i in side) == span_dim
    overlap = [f"extremal and complementary spans overlap ({inter}-dimensional)"] if inter > 0 else []
    direct = [] if dims_add else [f"{name} members do not sum directly in their span"]
    reasons = direct + overlap if riesz_on_extremal else overlap + direct
    notes = "; ".join(reasons) if reasons else success
    return Certificate(
        kind=kind,
        c_value=c,
        lambda1=lambda1,
        lambda2=lambda2,
        h1_dim=h1,
        h2_dim=h2,
        intersection_dim=inter,
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
    stack, dims = w._basis_stack, w._member_dims
    # ||S_W^{-1} P_{W_i}||_F = ||S_W^{-1} B_i||_F, as P_{W_i} = B_i B_i^T: one batched product per member
    # dimension k, each n x k product measured unpadded, as it rounds alone; the kernel rescales squares
    # past the float range
    norms = np.empty(w.member_count)
    for k in set(dims.tolist()):
        sel = dims == k
        norms[sel] = _frobenius_norms(s_inv @ (stack[:, :, :k] if sel.all() else stack[sel, :, :k]))
    if not np.isfinite(norms).all():
        raise ValueError("matrix has non-finite entries")
    values = [weight**2 * norm for weight, norm in zip(w.weights, norms.tolist())]
    success = "canonical dual certified 1-loss optimal (not unique)"
    return _split_certificate(w, values, tol, "canonical", False, success)


def certify_dual_optimal(pair: DualPair) -> Certificate:
    """Certify a verified dual pair as 1-loss optimal.

    Unlike the canonical certificate, the Riesz hypothesis here sits on the
    extremal side: the members attaining the worst single-erasure value must
    form a Riesz fusion basis of their span, and that span must intersect
    the complementary span trivially. Member i's single-erasure value is the
    Frobenius norm of the pair's component w_i v_i proj_{V_i} S_W^{-1} proj_{W_i},
    measured in member coordinates as ``worst_case_error(pair, 1, "frobenius")``
    measures it, so ``c_value`` is that report's worst value.
    """
    _require_verified(pair)
    values = _member_norms(pair, "frobenius").tolist()
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


def expand_optimal_family(pair: DualPair, i: int) -> list[DualPair]:
    """All single-member rewrites of an optimal dual that keep every erasure value.

    At member ``i`` (1-based) this emits, when applicable: the zero-member
    variant (dual member equals the complement of the canonical member), the
    trimmed variant (complement properly contained in the dual member), and
    one enlarged variant per direction orthogonal to both the dual member and
    the canonical member. Every emitted family is re-verified as a dual, and its
    component stack must lie within ``residual_eps`` of the input's (Frobenius),
    since equal components give equal erasure values for every r and both
    norms. Returns the verified pair of the frame with each variant (its
    ``dual_candidate``); an empty list means no variant applies.
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

    pairs = [make_dual_pair(w, variant, tol) for variant in variants]
    for new_pair in pairs:
        ok, residual, _ = verify_dual(new_pair)
        if not ok:
            raise ArithmeticError(f"emitted variant failed dual verification ({residual:.3e})")
        drift = float(np.linalg.norm(new_pair.components - pair.components))
        if drift > tol.residual_eps:
            raise ArithmeticError(f"emitted variant changed the error components (distance {drift:.3e})")
    return pairs


def _whitened_members(w: FusionFrame, tol: Tolerance) -> tuple[Subspace, ...]:
    """The members S_W^{-1/2} W_i; for a Riesz fusion basis they are mutually orthogonal."""
    return _image_frame(_inverse(w, tol, root=True), w, tol).subspaces


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
    When ``basis`` is omitted its first rows are the first basis vector of
    each nonzero whitened member, one representative inside each, which
    guarantees the unit worst single-erasure error; the rest is an
    orthonormal basis of the complement of their span. An explicit basis is
    validated against the same property.

    Returns ``(F, duals, parseval_residual, checks)`` with the values found
    while checking the output: F's residual as its own dual, and per dual
    ``(passed, residual, d1)`` from :func:`verify_discrete_dual` and the
    worst single-erasure operator-norm error.
    """
    if w.ambient_dim < 2:
        raise ValueError(f"nothing to erase: the Parseval family needs ambient_dim >= 2, got {w.ambient_dim}")
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
        # the representatives are orthogonal only to about eps cond(S_W), so their
        # complement comes straight from the SVD; the whole basis is checked below
        chosen = np.array([s.basis[:, 0] for s in whitened if not s.is_zero])
        u, _, _ = np.linalg.svd(chosen.T, full_matrices=True)
        basis = np.vstack([chosen, u[:, len(chosen) :].T])
    b = _check_orthonormal_basis(basis, w.ambient_dim, tol)
    ones = [1.0] * w.member_count
    # rows proj_{S_W^{-1/2} W_i} e_j, from the members whitened above
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


def transport_by_unitary(pair: DualPair, u: np.ndarray) -> DualPair:
    """Transport a dual pair by a unitary map; every erasure value is preserved.

    ``u`` is refused unless it passes the bridge's orthonormal-basis test (U U^T = I).
    """
    tol = pair.tol
    u = _check_orthonormal_basis(u, pair.primal.ambient_dim, tol, "u")
    return make_dual_pair(_image_frame(u, pair.primal, tol), _image_frame(u, pair.dual_candidate, tol), tol)
