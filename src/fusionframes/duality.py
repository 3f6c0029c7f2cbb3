"""Duality of fusion frames: verification, component-preserving checks, lifting.

A candidate family (V, v) is a dual of (W, w) when the reconstruction map
sum_i w_i v_i proj_{V_i} S_W^{-1} proj_{W_i} equals the identity. Candidates
need not themselves be fusion frames (zero members are allowed); the
verification residual is the only duality authority. Every pair reads
S_W^{-1} from the one spectrum of its primal.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .fusion import FusionFrame, _inverse, canonical_dual
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _frobenius_norms,
    image_subspace,
    orthonormal_bases,
    projector,
    subspaces_equal,
)

__all__ = [
    "DualPair",
    "make_dual_pair",
    "canonical_pair",
    "verify_dual",
    "reconstruction_matrix",
    "left_inverse_residual",
    "component_preserving_check",
    "lift_to_component_preserving",
]


@dataclass(frozen=True, eq=False)
class DualPair:
    """A fusion frame, a candidate dual family, and their error components.

    Built only by :func:`make_dual_pair`, at the tolerance ``tol`` that every
    analysis of the pair uses. ``s_inv`` is S_W^{-1}, and ``components`` is
    the read-only ``(m, n, n)`` stack whose row i - 1 is
    ``w_i v_i proj_{V_i} S_W^{-1} proj_{W_i}``; every erasure quantity of the
    pair is a sum or a norm of these rows. ``reconstruction`` is the rows
    added in member order onto a zero matrix, and ``duality_residual`` its
    Frobenius distance from the identity.
    """

    primal: FusionFrame
    dual_candidate: FusionFrame
    tol: Tolerance
    s_inv: np.ndarray
    components: np.ndarray
    reconstruction: np.ndarray
    duality_residual: float

    @property
    def member_count(self) -> int:
        return self.primal.member_count


def make_dual_pair(
    primal: FusionFrame, dual_candidate: FusionFrame, tol: Tolerance = DEFAULT_TOL
) -> DualPair:
    """Pair ``dual_candidate`` with ``primal``; S_W^{-1} comes from ``primal.spectrum``."""
    if primal.member_count != dual_candidate.member_count:
        raise ValueError(
            f"member counts differ: {primal.member_count} vs {dual_candidate.member_count}"
        )
    if primal.ambient_dim != dual_candidate.ambient_dim:
        raise ValueError("ambient dimension mismatch between primal and dual")
    s_inv = _inverse(primal, tol)
    n = primal.ambient_dim
    components = np.empty((primal.member_count, n, n))
    recon = np.zeros((n, n))
    members = zip(primal.subspaces, primal.weights, dual_candidate.subspaces, dual_candidate.weights)
    for row, (ws, ww, vs, vw) in enumerate(members):
        components[row] = ww * vw * projector(vs) @ s_inv @ projector(ws)
        recon += components[row]
    for a in (s_inv, components, recon):
        a.setflags(write=False)
    # squares beyond the float range are summed rescaled; only a non-finite entry gives inf or nan, which verify_dual refuses
    residual = float(_frobenius_norms((recon - np.eye(n))[None])[0])
    return DualPair(primal, dual_candidate, tol, s_inv, components, recon, residual)


def reconstruction_matrix(
    primal: FusionFrame, dual_candidate: FusionFrame, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """sum_i w_i v_i proj_{V_i} S_W^{-1} proj_{W_i} as a dense matrix."""
    return make_dual_pair(primal, dual_candidate, tol).reconstruction


def canonical_pair(w: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> DualPair:
    """The frame paired with its canonical dual."""
    return make_dual_pair(w, canonical_dual(w, tol), tol)


def verify_dual(pair: DualPair) -> tuple[bool, float, np.ndarray]:
    """Returns (passed, residual, reconstruction matrix), judged at the pair's residual_eps."""
    return pair.duality_residual <= pair.tol.residual_eps, pair.duality_residual, pair.reconstruction


def _require_verified(pair: DualPair) -> None:
    """Raise ValueError unless the pair passes :func:`verify_dual`."""
    ok, residual, _ = verify_dual(pair)
    if not ok:
        raise ValueError(f"pair is not a verified dual (residual {residual:.3e})")


def left_inverse_residual(a: np.ndarray, w: FusionFrame) -> float:
    """Frobenius distance of sum_i a_i w_i proj_{W_i} from the identity.

    ``a`` is a map f -> sum_i a_i (w_i proj_{W_i} f) as an ``(m, n, n)`` block
    stack; it is a left inverse of the analysis map when the distance is 0.
    """
    a = np.asarray(a, dtype=float)
    n = w.ambient_dim
    if a.shape != (w.member_count, n, n):
        raise ValueError(f"left inverse must be a {w.member_count} x {n} x {n} block stack, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("left inverse has non-finite entries")
    total = np.zeros((n, n))
    for block, sub, weight in zip(a, w.subspaces, w.weights):
        total += block @ (weight * projector(sub))
    return float(_frobenius_norms((total - np.eye(n))[None])[0])


def component_preserving_check(
    w: FusionFrame,
    v: FusionFrame,
    a: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """True iff block a_j maps W_j onto V_j (mutual containment) for every j."""
    residual = left_inverse_residual(a, w)
    if residual > tol.residual_eps:
        raise ValueError(
            f"the map is not a left inverse of the analysis operator (residual {residual:.3e})"
        )
    if v.member_count != w.member_count:
        raise ValueError("member counts differ")
    for block, ws, vs in zip(a, w.subspaces, v.subspaces):
        if not subspaces_equal(image_subspace(block, ws, tol), vs, tol):
            return False
    return True


def lift_to_component_preserving(pair: DualPair) -> FusionFrame:
    """Replace each dual member by the image of S_W^{-1} W_i under proj_{V_i}.

    The lifted family keeps the dual weights, is again a valid dual, and has
    exactly the same per-component error operators as the input pair.
    """
    _require_verified(pair)
    n = pair.primal.ambient_dim
    blocks = [
        ((projector(vs) @ pair.s_inv) @ ws.basis).T
        for ws, vs in zip(pair.primal.subspaces, pair.dual_candidate.subspaces)
    ]
    lifted = orthonormal_bases(blocks, pair.tol, ambient_dim=n)
    return FusionFrame(n, tuple(lifted), pair.dual_candidate.weights)
