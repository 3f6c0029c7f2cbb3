"""Discrete frames, their duals, and the fusion-to-discrete bridge.

Bridged frames carry one vector per (member, basis-direction) pair, with
1-based ``(i, j)`` labels recording provenance. Zero vectors produced by the
bridge are kept so that block erasure masks line up with the labels; reports
can render a compacted view via :func:`compact_nonzero`. A discrete frame
decomposes S_F once, in ``DiscreteFrame.spectrum``, and forms S_F^{-1} and the
canonical dual {S_F^{-1} f_k} from it once, which every dual reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

from .fusion import FusionFrame, _image_frame, _inverse, _Spectral
from .linalg import DEFAULT_TOL, Subspace, Tolerance, projector

__all__ = [
    "DiscreteFrame",
    "discrete_frame",
    "discrete_frame_operator",
    "discrete_canonical_dual",
    "verify_discrete_dual",
    "perturbation_residual",
    "dual_from_perturbation",
    "synthesis_nullspace",
    "bridge_fusion_to_discrete",
    "bridge_dual_to_discrete",
    "compact_nonzero",
    "halving_perturbation",
    "halving_dual",
]

BridgeMode = Literal["canonical_weighted", "parseval_sqrt"]


@dataclass(frozen=True, eq=False)
class DiscreteFrame(_Spectral):
    """Finite vector family in R^ambient_dim; rows of ``vectors`` are the frame vectors."""

    ambient_dim: int
    vectors: np.ndarray
    labels: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.ambient_dim:
            raise ValueError(f"vectors must form an m x {self.ambient_dim} array, got {v.shape}")
        if v.size and not np.all(np.isfinite(v)):
            raise ValueError("frame vectors have non-finite entries")
        if self.labels is not None and len(self.labels) != v.shape[0]:
            raise ValueError("label count does not match vector count")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple((int(i), int(j)) for i, j in self.labels))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def _operator(self) -> np.ndarray:
        return discrete_frame_operator(self)

    @cached_property
    def _canonical_dual(self) -> "DiscreteFrame":
        return DiscreteFrame(self.ambient_dim, self.vectors @ self._s_inv, self.labels)


def discrete_frame(vectors: Sequence, labels=None) -> DiscreteFrame:
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a sequence of equal-length vectors")
    return DiscreteFrame(arr.shape[1], arr, labels)


def discrete_frame_operator(f: DiscreteFrame) -> np.ndarray:
    """S_F = sum of f_k f_k^T."""
    return f.vectors.T @ f.vectors


def discrete_canonical_dual(f: DiscreteFrame, tol: Tolerance = DEFAULT_TOL) -> DiscreteFrame:
    """Canonical dual {S_F^{-1} f_k}, labels preserved: formed once per frame, handed out after the frame test at ``tol``."""
    _inverse(f, tol)
    return f._canonical_dual


def verify_discrete_dual(
    f: DiscreteFrame, g: DiscreteFrame, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, float]:
    """Check sum g_k f_k^T = I; returns (passed, Frobenius residual)."""
    if f.count != g.count:
        raise ValueError(f"frame lengths differ: {f.count} vs {g.count}")
    if f.ambient_dim != g.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    recon = g.vectors.T @ f.vectors
    residual = float(np.linalg.norm(recon - np.eye(f.ambient_dim), "fro"))
    return residual <= tol.residual_eps, residual


def perturbation_residual(f: DiscreteFrame, u: np.ndarray) -> float:
    """Frobenius norm of sum u_k f_k^T for a perturbation {u_k} (rows of a count x n array).

    Zero exactly for a valid perturbation of the canonical dual.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != f.vectors.shape:
        raise ValueError(f"perturbation must be a {f.count} x {f.ambient_dim} array, got {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("perturbation has non-finite entries")
    return float(np.linalg.norm(u.T @ f.vectors, "fro"))


def dual_from_perturbation(
    f: DiscreteFrame, u: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> DiscreteFrame:
    """Dual {S_F^{-1} f_k + u_k}; rejects perturbations outside the synthesis nullspace."""
    residual = perturbation_residual(f, u)
    if residual > tol.residual_eps:
        raise ValueError(
            f"perturbation violates the dual relation (residual {residual:.3e})"
        )
    return DiscreteFrame(f.ambient_dim, discrete_canonical_dual(f, tol).vectors + u, f.labels)


def synthesis_nullspace(f: DiscreteFrame, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of {c : sum c_k f_k = 0}.

    Every valid perturbation has all of its coordinate columns in this space,
    so random duals are draws U = N C with arbitrary coefficient matrices C.
    """
    _, svals, vh = np.linalg.svd(f.vectors.T, full_matrices=True)
    rank = int(np.sum(svals > tol.rank_eps * svals.max(initial=0.0)))
    return vh[rank:].T


def _check_orthonormal_basis(basis: Sequence, ambient_dim: int, tol: Tolerance) -> np.ndarray:
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2 or b.shape != (ambient_dim, ambient_dim):
        raise ValueError(
            f"basis must consist of {ambient_dim} vectors of length {ambient_dim}"
        )
    finite = np.isfinite(b).all(axis=1)
    if not finite.all():
        raise ValueError(f"basis[{finite.argmin()}]: non-finite entry")
    # a huge entry overflows the product to inf or nan, which fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(b @ b.T - np.eye(ambient_dim), "fro")
    if not residual <= max(tol.residual_eps, 1e-9):
        raise ValueError("basis is not orthonormal")
    return b


def _whitened_members(w: FusionFrame, tol: Tolerance) -> tuple[Subspace, ...]:
    """The members S_W^{-1/2} W_i; for a Riesz fusion basis they are mutually orthogonal."""
    return _image_frame(_inverse(w, tol, root=True), w, tol).subspaces


def _bridge_rows(
    members: Sequence[Subspace], weights: Sequence[float], xs: Sequence[np.ndarray]
) -> DiscreteFrame:
    """Rows weight_i * (proj_{members_i} x_j), i-major and j-minor, with 1-based (i, j) labels."""
    projectors = [projector(sub) for sub in members]
    rows = [weight * (p @ x) for p, weight in zip(projectors, weights) for x in xs]
    labels = [(i, j) for i in range(1, len(members) + 1) for j in range(1, len(xs) + 1)]
    return DiscreteFrame(members[0].ambient_dim, np.vstack(rows), tuple(labels))


def bridge_fusion_to_discrete(
    w: FusionFrame,
    basis: Sequence,
    mode: BridgeMode = "canonical_weighted",
    tol: Tolerance = DEFAULT_TOL,
) -> DiscreteFrame:
    """Turn a fusion frame into a labeled discrete frame over an orthonormal basis.

    ``canonical_weighted`` emits w_i * proj_{W_i} S_W^{-1} e_j over all (i, j);
    ``parseval_sqrt`` emits proj onto S_W^{-1/2} W_i of e_j and requires unit
    weights. Rows are ordered i-major, j-minor; labels are 1-based (i, j).
    """
    b = _check_orthonormal_basis(basis, w.ambient_dim, tol)
    if mode == "canonical_weighted":
        s_inv = _inverse(w, tol)
        return _bridge_rows(w.subspaces, w.weights, [s_inv @ e for e in b])
    if mode == "parseval_sqrt":
        if any(abs(weight - 1.0) > tol.residual_eps for weight in w.weights):
            raise ValueError("parseval_sqrt mode requires unit weights")
        return _bridge_rows(_whitened_members(w, tol), [1.0] * w.member_count, b)
    raise ValueError(f"unknown bridge mode {mode!r}")


def bridge_dual_to_discrete(
    v: FusionFrame, basis: Sequence, tol: Tolerance = DEFAULT_TOL
) -> DiscreteFrame:
    """Emit v_i * proj_{V_i} e_j with labels aligned to :func:`bridge_fusion_to_discrete`."""
    return _bridge_rows(v.subspaces, v.weights, _check_orthonormal_basis(basis, v.ambient_dim, tol))


def compact_nonzero(
    f: DiscreteFrame, tol: Tolerance = DEFAULT_TOL
) -> tuple[DiscreteFrame, tuple[int, ...]]:
    """Drop zero vectors; returns the compacted frame and the kept 1-based indices.

    Zero rows contribute nothing to any synthesis, so the compacted frame has
    the same frame operator and the same duality/erasure values. A row counts
    as zero when its norm is at most ``rank_eps`` times the largest entry's
    magnitude, a test that scaling the frame leaves unchanged.
    """
    scale = float(np.abs(f.vectors).max(initial=0.0))
    kept = [k for k in range(f.count) if np.linalg.norm(f.vectors[k]) > tol.rank_eps * scale]
    labels = tuple(f.labels[k] for k in kept) if f.labels is not None else None
    return (
        DiscreteFrame(f.ambient_dim, f.vectors[kept], labels),
        tuple(k + 1 for k in kept),
    )


def halving_perturbation(
    f: DiscreteFrame, lost: Sequence[int], tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Perturbation (a count x n array) that halves the canonical dual on the ``lost`` indices (1-based).

    Rows in ``lost`` are fixed to minus half the canonical dual vector; the
    remaining rows solve the dual relation by minimum-norm least squares.
    Raises when the fixed rows make the relation unsatisfiable (for instance
    when a lost vector is the only one supported on some coordinate).
    """
    lost_set = sorted(set(int(k) for k in lost))
    for k in lost_set:
        if not 1 <= k <= f.count:
            raise ValueError(f"lost index {k} out of range 1..{f.count}")
    canonical = discrete_canonical_dual(f, tol)
    u = np.zeros_like(f.vectors)
    lost_rows = [k - 1 for k in lost_set]
    free_rows = [k for k in range(f.count) if k not in set(lost_rows)]
    u[lost_rows] = -0.5 * canonical.vectors[lost_rows]
    # sum_k f_k u_k^T = 0  <=>  F_free^T U_free = -F_lost^T U_lost
    rhs = -f.vectors[lost_rows].T @ u[lost_rows]
    if free_rows:
        sol, *_ = np.linalg.lstsq(f.vectors[free_rows].T, rhs, rcond=None)
        u[free_rows] = sol
    residual = perturbation_residual(f, u)
    if residual > tol.residual_eps:
        raise ValueError(
            "halving construction is infeasible for the lost set "
            f"{lost_set} (residual {residual:.3e})"
        )
    return u


def halving_dual(f: DiscreteFrame, lost: Sequence[int], tol: Tolerance = DEFAULT_TOL) -> DiscreteFrame:
    """Dual frame built from :func:`halving_perturbation`, which has checked the dual relation."""
    u = halving_perturbation(f, lost, tol)
    return DiscreteFrame(f.ambient_dim, discrete_canonical_dual(f, tol).vectors + u, f.labels)
