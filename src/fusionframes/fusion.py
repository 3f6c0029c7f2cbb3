"""Fusion frames: construction, frame operator, bounds, classification, canonical dual.

A fusion frame is a weighted family of subspaces whose union spans the whole
space. Non-spanning families stay representable (the lower bound is reported
as 0) so callers can diagnose bad inputs instead of losing them.

Each frame decomposes S_W once, in ``FusionFrame.spectrum``: the bounds, the
frame test, S_W^{-1} and S_W^{-1/2} all read that one spectrum, and each of
the two inverse forms is formed from it at most once per frame.
Its member bases are likewise stacked once, zero-padded, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _as_matrix,
    orthonormal_bases,
    projector,
)

__all__ = [
    "FusionFrame",
    "FrameClassification",
    "fusion_frame",
    "frame_operator",
    "frame_bounds",
    "classify",
    "canonical_dual",
    "is_nontrivial",
]


class _Spectral:
    """A frame whose operator S, built by the subclass's ``_operator``, is decomposed once.

    S^{-1} and S^{-1/2} are formed from ``spectrum`` on first use and kept,
    read-only; :func:`_inverse` runs the frame test before handing one out.
    """

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh`` of S: ascending eigenvalues and eigenvector columns, read-only.

        S is built finite and exactly symmetric (each ``basis @ basis.T`` is);
        ``eigh`` reads one triangle, so asymmetry would go unseen.
        """
        s = _as_matrix(self._operator())
        if not np.array_equal(s, s.T):
            raise ArithmeticError("frame operator is not exactly symmetric")
        eigvals, eigvecs = np.linalg.eigh(s)
        for a in (eigvals, eigvecs):
            a.setflags(write=False)
        return eigvals, eigvecs

    @cached_property
    def _s_inv(self) -> np.ndarray:
        return _inverse_form(self, root=False)

    @cached_property
    def _s_inv_sqrt(self) -> np.ndarray:
        return _inverse_form(self, root=True)


@dataclass(frozen=True, eq=False)
class FusionFrame(_Spectral):
    """Weighted subspace family {(W_i, w_i)} in R^ambient_dim.

    Indices are 1-based throughout the public API, matching the bundled
    worked examples.
    """

    ambient_dim: int
    subspaces: tuple[Subspace, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.subspaces:
            raise ValueError("a fusion frame needs at least one member")
        if len(self.subspaces) != len(self.weights):
            raise ValueError("subspace and weight counts differ")
        for i, (s, w) in enumerate(zip(self.subspaces, self.weights), start=1):
            if s.ambient_dim != self.ambient_dim:
                raise ValueError(f"member {i} lives in R^{s.ambient_dim}, expected R^{self.ambient_dim}")
            if not 0 < w < math.inf:
                raise ValueError(f"weight of member {i} must be positive and finite, got {w}")
        # S_W adds up w_i^2 P_{W_i}: bounding the sum keeps S_W, its inverse and the error components finite,
        # and bounding the largest weight below keeps its w_i^2 a normal float, so S_W cannot underflow to 0
        if math.hypot(*self.weights) >= 2.0**500 or max(self.weights) < 2.0**-500:
            i = max(range(len(self.weights)), key=self.weights.__getitem__)
            bound = (
                "too small: the largest weight must be at least 2**-500" if self.weights[i] < 2.0**-500
                else "too large: the squared weights must sum below 2**1000"
            )
            raise ValueError(f"weights {bound} (member {i + 1} has weight {self.weights[i]})")
        object.__setattr__(self, "subspaces", tuple(self.subspaces))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def member_count(self) -> int:
        return len(self.subspaces)

    def _operator(self) -> np.ndarray:
        return frame_operator(self)

    @cached_property
    def _member_dims(self) -> np.ndarray:
        """The member dimensions k_i, read-only."""
        dims = np.array([s.dim for s in self.subspaces], dtype=np.intp)
        dims.setflags(write=False)
        return dims

    @cached_property
    def _basis_stack(self) -> np.ndarray:
        """The members' orthonormal bases as one read-only ``(m, n, k_max)`` array, each zero-padded to k_max.

        ``_basis_stack[i, :, :k_i]`` is member i + 1's basis; every per-member product reads it.
        """
        stack = np.zeros((self.member_count, self.ambient_dim, int(self._member_dims.max())))
        for b, sub in zip(stack, self.subspaces):
            b[:, : sub.dim] = sub.basis
        stack.setflags(write=False)
        return stack

    def member(self, i: int) -> tuple[Subspace, float]:
        """Member ``i`` (1-based) as a (subspace, weight) pair."""
        if not 1 <= i <= self.member_count:
            raise ValueError(f"member index {i} out of range 1..{self.member_count}")
        return self.subspaces[i - 1], self.weights[i - 1]

    def replace_member(self, i: int, subspace: Subspace) -> "FusionFrame":
        """Copy with member ``i`` (1-based) swapped for ``subspace``."""
        self.member(i)
        subs = list(self.subspaces)
        subs[i - 1] = subspace
        return FusionFrame(self.ambient_dim, tuple(subs), self.weights)


def fusion_frame(
    subspaces: Sequence[Subspace], weights: Sequence[float] | None = None
) -> FusionFrame:
    """Build a fusion frame; weights default to 1 for every member."""
    if weights is None:
        weights = [1.0] * len(subspaces)
    if not subspaces:
        raise ValueError("a fusion frame needs at least one member")
    return FusionFrame(subspaces[0].ambient_dim, tuple(subspaces), tuple(weights))


@dataclass(frozen=True)
class FrameClassification:
    is_frame: bool
    lower_bound: float
    upper_bound: float
    is_tight: bool
    is_parseval: bool
    is_riesz_fusion_basis: bool
    is_orthonormal_fusion_basis: bool


def frame_operator(w: FusionFrame) -> np.ndarray:
    """S_W = sum of w_i^2 * (projector onto W_i); symmetric positive semidefinite."""
    s = np.zeros((w.ambient_dim, w.ambient_dim))
    for sub, weight in zip(w.subspaces, w.weights):
        s += weight**2 * projector(sub)
    return s


def _inverse_form(frame: _Spectral, root: bool) -> np.ndarray:
    """``(V / λ) @ V.T``, or ``(V / sqrt(λ)) @ V.T`` with ``root``, from ``frame.spectrum``; read-only."""
    eigvals, eigvecs = frame.spectrum
    with np.errstate(all="ignore"):
        form = (eigvecs / (np.sqrt(eigvals) if root else eigvals)) @ eigvecs.T
    if not np.isfinite(form).all():
        raise ValueError(
            f"the inverse frame operator overflows: smallest eigenvalue {eigvals[0]:.3e} is too small to invert"
        )
    form.setflags(write=False)
    return form


def _inverse(frame: _Spectral, tol: Tolerance, root: bool = False) -> np.ndarray:
    """S^{-1} (or S^{-1/2} with ``root``) of the frame operator S, formed once per frame and read-only.

    Every call first runs classify's frame test at ``tol``, the smallest eigenvalue above ``rank_eps``
    times the largest: the one refusal of a family that does not span, fusion or discrete.
    """
    eigvals = frame.spectrum[0]
    threshold = tol.rank_eps * eigvals[-1]
    if not eigvals[0] > threshold:
        raise ValueError(
            f"not a frame: the family does not span R^{frame.ambient_dim} (smallest eigenvalue "
            f"of the frame operator {eigvals[0]:.3e} <= rank_eps {tol.rank_eps:.3e} x largest "
            f"eigenvalue {eigvals[-1]:.3e} = {threshold:.3e})"
        )
    return frame._s_inv_sqrt if root else frame._s_inv


def frame_bounds(w: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Optimal bounds (A, B) as the extreme eigenvalues of the frame operator.

    A is clamped to exactly 0 unless it exceeds ``rank_eps * B``, a test that weight
    scaling never changes; A > 0 is equivalent to the family being a frame.
    """
    eigvals = w.spectrum[0]
    lower = float(eigvals[0])
    upper = float(eigvals[-1])
    if not lower > tol.rank_eps * upper:
        lower = 0.0
    return lower, upper


def classify(w: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> FrameClassification:
    """Classify a weighted subspace family.

    The Riesz test uses the finite-dimensional criterion: the family spans
    and the member dimensions add up to the ambient dimension (the sum is
    then direct). Orthonormal is a Parseval Riesz fusion basis: with the
    sum direct and S_W = I, every weight is 1 and the members are pairwise
    orthogonal.
    """
    lower, upper = frame_bounds(w, tol)
    is_frame = lower > 0.0
    is_tight = is_frame and (upper - lower) <= tol.residual_eps * upper
    is_parseval = is_tight and abs(lower - 1.0) <= tol.residual_eps and abs(upper - 1.0) <= tol.residual_eps
    dims_add_up = sum(s.dim for s in w.subspaces) == w.ambient_dim
    is_riesz = is_frame and dims_add_up
    is_orthonormal = is_riesz and is_parseval
    return FrameClassification(
        is_frame=is_frame,
        lower_bound=lower,
        upper_bound=upper,
        is_tight=is_tight,
        is_parseval=is_parseval,
        is_riesz_fusion_basis=is_riesz,
        is_orthonormal_fusion_basis=is_orthonormal,
    )


def _image_frame(u: np.ndarray, w: FusionFrame, tol: Tolerance) -> FusionFrame:
    """The family {(u W_i, w_i)}: every member mapped by ``u``, weights kept.

    Bit for bit the members ``image_subspace(u, W_i)``, orthonormalized in one pass.
    """
    u = _as_matrix(u)
    images = orthonormal_bases([(u @ sub.basis).T for sub in w.subspaces], tol, ambient_dim=w.ambient_dim)
    return FusionFrame(w.ambient_dim, tuple(images), w.weights)


def canonical_dual(w: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> FusionFrame:
    """Canonical dual family {(S_W^{-1} W_i, w_i)}; member dimensions are preserved."""
    return _image_frame(_inverse(w, tol), w, tol)


def is_nontrivial(w: FusionFrame) -> bool:
    """True when some member is a proper subspace of the ambient space."""
    return any(s.dim < w.ambient_dim for s in w.subspaces)
