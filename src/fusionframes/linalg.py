"""Dense real matrix/vector kernel and subspace calculus.

Everything operates on plain ``numpy`` float64 arrays. A subspace is carried
as a matrix with orthonormal columns; the zero subspace has zero columns and
is a first-class value. All values are treated as immutable and every
function here is pure, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Subspace",
    "zero_subspace",
    "full_subspace",
    "coordinate_subspace",
    "orthonormal_basis",
    "projector",
    "spd_inverse",
    "spd_inv_sqrt",
    "frobenius_norm",
    "operator_norm",
    "subspace_contains",
    "subspaces_equal",
    "subspace_intersection",
    "subspace_sum",
    "orthogonal_complement",
    "image_subspace",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used by every rank / residual decision.

    ``rank_eps`` decides when a direction or eigenvalue counts as zero,
    ``residual_eps`` bounds acceptable residuals in identity checks.
    """

    rank_eps: float = 1e-9
    residual_eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (0 < self.rank_eps < math.inf and 0 < self.residual_eps < math.inf):
            raise ValueError("tolerances must be positive and finite")


DEFAULT_TOL = Tolerance()


def _as_matrix(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of R^ambient_dim, given by orthonormal basis columns.

    ``basis`` has shape ``(ambient_dim, k)`` with ``k == 0`` encoding the
    zero subspace. Basis matrices are not canonical; compare subspaces with
    :func:`subspaces_equal`, never by comparing bases.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        if self.ambient_dim <= 0:
            raise ValueError("ambient dimension must be positive")
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis must be an {self.ambient_dim} x k matrix, got shape {b.shape}"
            )
        if b.shape[1] > self.ambient_dim:
            raise ValueError("subspace dimension exceeds ambient dimension")
        if b.size:
            if not np.all(np.isfinite(b)):
                raise ValueError("basis has non-finite entries")
            # np.allclose(gram, eye, atol=1e-8) written out: |gram - eye| <= 1e-8 + 1e-5 eye
            eye = np.eye(b.shape[1])
            if not (np.abs(b.T @ b - eye) <= 1e-8 + 1e-5 * eye).all():
                raise ValueError("basis columns are not orthonormal")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def __repr__(self) -> str:  # keep reprs short in test failures
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def zero_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))


def full_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.eye(ambient_dim))


def coordinate_subspace(ambient_dim: int, axes: Iterable[int]) -> Subspace:
    """Span of the given standard basis directions (1-based axes)."""
    idx = sorted(set(axes))
    cols = np.zeros((ambient_dim, len(idx)))
    for c, axis in enumerate(idx):
        if not 1 <= axis <= ambient_dim:
            raise ValueError(f"axis {axis} out of range 1..{ambient_dim}")
        cols[axis - 1, c] = 1.0
    return Subspace(ambient_dim, cols)


def orthonormal_basis(
    vectors: Sequence, tol: Tolerance = DEFAULT_TOL, *, ambient_dim: int | None = None
) -> Subspace:
    """Orthonormal basis of the span of ``vectors`` (one vector per row).

    Twice-reorthogonalized Gram-Schmidt with column pivoting on a ``(k, n)``
    matrix: the row of largest residual norm is projected twice off the
    accepted block, then one rank-one update removes it from the other rows.
    A candidate is discarded once its residual norm falls to ``rank_eps``
    times the largest input norm, which keeps rank decisions reproducible on
    exact fixtures.
    """
    if len(vectors) == 0:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty vector list")
        return zero_subspace(ambient_dim)
    try:
        work = np.array(vectors, dtype=float, order="C").reshape(len(vectors), -1)
    except ValueError as exc:
        raise ValueError(f"vectors have mismatched dimensions: {exc}") from exc
    if not np.all(np.isfinite(work)):
        raise ValueError("vector has non-finite entries")
    if ambient_dim not in (None, work.shape[1]):
        raise ValueError("vectors do not match the requested ambient dimension")
    ambient_dim = work.shape[1]

    # np.vecdot rounds like a per-row ``q @ w``; einsum, unlike a BLAS
    # matrix-vector product, keeps the exact zeros of the bundled fixtures
    norms = np.sqrt(np.vecdot(work, work))
    thresh = tol.rank_eps * norms.max()
    accepted = np.empty_like(work)
    rank = 0
    while True:
        j = norms.argmax()
        if norms[j] <= thresh:
            break
        v = work[j].copy()
        work[j] = 0.0
        norms[j] = 0.0
        for _ in range(2):
            v -= np.einsum("i,ij->j", np.vecdot(accepted[:rank], v), accepted[:rank])
        nv = math.sqrt(v @ v)
        if nv <= thresh:
            continue
        q = v / nv
        accepted[rank] = q
        rank += 1
        work -= np.multiply.outer(np.vecdot(work, q), q)
        norms = np.sqrt(np.vecdot(work, work))
    if not rank:
        return zero_subspace(ambient_dim)
    return Subspace(ambient_dim, accepted[:rank].T)


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projection matrix onto ``s`` (zero matrix for the zero subspace)."""
    if s.is_zero:
        return np.zeros((s.ambient_dim, s.ambient_dim))
    return s.basis @ s.basis.T


def _spd_eigh(a: np.ndarray, tol: Tolerance, what: str) -> tuple[np.ndarray, np.ndarray]:
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{what}: matrix must be square, got {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if not np.allclose(a, a.T, atol=tol.residual_eps * scale):
        raise ValueError(f"{what}: matrix is not symmetric within tolerance")
    eigvals, eigvecs = np.linalg.eigh(a)
    if eigvals[0] <= tol.rank_eps:
        raise ValueError(
            f"{what}: smallest eigenvalue {eigvals[0]:.3e} signals a non-invertible operator"
        )
    return eigvals, eigvecs


def spd_inverse(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix."""
    eigvals, eigvecs = _spd_eigh(a, tol, "spd_inverse")
    return (eigvecs / eigvals) @ eigvecs.T


def spd_inv_sqrt(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Symmetric inverse square root of a symmetric positive definite matrix."""
    eigvals, eigvecs = _spd_eigh(a, tol, "spd_inv_sqrt")
    return (eigvecs / np.sqrt(eigvals)) @ eigvecs.T


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(_as_matrix(a), "fro"))


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a``."""
    a = _as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_contains(outer: Subspace, inner: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``inner`` is contained in ``outer`` within ``residual_eps``."""
    _check_same_ambient(outer, inner)
    if inner.is_zero:
        return True
    residual = inner.basis - projector(outer) @ inner.basis
    return float(np.linalg.norm(residual, "fro")) <= tol.residual_eps


def subspaces_equal(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Subspace equality as mutual containment (bases are not canonical)."""
    return subspace_contains(a, b, tol) and subspace_contains(b, a, tol)


def subspace_intersection(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of a ∩ b via the nullspace of the stacked complement projectors."""
    _check_same_ambient(a, b)
    n = a.ambient_dim
    if a.is_zero or b.is_zero:
        return zero_subspace(n)
    eye = np.eye(n)
    stacked = np.vstack([eye - projector(a), eye - projector(b)])
    _, svals, vh = np.linalg.svd(stacked, full_matrices=True)
    rank = int(np.sum(svals > tol.rank_eps))
    if rank == n:
        return zero_subspace(n)
    return Subspace(n, vh[rank:].T)


def subspace_sum(parts: Sequence[Subspace], ambient_dim: int | None = None) -> Subspace:
    """Orthonormal basis of the span of all part bases."""
    if not parts:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty part list")
        return zero_subspace(ambient_dim)
    n = parts[0].ambient_dim
    for p in parts[1:]:
        _check_same_ambient(parts[0], p)
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError("parts do not match the requested ambient dimension")
    return orthonormal_basis(np.vstack([p.basis.T for p in parts]), ambient_dim=n)


def orthogonal_complement(s: Subspace) -> Subspace:
    """Orthogonal complement; its projector is I minus the projector of ``s``."""
    n = s.ambient_dim
    if s.is_zero:
        return full_subspace(n)
    if s.dim == n:
        return zero_subspace(n)
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(n, u[:, s.dim :])


def image_subspace(u: np.ndarray, s: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Image {u x : x in s}; rank may drop when ``u`` is singular."""
    u = _as_matrix(u)
    if u.shape != (s.ambient_dim, s.ambient_dim):
        raise ValueError(
            f"operator must be {s.ambient_dim} x {s.ambient_dim}, got {u.shape}"
        )
    if s.is_zero:
        return zero_subspace(s.ambient_dim)
    return orthonormal_basis((u @ s.basis).T, tol, ambient_dim=s.ambient_dim)
