"""Dense real matrix/vector kernel and subspace calculus.

Everything operates on plain ``numpy`` float64 arrays. A subspace is carried
as a matrix with orthonormal columns; the zero subspace has zero columns and
is a first-class value. All values are treated as immutable and every
function here is pure, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Subspace",
    "zero_subspace",
    "full_subspace",
    "coordinate_subspace",
    "orthonormal_basis",
    "orthonormal_bases",
    "projector",
    "spd_inverse",
    "spd_inv_sqrt",
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

    ``rank_eps`` decides when a direction or eigenvalue counts as zero (the frame
    test, unchanged by weight scaling: smallest eigenvalue of S above ``rank_eps``
    times the largest), ``residual_eps`` bounds acceptable residuals in identity checks.
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
        if not np.isfinite(b).all():
            raise ValueError("basis has non-finite entries")
        # entrywise |B^T B - I| <= 16 n eps: an n-term dot product rounds by about
        # n eps, and twice-reorthogonalized Gram-Schmidt, Householder QR and the
        # SVD lose at most a small multiple of n eps of orthogonality
        if not np.abs(b.T @ b - np.eye(b.shape[1])).max(initial=0.0) <= 16 * self.ambient_dim * np.finfo(float).eps:
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


def _rows(vectors: Sequence, ambient_dim: int | None) -> np.ndarray:
    """``vectors`` (one per row) as a fresh float ``(k, n)`` array, checked."""
    if len(vectors) == 0:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty vector list")
        return np.zeros((0, ambient_dim))
    try:
        work = np.array(vectors, dtype=float, order="C").reshape(len(vectors), -1)
    except ValueError as exc:
        raise ValueError(f"vectors have mismatched dimensions: {exc}") from exc
    if not np.all(np.isfinite(work)):
        raise ValueError("vector has non-finite entries")
    if ambient_dim not in (None, work.shape[1]):
        raise ValueError("vectors do not match the requested ambient dimension")
    return work


_SQUARE_SAFE = 2.0**500


def orthonormal_bases(
    blocks: Sequence[Sequence], tol: Tolerance = DEFAULT_TOL, *, ambient_dim: int | None = None
) -> list[Subspace]:
    """Orthonormal basis of the span of each block of ``blocks`` (one vector per row).

    Twice-reorthogonalized Gram-Schmidt with column pivoting, run on all
    blocks at once in a zero-padded ``(m, k_max, n)`` stack: each block's row
    of largest residual norm is projected twice off that block's accepted
    rows, then one rank-one update removes it from the block's other rows.
    A candidate is discarded once its residual norm falls to ``rank_eps``
    times the largest input norm of its block, which keeps rank decisions
    reproducible on exact fixtures. Padded rows stay exactly zero and are
    never a pivot, so each block gets the bits it would get on its own. A
    block whose largest entry lies beyond 2**±500, where squares over- or
    underflow, is first scaled by an exact power of two. All blocks share
    one ambient dimension; an empty first block needs ``ambient_dim``.
    """
    works = []
    for vectors in blocks:
        works.append(_rows(vectors, ambient_dim))
        ambient_dim = works[-1].shape[1]
    k_max = max((len(w) for w in works), default=0)
    if not k_max:
        return [zero_subspace(w.shape[1]) for w in works]
    m, n = len(works), ambient_dim
    work = np.zeros((m, k_max, n))
    for b, w in enumerate(works):
        work[b, : len(w)] = w
    # an exact power of two leaves the span, and every rounding inside the range, alone
    peak = np.abs(work).max(axis=(1, 2))
    wild = (peak > _SQUARE_SAFE) | ((peak > 0) & (peak < 1 / _SQUARE_SAFE))
    if wild.any():
        work[wild] = np.ldexp(work[wild], -np.frexp(peak[wild])[1][:, None, None])
    accepted, ranks = _pivoted_gram_schmidt(work, tol)
    return [Subspace(n, accepted[b, :rank].T) for b, rank in enumerate(ranks)]


def _pivoted_gram_schmidt(work: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """The loop of :func:`orthonormal_bases` on its ``(m, k_max, n)`` stack, which it consumes.

    Returns each block's accepted rows, zero-padded to ``(m, k_max, n)``, and its rank.
    """
    m = len(work)
    # np.vecdot rounds like a per-row ``q @ w``; einsum, unlike a BLAS
    # matrix-vector product, keeps the exact zeros of the bundled fixtures
    norms = np.sqrt(np.vecdot(work, work))
    thresh = tol.rank_eps * norms.max(axis=1)
    accepted = np.zeros_like(work)
    ranks = np.zeros(m, dtype=int)
    live = np.ones(m, dtype=bool)
    members = np.arange(m)
    while True:
        j = norms.argmax(axis=1)
        live &= norms[members, j] > thresh
        if not live.any():
            break
        work[~live] = 0.0  # spent: later steps do no arithmetic, and raise no warning, on finished blocks
        v = work[members, j]
        work[members, j] = 0.0
        kept = accepted[:, : ranks.max()]
        for _ in range(2):
            v -= np.einsum("bi,bij->bj", np.vecdot(kept, v[:, None]), kept)
        nv = np.sqrt(np.vecdot(v, v))
        grow = live & (nv > thresh)
        q = np.divide(v, nv[:, None], out=np.zeros_like(v), where=grow[:, None])
        accepted[members[grow], ranks[grow]] = q[grow]
        ranks += grow
        update = np.vecdot(work, q[:, None])[..., None] * q[:, None]
        np.subtract(work, update, out=work, where=grow[:, None, None])
        norms = np.sqrt(np.vecdot(work, work))
    return accepted, ranks


def orthonormal_basis(
    vectors: Sequence, tol: Tolerance = DEFAULT_TOL, *, ambient_dim: int | None = None
) -> Subspace:
    """Orthonormal basis of the span of ``vectors`` (one vector per row).

    The one-block case of :func:`orthonormal_bases`.
    """
    return orthonormal_bases([vectors], tol, ambient_dim=ambient_dim)[0]


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


# a sum of squares in this range neither overflows nor loses more than 2**-107
# of itself per term to underflow; outside it the matrix is measured again, rescaled
_SQUARES_LOW, _SQUARES_HIGH = 2.0**-968, 2.0**968


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of the ``(b, p, q)`` stack: the square root of one flat dot product, in C order.

    A matrix with a non-finite entry gets a non-finite value.
    """
    flat = stack.reshape(len(stack), -1)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        squares = np.vecdot(flat, flat)
    values, wild = np.sqrt(squares), _wild(squares)
    return values if wild is None else _remeasure_wild(stack, values, wild, _frobenius_norms)


def _top_singular_values(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix A of the ``(b, p, q)`` stack, as sqrt(max(lambda_max(G), 0)).

    G is the Gram of A on its smaller side, A^T A when p >= q, else A A^T,
    formed unscaled by one batched product, and lambda_max comes from
    ``np.linalg.eigvalsh``. The computed value is within p(n) eps of
    ||A||_2, relatively, with p(n) <= 1.3 n^2 + 0.5 for n = max(p, q):
    forming G errs by at most gamma_n n ||A||_2^2, eigvalsh is backward
    stable (an error of at most 4 n^2 u ||G||_2 allowed for), the top
    eigenvalue moves by no more than the two (Weyl), and the square root
    halves a relative error (derived in full in the slack of
    :func:`fusionframes.erasures._worst_report`).
    A zero matrix gives +0.0 and a matrix with a non-finite entry a
    non-finite value; each matrix's value depends on that matrix alone, so
    a stack of one rounds as any stack holding it.
    """
    gram, _, wild = _grams(stack)
    values = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    return values if wild is None else _remeasure_wild(stack, values, wild, _top_singular_values)


def _top_singular_bounds(stack: np.ndarray) -> np.ndarray:
    """Upper bound on the largest singular value of each matrix A of the ``(b, p, q)`` stack, close to it and cheap.

    The bound is ``(sum_i sigma_i^32)^(1/32)`` = ``||G^8||_F^(1/16)``, G the
    Gram of A formed as :func:`_top_singular_values` forms it, so
    ``||A||_2 <= bound <= rank(A)^(1/32) ||A||_2`` (at most 1.07 ||A||_2 at
    rank 8), and it is much closer when the top singular value stands out.
    G is scaled by the power of two 2^-e that brings its trace into
    [0.5, 1), which is exact, squared three times by batched products,
    and measured by one flat dot product: at n = 8 that costs about a sixth
    of ``eigvalsh``. Rounding: with N the Gram's side and n = max(p, q),
    forming G errs by at most gamma_n n ||A||_2^2 (as in
    :func:`_top_singular_values`), and each squaring H -> fl(H H) by at most
    gamma_N N ||H||_2^2. The errors double with each squaring, so the
    computed H_3 differs from (M 2^-e)^8, M the exact Gram, by at most
    delta ``||A||_2^16 2^-8e`` in the 2-norm, delta <= 15 n^2 u
    (u = eps / 2, to first order), and
    ``||A||_2^16 2^-8e <= ||H_3||_F / (1 - delta)``. The flat dot product of
    the nonnegative squares, the 16th root, the exact ``ldexp`` and the
    square root lose at most gamma_{N^2} / 32 + 3 u more, relatively, so
    the computed bound is at least ``||A||_2 (1 - p'(n) eps)`` with
    p'(n) <= 0.6 n^2 + 2 (the 1/16 power divides delta by 16), the same
    order as the p(n) of the exact kernel. The top eigenvalue of the scaled
    G is at least 1 / (2 N), so that of H_3 is at least (2 N)^-8, and underflow,
    at most N 2^-1074 per entry, costs nothing that counts. A matrix whose
    Gram trace is wild is measured again after an exact rescale, as in
    :func:`_top_singular_values`; a zero matrix gives +0.0 and a matrix with
    a non-finite entry a non-finite value.
    """
    gram, trace, wild = _grams(stack)
    e = np.frexp(trace)[1]
    h = np.ldexp(gram, -e[:, None, None])
    with np.errstate(under="ignore"):
        for _ in range(3):
            h = h @ h
        flat = h.reshape(len(h), -1)
        squares = np.vecdot(flat, flat)
    values = np.sqrt(np.ldexp(squares ** (1 / 16), e))
    return values if wild is None else _remeasure_wild(stack, values, wild, _top_singular_bounds)


def _grams(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(G, trace of G, wild rows) of each matrix A of the stack: G is A^T A when p >= q, else A A^T, unscaled.

    The trace is the sum of squares, so a non-finite entry of A makes it inf
    or nan; the rows that :func:`_wild` flags get a zero Gram and trace, to
    be measured again: ``eigvalsh`` returns garbage, silently, on a
    non-finite Gram.
    """
    a = stack if stack.shape[1] >= stack.shape[2] else stack.mT
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        gram = a.mT @ a
    trace = gram.trace(axis1=1, axis2=2)
    wild = _wild(trace)
    if wild is not None:
        gram[wild] = 0.0
        trace[wild] = 0.0
    return gram, trace, wild


def _wild(squares: np.ndarray) -> np.ndarray | None:
    """Mask of the computed sums of squares that are nan or lie outside ``_SQUARES_LOW``..``_SQUARES_HIGH``, or None if none does."""
    if _SQUARES_LOW <= squares.min(initial=_SQUARES_HIGH) and squares.max(initial=_SQUARES_LOW) <= _SQUARES_HIGH:
        return None  # a nan fails both tests
    return ~(squares <= _SQUARES_HIGH) | (squares < _SQUARES_LOW)


def _remeasure_wild(
    stack: np.ndarray, values: np.ndarray, wild: np.ndarray, measure: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``values``, with each ``wild`` matrix, whose sum of squares left the safe range, measured again.

    Such a matrix A is measured as ``measure(ldexp(A, -e))``, e the binary
    exponent of its largest |entry|, and the value scaled back by 2**e.
    Scaling by a power of two is exact, so the value is the one an unbounded
    exponent range would give, where squares over- or underflow. Only these
    rare matrices pay for the largest entry. A zero matrix gets +0.0, and a
    matrix with a non-finite entry that entry's magnitude (inf) or nan.
    """
    rows = wild.nonzero()[0]
    peak = np.abs(stack[rows]).max(axis=(1, 2), initial=0.0)
    live = np.isfinite(peak) & (peak > 0)
    values[rows[~live]] = peak[~live]
    if live.any():
        e = np.frexp(peak[live])[1]
        values[rows[live]] = np.ldexp(measure(np.ldexp(stack[rows[live]], -e[:, None, None])), e)
    return values


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


def subspace_sum(
    parts: Sequence[Subspace], tol: Tolerance = DEFAULT_TOL, *, ambient_dim: int | None = None
) -> Subspace:
    """Orthonormal basis of the span of all part bases, rank decided at ``tol``."""
    if not parts:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty part list")
        return zero_subspace(ambient_dim)
    n = parts[0].ambient_dim
    for p in parts[1:]:
        _check_same_ambient(parts[0], p)
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError("parts do not match the requested ambient dimension")
    return orthonormal_basis(np.vstack([p.basis.T for p in parts]), tol, ambient_dim=n)


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
