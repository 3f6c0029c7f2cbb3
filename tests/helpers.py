"""Shared fixture builders for the test suite.

The named frames here are the bundled worked examples: an overlapping-plane
frame in R^4 whose canonical dual is certified optimal, an orthonormal
fusion basis in R^3 that bridges to an overcomplete Parseval frame, an
overcomplete frame in R^3 whose bridged canonical dual fails partial
optimality for two erasures, and a component-preserving pair that is not a
dual.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from pathlib import Path
from typing import Sequence

import numpy as np

import fusionframes.cli
import fusionframes.duality
from fusionframes import (
    DEFAULT_TOL,
    DiscreteFrame,
    DualPair,
    FusionFrame,
    Subspace,
    Tolerance,
    block_mask,
    bridge_fusion_to_discrete,
    coordinate_subspace,
    classify,
    discrete_canonical_dual,
    dual_from_perturbation,
    frame_operator,
    fusion_frame,
    image_subspace,
    matrix_norm,
    orthonormal_basis,
    partial_erasure_error,
    projector,
    spd_inverse,
    subspace_sum,
    synthesis_nullspace,
    zero_subspace,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SQRT54 = np.sqrt(5.0 / 4.0)


def overlap_frame_r4() -> FusionFrame:
    """Two overlapping coordinate planes plus a line in R^4; bounds (1, 2)."""
    return fusion_frame(
        [
            coordinate_subspace(4, [1, 2]),
            coordinate_subspace(4, [2, 3]),
            coordinate_subspace(4, [4]),
        ]
    )


def overlap_extended_dual(xi) -> FusionFrame:
    """The seven-parameter family of optimal duals of the overlap frame."""
    x = np.asarray(xi, dtype=float)
    v1 = orthonormal_basis([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, x[0], x[1]]])
    v2 = orthonormal_basis([[0, 1, 0, 0], [0, 0, 1, 0], [x[2], 0, 0, x[3]]])
    v3 = orthonormal_basis([[0, 0, 0, 1], [x[4], x[5], x[6], 0]])
    return fusion_frame([v1, v2, v3])


def orthobasis_frame_r3() -> FusionFrame:
    """Orthonormal fusion basis of R^3: a line and its orthogonal plane."""
    return fusion_frame(
        [
            orthonormal_basis([[1, 0, 1]]),
            orthonormal_basis([[-1, 0, 1], [0, 1, 0]]),
        ]
    )


def orthobasis_alt_dual() -> FusionFrame:
    return fusion_frame(
        [
            orthonormal_basis([[1, 0, 1], [1, 0, -1]]),
            orthonormal_basis([[-1, 0, 1], [0, 1, 0]]),
        ]
    )


# nonzero rows of the bridged orthobasis frame, in (i, j) order
ORTHOBASIS_BRIDGED = np.array(
    [
        [0.5, 0, 0.5],
        [0.5, 0, 0.5],
        [0.5, 0, -0.5],
        [0, 1, 0],
        [-0.5, 0, 0.5],
    ]
)

ORTHOBASIS_ALT_DUAL_BRIDGED = np.array(
    [
        [1, 0, 0],
        [0, 0, 1],
        [0.5, 0, -0.5],
        [0, 1, 0],
        [-0.5, 0, 0.5],
    ]
)


def overcomplete_frame_r3() -> FusionFrame:
    """Plane + contained line + tilted plane in R^3; bridges to seven vectors."""
    return fusion_frame(
        [
            coordinate_subspace(3, [1, 2]),
            coordinate_subspace(3, [2]),
            orthonormal_basis([[0, 0, 1], [1, -1, 0]]),
        ]
    )


OVERCOMPLETE_SINV = np.array([[5, 1, 0], [1, 3, 0], [0, 0, 7]]) / 7.0

OVERCOMPLETE_BRIDGED = (
    np.array(
        [
            [5, 1, 0],
            [1, 3, 0],
            [0, 1, 0],
            [0, 3, 0],
            [2, -2, 0],
            [-1, 1, 0],
            [0, 0, 7],
        ]
    )
    / 7.0
)

# the valid dual displayed alongside the bridged frame (projections of the
# standard basis onto the canonical dual members)
OVERCOMPLETE_MEMBER_DUAL = np.array(
    [
        [1, 0, 0],
        [0, 1, 0],
        [0.1, 0.3, 0],
        [0.3, 0.9, 0],
        [0.8, -0.4, 0],
        [-0.4, 0.2, 0],
        [0, 0, 1],
    ]
)


def preserving_pair_r3():
    """Component-preserving triple (frame, candidate dual, blocks) that is not a dual."""
    w = fusion_frame(
        [
            coordinate_subspace(3, [2, 3]),
            coordinate_subspace(3, [1, 3]),
        ]
    )
    v = fusion_frame(
        [
            orthonormal_basis([[0, 1, 0], [1, 2, -0.5]]),
            orthonormal_basis([[1, 0, 0], [-1, -2, 1.5]]),
        ]
    )
    blocks = (
        np.array([[0, 0, 1], [0, 1, 2], [0, 0, -0.5]]),
        np.array([[1, 0, -1], [0, 0, -2], [0, 0, 1.5]]),
    )
    return w, v, blocks


PRESERVING_RECON = np.array([[1, 0, -0.2], [0, 1, -0.24], [0, 0, 0.28]])


def record_canonical_dual_formations(monkeypatch) -> list:
    """Route ``DiscreteFrame``'s cached canonical dual through a wrapper; returns the frames it is formed for."""
    formed = []
    form = DiscreteFrame.__dict__["_canonical_dual"].func
    prop = functools.cached_property(lambda frame: (formed.append(frame), form(frame))[1])
    prop.__set_name__(DiscreteFrame, "_canonical_dual")
    monkeypatch.setattr(DiscreteFrame, "_canonical_dual", prop)
    return formed


def record_dual_pairs(monkeypatch) -> list:
    """Route ``make_dual_pair``, as ``duality`` (so ``canonical_pair``) and ``cli`` call it, through a
    wrapper; returns the ``(primal, dual_candidate)`` of each pair built."""
    built = []
    for module in (fusionframes.duality, fusionframes.cli):
        def make(primal, dual_candidate, *args, _original=module.make_dual_pair, **kwargs):
            built.append((primal, dual_candidate))
            return _original(primal, dual_candidate, *args, **kwargs)

        monkeypatch.setattr(module, "make_dual_pair", make)
    return built


# --- randomized generators ---------------------------------------------------


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_subspace(rng: np.random.Generator, n: int, k: int):
    return orthonormal_basis(rng.standard_normal((k, n)), ambient_dim=n)


def random_spd(rng: np.random.Generator, n: int, cond: float = 1e3) -> np.ndarray:
    q = random_unitary(rng, n)
    eigvals = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    return (q * eigvals) @ q.T


def random_fusion_frame(
    rng: np.random.Generator, n: int, m: int, weighted: bool = False
) -> FusionFrame:
    while True:
        dims = rng.integers(1, n, size=m)
        if dims.sum() < n:
            continue
        subs = [random_subspace(rng, n, int(k)) for k in dims]
        weights = 0.5 + 1.5 * rng.random(m) if weighted else None
        frame = fusion_frame(subs, weights)
        if classify(frame).is_frame:
            return frame


def random_riesz_basis(rng: np.random.Generator, n: int, parts: int) -> FusionFrame:
    """Random invertible image of an orthogonal decomposition into ``parts`` blocks."""
    if not 1 <= parts <= n:
        raise ValueError("parts must lie between 1 and the dimension")
    q = random_unitary(rng, n)
    mix = random_unitary(rng, n) @ np.diag(np.exp(rng.uniform(-0.5, 0.5, n))) @ random_unitary(rng, n)
    cuts = sorted(rng.choice(np.arange(1, n), size=parts - 1, replace=False)) if parts > 1 else []
    bounds = [0, *cuts, n]
    subs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cols = (mix @ q[:, lo:hi]).T
        subs.append(orthonormal_basis(cols, ambient_dim=n))
    return fusion_frame(subs)


def inflated_dual(rng: np.random.Generator, w: FusionFrame) -> FusionFrame:
    """Canonical dual with random extra directions orthogonal to each member."""
    from fusionframes import orthogonal_complement

    s_inv = spd_inverse(frame_operator(w))
    members = []
    for s in w.subspaces:
        can = image_subspace(s_inv, s)
        comp = orthogonal_complement(can)
        if comp.dim > 0 and rng.random() < 0.6:
            direction = comp.basis @ rng.standard_normal(comp.dim)
            members.append(subspace_sum([can, orthonormal_basis([direction])]))
        else:
            members.append(can)
    return FusionFrame(w.ambient_dim, tuple(members), w.weights)


def permuted_members(frame: FusionFrame, perm) -> FusionFrame:
    """The frame whose member k is member ``perm[k - 1] + 1`` of ``frame``, weight included."""
    return FusionFrame(frame.ambient_dim, tuple(frame.subspaces[p] for p in perm), tuple(frame.weights[p] for p in perm))


def certified_random_frame(rng: np.random.Generator, n: int) -> FusionFrame:
    """Rotated template frame that the canonical certificate accepts.

    Two overlapping 2-dimensional members dominate the single-erasure error;
    the remaining directions enter as orthogonal singletons.
    """
    if n < 3:
        raise ValueError("needs dimension at least 3")
    u = random_unitary(rng, n)
    subs = [
        orthonormal_basis([u[:, 0], u[:, 1]]),
        orthonormal_basis([u[:, 1], u[:, 2]]),
    ]
    subs += [orthonormal_basis([u[:, k]]) for k in range(3, n)]
    return fusion_frame(subs)


def random_perturbation(rng: np.random.Generator, f, scale: float = 0.5) -> np.ndarray:
    nullsp = synthesis_nullspace(f)
    coeff = scale * rng.standard_normal((nullsp.shape[1], f.ambient_dim))
    return nullsp @ coeff


def riesz_block_errors(w: FusionFrame, basis, u: np.ndarray) -> list[tuple[float, float]]:
    """Per member i, the Frobenius errors of erasing bridged block i under the dual perturbed by ``u`` and
    under the canonical dual; on a Riesz fusion basis every dual of the bridge has the same block errors."""
    f = bridge_fusion_to_discrete(w, basis, "canonical_weighted")
    g, canonical = dual_from_perturbation(f, u), discrete_canonical_dual(f)
    masks = [block_mask(f, i) for i in range(1, w.member_count + 1)]
    return [tuple(partial_erasure_error(f, h, mask, "frobenius") for h in (g, canonical)) for mask in masks]


def planted_span_frame(rng: np.random.Generator, n: int, count: int, sigma: float) -> FusionFrame:
    """``count`` lines in R^n whose unit basis rows stack to a matrix with a singular value ``sigma``.

    The stack is [A, c]: c has norm ``sigma`` and A's columns are orthogonal
    to c, so sigma is a singular value exactly, the smallest one unless A's
    own rows (random directions in R^(n-1)) span less. Row i is
    (d_i a_i, alpha u_i / d_i), with a the rows of a Gaussian matrix made
    orthogonal to the unit vector u; d_i solves d^2 |a_i|^2 + alpha^2 u_i^2 / d^2 = 1
    and alpha is iterated until |c| = sigma. Coordinates are then permuted
    and signed, which is exact.
    """
    u = rng.standard_normal(count)
    u /= np.linalg.norm(u)
    a = rng.standard_normal((count, n - 1))
    a -= np.outer(u, u @ a)
    a2 = np.einsum("ij,ij->i", a, a)
    alpha = sigma
    for _ in range(50):
        d2 = (1 + np.sqrt(1 - 4 * a2 * alpha**2 * u**2)) / (2 * a2)
        alpha = sigma / np.linalg.norm(u / np.sqrt(d2))
    d = np.sqrt(d2)
    rows = np.column_stack([d[:, None] * a, alpha * u / d])
    rows = rows[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
    return fusion_frame([Subspace(n, row[:, None]) for row in rows])


# --- brute-force erasure reference ------------------------------------------


def fusion_components_reference(pair) -> list[np.ndarray]:
    """Per-member error components w_i v_i P_{V_i} S_W^{-1} P_{W_i}, one by one."""
    w, v = pair.primal, pair.dual_candidate
    s_inv = spd_inverse(frame_operator(w))
    return [
        ww * vw * projector(vs) @ s_inv @ projector(ws)
        for (ws, ww), (vs, vw) in zip(zip(w.subspaces, w.weights), zip(v.subspaces, v.weights))
    ]


def discrete_components_reference(f, g) -> list[np.ndarray]:
    """Per-vector error components g_k f_k^T."""
    return [np.outer(g.vectors[k], f.vectors[k]) for k in range(f.count)]


def member_values_reference(pair, norm_kind: str) -> list[float]:
    """``||E_i B_i||`` member by member: each reference component times its primal member's basis.

    B_i is zero-padded to the largest member dimension, as the engine pads
    it, so the values are the engine's single-member values bit for bit.
    They equal ``||E_i||`` up to the rounding of E_i outside W_i.
    """
    bases = [sub.basis for sub in pair.primal.subspaces]
    k = max(b.shape[1] for b in bases)
    values = []
    for e, b in zip(fusion_components_reference(pair), bases):
        padded = np.zeros((len(b), k))
        padded[:, : b.shape[1]] = b
        values.append(matrix_norm(e @ padded, norm_kind))
    return values


def brute_force_worst(components, r: int, norm_kind: str):
    """(worst value, argmax subsets, table or None) from one exact norm per subset.

    ``components`` is a list of n x n components, or a fusion dual pair,
    whose components are :func:`fusion_components_reference`. Every subset's
    error is summed onto a zero matrix and measured with ``matrix_norm``,
    except a fusion pair's single members at r = 1, which are measured in
    member coordinates (:func:`member_values_reference`). The argmax keeps
    every subset within the 1e-12 relative tie window, and the table is kept
    for at most 4096 subsets.
    """
    if isinstance(components, DualPair) and r == 1:
        table = [((i,), v) for i, v in enumerate(member_values_reference(components, norm_kind), start=1)]
    else:
        if isinstance(components, DualPair):
            components = fusion_components_reference(components)
        table = []
        for subset in itertools.combinations(range(1, len(components) + 1), r):
            err = np.zeros(components[0].shape)
            for i in subset:
                err += components[i - 1]
            table.append((subset, matrix_norm(err, norm_kind)))
    worst = max(value for _, value in table)
    argmax = tuple(s for s, value in table if value >= worst * (1.0 - 1e-12))
    return worst, argmax, tuple(table) if len(table) <= 4096 else None


# --- loop references for vectorized code -------------------------------------


def tail_sums_reference(norms: np.ndarray, k: int) -> np.ndarray:
    """``tails[t, p]``, the sum of the t largest of ``norms[p:]``, for t <= k and p <= len(norms).

    The full (k + 1) x (m + 1) table the branch and bound used to build,
    each sum added largest first onto 0.0, one Python float at a time.
    """
    m = len(norms)
    tails = [[0.0] * (m + 1) for _ in range(k + 1)]
    top: list[float] = []  # the k largest of norms[p:], negated and ascending
    for p in range(m - 1, -1, -1) if k else ():
        bisect.insort(top, -float(norms[p]))
        del top[k:]
        acc = 0.0
        for t, value in enumerate(top, 1):
            acc -= value
            tails[t][p] = acc
    return np.array(tails)



def orthonormal_basis_reference(vectors, tol: Tolerance = DEFAULT_TOL, *, ambient_dim=None) -> Subspace:
    """Gram-Schmidt one vector at a time, as ``orthonormal_basis`` did before it was vectorized.

    Same pivoting (largest residual norm first), same discard rule (residual
    at most ``rank_eps`` times the largest input norm), and the pivot is
    projected off the accepted vectors one at a time, twice.
    """
    cols = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if ambient_dim is None:
        ambient_dim = cols[0].shape[0]
    max_norm = max((float(np.linalg.norm(c)) for c in cols), default=0.0)
    thresh = tol.rank_eps * max_norm
    accepted: list[np.ndarray] = []
    work = [c.copy() for c in cols]
    while work:
        norms = [float(np.linalg.norm(w)) for w in work]
        j = int(np.argmax(norms))
        if norms[j] <= thresh:
            break
        v = work.pop(j)
        for _ in range(2):
            for q in accepted:
                v -= (q @ v) * q
        nv = float(np.linalg.norm(v))
        if nv <= thresh:
            continue
        q = v / nv
        accepted.append(q)
        work = [w - (q @ w) * q for w in work]
    if not accepted:
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))
    return Subspace(ambient_dim, np.column_stack(accepted))


def orthonormal_basis_one_block(
    vectors: Sequence, tol: Tolerance = DEFAULT_TOL, *, ambient_dim: int | None = None
) -> Subspace:
    """``orthonormal_basis`` as it ran on one ``(k, n)`` array before blocks were batched.

    The reference that ``orthonormal_bases`` must match bit for bit, block by block.
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


def span_dim_reference(w: FusionFrame, indices: Sequence[int], tol: Tolerance) -> int:
    """``optimality._span_dim`` as it counted before its Gram screen: always by SVD."""
    rows = np.vstack([np.zeros((0, w.ambient_dim)), *(w.subspaces[i - 1].basis.T for i in indices)])
    return int(np.sum(np.linalg.svd(rows, compute_uv=False) > tol.rank_eps))
