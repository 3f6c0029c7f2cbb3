"""Erasure masks, error operators, and worst-case erasure errors.

Fusion-level errors erase whole members; discrete-level errors erase single
vectors (for bridged frames, the block of all vectors of one member via
:func:`block_mask`). Indices are 1-based everywhere, matching the bundled
worked examples.

Every error operator is a sum of per-index components: for a fusion pair the
rows ``w_i v_i P_{V_i} S_W^{-1} P_{W_i}`` of the component stack that
:func:`~fusionframes.duality.make_dual_pair` built once, for a discrete pair
``g_k f_k^T``, formed per gathered chunk, so never all at once. Worst-case
reports stream all C(m, r) subsets through one engine, in lexicographic
chunks whose size is set by a fixed byte budget. Memory holds one chunk, the
running maximum and its current ties, plus the per-subset table only when
there are at most 4096 subsets, so it does not grow with C(m, r). Once there
are more subsets than the m^2 entries of the components' Gram matrix (so
m < 1000 under the cap and the Gram matrix stays below 8 MB), each chunk is
first screened, under either norm, through that Gram matrix: it gives every
subset's squared Frobenius norm, which bounds the operator norm from above
too. The screen keeps every subset that a written rounding bound cannot
exclude from the tie window, so it never drops a candidate. Only the kept
subsets are summed and measured exactly: by one batched SVD under the
operator norm, by one flat dot product per sum under the Frobenius norm.
Reported values therefore do not depend on the chunking or the screen.
Enumeration is always exhaustive; the operations refuse rather than sample
once the subset count exceeds the cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal

import numpy as np

from .discrete import DiscreteFrame
from .duality import DualPair
from .linalg import DEFAULT_TOL, Tolerance, frobenius_norm, operator_norm

__all__ = [
    "NormKind",
    "ENUMERATION_CAP",
    "ErasureMask",
    "ErasureReport",
    "matrix_norm",
    "block_mask",
    "fusion_error_operator",
    "fusion_partial_error",
    "worst_case_error",
    "discrete_error_operator",
    "discrete_worst_case",
    "partial_erasure_error",
]

NormKind = Literal["frobenius", "operator"]

# "optimal" claims must never rest on sampling, so refuse past this many subsets
ENUMERATION_CAP = 10**6

_TIE_REL = 1e-12

# reports list every subset's value up to this many subsets
_TABLE_MAX = 4096

# one chunk of n x n subset sums takes about this many bytes: small enough to
# stay in cache and to add little to peak memory at n = 64 (1 MB measured
# faster than 256 KB and 4 MB on the enumeration benchmark)
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class ErasureMask:
    """Set of erased 1-based indices out of ``total``; empty means nothing lost."""

    total: int
    erased: frozenset[int]

    def __init__(self, total: int, erased: Iterable[int]):
        object.__setattr__(self, "total", int(total))
        object.__setattr__(self, "erased", frozenset(int(k) for k in erased))
        if self.total <= 0:
            raise ValueError("total must be positive")
        for k in self.erased:
            if not 1 <= k <= self.total:
                raise ValueError(f"erased index {k} out of range 1..{self.total}")


@dataclass(frozen=True, eq=False)
class ErasureReport:
    """Worst-case report over all subsets of size ``r``.

    ``argmax_subsets`` lists every subset attaining the worst value within a
    1e-12 relative tie window, lexicographically sorted. ``per_subset_values``
    is included when there are at most 4096 subsets, else it is None.
    """

    r: int
    norm_kind: NormKind
    worst_value: float
    argmax_subsets: tuple[tuple[int, ...], ...]
    per_subset_values: tuple[tuple[tuple[int, ...], float], ...] | None = None


def matrix_norm(a: np.ndarray, norm_kind: NormKind) -> float:
    if norm_kind == "frobenius":
        return frobenius_norm(a)
    if norm_kind == "operator":
        return operator_norm(a)
    raise ValueError(f"unknown norm kind {norm_kind!r}")


def block_mask(f: DiscreteFrame, i: int) -> ErasureMask:
    """Mask erasing every vector of bridged member ``i`` (uses the (i, j) labels)."""
    if f.labels is None:
        raise ValueError("frame carries no labels; block masks need bridge provenance")
    erased = [k + 1 for k, (mi, _) in enumerate(f.labels) if mi == i]
    if not erased:
        raise ValueError(f"no vectors labeled with member {i}")
    return ErasureMask(f.count, erased)


@dataclass(frozen=True)
class _Components:
    """Per-index error components E_1, ..., E_count of one pair, each n x n.

    ``take`` maps an array of 0-based indices to the stack of those
    components; ``gram`` returns the count x count matrix of <E_a, E_b>_F.
    Rank-one components are formed per gathered chunk, so a discrete pair
    never holds all of them at once.
    """

    count: int
    dim: int
    take: Callable[[np.ndarray], np.ndarray]
    gram: Callable[[], np.ndarray]


def _fusion_components(pair: DualPair) -> _Components:
    """The pair's component stack, w_i v_i proj_{V_i} S_W^{-1} proj_{W_i} per member."""
    stack = pair.components
    flat = stack.reshape(len(stack), -1)
    return _Components(len(stack), pair.primal.ambient_dim, stack.__getitem__, lambda: flat @ flat.T)


def _rank_one_components(fv: np.ndarray, gv: np.ndarray) -> _Components:
    """Components g_k f_k^T over the rows of ``fv`` and ``gv`` (the products of ``np.outer``)."""
    count, n = fv.shape
    return _Components(
        count,
        n,
        lambda rows: gv[rows, :, None] * fv[rows, None, :],
        lambda: (gv @ gv.T) * (fv @ fv.T),
    )


def _chunk_sums(components: _Components, idx: np.ndarray) -> np.ndarray:
    """Per row of ``idx``, the indexed components added in row order onto a zero matrix."""
    sums = np.zeros((len(idx), components.dim, components.dim))
    for j in range(idx.shape[1]):
        sums += components.take(idx[:, j])
    return sums


def _erased_sum(components: _Components, mask: ErasureMask) -> np.ndarray:
    """Sum of the erased components, added in index order onto a zero matrix."""
    rows = np.array(sorted(mask.erased), dtype=np.intp) - 1
    return _chunk_sums(components, rows[None, :])[0]


def fusion_error_operator(pair: DualPair, mask: ErasureMask) -> np.ndarray:
    """sum over erased i of w_i v_i proj_{V_i} S_W^{-1} proj_{W_i}."""
    if mask.total != pair.member_count:
        raise ValueError("mask total does not match the member count")
    return _erased_sum(_fusion_components(pair), mask)


def fusion_partial_error(pair: DualPair, mask: ErasureMask, norm_kind: NormKind) -> float:
    """Error norm for one fixed, known erasure set (no max over subsets)."""
    return matrix_norm(fusion_error_operator(pair, mask), norm_kind)


def _gram_screen(components: _Components, r: int) -> tuple[np.ndarray, float]:
    """Screen weights and rounding slack for squared Frobenius norms of r-subset sums.

    ``||sum_{a in S} E_a||_F^2`` is the sum of the Gram entries <E_a, E_b>_F
    over S x S, so the returned weights hold the Gram diagonal and twice its
    upper triangle. The slack bounds how far a screened value can sit below
    the square of the exact value that the report would hold for the subset.
    With u = eps / 2 and T the sum of the r largest component norms (so
    every subset sum has Frobenius norm at most T, up to rounding):

    * the Gram entries err by at most (n^2 + 2) u T^2 over S x S (as flat
      n^2-term dot products, or for rank-one components as products
      (g_a . g_b)(f_a . f_b) of n-term ones), the Frobenius norm's dot
      product by at most n^2 u T^2 and the r-term sums by at most
      r^2 u T^2, together below 2 (n^2 + r^2) eps T^2;
    * the operator norm of a computed sum is at most its Frobenius norm,
      and LAPACK's SVD returns sigma_1 within p(n) eps sigma_1, which
      raises its square by at most (2 p(n) + 1) eps T^2 while p(n)^2 eps <= 1;
    * squaring the floor and the tie factor, and the report's own tie
      test, round by at most 4 eps T^2 together.

    The slack, 16 (n^2 + r^2) eps T^2, covers their total for every p(n) up
    to 6 n^2, well above the O(n^2) growth of the backward error of the
    Householder bidiagonalization behind the SVD.
    """
    n = components.dim
    weights = components.gram()
    diag = weights.diagonal().copy()
    weights *= 2.0
    np.fill_diagonal(weights, diag)
    top = float(np.sort(np.sqrt(diag))[-r:].sum())
    slack = 16.0 * np.finfo(float).eps * (n * n + r * r) * top * top
    return weights, slack


def _screened(weights: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Screen values of the subsets given as rows of ascending 0-based indices."""
    flat = weights.ravel()
    base = idx * weights.shape[0]
    sq = np.zeros(len(idx))
    for a in range(idx.shape[1]):
        for b in range(a, idx.shape[1]):
            sq += flat[base[:, a] + idx[:, b]]
    return sq


def _norms(components: _Components, idx: np.ndarray, norm_kind: NormKind) -> np.ndarray:
    """Per row of ``idx``, :func:`matrix_norm` of the subset's sum (rounding identically)."""
    sums = _chunk_sums(components, idx)
    if norm_kind == "operator":
        return np.linalg.svd(sums, compute_uv=False)[:, 0]
    flat = sums.reshape(len(sums), components.dim**2)
    return np.sqrt(np.vecdot(flat, flat))


def _worst_report(components: _Components, r: int, norm_kind: NormKind) -> ErasureReport:
    """Exhaustive worst-case report over all r-subsets of the m components.

    Every value that reaches the report equals :func:`matrix_norm` of its
    subset's sum, added in order onto a zero matrix: the operator norm runs
    the same LAPACK SVD batched over the kept rows of a chunk, and the
    Frobenius norm takes the same flat dot product as ``np.linalg.norm``.
    """
    total, n = components.count, components.dim
    if not 1 <= r < total:
        raise ValueError(f"r must satisfy 1 <= r < {total}, got {r}")
    count = math.comb(total, r)
    if count > ENUMERATION_CAP:
        raise ValueError(
            f"C({total},{r}) = {count} subsets exceeds the enumeration cap "
            f"{ENUMERATION_CAP}; refusing to sample"
        )
    if norm_kind not in ("frobenius", "operator"):
        raise ValueError(f"unknown norm kind {norm_kind!r}")
    table: list[tuple[tuple[int, ...], float]] | None = [] if count <= _TABLE_MAX else None
    # the table needs every exact value, and the m x m Gram matrix only pays
    # for itself (and stays below 8 MB under the cap) past m^2 subsets
    screen = _gram_screen(components, r) if table is None and count > total * total else None
    chunk_rows = max(1, _CHUNK_BYTES // (8 * n * n))
    subsets = itertools.combinations(range(total), r)
    worst = -1.0
    ties: list[tuple[tuple[int, ...], float]] = []
    for start in range(0, count, chunk_rows):
        rows = min(chunk_rows, count - start)
        flat = itertools.chain.from_iterable(itertools.islice(subsets, rows))
        idx = np.fromiter(flat, np.intp, count=rows * r).reshape(rows, r)
        if screen is not None:
            weights, slack = screen
            sq = _screened(weights, idx)
            # the final worst value is at least the running one and at least
            # the exact value of the chunk's best-screened subset
            best = float(_norms(components, idx[[int(sq.argmax())]], norm_kind)[0])
            floor = max(worst, best)
            idx = idx[sq >= floor * floor * (1.0 - _TIE_REL) ** 2 - slack]
        values = _norms(components, idx, norm_kind)
        if not values.size:
            continue
        chunk_worst = float(values.max())
        if chunk_worst > worst:
            worst = chunk_worst
            ties = [t for t in ties if t[1] >= worst * (1.0 - _TIE_REL)]
        hits = np.flatnonzero(values >= worst * (1.0 - _TIE_REL))
        ties += zip(map(tuple, (idx[hits] + 1).tolist()), values[hits].tolist())
        if table is not None:
            table += zip(map(tuple, (idx + 1).tolist()), values.tolist())
    return ErasureReport(
        r=r,
        norm_kind=norm_kind,
        worst_value=worst,
        argmax_subsets=tuple(s for s, _ in ties),
        per_subset_values=None if table is None else tuple(table),
    )


def worst_case_error(pair: DualPair, r: int, norm_kind: NormKind) -> ErasureReport:
    """Exhaustive worst error over all C(m, r) member subsets of the pair."""
    return _worst_report(_fusion_components(pair), r, norm_kind)


def discrete_error_operator(
    f: DiscreteFrame, g: DiscreteFrame, mask: ErasureMask
) -> np.ndarray:
    """sum over erased k of g_k f_k^T."""
    if f.count != g.count:
        raise ValueError(f"frame lengths differ: {f.count} vs {g.count}")
    if mask.total != f.count:
        raise ValueError("mask total does not match the frame length")
    return _erased_sum(_rank_one_components(f.vectors, g.vectors), mask)


def discrete_worst_case(
    f: DiscreteFrame,
    g: DiscreteFrame,
    r: int,
    norm_kind: NormKind,
    tol: Tolerance = DEFAULT_TOL,
) -> ErasureReport:
    """Exhaustive worst error over all C(m, r) vector subsets.

    ``tol`` is accepted for call compatibility and unused: no decision here
    depends on a tolerance.
    """
    if f.count != g.count:
        raise ValueError(f"frame lengths differ: {f.count} vs {g.count}")
    return _worst_report(_rank_one_components(f.vectors, g.vectors), r, norm_kind)


def partial_erasure_error(
    f: DiscreteFrame, g: DiscreteFrame, mask: ErasureMask, norm_kind: NormKind
) -> float:
    """Error norm for one fixed, known erasure set of vectors."""
    return matrix_norm(discrete_error_operator(f, g, mask), norm_kind)
