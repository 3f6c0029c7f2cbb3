"""Erasure masks, error operators, and worst-case erasure errors.

Fusion-level errors erase whole members; discrete-level errors erase single
vectors (for bridged frames, the block of all vectors of one member via
:func:`block_mask`). Indices are 1-based everywhere, matching the bundled
worked examples.

Every error operator is a sum of per-index components: for a fusion pair the
rows ``w_i v_i P_{V_i} S_W^{-1} P_{W_i}`` of the component stack that
:func:`~fusionframes.duality.make_dual_pair` built once, for a discrete pair
``g_k f_k^T``, formed per gathered chunk, so never all at once. A worst-case
report of at most 4096 subsets lists every value, from one pass over the
subsets in lexicographic order. Larger ones come from one exact
branch-and-bound search over the lexicographic tree of subset prefixes. By the
triangle inequality, which holds for both norms, no subset below a prefix P
can exceed ``||S_P||`` plus the largest component norms still available. A
prefix whose bound, widened by a written rounding slack, falls below the tie
window of an exact value already found is skipped with its whole subtree;
every other subset is summed and measured exactly. The result is the maximum
over all C(m, r) subsets, proved rather than sampled, with complete argmax
sets. Values are bitwise those of summing each subset onto a zero matrix in
index order and measuring it, so they do not depend on the search order or the
pruning. Memory holds one batch of prefix sums per level of the tree, the
levels sharing a fixed byte budget, so it does not grow with C(m, r). The
operations refuse rather than sample once the subset count exceeds the cap.
"""

from __future__ import annotations

import itertools
import math
import sys
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
    components. Rank-one components are formed per gathered chunk, so a
    discrete pair never holds all of them at once.
    """

    count: int
    dim: int
    take: Callable[[np.ndarray], np.ndarray]


def _fusion_components(pair: DualPair) -> _Components:
    """The pair's component stack, w_i v_i proj_{V_i} S_W^{-1} proj_{W_i} per member."""
    stack = pair.components
    return _Components(len(stack), pair.primal.ambient_dim, stack.__getitem__)


def _rank_one_components(f: DiscreteFrame, g: DiscreteFrame) -> _Components:
    """Components g_k f_k^T of the discrete pair (the products of ``np.outer``)."""
    if f.count != g.count:
        raise ValueError(f"frame lengths differ: {f.count} vs {g.count}")
    fv, gv = f.vectors, g.vectors
    return _Components(f.count, f.ambient_dim, lambda rows: gv[rows, :, None] * fv[rows, None, :])


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


def _sum_norms(sums: np.ndarray, norm_kind: NormKind) -> np.ndarray:
    """:func:`matrix_norm` of each matrix in the stack ``sums``, rounding identically.

    The operator norm runs the same LAPACK SVD as ``matrix_norm``, batched;
    the Frobenius norm takes the same flat dot product as ``np.linalg.norm``.
    A non-finite norm is refused, so no search ever compares one.
    """
    if norm_kind == "operator":
        values = np.linalg.svd(sums, compute_uv=False)[:, 0]
    else:
        flat = sums.reshape(len(sums), -1)
        values = np.sqrt(np.vecdot(flat, flat))
    if not np.isfinite(values).all():
        raise ValueError("erasure error norm is not finite: the error components overflow")
    return values


def _norms(components: _Components, idx: np.ndarray, norm_kind: NormKind) -> np.ndarray:
    """Per row of ``idx``, the norm of the subset's sum, one chunk of sums at a time."""
    rows = max(1, _CHUNK_BYTES // (8 * components.dim**2))
    return np.concatenate(
        [_sum_norms(_chunk_sums(components, idx[lo : lo + rows]), norm_kind) for lo in range(0, len(idx), rows)]
    )


def _gain_band(norms: np.ndarray, r: int) -> np.ndarray:
    """``band[t, i] = norms[j] + top_t(> j)`` for j = r - 1 - t + i, t < r and i <= m - r.

    top_t(> j) sums the t largest of ``norms[j + 1:]``, added largest first
    onto 0.0. Row t holds only the m - r + 1 members j that the search can
    extend at depth r - t, so the band never takes r x m entries.
    """
    m = len(norms)
    band = np.empty((r, m - r + 1))
    band[0] = norms[r - 1 :] + 0.0
    top = np.empty(0)  # the r - 1 largest of norms[j + 1:], descending
    for j in range(m - 2, -1, -1) if r > 1 else ():
        x = norms[j + 1]
        top = np.insert(top, len(top) - top[::-1].searchsorted(x, "right"), x)[: r - 1]
        t = np.arange(max(1, r - 1 - j), min(r - 1, m - 1 - j) + 1)
        band[t, j - r + 1 + t] = norms[j] + np.cumsum(top[: t[-1]])[t - 1]
    return band


def _greedy_leaf(components: _Components, norms: np.ndarray, r: int, norm_kind: NormKind) -> float:
    """Exact value of one r-subset found by a local search.

    Starting from the r largest components, the search replaces one member
    by one outsider, taking the best such swap (the first, position by
    position, among equals), while that raises the value. The swaps are
    formed for a group of positions at a time, each group's index rows
    within the chunk budget.
    """
    chosen = np.sort(np.argsort(norms, kind="stable")[-r:])
    best = float(_norms(components, chosen[None, :], norm_kind)[0])
    while r > 1:  # a single largest component is already the best single member
        current = chosen
        rest = np.setdiff1d(np.arange(components.count), current)
        group = max(1, _CHUNK_BYTES // (8 * r * len(rest)))
        for lo in range(0, r, group):
            positions = np.arange(lo, min(lo + group, r))
            swaps = np.repeat(current[None, :], len(positions) * len(rest), axis=0)
            swaps[np.arange(len(swaps)), np.repeat(positions, len(rest))] = np.tile(rest, len(positions))
            swaps.sort(axis=1)
            values = _norms(components, swaps, norm_kind)
            k = int(values.argmax())
            if values[k] > best:
                best, chosen = float(values[k]), swaps[k]
        if chosen is current:  # no swap raised the value
            break
    return best


def _binomials(s: int, r: int) -> list[np.ndarray]:
    """``tabs[k][i] = C(k - 1 + i, k)`` for 1 <= k <= r and 0 <= i <= s (``tabs[0]`` is unused).

    Each row is the running sum of the one before, by the hockey-stick
    identity C(k + i, k + 1) = sum_{x <= i} C(k - 1 + x, k).
    """
    tabs = [np.zeros(s + 1, dtype=np.int64), np.arange(s + 1, dtype=np.int64)]
    for _ in range(r - 1):
        tabs.append(tabs[-1].cumsum())
    return tabs


def _unrank(tabs: list[np.ndarray], ranks: np.ndarray, r: int) -> list[tuple[int, ...]]:
    """The 1-based r-subsets {c_1 < ... < c_r} (0-based c_k) whose colex ranks sum_k C(c_k, k) are ``ranks``."""
    out = np.empty((len(ranks), r), dtype=np.intp)
    rest = ranks.copy()
    for k in range(r, 0, -1):
        i = tabs[k].searchsorted(rest, side="right") - 1
        out[:, k - 1] = i + k
        rest -= tabs[k][i]
    return list(zip(*out.T.tolist()))


def _level_rows(need: list[int], total: int) -> list[int]:
    """Rows per level: min(need_d, c) for the largest c keeping the sum within ``total`` (``need`` nondecreasing)."""
    for d, wanted in enumerate(need):
        share = total // (len(need) - d)
        if share < wanted:
            return need[:d] + [max(1, share)] * (len(need) - d)
        total -= wanted
    return need


def _worst_report(components: _Components, r: int, norm_kind: NormKind) -> ErasureReport:
    """Exact worst-case report over all r-subsets of the m components.

    A report of at most ``_TABLE_MAX`` subsets lists every value, measured
    in one pass over the r-subsets in lexicographic order; larger ones come
    from a branch-and-bound search.

    The search walks the lexicographic tree of prefixes P = (p_1 < ... < p_d)
    with one generator per depth. ``level(d, parents)`` gathers the
    children of the batches that ``parents``, the generator of depth d - 1,
    yields into one batch of its own, across as many parent batches as it
    takes, measures it and yields it once it is full, or once ``parents`` is
    exhausted. Each parent batch is used up before the next is asked for, so
    the leaves (the r-subsets, from depth r) arrive in lexicographic order,
    and deep trees still move in full batches. A child's sum is its parent's
    sum plus its own member, so every subset sum is built as
    ``_chunk_sums`` builds it, (0 + E_{p_1}) + E_{p_2} + ..., and every leaf
    value is :func:`_sum_norms` of it: each reported value equals
    :func:`matrix_norm` of that subset's sum bit for bit, in either path.

    Bound: a leaf below P adds t more members after p_d to S_P, so by the
    triangle inequality, in either norm, its value is at most
    ``||S_P|| + ||E_j|| + top_{t-1}(> j)`` for its next member j, where
    top_s(> j) sums the s largest ``||E_i||`` with i > j. A child (P, j)
    whose bound plus ``slack`` is below ``floor * (1 - _TIE_REL)`` is pruned
    before its sum is formed. The floor starts at the exact value of one
    leaf found by a greedy local search (:func:`_greedy_leaf`) and rises
    with every measured leaf, so it never exceeds the final worst value.

    Slack: let u = eps / 2, c_j the computed ``||E_j||`` and T the sum of
    the r largest c_j; every partial sum, norm and bound below is at most
    2 T. (i) A leaf L below P is computed as S_L = S_P + sum of its other
    members + D, each elementwise addition erring by at most u times its
    result, so ||D|| <= 2 r u sqrt(n) T in either norm (an n x n matrix has
    ||X||_2 <= ||X||_F <= sqrt(n) ||X||_2). (ii) A computed norm is within
    p(n) eps of the true one, relatively: p(n) <= n^2 / 2 + 2 for the flat
    dot product, and O(n^2) for the backward-stable SVD. This enters three
    times: for S_P, for the c_j and for the leaf. (iii) The bound and the
    test add at most r + 1 computed nonnegative numbers (one prefix norm
    and at most one norm per member) and the slack,
    erring by at most 2 (r + 2) u T. So the computed value of any leaf
    below P exceeds the computed bound by at most
    2 (3 p(n) + r sqrt(n) + r + 2) eps T, which the slack
    ``32 eps (n^2 + r^2) T`` covers for every p(n) up to 4 n^2. A leaf whose
    computed value is in the final tie window is therefore never pruned:
    the reported worst value and argmax sets are those of exhaustive
    enumeration, proved over every subset, not sampled.

    A prefix is stored as its sum, its last member, its norm and its colex
    rank sum_k C(p_k, k); a child's rank is its parent's plus C(j, d + 1).
    The search keeps the rank and value of every leaf that reached the floor
    when measured, and reads the subsets back (:func:`_unrank`) once it is
    over. The levels share the chunk budget, none getting more rows than
    the tree has prefixes of its length, so memory never holds the whole
    frontier.
    """
    m, n = components.count, components.dim
    if not 1 <= r < m:
        raise ValueError(f"r must satisfy 1 <= r < {m}, got {r}")
    count = math.comb(m, r)
    if count > ENUMERATION_CAP:
        raise ValueError(
            f"C({m},{r}) = {count} subsets exceeds the enumeration cap "
            f"{ENUMERATION_CAP}; refusing to sample"
        )
    if norm_kind not in ("frobenius", "operator"):
        raise ValueError(f"unknown norm kind {norm_kind!r}")
    if count <= _TABLE_MAX:
        subsets = list(itertools.combinations(range(1, m + 1), r))
        values = _norms(components, np.array(subsets, dtype=np.intp) - 1, norm_kind)
        worst = float(values.max())
        argmax = itertools.compress(subsets, values >= worst * (1.0 - _TIE_REL))
        return ErasureReport(r, norm_kind, worst, tuple(argmax), tuple(zip(subsets, values.tolist())))
    s = m - r  # a prefix of length d has a completion iff p_d <= s + d - 1 (0-based)
    tabs = _binomials(s, r)
    # level d of the tree has C(s + d, d) prefixes; a row takes its sum and
    # three 8-byte entries, and a window of candidate children (about 64
    # bytes each in index, mask and bound arrays while screened, 24 while
    # waiting) may wait at every level
    rows = [1] + _level_rows([math.comb(s + d, d) for d in range(1, r + 1)], _CHUNK_BYTES // (8 * n * n + 24))
    # parents screened at once: enough to fill the next level's batch, and
    # at least a share of the budget
    windows = [max(k // (s + 1), _CHUNK_BYTES // (64 * (s + 1) * r), 1) for k in rows[1:]]
    steps = np.arange(1, s + 2)
    norms = _norms(components, np.arange(m)[:, None], norm_kind)
    gain = _gain_band(norms, r)  # row r - d: own norm + r - d largest after, at depth d
    slack = 32.0 * np.finfo(float).eps * (n * n + r * r) * float(np.sort(norms)[-r:].sum())
    # the running worst value is the floor; it starts at the exact value of
    # a leaf that the search is bound to measure again
    worst = _greedy_leaf(components, norms, r, norm_kind)

    def level(d: int, parents: Iterable[tuple]) -> Iterable[tuple]:
        """Batches (sums, last members, colex ranks, norms) of the depth-d children of ``parents`` that can reach the tie window."""
        k = rows[d]
        sums, last, ranks = np.empty((k, n, n)), np.empty(k, dtype=np.intp), np.empty(k, dtype=np.int64)
        size = 0

        def batch():
            return sums[:size], last[:size], ranks[:size], _sum_norms(sums[:size], norm_kind)

        for up_sums, up_last, up_ranks, up_norms in parents:
            for lo in range(0, len(up_last), windows[d - 1]):
                j = up_last[lo : lo + windows[d - 1], None] + steps
                reach = up_norms[lo : lo + windows[d - 1], None] + gain[r - d].take(j - d + 1, mode="clip")
                valid = (j <= s + d - 1) & (reach + slack >= worst * (1.0 - _TIE_REL))
                par, j, reach = valid.nonzero()[0] + lo, j[valid], reach[valid]
                a = 0
                while a < len(par):
                    b = a + k - size
                    # the floor may have risen since the window was screened
                    keep = reach[a:b] + slack >= worst * (1.0 - _TIE_REL)
                    p, q = par[a:b][keep], j[a:b][keep]
                    a, hi = b, size + len(q)
                    up_sums.take(p, axis=0, out=sums[size:hi])
                    sums[size:hi] += components.take(q)
                    ranks[size:hi] = up_ranks[p] + tabs[d][q - d + 1]
                    last[size:hi] = q
                    size = hi
                    if size == k:
                        yield batch()
                        size = 0
        if size:
            yield batch()

    # (colex ranks, values) of the leaves that reached the floor, in lexicographic order
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    # chained here rather than by ``level`` calling itself: a closure that
    # refers to itself is a reference cycle, and would keep the components
    # and the batches alive until the cyclic collector runs
    batches = iter([(np.zeros((1, n, n)), np.array([-1]), np.zeros(1, dtype=np.int64), np.zeros(1))])
    for d in range(1, r + 1):
        batches = level(d, batches)
    # the generators nest r deep, one interpreter frame each
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + r)
    try:
        for _, _, ranks, values in batches:
            worst = max(worst, float(values.max()))
            hit = values >= worst * (1.0 - _TIE_REL)
            kept.append((ranks[hit], values[hit]))
    finally:
        sys.setrecursionlimit(limit)
    ranks, values = map(np.concatenate, zip(*kept))
    return ErasureReport(
        r=r,
        norm_kind=norm_kind,
        worst_value=worst,
        argmax_subsets=tuple(_unrank(tabs, ranks[values >= worst * (1.0 - _TIE_REL)], r)),
    )


def worst_case_error(pair: DualPair, r: int, norm_kind: NormKind) -> ErasureReport:
    """Exhaustive worst error over all C(m, r) member subsets of the pair."""
    return _worst_report(_fusion_components(pair), r, norm_kind)


def discrete_error_operator(
    f: DiscreteFrame, g: DiscreteFrame, mask: ErasureMask
) -> np.ndarray:
    """sum over erased k of g_k f_k^T."""
    components = _rank_one_components(f, g)
    if mask.total != f.count:
        raise ValueError("mask total does not match the frame length")
    return _erased_sum(components, mask)


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
    return _worst_report(_rank_one_components(f, g), r, norm_kind)


def partial_erasure_error(
    f: DiscreteFrame, g: DiscreteFrame, mask: ErasureMask, norm_kind: NormKind
) -> float:
    """Error norm for one fixed, known erasure set of vectors."""
    return matrix_norm(discrete_error_operator(f, g, mask), norm_kind)
