"""Erasure masks, error operators, and worst-case erasure errors.

Fusion-level errors erase whole members; discrete-level errors erase single
vectors (for bridged frames, the block of all vectors of one member via
:func:`block_mask`). Indices are 1-based everywhere, matching the bundled
worked examples.

Every error operator is a sum of per-index components: for a fusion pair the
rows ``w_i v_i P_{V_i} S_W^{-1} P_{W_i}`` of the component stack that
:func:`~fusionframes.duality.make_dual_pair` built once, for a discrete pair
``g_k f_k^T``, formed per gathered chunk, so never all at once. A worst-case
report over single members (r = 1) measures each member once. For a fusion
pair that value is taken in the member's own coordinates: E_i = E_i P_{W_i},
so ``||E_i|| = ||E_i B_i||`` in both norms for the n x k_i orthonormal basis
B_i of W_i, and an n x k_i matrix is measured instead of an n x n one. A
discrete pair's single values are the dense norms of its rank-one
components. A report of r >= 2 over at most 4096 subsets lists every value,
from one pass over the subsets in lexicographic order. Larger ones come from
one exact branch-and-bound search over the lexicographic tree of subset
prefixes. By the triangle inequality, which holds for both norms, no subset
below a prefix P can exceed ``||S_P||`` plus the largest component norms still
available. A prefix whose bound, widened by a written rounding slack, falls
below the tie window of an exact value already found is skipped with its
whole subtree. Under the operator norm a prefix, and a leaf before it is
measured, is bounded by a few squarings of its Gram rather than measured by
``eigvalsh``; every subset that can reach the tie window is summed and
measured exactly. The result
is the maximum over all C(m, r) subsets, proved rather than sampled, with
complete argmax sets. For r >= 2, values are bitwise those of summing each
subset onto a zero matrix in index order and measuring it, so they do not
depend on the search order or the pruning; fusion values at r = 1 are those
of the member-coordinate products. Every value comes from the batched norm
kernels of :mod:`~fusionframes.linalg` that :func:`matrix_norm` runs on one
matrix: the operator norm is the square root of the top eigenvalue of the
matrix's Gram on its smaller side, the Frobenius norm that of one flat dot
product, and a matrix whose squares leave the float range is measured again
after an exact power-of-two rescale. Memory holds one batch of prefix sums per
level of the tree, the levels sharing a fixed byte budget, so it does not
grow with C(m, r). The operations refuse rather than sample once the subset
count exceeds the cap.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Literal

import numpy as np

from .discrete import DiscreteFrame
from .duality import DualPair
from .linalg import DEFAULT_TOL, Tolerance, _as_matrix, _frobenius_norms, _top_singular_bounds, _top_singular_values

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


def _norm_kernel(norm_kind: NormKind) -> Callable[[np.ndarray], np.ndarray]:
    """The batched kernel of ``norm_kind``, which measures each matrix of a ``(b, p, q)`` stack."""
    if norm_kind == "frobenius":
        return _frobenius_norms
    if norm_kind == "operator":
        return _top_singular_values
    raise ValueError(f"unknown norm kind {norm_kind!r}")


def matrix_norm(a: np.ndarray, norm_kind: NormKind) -> float:
    """Norm of the matrix ``a`` from its kernel: +0.0 if empty, inf past the float range; refuses non-finite entries."""
    kernel = _norm_kernel(norm_kind)
    a = _as_matrix(a)
    return float(kernel(a[None])[0]) if a.size else 0.0


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
    discrete pair never holds all of them at once. ``singles``, when set,
    gives the one-member values ``||E_i||`` in a cheaper form than the
    dense norms.
    """

    count: int
    dim: int
    take: Callable[[np.ndarray], np.ndarray]
    singles: Callable[[NormKind], np.ndarray] | None = None


def _fusion_components(pair: DualPair) -> _Components:
    """The pair's component stack, w_i v_i proj_{V_i} S_W^{-1} proj_{W_i} per member."""
    stack = pair.components
    return _Components(len(stack), pair.primal.ambient_dim, stack.__getitem__, partial(_member_norms, pair))


def _member_norms(pair: DualPair, norm_kind: NormKind) -> np.ndarray:
    """``||E_i B_i||`` per member, B_i the basis of W_i zero-padded to the largest member dimension.

    E_i ends in proj_{W_i} = B_i B_i^T, so these equal ``||E_i||`` in both
    norms, up to the rounding of the stored E_i outside W_i, which grows with
    cond(S_W). The bases are the frame's padded basis stack; the n x k_max
    products are formed and measured by :func:`_sum_norms` one chunk of
    members at a time.
    """
    stack, bases = pair.components, pair.primal._basis_stack
    n, k = bases.shape[1:]
    rows = max(1, _CHUNK_BYTES // (8 * n * k))
    values = []
    for lo in range(0, len(stack), rows):
        # an overflowing component gives a non-finite product, which _sum_norms refuses
        with np.errstate(over="ignore", invalid="ignore"):
            products = stack[lo : lo + rows] @ bases[lo : lo + rows]
        values.append(_sum_norms(products, norm_kind))
    return np.concatenate(values)


def _rank_one_components(f: DiscreteFrame, g: DiscreteFrame) -> _Components:
    """Components g_k f_k^T of the discrete pair (the products of ``np.outer``)."""
    if f.count != g.count:
        raise ValueError(f"frame lengths differ: {f.count} vs {g.count}")
    fv, gv = f.vectors, g.vectors
    return _Components(f.count, f.ambient_dim, lambda rows: gv[rows, :, None] * fv[rows, None, :])


def _chunk_sums(components: _Components, idx: np.ndarray) -> np.ndarray:
    """Per row of ``idx``, the indexed components added in row order onto a zero matrix."""
    sums = np.zeros((len(idx), components.dim, components.dim))
    # a sum past the float range becomes inf, or nan where a rank-one product overflowed to -inf,
    # which _sum_norms and _sum_bounds refuse
    with np.errstate(over="ignore", invalid="ignore"):
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
    """Error norm for one fixed, known erasure set (no max over subsets), measured and refused as a report's subset is."""
    return float(_sum_norms(fusion_error_operator(pair, mask)[None], norm_kind)[0])


def _sum_norms(sums: np.ndarray, norm_kind: NormKind) -> np.ndarray:
    """:func:`matrix_norm` of each matrix in the stack ``sums``, rounding identically.

    The stack holds subset sums or member-coordinate products
    (:func:`_member_norms`). Both norms run the batched kernels behind
    ``matrix_norm``, in which each matrix rounds as it does alone: the
    operator norm is the square root of the top eigenvalue of the smaller
    Gram, the Frobenius norm that of one flat dot product in C order. A
    non-finite norm is refused, so no search ever compares one and no report
    holds one.
    """
    values = _norm_kernel(norm_kind)(sums)
    if not np.isfinite(values).all():
        raise ValueError("erasure error norm is not finite: the error components overflow")
    return values


def _sum_bounds(sums: np.ndarray, norm_kind: NormKind) -> np.ndarray:
    """An upper bound on the norm of each matrix in the stack ``sums``, up to rounding, refused as :func:`_sum_norms` refuses.

    The Frobenius norm, one flat dot product, is its own bound: it is
    :func:`_sum_norms`. The operator norm's bound is
    :func:`~fusionframes.linalg._top_singular_bounds`, at most rank^(1/32)
    times the norm and much cheaper than its ``eigvalsh``; its computed
    value is at least ``||X||_2 (1 - p'(n) eps)``, p'(n) <= 0.6 n^2 + 2.
    """
    if norm_kind == "frobenius":
        return _sum_norms(sums, norm_kind)
    values = _top_singular_bounds(sums)
    if not np.isfinite(values).all():
        raise ValueError("erasure error norm is not finite: the error components overflow")
    return values


def _norms(components: _Components, idx: np.ndarray, norm_kind: NormKind, bounds: bool = False) -> np.ndarray:
    """Per row of ``idx``, the norm of the subset's sum (its :func:`_sum_bounds` if ``bounds``), one chunk of sums at a time."""
    measure = _sum_bounds if bounds else _sum_norms
    rows = max(1, _CHUNK_BYTES // (8 * components.dim**2))
    values = np.empty(len(idx))
    for lo in range(0, len(idx), rows):
        values[lo : lo + rows] = measure(_chunk_sums(components, idx[lo : lo + rows]), norm_kind)
    return values


def _gain_band(norms: np.ndarray, r: int) -> np.ndarray:
    """``band[t, i] = norms[j] + top_t(> j)`` for j = r - 1 - t + i, t < r and i <= m - r.

    top_t(> j) sums the t largest of ``norms[j + 1:]``, added largest first
    onto 0.0. Row t holds only the m - r + 1 members j that the search can
    extend at depth r - t, so the band never takes r x m entries. The r - 1
    largest of each tail are kept in one sorted array of doubles, copied
    into one row per member, and each block of rows within the chunk budget
    is summed by one running sum along the rows. Only the search calls it,
    so 2 <= r < m.
    """
    m = len(norms)
    band = np.empty((r, m - r + 1))
    band[0] = norms[r - 1 :] + 0.0
    rows = min(m - 1, max(1, _CHUNK_BYTES // (8 * (r - 1))))
    tops = np.zeros((rows, r - 1))  # row of member j: the r - 1 largest of norms[j + 1:], descending
    kept = array("d")  # the same, negated and ascending
    negated = (-norms).tolist()
    for j in range(m - 2, -1, -1):
        bisect.insort(kept, negated[j + 1])
        del kept[r - 1 :]
        np.negative(np.frombuffer(kept), out=tops[j % rows, : len(kept)])
        if j % rows == 0:
            # member j + a takes top_t for t from max(1, r - 1 - j - a) to min(r - 1, m - 1 - j - a)
            members = np.arange(j, min(j + rows, m - 1))
            t = np.maximum(1, r - 1 - members)[:, None] + np.arange(min(r - 1, m - r + 1))
            a, c = (t <= np.minimum(r - 1, m - 1 - members)[:, None]).nonzero()
            t, js = t[a, c], members[a]
            band[t, js - r + 1 + t] = norms[js] + np.cumsum(tops[: len(members)], axis=1)[a, t - 1]
    return band


def _greedy_leaf(components: _Components, norms: np.ndarray, r: int, norm_kind: NormKind) -> float:
    """Exact value of one r-subset found by a local search.

    Starting from the r largest components, the search replaces one member
    by one outsider, taking the best such swap (the first, position by
    position, among equals), while that raises the value. The swaps are
    formed for a group of positions at a time, each group's index rows
    within the chunk budget, and bounded (:func:`_sum_bounds`); under the
    operator norm only the swaps whose bound exceeds the current value are
    measured exactly, since no other can raise it by more than rounding.
    """
    chosen = np.sort(np.argsort(norms, kind="stable")[-r:])
    best = float(_norms(components, chosen[None, :], norm_kind)[0])
    while True:
        current = chosen
        rest = np.setdiff1d(np.arange(components.count), current)
        group = max(1, _CHUNK_BYTES // (8 * r * len(rest)))
        for lo in range(0, r, group):
            positions = np.arange(lo, min(lo + group, r))
            swaps = np.repeat(current[None, :], len(positions) * len(rest), axis=0)
            swaps[np.arange(len(swaps)), np.repeat(positions, len(rest))] = np.tile(rest, len(positions))
            swaps.sort(axis=1)
            values = _norms(components, swaps, norm_kind, bounds=True)
            if norm_kind == "operator":
                swaps = swaps[values > best]
                values = _norms(components, swaps, norm_kind)
            if len(values) and values.max() > best:
                k = int(values.argmax())
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

    At r = 1 each member is measured once, by ``components.singles`` when
    set (in member coordinates for a fusion pair), else as a 1-subset in the
    one pass below, and never searched; the values are listed when
    m <= ``_TABLE_MAX``. For r >= 2, a report of at most ``_TABLE_MAX``
    subsets lists every value, measured in one pass over the r-subsets in
    lexicographic order; larger ones come from a branch-and-bound search.

    The search walks the lexicographic tree of prefixes P = (p_1 < ... < p_d)
    with one generator per depth. ``level(d, parents)`` gathers the
    children of the batches that ``parents``, the generator of depth d - 1,
    yields into one batch of its own, across as many parent batches as it
    takes, bounds it and yields it once it is full, or once ``parents`` is
    exhausted. Each parent batch is used up before the next is asked for, so
    the leaves (the r-subsets, from depth r) arrive in lexicographic order,
    and deep trees still move in full batches. A child's sum is its parent's
    sum plus its own member, so every subset sum is built as
    ``_chunk_sums`` builds it, (0 + E_{p_1}) + E_{p_2} + ..., and every
    reported leaf value is :func:`_sum_norms` of it: for r >= 2 each
    reported value equals :func:`matrix_norm` of that subset's sum bit for
    bit, in either path. A prefix carries :func:`_sum_bounds` of its sum in
    place of its norm: the norm itself under Frobenius, and under the
    operator norm a bound from three squarings of its Gram, which is within
    a factor rank^(1/32) of the norm and far cheaper than ``eigvalsh``. A
    leaf is then measured exactly only if that bound, plus ``slack``,
    reaches ``floor * (1 - _TIE_REL)``; no other leaf can enter the tie
    window or raise the floor.
    The bound below uses the dense norms ``||E_j||`` of the stored
    components, not the member-coordinate values: it must dominate the norm
    of each stored matrix the search adds, and ``||E_j B_j||`` can fall below
    the stored ``||E_j||`` by the rounding of E_j outside W_j, which grows
    with cond(S_W). A member-coordinate bound widened by that rounding is
    left as a follow-up.

    Bound: a leaf below P adds t more members after p_d to S_P, so by the
    triangle inequality, in either norm, its value is at most
    ``b_P + ||E_j|| + top_{t-1}(> j)`` for its next member j, b_P the bound
    carried for S_P (at least ``||S_P||``), where
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
    p(n) eps of the true one, relatively. For the flat dot product,
    p(n) <= n^2 / 2 + 2. The operator norm of an n x n matrix A is
    sqrt(lambda_max) of G = fl(A^T A): forming G errs by at most
    gamma_n |A|^T |A|, whose 2-norm is at most gamma_n n ||A||_2^2
    (||(|A|)||_2 <= ||A||_F <= sqrt(n) ||A||_2); ``eigvalsh`` is backward
    stable, its top eigenvalue exact for G + E with
    ||E||_2 <= c_n u ||G||_2, and c_n <= 4 n^2 covers Householder
    tridiagonalization with room to spare. By Weyl, lambda_max moves by
    at most (gamma_n n + c_n u (1 + gamma_n n)) ||A||_2^2 <=
    (1.01 n^2 + 4.1 n^2) u ||A||_2^2 while n u <= 0.01; the square root
    halves that relative error and rounds once more, so
    p(n) <= 1.3 n^2 + 0.5, and the rescale of a wild matrix is exact.
    A Gram whose trace is at least 2^-968 loses at most n^3 2^-107
    ||A||_2^2, far below u ||A||_2^2, to underflow. The computed operator
    bound b_P is at least ``||S_P||_2 (1 - p'(n) eps)`` with
    p'(n) <= 0.6 n^2 + 2 (derived in
    :func:`~fusionframes.linalg._top_singular_bounds`), so it falls short
    of the true norm by no more than the exact kernel can. This enters
    three times: for S_P, for the c_j and for the leaf. (iii) The bound and the
    test add at most r + 1 computed nonnegative numbers (one prefix norm
    and at most one norm per member) and the slack,
    erring by at most 2 (r + 2) u T. So the computed value of any leaf
    below P exceeds the computed bound by at most
    2 (3 p(n) + r sqrt(n) + r + 2) eps T, which the slack
    ``32 eps (n^2 + r^2) T`` covers for every p(n) up to 4 n^2. (iv) A
    leaf L is left unmeasured when its computed bound b_L plus the slack
    is below the tie window: its computed value exceeds b_L by at most
    (p(n) + p'(n)) eps 2 T, well inside the slack. A leaf whose
    computed value is in the final tie window is therefore never pruned:
    the reported worst value and argmax sets are those of exhaustive
    enumeration, proved over every subset, not sampled.

    A prefix is stored as its sum, its last member, its bound and its colex
    rank sum_k C(p_k, k); a child's rank is its parent's plus C(j, d + 1).
    The search keeps the rank and value of every leaf that reached the floor
    when measured, and reads the subsets back (:func:`_unrank`) once it is
    over. The levels share the chunk budget, none getting more rows than
    the tree has prefixes of its length, so memory never holds the whole
    frontier.
    """
    m, n = components.count, components.dim
    if m < 2:
        raise ValueError(f"nothing to erase: a worst-case report needs at least 2 members, got {m}")
    if not 1 <= r < m:
        raise ValueError(f"r must satisfy 1 <= r < {m}, got {r}")
    count = math.comb(m, r)
    if count > ENUMERATION_CAP:
        raise ValueError(
            f"C({m},{r}) = {count} subsets exceeds the enumeration cap "
            f"{ENUMERATION_CAP}; refusing to sample"
        )
    if r == 1 or count <= _TABLE_MAX:
        if r == 1 and components.singles is not None:
            values = components.singles(norm_kind)
        else:
            # the index rows stream into one array, freed before the subset
            # tuples are made, so the table is the only copy of its subsets
            flat = itertools.chain.from_iterable(itertools.combinations(range(m), r))
            values = _norms(components, np.fromiter(flat, np.intp, count * r).reshape(count, r), norm_kind)
        worst = float(values.max())
        hit = values >= worst * (1.0 - _TIE_REL)
        if count > _TABLE_MAX:
            return ErasureReport(r, norm_kind, worst, tuple((int(i) + 1,) for i in hit.nonzero()[0]))
        subsets = list(itertools.combinations(range(1, m + 1), r))
        argmax = tuple(itertools.compress(subsets, hit))
        return ErasureReport(r, norm_kind, worst, argmax, tuple(zip(subsets, values.tolist())))
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
    # an infinite bound or slack only stops pruning; every measured sum is refused if not finite
    with np.errstate(over="ignore"):
        gain = _gain_band(norms, r)  # row r - d: own norm + r - d largest after, at depth d
        slack = 32.0 * np.finfo(float).eps * (n * n + r * r) * float(np.sort(norms)[-r:].sum())
    # the running worst value is the floor; it starts at the exact value of
    # a leaf that the search is bound to measure again
    worst = _greedy_leaf(components, norms, r, norm_kind)

    def level(d: int, parents: Iterable[tuple]) -> Iterable[tuple]:
        """Batches (sums, last members, colex ranks, bounds) of the depth-d children of ``parents`` that can reach the tie window.

        At depth r the batch holds only the leaves measured exactly, with their exact values.
        """
        k = rows[d]
        sums, last, ranks = np.empty((k, n, n)), np.empty(k, dtype=np.intp), np.empty(k, dtype=np.int64)
        size = 0

        def batch():
            done, values = sums[:size], _sum_bounds(sums[:size], norm_kind)
            if d < r or norm_kind == "frobenius":
                return done, last[:size], ranks[:size], values
            # a leaf is measured exactly only if its bound reaches the tie window
            near = (values + slack >= worst * (1.0 - _TIE_REL)).nonzero()[0]
            return done[near], last[near], ranks[near], _sum_norms(done[near], norm_kind)

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
        # the generators run in this context: bounds and prefix sums may overflow, as above
        with np.errstate(over="ignore"):
            for _, _, ranks, values in batches:
                worst = max(worst, float(values.max(initial=worst)))
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
    """Error norm for one fixed, known erasure set of vectors, measured and refused as a report's subset is."""
    return float(_sum_norms(discrete_error_operator(f, g, mask)[None], norm_kind)[0])
