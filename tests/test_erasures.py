import dataclasses
import inspect
import itertools
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fusionframes import erasures
from fusionframes import (
    ENUMERATION_CAP,
    ErasureMask,
    FusionFrame,
    block_mask,
    bridge_dual_to_discrete,
    bridge_fusion_to_discrete,
    canonical_pair,
    compact_nonzero,
    coordinate_subspace,
    discrete_canonical_dual,
    discrete_error_operator,
    discrete_frame,
    discrete_worst_case,
    dual_from_perturbation,
    frame_operator,
    fusion_error_operator,
    fusion_frame,
    fusion_partial_error,
    halving_dual,
    make_dual_pair,
    matrix_norm,
    orthonormal_basis,
    partial_erasure_error,
    transport_by_unitary,
    worst_case_error,
    zero_subspace,
)
from helpers import (
    ORTHOBASIS_ALT_DUAL_BRIDGED,
    ORTHOBASIS_BRIDGED,
    OVERCOMPLETE_BRIDGED,
    SQRT54,
    brute_force_worst,
    discrete_components_reference,
    inflated_dual,
    member_values_reference,
    overlap_extended_dual,
    overlap_frame_r4,
    permuted_members,
    random_fusion_frame,
    random_perturbation,
    random_subspace,
    random_unitary,
    tail_sums_reference,
)


def subsets_by_bitmask(total: int, r: int):
    """Independent subset enumerator: binary counting instead of combinations."""
    for mask in range(1 << total):
        if mask.bit_count() == r:
            yield tuple(k + 1 for k in range(total) if mask >> k & 1)


class TestFusionErrorOperator:
    def test_empty_mask(self):
        pair = canonical_pair(overlap_frame_r4())
        err = fusion_error_operator(pair, ErasureMask(3, []))
        assert np.abs(err).max() == 0.0

    def test_full_mask_reconstructs(self):
        pair = canonical_pair(overlap_frame_r4())
        err = fusion_error_operator(pair, ErasureMask(3, [1, 2, 3]))
        assert np.abs(err - np.eye(4)).max() < 1e-12
        assert matrix_norm(err, "frobenius") == pytest.approx(2.0)

    def test_single_member_operator(self):
        pair = canonical_pair(overlap_frame_r4())
        err = fusion_error_operator(pair, ErasureMask(3, [1]))
        assert np.abs(err - np.diag([1.0, 0.5, 0.0, 0.0])).max() < 1e-12

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="range"):
            ErasureMask(3, [4])


class TestWorstCase:
    def test_overlap_single_erasure(self):
        report = worst_case_error(canonical_pair(overlap_frame_r4()), 1, "frobenius")
        assert report.worst_value == pytest.approx(SQRT54, abs=1e-12)
        assert report.argmax_subsets == ((1,), (2,))

    def test_overlap_extended_dual_same_value(self, rng):
        w = overlap_frame_r4()
        for _ in range(3):
            v = overlap_extended_dual(rng.standard_normal(7))
            report = worst_case_error(make_dual_pair(w, v), 1, "frobenius")
            assert report.worst_value == pytest.approx(SQRT54, abs=1e-10)

    def test_pair_erasures_match_bruteforce(self, rng):
        for _ in range(5):
            w = random_fusion_frame(rng, 4, 5, weighted=True)
            pair = make_dual_pair(w, inflated_dual(rng, w))
            report = worst_case_error(pair, 2, "frobenius")
            oracle = max(
                fusion_partial_error(pair, ErasureMask(5, subset), "frobenius")
                for subset in itertools.combinations(range(1, 6), 2)
            )
            assert report.worst_value == pytest.approx(oracle, abs=1e-12)

    def test_r_out_of_range(self):
        pair = canonical_pair(overlap_frame_r4())
        with pytest.raises(ValueError, match="r must"):
            worst_case_error(pair, 3, "frobenius")
        with pytest.raises(ValueError, match="r must"):
            worst_case_error(pair, 0, "frobenius")

    def test_enumeration_cap_refusal(self):
        subs = [coordinate_subspace(2, [1 + k % 2]) for k in range(40)]
        w = fusion_frame(subs)
        with pytest.raises(ValueError, match="cap"):
            worst_case_error(canonical_pair(w), 20, "frobenius")
        assert ENUMERATION_CAP == 10**6

    def test_worst_dominates_each_subset(self, rng):
        w = random_fusion_frame(rng, 4, 4)
        pair = canonical_pair(w)
        report = worst_case_error(pair, 2, "operator")
        for subset, value in report.per_subset_values:
            assert value <= report.worst_value + 1e-12

    def test_table_is_lexicographic(self, rng):
        w = random_fusion_frame(rng, 3, 4)
        report = worst_case_error(canonical_pair(w), 2, "frobenius")
        subsets = [s for s, _ in report.per_subset_values]
        assert subsets == sorted(subsets)


class TestDiscreteErasures:
    def test_all_indices_reconstruct(self):
        f = discrete_frame(ORTHOBASIS_BRIDGED)
        err = discrete_error_operator(f, f, ErasureMask(5, range(1, 6)))
        assert np.abs(err - np.eye(3)).max() < 1e-12

    def test_final_vector_erasure(self):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        g = discrete_canonical_dual(f)
        err = discrete_error_operator(f, g, ErasureMask(7, [7]))
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        assert np.abs(err - expected).max() < 1e-12
        assert matrix_norm(err, "operator") == pytest.approx(1.0)

    def test_zero_vector_erasure(self):
        w = overlap_frame_r4()
        f = bridge_fusion_to_discrete(w, np.eye(4), "canonical_weighted")
        g = bridge_dual_to_discrete(canonical_pair(w).dual_candidate, np.eye(4))
        zero_rows = [k + 1 for k in range(f.count) if np.linalg.norm(f.vectors[k]) == 0]
        assert zero_rows
        err = discrete_error_operator(f, g, ErasureMask(f.count, [zero_rows[0]]))
        assert np.abs(err).max() == 0.0

    def test_worst_single_erasure_at_final_vector(self):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        g = discrete_canonical_dual(f)
        for kind in ("operator", "frobenius"):
            report = discrete_worst_case(f, g, 1, kind)
            assert report.worst_value == pytest.approx(1.0, abs=1e-12)
            assert report.argmax_subsets == ((7,),)

    def test_orthonormal_self_dual_all_ties(self):
        f = discrete_frame(np.eye(4))
        report = discrete_worst_case(f, f, 1, "operator")
        assert report.worst_value == pytest.approx(1.0)
        assert report.argmax_subsets == ((1,), (2,), (3,), (4,))

    def test_parseval_pair_unit_worst_error(self):
        f = discrete_frame(ORTHOBASIS_BRIDGED)
        g = discrete_frame(ORTHOBASIS_ALT_DUAL_BRIDGED)
        assert discrete_worst_case(f, f, 1, "operator").worst_value == pytest.approx(1.0, abs=1e-12)
        assert discrete_worst_case(f, g, 1, "operator").worst_value == pytest.approx(1.0, abs=1e-12)


class TestPartialErasure:
    def test_empty_set(self):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        g = discrete_canonical_dual(f)
        assert partial_erasure_error(f, g, ErasureMask(7, []), "frobenius") == 0.0

    def test_halved_dual_beats_canonical_on_fixed_set(self):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        canonical = discrete_canonical_dual(f)
        mask = ErasureMask(7, [2, 5])
        halved = halving_dual(f, [2, 5])
        value_c = partial_erasure_error(f, canonical, mask, "frobenius")
        value_h = partial_erasure_error(f, halved, mask, "frobenius")
        assert value_c > value_h
        assert value_c == pytest.approx(2.0 * value_h, rel=1e-9)

    def test_block_erasure_matches_fusion_value(self):
        # erase the whole third block of the bridged overlap frame
        w = overlap_frame_r4()
        pair = canonical_pair(w)
        f = bridge_fusion_to_discrete(w, np.eye(4), "canonical_weighted")
        g = bridge_dual_to_discrete(pair.dual_candidate, np.eye(4))
        mask = block_mask(f, 3)
        fusion_value = fusion_partial_error(pair, ErasureMask(3, [3]), "frobenius")
        assert fusion_value == pytest.approx(1.0, abs=1e-12)
        assert partial_erasure_error(f, g, mask, "frobenius") == pytest.approx(
            fusion_value, abs=1e-12
        )


class TestErasureProperties:
    def test_bridge_consistency_per_member(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 6))
            w = random_fusion_frame(rng, n, int(rng.integers(2, 5)), weighted=True)
            v = inflated_dual(rng, w)
            pair = make_dual_pair(w, v)
            basis = random_unitary(rng, n).T
            f = bridge_fusion_to_discrete(w, basis, "canonical_weighted")
            g = bridge_dual_to_discrete(v, basis)
            for i in range(1, w.member_count + 1):
                a = fusion_partial_error(pair, ErasureMask(w.member_count, [i]), "frobenius")
                b = partial_erasure_error(f, g, block_mask(f, i), "frobenius")
                assert a == pytest.approx(b, abs=1e-9)

    def test_unitary_invariance_of_all_values(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 6))
            m = int(rng.integers(2, 5))
            w = random_fusion_frame(rng, n, m, weighted=True)
            pair = make_dual_pair(w, inflated_dual(rng, w))
            moved = transport_by_unitary(pair, random_unitary(rng, n))
            for r in range(1, m):
                for kind in ("frobenius", "operator"):
                    for subset in itertools.combinations(range(1, m + 1), r):
                        mask = ErasureMask(m, subset)
                        a = fusion_partial_error(pair, mask, kind)
                        b = fusion_partial_error(moved, mask, kind)
                        assert a == pytest.approx(b, abs=1e-9)

    def test_enumeration_matches_independent_iterator(self, rng):
        for m, r in ((5, 2), (7, 3), (12, 2)):
            ours = list(itertools.combinations(range(1, m + 1), r))
            theirs = sorted(subsets_by_bitmask(m, r))
            assert ours == theirs
        w = random_fusion_frame(rng, 3, 5)
        pair = canonical_pair(w)
        report = worst_case_error(pair, 2, "frobenius")
        oracle = max(
            fusion_partial_error(pair, ErasureMask(5, s), "frobenius")
            for s in subsets_by_bitmask(5, 2)
        )
        assert report.worst_value == pytest.approx(oracle, abs=1e-12)


NORMS = ("frobenius", "operator")


def assert_matches_brute_force(report, components, r, norm):
    worst, argmax, table = brute_force_worst(components, r, norm)
    assert report.worst_value == worst
    assert report.argmax_subsets == argmax
    assert report.per_subset_values == table


class TestEngineMatchesBruteForce:
    """The streamed engine reproduces the per-subset exact computation bit for bit."""

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("m, r", [(12, 5), (18, 5)])
    def test_fusion_pairs(self, rng, m, r, norm):
        # 792 subsets keep the table; 8568 do not and, at n = 8, span two
        # chunks with a partial last one
        n = 8
        chunk_rows = erasures._CHUNK_BYTES // (8 * n * n)
        assert math.comb(18, 5) > max(chunk_rows, 4096)
        assert math.comb(18, 5) % chunk_rows
        w = random_fusion_frame(rng, n, m, weighted=True)
        pair = make_dual_pair(w, inflated_dual(rng, w))
        report = worst_case_error(pair, r, norm)
        assert_matches_brute_force(report, pair, r, norm)

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("count, r", [(14, 4), (16, 6)])
    def test_discrete_pairs(self, rng, count, r, norm):
        # 1001 subsets keep the table, 8008 do not
        f = discrete_frame(rng.standard_normal((count, 4)))
        g = dual_from_perturbation(f, random_perturbation(rng, f))
        report = discrete_worst_case(f, g, r, norm)
        assert_matches_brute_force(report, discrete_components_reference(f, g), r, norm)

    @pytest.mark.parametrize("norm", NORMS)
    def test_many_small_chunks(self, rng, monkeypatch, norm):
        # 7-row chunks: C(11, 4) = 330 and C(13, 5) = 1287 leave a partial
        # last chunk, and the running maximum and its ties move across chunks
        n = 3
        monkeypatch.setattr(erasures, "_CHUNK_BYTES", 7 * 8 * n * n)
        monkeypatch.setattr(erasures, "_TABLE_MAX", 100)
        for m, r in ((11, 4), (13, 5)):
            assert math.comb(m, r) % 7
            w = random_fusion_frame(rng, n, m, weighted=True)
            pair = make_dual_pair(w, inflated_dual(rng, w))
            report = worst_case_error(pair, r, norm)
            worst, argmax, _ = brute_force_worst(pair, r, norm)
            assert report.worst_value == worst
            assert report.argmax_subsets == argmax
            assert report.per_subset_values is None

    @pytest.mark.parametrize("norm", NORMS)
    def test_orthonormal_basis_all_subsets_tie(self, norm):
        # C(16, 5) = 4368 subsets, above the table threshold, all tied
        w = fusion_frame([coordinate_subspace(16, [k]) for k in range(1, 17)])
        pair = canonical_pair(w)
        report = worst_case_error(pair, 5, norm)
        assert len(report.argmax_subsets) == math.comb(16, 5) == 4368
        assert report.argmax_subsets == tuple(itertools.combinations(range(1, 17), 5))
        assert_matches_brute_force(report, pair, 5, norm)


def counting_operator_norms(monkeypatch):
    """Route the engine's operator-norm kernel through a wrapper; returns the list of matrix counts per call."""
    batches = []
    kernel = erasures._top_singular_values

    def counted(stack):
        batches.append(len(stack))
        return kernel(stack)

    monkeypatch.setattr(erasures, "_top_singular_values", counted)
    return batches


class TestGramScreen:
    """Operator-norm searches that must skip most norm evaluations without losing a tied subset."""

    def test_operator_norm_equal_to_frobenius_norm(self, rng, monkeypatch):
        # parallel f_k and parallel g_k make every subset sum rank one, so
        # ||X||_2 = ||X||_F and the screen sits on its bound; the 210 subsets
        # of six near-unit products tie within the window, not bit for bit
        n, m, r = 4, 16, 6
        u, v = (x / np.linalg.norm(x) for x in rng.standard_normal((2, n)))
        a = np.concatenate([1.0 + 5e-13 * rng.random(10), -0.5 - rng.random(6)])
        rng.shuffle(a)
        f = discrete_frame(a[:, None] * u)
        g = discrete_frame(np.tile(v, (m, 1)))
        assert math.comb(m, r) > max(4096, m * m)
        batches = counting_operator_norms(monkeypatch)
        report = discrete_worst_case(f, g, r, "operator")
        assert sum(batches) < math.comb(m, r)
        components = discrete_components_reference(f, g)
        assert_matches_brute_force(report, components, r, "operator")
        assert len(report.argmax_subsets) == math.comb(10, 6)
        tied = {matrix_norm(sum(components[k - 1] for k in s), "operator") for s in report.argmax_subsets}
        assert len(tied) > 1

    def test_floor_moves_across_chunks(self, rng, monkeypatch):
        # in R^3: four unit vectors along one axis (together the operator-norm
        # argmax, 4), one of squared norm 3 along a second axis (with three of
        # the four: Frobenius norm 18^(1/2) > 4, operator norm 3) and short
        # ones along the third; in 5-row chunks the argmax shares chunk 36
        # of 42 with that larger-Frobenius subset, after the floor has risen
        rows, r = 5, 4
        monkeypatch.setattr(erasures, "_CHUNK_BYTES", rows * 8 * 3 * 3)
        monkeypatch.setattr(erasures, "_TABLE_MAX", 100)
        axes = [2, 2, 2, 0, 0, 0, 0, 1, 2, 2]
        sq_norms = [0.3, 0.3, 0.3, 1.0, 1.0, 1.0, 1.0, 3.0, 0.3, 0.3]
        f = discrete_frame(np.sqrt(sq_norms)[:, None] * random_unitary(rng, 3)[:, axes].T)
        components = discrete_components_reference(f, f)
        assert math.comb(10, r) > max(100, 10 * 10)
        fro = brute_force_worst(components, r, "frobenius")
        op = brute_force_worst(components, r, "operator")
        assert op[1] == ((4, 5, 6, 7),)
        assert (4, 5, 6, 8) in fro[1]
        subsets = [s for s, _ in op[2]]
        assert subsets.index((4, 5, 6, 7)) // rows == subsets.index((4, 5, 6, 8)) // rows == 35
        for norm, (worst, argmax, _) in (("frobenius", fro), ("operator", op)):
            report = discrete_worst_case(f, f, r, norm)
            assert report.worst_value == worst
            assert report.argmax_subsets == argmax
            assert report.per_subset_values is None

    def test_screen_skips_svds(self, rng, monkeypatch):
        # a seeded (6, 40, 2) frame: C(40, 4) = 91,390 subsets, most of
        # which cannot reach the operator-norm tie window
        m = 40
        subs = [random_subspace(rng, 6, 2) for _ in range(m)]
        pair = canonical_pair(fusion_frame(subs, 0.5 + rng.random(m)))
        batches = counting_operator_norms(monkeypatch)
        report = worst_case_error(pair, 4, "operator")
        assert sum(batches) < math.comb(m, 4)
        # C(40, 2) = 780 subsets keep the table, so every one is measured
        batches.clear()
        assert len(worst_case_error(pair, 2, "operator").per_subset_values) == math.comb(m, 2)
        assert sum(batches) == math.comb(m, 2)
        # every subset through the table path, unscreened, gives the same report
        batches.clear()
        monkeypatch.setattr(erasures, "_TABLE_MAX", 10**6)
        unscreened = worst_case_error(pair, 4, "operator")
        assert sum(batches) == math.comb(m, 4)
        assert unscreened.worst_value == report.worst_value
        assert unscreened.argmax_subsets == report.argmax_subsets


def counting_norms(monkeypatch):
    """Route the engine's exact norms through a wrapper; returns the list of matrix counts per call."""
    counts = []
    norms = erasures._sum_norms

    def counted(sums, norm_kind):
        counts.append(len(sums))
        return norms(sums, norm_kind)

    monkeypatch.setattr(erasures, "_sum_norms", counted)
    return counts


@seed(6)
@settings(max_examples=60, deadline=None)
@given(
    seed_=st.integers(0, 2**32 - 1),
    fusion=st.booleans(),
    n=st.integers(2, 4),
    m=st.integers(5, 9),
    r_frac=st.floats(0.0, 1.0),
    norm=st.sampled_from(NORMS),
    copies=st.integers(0, 3),
)
def test_pruned_search_matches_brute_force(seed_, fusion, n, m, r_frac, norm, copies):
    # with no table every search of r >= 2 prunes; copied members make exact ties
    rng = np.random.default_rng(seed_)
    r = 1 + int(r_frac * (m - 2))
    if fusion:
        w = random_fusion_frame(rng, n, m, weighted=True)
        pair = make_dual_pair(w, inflated_dual(rng, w) if rng.random() < 0.5 else canonical_pair(w).dual_candidate)
        source = pair
        search = lambda: worst_case_error(pair, r, norm)
    else:
        vectors = rng.standard_normal((m, n))
        vectors[1 : 1 + min(copies, m - n)] = vectors[0]
        f = discrete_frame(vectors)
        g = f if rng.random() < 0.5 else dual_from_perturbation(f, random_perturbation(rng, f))
        source = discrete_components_reference(f, g)
        search = lambda: discrete_worst_case(f, g, r, norm)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(erasures, "_TABLE_MAX", 0)
        report = search()
    worst, argmax, _ = brute_force_worst(source, r, norm)
    assert report.worst_value == worst
    assert report.argmax_subsets == argmax
    assert report.per_subset_values is None


@seed(25)
@settings(max_examples=60, deadline=None)
@given(
    seed_=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(4, 8),
    r=st.integers(1, 2),
    norm=st.sampled_from(NORMS),
    canonical=st.booleans(),
)
def test_member_permutation_permutes_argmax_sets(seed_, n, m, r, norm, canonical):
    # member k of the permuted frame is member perm[k - 1] + 1 of the original. S_W and the
    # components are summed in another order, so values agree only to rounding: over 3,000
    # random cases the largest difference was 5.9 eps cond(S_W) of the worst value, and the
    # bound is 32 n eps cond(S_W). Argmax sets are compared only when the worst value leads
    # the runner-up by far more than that bound and the 1e-12 tie window.
    rng = np.random.default_rng(seed_)
    w = random_fusion_frame(rng, n, m, weighted=True)
    perm = rng.permutation(m)
    if canonical:
        pairs = canonical_pair(w), canonical_pair(permuted_members(w, perm))
    else:
        v = inflated_dual(rng, w)
        pairs = make_dual_pair(w, v), make_dual_pair(permuted_members(w, perm), permuted_members(v, perm))
    report, permuted = (worst_case_error(pair, r, norm) for pair in pairs)
    original = lambda subset: tuple(sorted(int(perm[k - 1]) + 1 for k in subset))

    eigvals = np.linalg.eigvalsh(frame_operator(w))
    bound = 32 * n * np.finfo(float).eps * eigvals[-1] / eigvals[0]
    values = dict(report.per_subset_values)
    assert len(values) == len(permuted.per_subset_values) == math.comb(m, r)
    for subset, value in permuted.per_subset_values:
        assert abs(value - values[original(subset)]) <= bound * report.worst_value
    assert abs(permuted.worst_value - report.worst_value) <= bound * report.worst_value

    runner_up = max((x for x in values.values() if x < report.worst_value * (1 - erasures._TIE_REL)), default=0.0)
    if report.worst_value - runner_up > 100 * (bound + erasures._TIE_REL) * report.worst_value:
        assert sorted(map(original, permuted.argmax_subsets)) == list(report.argmax_subsets)


class TestBranchAndBound:
    @pytest.mark.parametrize("norm", NORMS)
    def test_bound_is_tight(self, monkeypatch, norm):
        # every component is a_k v u^T with a_k > 0, so each subset sum is
        # (sum of its a_k) v u^T, the triangle inequality is an equality and
        # every bound on the argmax's path equals the worst value; dyadic
        # entries make sums exact, so equal a-sums tie bit for bit: the four
        # 3s with any of the four 2s give 14
        a = np.array([3, 1, 3, 2, 1, 3, 2, 1, 1, 2, 3, 1, 2, 1], dtype=float)
        u, v = np.array([1.0, 0.5, -0.25]), np.array([0.5, 1.0, 0.75])
        f = discrete_frame(a[:, None] * u)
        g = discrete_frame(np.tile(v, (len(a), 1)))
        monkeypatch.setattr(erasures, "_TABLE_MAX", 0)
        rows = counting_norms(monkeypatch)
        report = discrete_worst_case(f, g, 5, norm)
        worst, argmax, _ = brute_force_worst(discrete_components_reference(f, g), 5, norm)
        assert report.worst_value == worst
        assert worst == pytest.approx(14.0 * np.linalg.norm(u) * np.linalg.norm(v), rel=1e-14)
        assert report.argmax_subsets == argmax == ((1, 3, 4, 6, 11), (1, 3, 6, 7, 11), (1, 3, 6, 10, 11), (1, 3, 6, 11, 13))
        assert sum(rows) < math.comb(len(a), 5)

    @pytest.mark.parametrize("norm", NORMS)
    def test_ties_within_the_window_are_kept(self, rng, norm):
        # in R^2 the rounding slack is about 1e-13 of the worst value, far
        # inside the 1e-12 tie window: the 1770 pairs of 60 near-unit
        # parallel products tie within the window but not bit for bit, and
        # each sits on its bound, so only the window keeps them all
        a = np.concatenate([1.0 + 4e-13 * rng.random(60), 0.1 + 0.4 * rng.random(40)])
        rng.shuffle(a)
        u, v = (x / np.linalg.norm(x) for x in rng.standard_normal((2, 2)))
        f = discrete_frame(a[:, None] * u)
        g = discrete_frame(np.tile(v, (100, 1)))
        assert math.comb(100, 2) > 4096
        report = discrete_worst_case(f, g, 2, norm)
        components = discrete_components_reference(f, g)
        worst, argmax, _ = brute_force_worst(components, 2, norm)
        assert report.worst_value == worst
        assert report.argmax_subsets == argmax
        assert len(argmax) == math.comb(60, 2)
        assert len({matrix_norm(components[i - 1] + components[j - 1], norm) for i, j in argmax}) > 1

    @pytest.mark.parametrize("listing", [True, False], ids=["table", "pruned"])
    def test_subsets_are_read_back_once_after_the_search(self, rng, monkeypatch, listing):
        # the search keeps ranks and values as arrays while leaves are
        # measured and unranks the subsets once, after the last measurement;
        # a listed table is measured in lexicographic order and never unranked
        events = []
        for name in ("_sum_norms", "_unrank"):
            original = getattr(erasures, name)
            monkeypatch.setattr(
                erasures, name, lambda *a, _name=name, _original=original: (events.append(_name), _original(*a))[1]
            )
        monkeypatch.setattr(erasures, "_CHUNK_BYTES", 7 * 8 * 3 * 3)  # leaves arrive in many batches
        if not listing:
            monkeypatch.setattr(erasures, "_TABLE_MAX", 0)
        # every vector twice, adjacent: an odd-sized argmax set holds some pair
        # once, and swapping in its twin gives a bitwise tie
        f = discrete_frame(np.repeat(rng.standard_normal((7, 3)), 2, axis=0))
        g = discrete_canonical_dual(f)
        report = discrete_worst_case(f, g, 3, "frobenius")
        assert events.count("_unrank") == (0 if listing else 1) and events[-1] == ("_sum_norms" if listing else "_unrank")
        assert events.count("_sum_norms") > 3
        worst, argmax, table = brute_force_worst(discrete_components_reference(f, g), 3, "frobenius")
        assert (report.worst_value, report.argmax_subsets) == (worst, argmax)
        assert len(argmax) >= 2
        assert report.per_subset_values == (tuple(table) if listing else None)

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("m, r", [(12, 5), (64, 2), (40, 39)])
    def test_listed_report_runs_no_search(self, rng, monkeypatch, m, r, norm):
        # up to 4096 subsets every one is listed, so nothing is bounded,
        # searched for or unranked, and each subset is measured exactly once
        assert math.comb(m, r) <= 4096
        for name in ("_gain_band", "_greedy_leaf", "_unrank"):
            monkeypatch.setattr(erasures, name, lambda *a, _name=name: pytest.fail(f"{_name} called"))
        rows = counting_norms(monkeypatch)
        f = discrete_frame(rng.standard_normal((m, 3)))
        g = dual_from_perturbation(f, random_perturbation(rng, f))
        report = discrete_worst_case(f, g, r, norm)
        assert sum(rows) == math.comb(m, r)
        assert_matches_brute_force(report, discrete_components_reference(f, g), r, norm)

    @pytest.mark.parametrize("norm", NORMS)
    def test_deep_table_is_measured_in_one_call(self, rng, monkeypatch, norm):
        # C(1000, 999) = 1000 subsets of 999 rank-one components in R^2 fit
        # one chunk of sums
        m, r = 1000, 999
        f = discrete_frame(rng.standard_normal((m, 2)))
        g = discrete_frame(rng.standard_normal((m, 2)))
        rows = counting_norms(monkeypatch)
        report = discrete_worst_case(f, g, r, norm)
        assert rows == [m]
        table = report.per_subset_values
        assert [s for s, _ in table] == list(itertools.combinations(range(1, m + 1), r))
        # the subset missing member k: its components added in index order onto zero
        products = discrete_components_reference(f, g)
        for k in (0, 499, 999):
            total = np.zeros((2, 2))
            for i in range(m):
                if i != k:
                    total = total + products[i]
            assert table[m - 1 - k][1] == matrix_norm(total, norm)
        assert report.worst_value == max(v for _, v in table)

    def test_level_has_no_listing_branch(self):
        # the search only ever prunes: ``level`` reads the floor, never a table flag
        (level,) = [c for c in erasures._worst_report.__code__.co_consts if inspect.iscode(c) and c.co_name == "level"]
        assert "worst" in level.co_freevars
        assert not {"listing", "count", "_TABLE_MAX"} & {*level.co_freevars, *level.co_names}

    @pytest.mark.parametrize("norm", NORMS)
    def test_deep_table_moves_in_full_batches(self, rng, monkeypatch, norm):
        # C(200, 199) = 200 subsets: listed, they are summed in one pass of
        # r steps; with no table they go through a tree of 199 levels and
        # about 20,000 prefixes, where each level gathers its children
        # across parent batches, so sums are formed in a few steps per
        # level, not in thousands of small batches
        m, r = 200, 199
        pair = canonical_pair(fusion_frame([random_subspace(rng, 2, 1) for _ in range(m)], 0.5 + rng.random(m)))
        steps = []
        source = erasures._fusion_components

        def counted(p):
            components = source(p)

            def take(rows):
                steps.append(len(rows))
                return components.take(rows)

            return erasures._Components(components.count, components.dim, take)

        monkeypatch.setattr(erasures, "_fusion_components", counted)
        rows = counting_norms(monkeypatch)
        report = worst_case_error(pair, r, norm)
        assert_matches_brute_force(report, pair, r, norm)
        assert sum(rows) == m and len(rows) <= 2
        assert len(steps) < 3 * r
        monkeypatch.setattr(erasures, "_TABLE_MAX", 0)
        rows.clear()
        report = worst_case_error(pair, r, norm)
        worst, argmax, _ = brute_force_worst(pair, r, norm)
        assert report.worst_value == worst
        assert report.argmax_subsets == argmax
        assert len(rows) < 2 * r

    def test_deep_tree_needs_no_recursion_headroom(self, rng, monkeypatch):
        # one generator per level nests 199 deep here, more than the caller
        # leaves room for; with no table the 200 subsets go through the tree
        m, r = 200, 199
        pair = canonical_pair(fusion_frame([random_subspace(rng, 2, 1) for _ in range(m)], 0.5 + rng.random(m)))
        monkeypatch.setattr(erasures, "_TABLE_MAX", 0)
        # a first search loads what numpy imports lazily (``np.setdiff1d``
        # imports ``numpy.ma``), which needs more headroom than the search
        worst_case_error(pair, r, "frobenius")
        limit, tight = sys.getrecursionlimit(), len(inspect.stack(0)) + 50
        sys.setrecursionlimit(tight)
        try:
            report = worst_case_error(pair, r, "frobenius")
            restored = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(limit)
        assert restored == tight
        worst, argmax, _ = brute_force_worst(pair, r, "frobenius")
        assert (report.worst_value, report.argmax_subsets) == (worst, argmax)

    @pytest.mark.parametrize("norm", NORMS)
    def test_prunes_most_of_a_large_enumeration(self, rng, monkeypatch, norm):
        # a seeded (6, 40, 2) frame at r = 5: C(40, 5) = 658,008 subsets
        m = 40
        subs = [random_subspace(rng, 6, 2) for _ in range(m)]
        pair = canonical_pair(fusion_frame(subs, 0.5 + rng.random(m)))
        rows = counting_norms(monkeypatch)
        worst_case_error(pair, 5, norm)
        assert sum(rows) < math.comb(m, 5) / 10


def stacked_components(stack):
    """The engine's components of a fusion pair whose component stack is ``stack``, any (m, n, n) array."""
    return erasures._fusion_components(SimpleNamespace(components=stack, primal=SimpleNamespace(ambient_dim=stack.shape[1])))


def readme_count(subsets):
    """The number of matrices that README.md says the seeded search over ``subsets`` (such as "C(40, 5) = 658,008") measures."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (count,) = re.findall(r"([\d,]+) matrices for\s+" + r"\s+".join(map(re.escape, subsets.split())), readme)
    return int(count.replace(",", ""))


class TestSearchBounds:
    """Prefixes carry bounds, operator-norm ones from squarings of the Gram; only leaves that can reach the tie window are measured."""

    def test_pruning_of_a_large_enumeration_is_the_readme_count(self, rng, monkeypatch):
        # test_prunes_most_of_a_large_enumeration's (6, 40, 2) frame at r = 5: C(40, 5) = 658,008
        # subsets; README.md states the count, read here so that it cannot go stale
        m = 40
        subs = [random_subspace(rng, 6, 2) for _ in range(m)]
        pair = canonical_pair(fusion_frame(subs, 0.5 + rng.random(m)))
        rows = counting_norms(monkeypatch)
        worst_case_error(pair, 5, "frobenius")
        assert sum(rows) == readme_count("C(40, 5) = 658,008") == 7965

    def test_pruning_of_an_operator_norm_search(self, rng, monkeypatch):
        # the same frame at r = 4 under the operator norm: C(40, 4) = 91,390 subsets
        m = 40
        subs = [random_subspace(rng, 6, 2) for _ in range(m)]
        pair = canonical_pair(fusion_frame(subs, 0.5 + rng.random(m)))
        rows = counting_norms(monkeypatch)
        report = worst_case_error(pair, 4, "operator")
        # 2,777 matrices when every prefix was measured by eigvalsh; README.md states the count
        assert sum(rows) == readme_count("C(40, 4) = 91,390") == 68
        monkeypatch.setattr(erasures, "_TABLE_MAX", 10**6)
        listed = worst_case_error(pair, 4, "operator")
        assert (listed.worst_value, listed.argmax_subsets) == (report.worst_value, report.argmax_subsets)

    def test_pruning_of_a_bridged_operator_search(self, rng, monkeypatch):
        # a bridged (4, 5, 2) frame: 20 rank-one components in R^4 at r = 4 (4,845 subsets)
        w = fusion_frame([random_subspace(rng, 4, 2) for _ in range(5)], 0.5 + rng.random(5))
        f, _ = compact_nonzero(bridge_fusion_to_discrete(w, random_unitary(rng, 4)))
        g = discrete_canonical_dual(f)
        rows = counting_norms(monkeypatch)
        report = discrete_worst_case(f, g, 4, "operator")
        # 1,098 matrices when every prefix was measured by eigvalsh
        assert sum(rows) == 43
        worst, argmax, _ = brute_force_worst(discrete_components_reference(f, g), 4, "operator")
        assert (report.worst_value, report.argmax_subsets) == (worst, argmax)

    @seed(34)
    @settings(max_examples=60, deadline=None)
    @given(
        seed_=st.integers(0, 2**32 - 1),
        stacked=st.booleans(),
        n=st.integers(1, 4),
        m=st.integers(4, 9),
        r_frac=st.floats(0.0, 1.0),
        norm=st.sampled_from(NORMS),
        excess=st.sampled_from([0.0, 1e-15, 1e-13, 1e-10]),
        large=st.floats(1.0, 1e6),
    )
    def test_near_cancelling_components_match_brute_force(self, seed_, stacked, n, m, r_frac, norm, excess, large):
        # every third component is -(1 + excess) times the one before, so a prefix holding
        # both nearly cancels: its sum is far smaller than its members, and its bound must
        # still cover it
        rng = np.random.default_rng(seed_)
        r = 2 + int(r_frac * (m - 3))
        if stacked:
            stack = rng.standard_normal((m, n, n))
            for k in range(1, m, 3):
                stack[k - 1] *= large
                stack[k] = -(1 + excess) * stack[k - 1]
            source, search = list(stack), lambda: erasures._worst_report(stacked_components(stack), r, norm)
        else:
            fv, gv = rng.standard_normal((2, m, n))
            for k in range(1, m, 3):
                fv[k - 1] *= large
                fv[k], gv[k] = fv[k - 1], -(1 + excess) * gv[k - 1]
            f, g = discrete_frame(fv), discrete_frame(gv)
            source, search = discrete_components_reference(f, g), lambda: discrete_worst_case(f, g, r, norm)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(erasures, "_TABLE_MAX", 0)
            report = search()
        worst, argmax, _ = brute_force_worst(source, r, norm)
        assert (report.worst_value, report.argmax_subsets) == (worst, argmax)

    @seed(35)
    @settings(max_examples=60, deadline=None)
    @given(
        seed_=st.integers(0, 2**32 - 1),
        stacked=st.booleans(),
        n=st.integers(1, 4),
        norm=st.sampled_from(NORMS),
        log_excess=st.floats(-11.0, -6.0),
        scale=st.floats(0.5, 2.0),
    )
    def test_a_cancelling_prefix_above_the_worst_leaf_is_kept(self, seed_, stacked, n, norm, log_excess, scale):
        # components a_k X for a = (1, -(1 - e), 3, 3, 3, -1): the worst 5-subset is the first
        # five, 9 + e, and every bound on its path is an equality up to rounding, through the
        # prefix (1, 2), whose sum e X cancels to far below its members
        rng = np.random.default_rng(seed_)
        e = 10.0**log_excess
        a = scale * np.array([1.0, -(1.0 - e), 3.0, 3.0, 3.0, -1.0])
        if stacked:
            stack = a[:, None, None] * rng.standard_normal((n, n))
            source, search = list(stack), lambda: erasures._worst_report(stacked_components(stack), 5, norm)
        else:
            f, g = discrete_frame(a[:, None] * rng.standard_normal(n)), discrete_frame(np.tile(rng.standard_normal(n), (6, 1)))
            source, search = discrete_components_reference(f, g), lambda: discrete_worst_case(f, g, 5, norm)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(erasures, "_TABLE_MAX", 0)
            report = search()
        worst, argmax, _ = brute_force_worst(source, 5, norm)
        assert (report.worst_value, report.argmax_subsets) == (worst, argmax)
        assert argmax[0] == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("entry", [5e199, 1e-170])
    @pytest.mark.parametrize("mixed", [False, True], ids=["all-wild", "mixed"])
    @pytest.mark.parametrize("stacked", [True, False], ids=["stack", "rank-one"])
    def test_sums_with_wild_squares_are_bounded_and_measured(self, rng, monkeypatch, norm, entry, mixed, stacked):
        # entries about ``entry``: their squares over- or underflow (the range of
        # test_sums_whose_squares_leave_the_float_range), so prefix bounds and leaf values are
        # taken again after a rescale; mixed with unit-scale components, some sums are wild
        # and some are not
        m, n, r = 9, 3, 3
        scale = np.where(rng.random(m) < 0.5, entry, 1.0) if mixed else np.full(m, entry)
        if stacked:
            stack = scale[:, None, None] * rng.standard_normal((m, n, n))
            source, search = list(stack), lambda: erasures._worst_report(stacked_components(stack), r, norm)
        else:
            root = np.sqrt(scale)[:, None]
            f, g = discrete_frame(root * rng.standard_normal((m, n))), discrete_frame(root * rng.standard_normal((m, n)))
            source, search = discrete_components_reference(f, g), lambda: discrete_worst_case(f, g, r, norm)
        monkeypatch.setattr(erasures, "_TABLE_MAX", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = search()
        worst, argmax, _ = brute_force_worst(source, r, norm)
        assert (report.worst_value, report.argmax_subsets) == (worst, argmax)


class TestSingleMemberValues:
    """r = 1 on a fusion pair: ||E_i B_i|| in member coordinates, each member measured once."""

    @staticmethod
    def unequal_pair(rng, n=6, m=9):
        # a weighted frame with members of several dimensions, and a dual
        # candidate whose member 2 is the zero subspace
        w = random_fusion_frame(rng, n, m, weighted=True)
        assert len({sub.dim for sub in w.subspaces}) > 1
        v = inflated_dual(rng, w)
        members = list(v.subspaces)
        members[1] = zero_subspace(n)
        return make_dual_pair(w, FusionFrame(n, tuple(members), v.weights))

    @pytest.mark.parametrize("norm", NORMS)
    def test_values_agree_with_the_dense_norms(self, rng, norm):
        # both are ||E_i|| up to rounding: the stored E_i = w_i v_i P_{V_i} S_W^{-1} P_{W_i}
        # errs by a few n eps w_i v_i ||S_W^{-1}||_2 (its factors P have norm 1), and so
        # does each computed norm; the bound is 8 n eps w_i v_i ||S_W^{-1}||_2
        eps = np.finfo(float).eps
        for _ in range(20):
            pair = self.unequal_pair(rng)
            report = worst_case_error(pair, 1, norm)
            values = np.array([v for _, v in report.per_subset_values])
            dense = np.array([matrix_norm(e, norm) for e in pair.components])
            scale = np.multiply(pair.primal.weights, pair.dual_candidate.weights) * np.linalg.norm(pair.s_inv, 2)
            assert values[1] == dense[1] == 0.0
            assert (np.abs(values - dense) <= 8 * pair.primal.ambient_dim * eps * scale).all()
            assert values.tolist() == member_values_reference(pair, norm)

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("m", [9, 5000], ids=["table", "past-table"])
    def test_no_search_and_no_dense_sums(self, rng, monkeypatch, m, norm):
        # past the table size too, every member is measured once, as an n x k_max
        # product: no bound, no greedy leaf, no n x n sum, and no operator-norm input wider than k_max
        w = random_fusion_frame(rng, 4, m, weighted=True)
        pair = canonical_pair(w)
        k_max = max(sub.dim for sub in w.subspaces)
        for name in ("_gain_band", "_greedy_leaf", "_chunk_sums"):
            monkeypatch.setattr(erasures, name, lambda *a, _name=name: pytest.fail(f"{_name} called"))
        rows = counting_norms(monkeypatch)
        shapes = []
        kernel = erasures._top_singular_values
        monkeypatch.setattr(erasures, "_top_singular_values", lambda stack: (shapes.append(stack.shape), kernel(stack))[1])
        report = worst_case_error(pair, 1, norm)
        assert sum(rows) == m
        assert all(shape[-1] <= k_max for shape in shapes)
        assert bool(shapes) == (norm == "operator")
        worst, argmax, table = brute_force_worst(pair, 1, norm)
        assert (report.worst_value, report.argmax_subsets, report.per_subset_values) == (worst, argmax, table)

    @pytest.mark.parametrize("norm", NORMS)
    def test_discrete_pairs_keep_the_dense_norms(self, rng, monkeypatch, norm):
        # rank-one components have no member basis: their single values are the dense norms, unsearched
        for name in ("_gain_band", "_greedy_leaf"):
            monkeypatch.setattr(erasures, name, lambda *a, _name=name: pytest.fail(f"{_name} called"))
        f = discrete_frame(rng.standard_normal((5000, 3)))
        g = discrete_frame(rng.standard_normal((5000, 3)))
        report = discrete_worst_case(f, g, 1, norm)
        worst, argmax, _ = brute_force_worst(discrete_components_reference(f, g), 1, norm)
        assert (report.worst_value, report.argmax_subsets, report.per_subset_values) == (worst, argmax, None)

    @pytest.mark.parametrize("norm", NORMS)
    def test_values_span_chunks(self, rng, monkeypatch, norm):
        # 3-member chunks leave a partial last one; the values are the reference's bit for bit
        pair = self.unequal_pair(rng, n=4, m=11)
        k_max = max(sub.dim for sub in pair.primal.subspaces)
        monkeypatch.setattr(erasures, "_CHUNK_BYTES", 3 * 8 * 4 * k_max)
        rows = counting_norms(monkeypatch)
        assert erasures._member_norms(pair, norm).tolist() == member_values_reference(pair, norm)
        assert rows == [3, 3, 3, 2]

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_values_are_refused(self, rng, norm, bad):
        # a worst case over an overflowing component has no value; none may be reported
        pair = canonical_pair(random_fusion_frame(rng, 3, 5))
        components = pair.components.copy()
        components[2] = bad
        broken = dataclasses.replace(pair, components=components)
        with pytest.raises(ValueError, match="not finite|did not converge"):
            worst_case_error(broken, 1, norm)


def traced_peak(run):
    """(result of ``run()``, peak traced bytes while it ran)."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_worst_case_memory_is_bounded(rng):
    # C(30, 5) = 142,506 subsets: memory must not grow with the subset count
    subs = [random_subspace(rng, 4, 2) for _ in range(30)]
    pair = canonical_pair(fusion_frame(subs, 0.5 + rng.random(30)))
    report, peak = traced_peak(lambda: worst_case_error(pair, 5, "frobenius"))
    assert report.per_subset_values is None
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("norm", NORMS)
def test_deep_table_keeps_one_copy_of_its_subsets(rng, norm):
    # C(1000, 999) = 1000 listed subsets of 999 members: their index array
    # is freed before the subset tuples that the table keeps are made, so
    # the peak stays near the size of those tuples (the index array beside
    # them doubled it)
    m, r = 1000, 999
    f = discrete_frame(rng.standard_normal((m, 2)))
    g = discrete_frame(rng.standard_normal((m, 2)))
    report, peak = traced_peak(lambda: discrete_worst_case(f, g, r, norm))
    table = sum(sys.getsizeof(s) for s, _ in report.per_subset_values)
    assert table > 7 * 2**20
    assert peak < 1.25 * table, f"peak {peak / 2**20:.1f} MB, table {table / 2**20:.1f} MB"


def test_single_erasures_of_many_members_skip_the_gram_matrix(rng):
    # 4500 members give 4500 subsets at r = 1, past the table threshold but
    # far fewer than the 4500^2 Gram entries (150 MB), which must not be built
    m = 4500
    subs = [coordinate_subspace(2, [1 + k % 2]) for k in range(m)]
    pair = canonical_pair(fusion_frame(subs, 0.5 + rng.random(m)))
    report, peak = traced_peak(lambda: worst_case_error(pair, 1, "frobenius"))
    assert report.per_subset_values is None
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_discrete_worst_case_forms_rank_one_components_per_chunk(rng):
    # all 2048 products g_k f_k^T in R^32 would take 16 MB at once
    f = discrete_frame(rng.standard_normal((2048, 32)))
    g = discrete_frame(rng.standard_normal((2048, 32)))
    report, peak = traced_peak(lambda: discrete_worst_case(f, g, 1, "operator"))
    oracle = max(matrix_norm(np.outer(g.vectors[k], f.vectors[k]), "operator") for k in range(2048))
    assert report.worst_value == oracle
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("norm", NORMS)
def test_search_memory_is_bounded_when_nothing_prunes(norm):
    # the orthonormal basis of R^16 at r = 6: all 8008 subsets tie, and
    # their 16 x 16 sums would take 16 MB at once
    pair = canonical_pair(fusion_frame([coordinate_subspace(16, [k]) for k in range(1, 17)]))
    report, peak = traced_peak(lambda: worst_case_error(pair, 6, norm))
    assert len(report.argmax_subsets) == math.comb(16, 6) == 8008
    assert 8 * 16 * 16 * 8008 > 16 * 10**6
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_greedy_leaf_memory_is_bounded(rng, monkeypatch):
    # 999 positions x 1 outsider: all one-swap rows of 999 indices would take 8 MB at once
    m, r = 1000, 999
    components = erasures._rank_one_components(
        discrete_frame(rng.standard_normal((m, 2))), discrete_frame(rng.standard_normal((m, 2)))
    )
    norms = erasures._norms(components, np.arange(m)[:, None], "frobenius")
    value, peak = traced_peak(lambda: erasures._greedy_leaf(components, norms, r, "frobenius"))
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
    # the groups of positions find the swap that all swaps at once would
    monkeypatch.setattr(erasures, "_CHUNK_BYTES", 1 << 30)
    assert erasures._greedy_leaf(components, norms, r, "frobenius") == value


def test_greedy_leaf_measures_fitting_swaps_at_once(rng, monkeypatch):
    m, r = 40, 5
    components = erasures._rank_one_components(
        discrete_frame(rng.standard_normal((m, 3))), discrete_frame(rng.standard_normal((m, 3)))
    )
    norms = erasures._norms(components, np.arange(m)[:, None], "operator")
    bounded = []
    bounds = erasures._sum_bounds
    monkeypatch.setattr(erasures, "_sum_bounds", lambda sums, kind: (bounded.append(len(sums)), bounds(sums, kind))[1])
    rows = counting_norms(monkeypatch)
    value = erasures._greedy_leaf(components, norms, r, "operator")
    # the start, then one call that bounds all r (m - r) swaps per step; only
    # the swaps whose bound beats the current value are measured exactly
    assert rows[0] == 1 and set(bounded) == {r * (m - r)}
    assert len(bounded) >= 2 and sum(rows[1:]) < r * (m - r)
    # every swap measured exactly takes the same steps
    monkeypatch.setattr(erasures, "_sum_bounds", erasures._sum_norms)
    assert erasures._greedy_leaf(components, norms, r, "operator") == value


def test_gain_band_matches_the_full_tail_table(rng):
    for m in (2, 3, 7, 19, 40):
        for norms in (rng.random(m), np.round(rng.random(m), 1), np.zeros(m)):
            # r = 1 reports never search
            for r in range(2, m):
                band = erasures._gain_band(norms, r)
                tails = tail_sums_reference(norms, r - 1)
                assert band.shape == (r, m - r + 1)
                for t in range(r):
                    j = np.arange(r - 1 - t, m - t)
                    # bit for bit: the same additions in the same order
                    assert band[t].tolist() == (norms[j] + tails[t, j + 1]).tolist()


@pytest.mark.parametrize("chunk", [None, 40], ids=["one-block", "blocks-of-1-to-5-rows"])
def test_gain_band_is_bitwise_the_brute_force_band(rng, monkeypatch, chunk):
    # each entry as the bound adds it: norms[j] + ((0.0 + a_1) + a_2) + ..., a_1 >= a_2 >= ... the tail
    # after j sorted afresh; ties come from quarter steps and zeros
    if chunk:
        monkeypatch.setattr(erasures, "_CHUNK_BYTES", chunk)
    for m in (2, 3, 5, 12, 40, 150):
        for norms in (rng.random(m), rng.integers(0, 4, m) / 4.0, np.zeros(m)):
            for r in sorted({2, 3, m // 2, m - 1} & set(range(2, m))):
                reference = np.empty((r, m - r + 1))
                for t, i in itertools.product(range(r), range(m - r + 1)):
                    j = r - 1 - t + i
                    total = 0.0
                    for x in sorted(norms[j + 1 :].tolist(), reverse=True)[:t]:
                        total += x
                    reference[t, i] = norms[j] + total
                assert erasures._gain_band(norms, r).tobytes() == reference.tobytes()


def test_gain_band_of_a_deep_tree_is_small(rng):
    # the full 5999 x 6001 table of Python floats would take hundreds of MB
    norms = rng.random(6000)
    band, peak = traced_peak(lambda: erasures._gain_band(norms, 5999))
    assert band.shape == (5999, 2)
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("m, r", [(5, 2), (100, 2)], ids=["table", "pruned"])
def test_non_finite_components_are_refused(norm, bad, m, r):
    # a worst case over overflowing components has no value; -1 or nan must never be reported
    def take(rows):
        stack = np.zeros((len(rows), 2, 2))
        stack[rows == 1] = bad
        return stack

    components = erasures._Components(m, 2, take)
    with pytest.raises(ValueError, match="not finite|did not converge"):
        erasures._worst_report(components, r, norm)


@pytest.mark.parametrize("norm", NORMS)
def test_fixed_set_values_are_the_table_values(rng, norm):
    # a fixed set is measured as the worst-case table measures the same subset, bit for bit
    w = random_fusion_frame(rng, 4, 5, weighted=True)
    pair = make_dual_pair(w, inflated_dual(rng, w))
    f = discrete_frame(rng.standard_normal((6, 3)))
    g = discrete_canonical_dual(f)
    tables = worst_case_error(pair, 2, norm).per_subset_values, discrete_worst_case(f, g, 2, norm).per_subset_values
    for subset, value in tables[0]:
        mask = ErasureMask(5, subset)
        assert fusion_partial_error(pair, mask, norm) == value == matrix_norm(fusion_error_operator(pair, mask), norm)
    for subset, value in tables[1]:
        assert partial_erasure_error(f, g, ErasureMask(6, subset), norm) == value


@pytest.mark.parametrize("norm", NORMS)
def test_values_whose_squares_overflow_are_measured(norm):
    # the erased component is 5e199 in R^1 (and g_1 f_1^T = 1e200): finite, and so are its
    # norms, though its square is not; every path measures it, where the Frobenius norm was refused
    w = fusion_frame([orthonormal_basis([[2.0]]), orthonormal_basis([[1.0]])], [1e-100, 1e-100])
    pair = make_dual_pair(w, fusion_frame([orthonormal_basis([[1.0]])] * 2, [1.0, 1e100]))
    f, g = discrete_frame([[1e100], [1.0]]), discrete_frame([[1e100], [1.0]])
    assert fusion_partial_error(pair, ErasureMask(2, [2]), norm) == pytest.approx(5e199, rel=1e-15)
    assert worst_case_error(pair, 1, norm).worst_value == pytest.approx(5e199, rel=1e-15)
    assert partial_erasure_error(f, g, ErasureMask(2, [1]), norm) == 1e200
    assert discrete_worst_case(f, g, 1, norm).worst_value == 1e200


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("entry", [5e199, 1e-170])
def test_sums_whose_squares_leave_the_float_range(norm, entry):
    # both norms of the all-`entry` 3 x 3 sum are 3 * entry; its squares overflow (5e199),
    # which the Frobenius norm refused, or underflow to 0 (1e-170), where it gave 0.0
    value = erasures._sum_norms(np.full((1, 3, 3), entry), norm)[0]
    assert value == pytest.approx(3 * entry, rel=4 * np.finfo(float).eps)
    assert value == matrix_norm(np.full((3, 3), entry), norm)


def overflowing_pair(m: int, c3: float | None = None):
    """Vectors f_k = (1, u_k) and g_k = (c_k, 0) in R^2, c_1 = 1e308 and c_2 = -1e308, which cancel.

    Every component g_k f_k^T is finite. With ``c3`` = 9e307 the sum over {1, 3} is not.
    """
    rng = np.random.default_rng(0)
    f = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, m)])
    c = rng.uniform(0.1, 1.0, m)
    c[:2] = 1e308, -1e308
    if c3 is not None:
        c[2] = c3
    return discrete_frame(f), discrete_frame(np.column_stack([c, np.zeros(m)]))


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("m", [20, 92], ids=["table", "pruned"])
def test_bounds_past_the_float_range_keep_the_exact_report(norm, m):
    # the tail sums, the slack and the prefix bounds overflow to inf, which only stops pruning;
    # no sum that is measured overflows, and no RuntimeWarning is raised
    f, g = overflowing_pair(m)
    components = discrete_components_reference(f, g)
    report = discrete_worst_case(f, g, 2, norm)
    assert report.worst_value == 1.100905367703579e308
    assert_matches_brute_force(report, components, 2, norm)
    assert partial_erasure_error(f, g, ErasureMask(m, [1, 3]), norm) == matrix_norm(components[0] + components[2], norm)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("m", [20, 92], ids=["table", "pruned"])
def test_sums_past_the_float_range_give_the_one_refusal(norm, m):
    f, g = overflowing_pair(m, c3=9e307)
    with np.errstate(over="ignore"):
        assert not np.isfinite(sum(discrete_components_reference(f, g)[i] for i in (0, 2))).all()
    with pytest.raises(ValueError, match="^erasure error norm is not finite: ") as refused:
        discrete_worst_case(f, g, 2, norm)
    if (m, norm) == (92, "operator"):
        # the search bounds the swaps of its greedy leaf first, so the refusal is the bound's own
        assert refused.traceback[-1].name == "_sum_bounds"
    with pytest.raises(ValueError, match="^erasure error norm is not finite: "):
        partial_erasure_error(f, g, ErasureMask(m, [1, 3]), norm)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("m", [3, 92], ids=["table", "pruned"])
def test_rank_one_products_past_the_float_range_give_the_one_refusal(norm, m):
    # g_1 f_1^T overflows to inf and g_2 f_2^T to -inf, so their sum is nan
    f = discrete_frame([[1e200]] * 2 + [[1.0]] * (m - 2))
    g = discrete_frame([[1e200], [-1e200]] + [[1.0]] * (m - 2))
    with pytest.raises(ValueError, match="^erasure error norm is not finite: "):
        discrete_worst_case(f, g, 2, norm)
    with pytest.raises(ValueError, match="^erasure error norm is not finite: "):
        partial_erasure_error(f, g, ErasureMask(m, [1, 2]), norm)


def test_frobenius_norm_of_a_transposed_matrix_rounds_as_the_batched_sum(rng):
    # np.linalg.norm sums in memory order; the batched norm, and so every report, in C order.
    # Summed in memory order, about 29% of these transposes differed in the last bits
    for _ in range(1500):
        n = int(rng.integers(1, 70))
        x = rng.standard_normal((n, n)).T
        assert matrix_norm(x, "frobenius") == erasures._sum_norms(x[None], "frobenius")[0]


def test_unknown_norm_kind_is_refused(rng):
    pair = canonical_pair(random_fusion_frame(rng, 3, 4))
    f = discrete_frame(rng.standard_normal((4, 2)))
    calls = [
        lambda: worst_case_error(pair, 1, "nuclear"),
        lambda: worst_case_error(pair, 2, "nuclear"),
        lambda: fusion_partial_error(pair, ErasureMask(4, [1]), "nuclear"),
        lambda: discrete_worst_case(f, f, 1, "nuclear"),
        lambda: partial_erasure_error(f, f, ErasureMask(4, [1]), "nuclear"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown norm kind 'nuclear'"):
            call()


def test_mask_validation():
    with pytest.raises(ValueError, match="positive"):
        ErasureMask(0, [])
    mask = ErasureMask(5, [3, 1])
    assert mask.erased == frozenset({1, 3})
