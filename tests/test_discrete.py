import re
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fusionframes import (
    DEFAULT_TOL,
    ErasureMask,
    Tolerance,
    bridge_dual_to_discrete,
    bridge_fusion_to_discrete,
    canonical_dual,
    compact_nonzero,
    discrete_canonical_dual,
    discrete_frame,
    discrete_frame_operator,
    dual_from_perturbation,
    frame_operator,
    full_subspace,
    fusion_frame,
    halving_dual,
    make_dual_pair,
    parseval_optimal_family,
    partial_erasure_error,
    perturbation_residual,
    projector,
    spd_inverse,
    synthesis_nullspace,
    verify_discrete_dual,
    zero_subspace,
)
from helpers import (
    ORTHOBASIS_ALT_DUAL_BRIDGED,
    ORTHOBASIS_BRIDGED,
    OVERCOMPLETE_BRIDGED,
    OVERCOMPLETE_MEMBER_DUAL,
    orthobasis_alt_dual,
    orthobasis_frame_r3,
    overcomplete_frame_r3,
    random_fusion_frame,
    random_perturbation,
    random_riesz_basis,
    random_unitary,
    record_canonical_dual_formations,
)
from fusionframes.fusion import _inverse

# frame operator of the bridged overcomplete frame, by direct summation of
# outer products of the seven displayed vectors
OVERCOMPLETE_SF = np.array([[31, 3, 0], [3, 25, 0], [0, 0, 49]]) / 49.0


def bridged_overcomplete():
    w = overcomplete_frame_r3()
    raw = bridge_fusion_to_discrete(w, np.eye(3), "canonical_weighted")
    compacted, kept = compact_nonzero(raw)
    return w, raw, compacted, kept


class TestFrameOperator:
    def test_standard_basis(self):
        f = discrete_frame(np.eye(4))
        assert np.allclose(discrete_frame_operator(f), np.eye(4))

    def test_orthobasis_bridge_is_parseval(self):
        f = discrete_frame(ORTHOBASIS_BRIDGED)
        assert np.abs(discrete_frame_operator(f) - np.eye(3)).max() < 1e-12

    def test_overcomplete_bridge_operator(self):
        # oracle: sum of outer products, accumulated by hand in exact sevenths
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        oracle = sum(np.outer(v, v) for v in OVERCOMPLETE_BRIDGED)
        assert np.abs(oracle - OVERCOMPLETE_SF).max() < 1e-12
        assert np.abs(discrete_frame_operator(f) - OVERCOMPLETE_SF).max() < 1e-12


class TestCanonicalDual:
    def test_orthonormal_basis_self_dual(self):
        f = discrete_frame(np.eye(3))
        assert np.allclose(discrete_canonical_dual(f).vectors, np.eye(3))

    def test_parseval_self_dual(self):
        f = discrete_frame(ORTHOBASIS_BRIDGED)
        assert np.abs(discrete_canonical_dual(f).vectors - f.vectors).max() < 1e-12

    def test_overcomplete_member_dual_is_not_canonical(self):
        # the member-wise dual (projections onto the canonical fusion dual
        # members) is a valid dual but differs from the canonical dual of the
        # seven-vector frame, whose frame operator mixes the plane vectors
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        ok, residual = verify_discrete_dual(f, discrete_frame(OVERCOMPLETE_MEMBER_DUAL))
        assert ok and residual < 1e-12
        canonical = discrete_canonical_dual(f)
        assert np.abs(canonical.vectors - OVERCOMPLETE_MEMBER_DUAL).max() > 0.05
        oracle = f.vectors @ np.linalg.inv(OVERCOMPLETE_SF)
        assert np.abs(canonical.vectors - oracle).max() < 1e-12

    def test_labels_preserved(self):
        _, raw, compacted, _ = bridged_overcomplete()
        assert discrete_canonical_dual(compacted).labels == compacted.labels

    def test_non_frame_rejected(self):
        f = discrete_frame([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="eigenvalue"):
            discrete_canonical_dual(f)

    def test_formed_once_and_frame_tested_on_every_call(self, monkeypatch):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        formed = record_canonical_dual_formations(monkeypatch)
        first = discrete_canonical_dual(f)
        assert np.array_equal(first.vectors, f.vectors @ _inverse(f, DEFAULT_TOL))
        assert not first.vectors.flags.writeable
        with pytest.raises(ValueError, match="not a frame"):
            discrete_canonical_dual(f, Tolerance(rank_eps=2 * float(f.spectrum[0][0])))
        assert discrete_canonical_dual(f) is first
        assert formed == [f]

    def test_halving_dual_shares_the_canonical_dual(self, monkeypatch):
        # halving_dual reads the frame's one canonical dual and forms none of its own
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        formed = record_canonical_dual_formations(monkeypatch)
        g = halving_dual(f, [1, 2])
        canonical = discrete_canonical_dual(f)
        assert formed == [f]
        assert np.array_equal(g.vectors[:2], 0.5 * canonical.vectors[:2])


class TestVerifyDual:
    def test_canonical_always_passes(self, rng):
        f = discrete_frame(rng.standard_normal((6, 3)))
        ok, residual = verify_discrete_dual(f, discrete_canonical_dual(f))
        assert ok and residual < 1e-12

    def test_displayed_alternate_dual(self):
        f = discrete_frame(ORTHOBASIS_BRIDGED)
        g = discrete_frame(ORTHOBASIS_ALT_DUAL_BRIDGED)
        ok, residual = verify_discrete_dual(f, g)
        assert ok and residual < 1e-12

    def test_non_parseval_self_pairing_fails(self):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        ok, residual = verify_discrete_dual(f, f)
        assert not ok and residual > 0.1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            verify_discrete_dual(discrete_frame(np.eye(3)), discrete_frame(np.eye(3)[:2]))

    def test_residual_past_the_float_range_of_squares_is_finite(self):
        # g_k f_k is about 1e200 each: the residual's square, 4e400, overflows, so it is summed rescaled
        f, g = discrete_frame([[1e-100], [1e-100]]), discrete_frame([[1e300], [1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_discrete_dual(f, g) == (False, 2.0000000000000003e200)
            assert perturbation_residual(f, g.vectors) == 2.0000000000000003e200


class TestPerturbations:
    def test_zero_perturbation_gives_canonical(self):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        g = dual_from_perturbation(f, np.zeros((7, 3)))
        assert np.allclose(g.vectors, discrete_canonical_dual(f).vectors)

    def test_nullspace_dimensions(self, rng):
        f = discrete_frame(rng.standard_normal((7, 3)))
        nullsp = synthesis_nullspace(f)
        assert nullsp.shape == (7, 4)
        assert np.abs(f.vectors.T @ nullsp).max() < 1e-9

    @pytest.mark.parametrize("scale", [1.0, 1e-10])
    def test_nullspace_rank_is_relative_to_the_frame(self, scale):
        f = discrete_frame(scale * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert synthesis_nullspace(f).shape == (3, 1)

    def test_zero_frame_nullspace_is_the_whole_space(self):
        assert synthesis_nullspace(discrete_frame(np.zeros((3, 2)))).shape == (3, 3)

    def test_random_nullspace_draw_is_valid_dual(self, rng):
        for _ in range(10):
            f = discrete_frame(rng.standard_normal((8, 4)))
            u = random_perturbation(rng, f)
            assert perturbation_residual(f, u) < 1e-9
            g = dual_from_perturbation(f, u)
            ok, residual = verify_discrete_dual(f, g)
            assert ok, residual

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_perturbation_refused_without_warning(self, bad):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        u = np.zeros((7, 3))
        u[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^perturbation has non-finite entries$"):
                perturbation_residual(f, u)
            with pytest.raises(ValueError, match="^perturbation has non-finite entries$"):
                dual_from_perturbation(f, u)

    def test_misshapen_perturbation_refused(self):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        for shape in ((3, 7), (7,), (6, 3)):
            with pytest.raises(ValueError, match=f"^{re.escape(f'perturbation must be a 7 x 3 array, got {shape}')}$"):
                dual_from_perturbation(f, np.zeros(shape))

    def test_invalid_perturbation_rejected(self, rng):
        f = discrete_frame(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError, match="dual relation"):
            dual_from_perturbation(f, np.ones((5, 3)))


class TestBridge:
    def test_overcomplete_bridge_matches_display(self):
        _, raw, compacted, kept = bridged_overcomplete()
        assert raw.count == 9
        assert kept == (1, 2, 4, 5, 7, 8, 9)
        assert np.abs(compacted.vectors - OVERCOMPLETE_BRIDGED).max() < 1e-12
        assert compacted.labels == ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))

    def test_full_space_member_reproduces_basis(self):
        w = fusion_frame([full_subspace(3)])
        f = bridge_fusion_to_discrete(w, np.eye(3), "canonical_weighted")
        assert np.abs(f.vectors - np.eye(3)).max() < 1e-12

    def test_orthobasis_parseval_bridge(self):
        w = orthobasis_frame_r3()
        f = parseval_optimal_family(w, basis=np.eye(3))[0]
        compacted, kept = compact_nonzero(f)
        assert kept == (1, 3, 4, 5, 6)
        assert np.abs(compacted.vectors - ORTHOBASIS_BRIDGED).max() < 1e-12

    def test_non_orthonormal_basis_rejected(self):
        w = orthobasis_frame_r3()
        with pytest.raises(ValueError, match="orthonormal"):
            bridge_fusion_to_discrete(w, np.eye(3) * 2.0, "canonical_weighted")

    @pytest.mark.parametrize(
        "entry, error",
        [
            (np.nan, r"basis\[1\]: non-finite entry"),
            (np.inf, r"basis\[1\]: non-finite entry"),
            (-np.inf, r"basis\[1\]: non-finite entry"),
            (1e200, "basis is not orthonormal"),
            (-1e200, "basis is not orthonormal"),
        ],
    )
    def test_extreme_basis_entry_refused_without_warning(self, entry, error):
        # refused before the product, or with its overflow silenced: a warning
        # there would surface as numpy's message ahead of the refusal
        w = orthobasis_frame_r3()
        basis = np.eye(3)
        basis[1, 2] = entry
        calls = [
            lambda: bridge_fusion_to_discrete(w, basis, "canonical_weighted"),
            lambda: bridge_dual_to_discrete(w, basis),
            lambda: parseval_optimal_family(w, basis=basis),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=error):
                    call()

    def test_parseval_sqrt_mode_is_refused(self):
        # the Parseval frame comes from parseval_optimal_family, which checks its hypotheses
        w = orthobasis_frame_r3()
        with pytest.raises(ValueError, match="unknown bridge mode 'parseval_sqrt'"):
            bridge_fusion_to_discrete(w, np.eye(3), "parseval_sqrt")

    def test_dual_bridge_matches_display(self):
        g = bridge_dual_to_discrete(orthobasis_alt_dual(), np.eye(3))
        compacted, kept = compact_nonzero(g)
        assert kept == (1, 3, 4, 5, 6)
        assert np.abs(compacted.vectors - ORTHOBASIS_ALT_DUAL_BRIDGED).max() < 1e-12

    def test_dual_bridge_of_canonical_parseval_is_frame_itself(self):
        w = orthobasis_frame_r3()
        f = parseval_optimal_family(w, basis=np.eye(3))[0]
        g = bridge_dual_to_discrete(canonical_dual(w), np.eye(3))
        assert np.abs(f.vectors - g.vectors).max() < 1e-9

    def test_zero_member_gives_zero_block(self):
        v = fusion_frame([zero_subspace(3), full_subspace(3)])
        g = bridge_dual_to_discrete(v, np.eye(3))
        assert np.abs(g.vectors[:3]).max() == 0.0


class TestBridgeInvariants:
    def test_bridged_operator_formula(self, rng):
        # S_F = sum w_i^2 proj_i S_W^{-2} proj_i for the weighted bridge
        for _ in range(8):
            w = random_fusion_frame(rng, 4, 3, weighted=True)
            f = bridge_fusion_to_discrete(w, random_unitary(rng, 4).T, "canonical_weighted")
            s_inv = spd_inverse(frame_operator(w))
            expected = np.zeros((4, 4))
            for sub, weight in zip(w.subspaces, w.weights):
                p = projector(sub)
                expected += weight**2 * p @ s_inv @ s_inv @ p
            assert np.abs(discrete_frame_operator(f) - expected).max() < 1e-9

    def test_riesz_parseval_bridge(self, rng):
        for _ in range(8):
            w = random_riesz_basis(rng, int(rng.integers(3, 6)), int(rng.integers(2, 4)))
            f = parseval_optimal_family(w)[0]
            s_f = discrete_frame_operator(f)
            assert np.abs(s_f - np.eye(w.ambient_dim)).max() < 1e-9

    def test_duality_transfers_across_bridge(self, rng):
        from helpers import inflated_dual

        for _ in range(8):
            w = random_fusion_frame(rng, 4, 3, weighted=True)
            v = inflated_dual(rng, w)
            basis = random_unitary(rng, 4).T
            f = bridge_fusion_to_discrete(w, basis, "canonical_weighted")
            g = bridge_dual_to_discrete(v, basis)
            fusion_ok = make_dual_pair(w, v).duality_residual < 1e-9
            discrete_ok, _ = verify_discrete_dual(f, g)
            assert fusion_ok == discrete_ok == True  # noqa: E712

    def test_non_dual_fails_across_bridge(self):
        from helpers import preserving_pair_r3

        w, v, _ = preserving_pair_r3()
        f = bridge_fusion_to_discrete(w, np.eye(3), "canonical_weighted")
        g = bridge_dual_to_discrete(v, np.eye(3))
        ok, residual = verify_discrete_dual(f, g)
        assert not ok and residual > 0.1


class TestHalving:
    def test_pair_construction_and_ratio(self):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        canonical = discrete_canonical_dual(f)
        g = halving_dual(f, [1, 2])
        ok, _ = verify_discrete_dual(f, g)
        assert ok
        assert np.abs(g.vectors[:2] - 0.5 * canonical.vectors[:2]).max() < 1e-12

    def test_minimum_norm_solution(self):
        # the free rows solve an underdetermined system; re-solving with the
        # pseudoinverse must reproduce them
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        u = halving_dual(f, [3, 5]).vectors - discrete_canonical_dual(f).vectors
        lost = [2, 4]
        free = [k for k in range(7) if k not in lost]
        rhs = -f.vectors[lost].T @ u[lost]
        oracle = np.linalg.pinv(f.vectors[free].T) @ rhs
        assert np.abs(u[free] - oracle).max() < 1e-9

    def test_halving_satisfies_displayed_constraints(self):
        # the dual relation for the seven-vector frame collapses to two
        # aggregate equations plus a forced-zero final row
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        u = halving_dual(f, [1, 2]).vectors - discrete_canonical_dual(f).vectors
        first = 5 * u[0] + u[1] + 2 * u[4] - u[5]
        second = u[0] + 3 * u[1] + u[2] + 3 * u[3] - 2 * u[4] + u[5]
        assert np.abs(first).max() < 1e-12
        assert np.abs(second).max() < 1e-12
        assert np.abs(u[6]).max() < 1e-12

    def test_pairs_containing_forced_zero_are_infeasible(self):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        for pair in ([1, 7], [6, 7]):
            with pytest.raises(ValueError, match="infeasible"):
                halving_dual(f, pair)

    def test_index_range(self):
        f = discrete_frame(OVERCOMPLETE_BRIDGED)
        with pytest.raises(ValueError, match="range"):
            halving_dual(f, [0])

    def test_ratio_is_exactly_two(self):
        # each lost row is c - c/2 = c/2 exactly, so each lost component, their sum and both of
        # its norms halve exactly: the ratio that erasure --fixed reports is 2.0, not about 2
        feasible = []

        @seed(32)
        @settings(max_examples=300, deadline=None)
        @given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 2**32 - 1), st.data())
        def check(n, m, draw_seed, data):
            rng = np.random.default_rng(draw_seed)
            bridged = bridge_fusion_to_discrete(random_fusion_frame(rng, n, m, weighted=True), random_unitary(rng, n).T)
            f, _ = compact_nonzero(bridged)
            canonical = discrete_canonical_dual(f)
            lost = data.draw(st.sets(st.integers(1, f.count), min_size=1, max_size=min(3, f.count)))
            try:
                halved = halving_dual(f, lost)
            except ValueError:
                return
            mask = ErasureMask(f.count, lost)
            for norm in ("frobenius", "operator"):
                value_c = partial_erasure_error(f, canonical, mask, norm)
                value_h = partial_erasure_error(f, halved, mask, norm)
                assert value_h == value_c / 2 and value_c / value_h == 2.0
            feasible.append(sorted(lost))

        check()
        assert len(feasible) >= 200


def test_compact_nonzero_without_labels():
    f = discrete_frame([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    compacted, kept = compact_nonzero(f)
    assert kept == (1, 3)
    assert compacted.labels is None
