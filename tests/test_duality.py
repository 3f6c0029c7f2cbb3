import json

import numpy as np
import pytest

from fusionframes import (
    ErasureMask,
    LeftInverseMap,
    Tolerance,
    canonical_dual,
    canonical_pair,
    certify_dual_optimal,
    component_preserving_check,
    coordinate_subspace,
    frame_operator,
    full_subspace,
    fusion_frame,
    fusion_partial_error,
    image_subspace,
    left_inverse_residual,
    lift_to_component_preserving,
    make_dual_pair,
    orthonormal_basis,
    projector,
    reconstruction_matrix,
    riesz_dual_family_check,
    spd_inverse,
    subspace_contains,
    subspaces_equal,
    verify_dual,
    worst_case_error,
    zero_subspace,
)
from fusionframes.cli import main, parse_document
from helpers import (
    FIXTURES,
    PRESERVING_RECON,
    inflated_dual,
    orthobasis_alt_dual,
    orthobasis_frame_r3,
    overlap_extended_dual,
    overlap_frame_r4,
    preserving_pair_r3,
    random_fusion_frame,
)


def _fixture_pair(name):
    """(frame, its document dual or else its canonical dual, tolerance) of a bundled fixture."""
    doc = parse_document(FIXTURES / f"{name}.json")
    return doc.frame, doc.dual if doc.dual is not None else canonical_dual(doc.frame, doc.tol), doc.tol


class TestReconstructionMatrix:
    @pytest.mark.parametrize("name", ["overlap_r4", "overlap_r4_extended_dual", "orthobasis_r3", "preserving_nondual_r3"])
    def test_is_the_pairs_reconstruction(self, name):
        w, v, tol = _fixture_pair(name)
        recon = reconstruction_matrix(w, v, tol)
        assert recon.tobytes() == make_dual_pair(w, v, tol).reconstruction.tobytes()

    def test_is_the_pairs_reconstruction_on_a_random_pair(self, rng):
        w = random_fusion_frame(rng, 4, 6, weighted=True)
        v = inflated_dual(rng, w)
        assert reconstruction_matrix(w, v).tobytes() == make_dual_pair(w, v).reconstruction.tobytes()

    @pytest.mark.parametrize("name", ["overlap_r4", "overlap_r4_extended_dual"])
    def test_duals_reconstruct_the_identity(self, name):
        w, v, tol = _fixture_pair(name)
        recon = reconstruction_matrix(w, v, tol)
        assert np.linalg.norm(recon - np.eye(w.ambient_dim)) <= tol.residual_eps

    def test_non_dual_map_is_the_one_verify_dual_prints(self, capsys):
        w, v, tol = _fixture_pair("preserving_nondual_r3")
        recon = reconstruction_matrix(w, v, tol)
        assert main(["--json", "verify-dual", str(FIXTURES / "preserving_nondual_r3.json")]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert not result["is_dual"]
        assert result["reconstruction"] == recon.tolist()
        assert np.abs(recon - PRESERVING_RECON).max() < 1e-12


class TestPairState:
    def test_pair_is_analysed_at_its_own_tolerance(self):
        # S_W = 1e-10 I: invertible under rank_eps = 1e-13, not under the default 1e-9
        tol = Tolerance(rank_eps=1e-13, residual_eps=1e-13)
        w = fusion_frame([coordinate_subspace(3, [k]) for k in (1, 2, 3)], [1e-5] * 3)
        pair = canonical_pair(w, tol)
        assert pair.tol is tol
        assert worst_case_error(pair, 1, "frobenius").worst_value == pytest.approx(1.0, abs=1e-12)
        assert fusion_partial_error(pair, ErasureMask(3, [2]), "operator") == pytest.approx(1.0, abs=1e-12)
        assert certify_dual_optimal(pair).lambda1 == (1, 2, 3)
        lifted = lift_to_component_preserving(pair)
        assert all(subspaces_equal(a, b) for a, b in zip(lifted.subspaces, w.subspaces))

    def test_components_add_up_to_the_reconstruction(self, rng):
        w = random_fusion_frame(rng, 4, 5, weighted=True)
        pair = make_dual_pair(w, inflated_dual(rng, w))
        total = np.zeros((4, 4))
        for component in pair.components:
            total += component
        assert pair.components.shape == (5, 4, 4)
        assert np.array_equal(total, pair.reconstruction)
        with pytest.raises(ValueError, match="read-only"):
            pair.components[0, 0, 0] = 1.0


    def test_canonical_pair_is_the_pair_of_the_canonical_dual(self, rng):
        w = random_fusion_frame(rng, 4, 5, weighted=True)
        reference = make_dual_pair(w, canonical_dual(w))
        # a copy of w decomposes its own S_W, so the bits are not merely shared
        pair = canonical_pair(fusion_frame(list(w.subspaces), list(w.weights)))
        for name in ("s_inv", "components", "reconstruction"):
            assert np.array_equal(getattr(pair, name), getattr(reference, name))
        for a, b in zip(pair.dual_candidate.subspaces, reference.dual_candidate.subspaces):
            assert np.array_equal(a.basis, b.basis)


class TestVerifyDual:
    def test_canonical_dual_verifies(self, rng):
        w = random_fusion_frame(rng, 5, 4, weighted=True)
        ok, residual, recon = verify_dual(canonical_pair(w))
        assert ok
        assert residual < 1e-9
        assert np.abs(recon - np.eye(5)).max() < 1e-9

    def test_preserving_pair_is_not_dual(self):
        w, v, _ = preserving_pair_r3()
        ok, residual, recon = verify_dual(make_dual_pair(w, v))
        assert not ok
        assert residual > 0.1
        assert np.abs(recon - PRESERVING_RECON).max() < 1e-12

    def test_extended_family_verifies_for_any_parameters(self, rng):
        w = overlap_frame_r4()
        for _ in range(5):
            v = overlap_extended_dual(rng.standard_normal(7))
            ok, residual, _ = verify_dual(make_dual_pair(w, v))
            assert ok and residual < 1e-9

    def test_member_count_mismatch(self):
        w = overlap_frame_r4()
        with pytest.raises(ValueError, match="member counts"):
            make_dual_pair(w, fusion_frame([full_subspace(4)]))


class TestRieszDualFamilyCheck:
    def test_canonical_dual_contained(self):
        w = orthobasis_frame_r3()
        assert riesz_dual_family_check(w, canonical_dual(w))

    def test_enlarged_members_accepted(self):
        assert riesz_dual_family_check(orthobasis_frame_r3(), orthobasis_alt_dual())

    def test_proper_subspace_rejected(self):
        w = orthobasis_frame_r3()
        v = fusion_frame([zero_subspace(3), w.subspaces[1]])
        assert not riesz_dual_family_check(w, v)

    def test_non_riesz_primal_rejected(self):
        w = overlap_frame_r4()
        with pytest.raises(ValueError, match="Riesz"):
            riesz_dual_family_check(w, canonical_dual(w))


class TestComponentPreserving:
    def test_canonical_blocks(self, rng):
        w = random_fusion_frame(rng, 4, 3, weighted=True)
        s_inv = spd_inverse(frame_operator(w))
        blocks = tuple(weight * s_inv for weight in w.weights)
        a = LeftInverseMap(blocks)
        assert left_inverse_residual(a, w) < 1e-9
        assert component_preserving_check(w, canonical_dual(w), a)

    def test_displayed_preserving_pair(self):
        w, v, blocks = preserving_pair_r3()
        a = LeftInverseMap(blocks)
        assert left_inverse_residual(a, w) < 1e-12
        assert component_preserving_check(w, v, a)

    def test_extended_member_not_preserving(self):
        # appending a direction the block image cannot reach makes the check fail
        w = overlap_frame_r4()
        v1 = orthonormal_basis([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        v = fusion_frame([v1, w.subspaces[1], w.subspaces[2]])
        assert make_dual_pair(w, v).duality_residual < 1e-9
        s_inv = spd_inverse(frame_operator(w))
        blocks = tuple(projector(vs) @ s_inv for vs in v.subspaces)
        a = LeftInverseMap(blocks)
        assert left_inverse_residual(a, w) < 1e-9
        assert not component_preserving_check(w, v, a)

    def test_invalid_left_inverse_rejected(self):
        w, v, _ = preserving_pair_r3()
        bad = LeftInverseMap((np.eye(3), np.eye(3)))
        with pytest.raises(ValueError, match="left inverse"):
            component_preserving_check(w, v, bad)


class TestLift:
    def test_canonical_is_fixed_point(self, rng):
        w = random_fusion_frame(rng, 4, 3)
        pair = canonical_pair(w)
        lifted = lift_to_component_preserving(pair)
        for xs, vs in zip(lifted.subspaces, pair.dual_candidate.subspaces):
            assert subspaces_equal(xs, vs)

    def test_extended_family_lifts_back_to_members(self):
        # oracle: multiply projectors directly; the image of the first member
        # under the dual projection is the member itself
        w = overlap_frame_r4()
        v = overlap_extended_dual([1, 1, 1, 1, 1, 1, 1])
        s_inv = spd_inverse(frame_operator(w))
        oracle = orthonormal_basis(
            (projector(v.subspaces[0]) @ s_inv @ w.subspaces[0].basis).T, ambient_dim=4
        )
        assert subspaces_equal(oracle, w.subspaces[0])
        lifted = lift_to_component_preserving(make_dual_pair(w, v))
        for xs, ws in zip(lifted.subspaces, w.subspaces):
            assert subspaces_equal(xs, ws)

    def test_appended_direction_dropped(self, rng):
        # oracle: the projector-image rank cannot exceed the canonical rank
        w = random_fusion_frame(rng, 5, 3)
        v = inflated_dual(rng, w)
        s_inv = spd_inverse(frame_operator(w))
        lifted = lift_to_component_preserving(make_dual_pair(w, v))
        for xs, ws in zip(lifted.subspaces, w.subspaces):
            assert xs.dim == image_subspace(s_inv, ws).dim

    def test_per_component_errors_match(self, rng):
        w = random_fusion_frame(rng, 4, 3, weighted=True)
        v = inflated_dual(rng, w)
        pair = make_dual_pair(w, v)
        lifted = lift_to_component_preserving(pair)
        s_inv = spd_inverse(frame_operator(w))
        for ws, vs, xs in zip(w.subspaces, v.subspaces, lifted.subspaces):
            before = projector(vs) @ s_inv @ projector(ws)
            after = projector(xs) @ s_inv @ projector(ws)
            assert np.abs(before - after).max() < 1e-9

    def test_lift_preserves_worst_single_erasure(self, rng):
        w = random_fusion_frame(rng, 4, 3, weighted=True)
        pair = make_dual_pair(w, inflated_dual(rng, w))
        lifted_pair = make_dual_pair(w, lift_to_component_preserving(pair))
        for kind in ("frobenius", "operator"):
            a = worst_case_error(pair, 1, kind).worst_value
            b = worst_case_error(lifted_pair, 1, kind).worst_value
            assert a == pytest.approx(b, abs=1e-9)

    def test_lift_matches_member_by_member_images(self, rng):
        # one batched pass gives each member the bits of its own image_subspace
        pairs = [make_dual_pair(overlap_frame_r4(), overlap_extended_dual([1, 1, 1, 1, 1, 1, 1]))]
        for weighted in (False, True):
            w = random_fusion_frame(rng, 5, 4, weighted=weighted)
            pairs += [canonical_pair(w), make_dual_pair(w, inflated_dual(rng, w))]
        for pair in pairs:
            lifted = lift_to_component_preserving(pair)
            for ws, vs, xs in zip(pair.primal.subspaces, pair.dual_candidate.subspaces, lifted.subspaces):
                alone = image_subspace(projector(vs) @ pair.s_inv, ws, pair.tol).basis
                assert np.array_equal(xs.basis, alone)
                assert np.array_equal(np.signbit(xs.basis), np.signbit(alone))

    def test_non_dual_rejected(self):
        w, v, _ = preserving_pair_r3()
        with pytest.raises(ValueError, match="verified dual"):
            lift_to_component_preserving(make_dual_pair(w, v))


class TestBlockDiagonality:
    def test_component_error_image_lands_in_dual_member(self, rng):
        for _ in range(8):
            w = random_fusion_frame(rng, 4, 3, weighted=True)
            v = inflated_dual(rng, w)
            s_inv = spd_inverse(frame_operator(w))
            for ws, vs in zip(w.subspaces, v.subspaces):
                err = projector(vs) @ s_inv @ projector(ws)
                image = orthonormal_basis(err.T, ambient_dim=4)
                assert subspace_contains(vs, image)


def test_canonical_duality_randomized_sweep(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        w = random_fusion_frame(rng, n, m, weighted=True)
        assert canonical_pair(w).duality_residual < 1e-9
