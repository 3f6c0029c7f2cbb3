import dataclasses

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fusionframes import (
    DEFAULT_TOL,
    Tolerance,
    canonical_dual,
    canonical_pair,
    certify_canonical_optimal,
    classify,
    coordinate_subspace,
    discrete_frame,
    frame_bounds,
    frame_operator,
    full_subspace,
    fusion_frame,
    image_subspace,
    is_nontrivial,
    make_dual_pair,
    orthogonal_complement,
    orthonormal_basis,
    spd_inverse,
    subspaces_equal,
    worst_case_error,
)
from fusionframes.fusion import _inverse
from helpers import (
    OVERCOMPLETE_SINV,
    inflated_dual,
    orthobasis_frame_r3,
    overcomplete_frame_r3,
    overlap_frame_r4,
    random_fusion_frame,
    random_riesz_basis,
    random_unitary,
)


def counterexample_frame():
    # complements of two coordinate lines in R^3
    return fusion_frame(
        [
            orthogonal_complement(orthonormal_basis([[1, 0, 0]])),
            orthogonal_complement(orthonormal_basis([[0, 1, 0]])),
        ]
    )


class TestFrameOperator:
    def test_orthonormal_basis_gives_identity(self):
        w = fusion_frame([coordinate_subspace(4, [k]) for k in range(1, 5)])
        assert np.allclose(frame_operator(w), np.eye(4))

    def test_overlap_frame(self):
        s = frame_operator(overlap_frame_r4())
        assert np.abs(s - np.diag([1.0, 2.0, 1.0, 1.0])).max() < 1e-12
        assert np.abs(spd_inverse(s) - np.diag([1.0, 0.5, 1.0, 1.0])).max() < 1e-12

    def test_overcomplete_frame_inverse(self):
        s = frame_operator(overcomplete_frame_r3())
        assert np.abs(spd_inverse(s) - OVERCOMPLETE_SINV).max() < 1e-12

    def test_counterexample_inverse_action(self):
        s_inv = spd_inverse(frame_operator(counterexample_frame()))
        assert np.abs(s_inv - np.diag([1.0, 1.0, 0.5])).max() < 1e-12


class TestFrameBounds:
    def test_orthonormal_fusion_basis(self):
        lower, upper = frame_bounds(orthobasis_frame_r3())
        assert lower == pytest.approx(1.0, abs=1e-12)
        assert upper == pytest.approx(1.0, abs=1e-12)

    def test_overlap_frame(self):
        # oracle: eigenvalues of diag(1, 2, 1, 1)
        assert frame_bounds(overlap_frame_r4()) == (1.0, 2.0)

    def test_non_spanning_family_flagged(self):
        w = fusion_frame([coordinate_subspace(2, [1])])
        lower, upper = frame_bounds(w)
        assert lower == 0.0
        assert upper == 1.0
        assert not classify(w).is_frame

    def test_spanning_diagnostic(self):
        assert classify(overlap_frame_r4()).is_frame


class TestClassify:
    def test_orthonormal_fusion_basis(self):
        cls = classify(orthobasis_frame_r3())
        assert cls.is_orthonormal_fusion_basis
        assert cls.is_riesz_fusion_basis
        assert cls.is_parseval

    def test_overlap_frame_not_riesz(self):
        cls = classify(overlap_frame_r4())
        assert cls.is_frame
        assert not cls.is_riesz_fusion_basis
        assert (cls.lower_bound, cls.upper_bound) == (1.0, 2.0)

    def test_single_full_member(self):
        w = fusion_frame([full_subspace(3)])
        cls = classify(w)
        assert cls.is_parseval and cls.is_riesz_fusion_basis
        assert not is_nontrivial(w)

    def test_parseval_implies_tight(self, rng):
        for _ in range(10):
            w = random_fusion_frame(rng, 4, 3, weighted=True)
            cls = classify(w)
            assert cls.lower_bound <= cls.upper_bound + 1e-12
            if cls.is_parseval:
                assert cls.is_tight
            if cls.is_orthonormal_fusion_basis:
                assert cls.is_riesz_fusion_basis and cls.is_parseval

    def test_near_unit_weights_are_neither_parseval_nor_orthonormal(self):
        # w_i^2 = 1 + 1.2e-9 sits outside residual_eps of 1 although |w_i - 1| = 6e-10 is inside it
        w = fusion_frame([coordinate_subspace(2, [1]), coordinate_subspace(2, [2])], [1 + 6e-10] * 2)
        cls = classify(w)
        assert cls.is_riesz_fusion_basis and cls.is_tight
        assert not cls.is_parseval
        assert not cls.is_orthonormal_fusion_basis

    def test_oblique_lines_are_riesz_not_orthonormal(self):
        lines = [orthonormal_basis([[1, 0]]), orthonormal_basis([[np.cos(np.pi / 3), np.sin(np.pi / 3)]])]
        cls = classify(fusion_frame(lines))
        assert cls.is_riesz_fusion_basis
        assert not cls.is_parseval and not cls.is_tight
        assert not cls.is_orthonormal_fusion_basis


class TestCanonicalDual:
    def test_overlap_frame_fixed_point(self):
        w = overlap_frame_r4()
        dual = canonical_dual(w)
        for ws, vs in zip(w.subspaces, dual.subspaces):
            assert subspaces_equal(ws, vs)

    def test_parseval_fixed_point(self):
        w = orthobasis_frame_r3()
        dual = canonical_dual(w)
        for ws, vs in zip(w.subspaces, dual.subspaces):
            assert subspaces_equal(ws, vs)

    def test_counterexample_members_invariant(self):
        w = counterexample_frame()
        dual = canonical_dual(w)
        for ws, vs in zip(w.subspaces, dual.subspaces):
            assert subspaces_equal(ws, vs)

    def test_non_frame_rejected(self):
        with pytest.raises(ValueError, match="span"):
            canonical_dual(fusion_frame([coordinate_subspace(3, [1])]))

    def test_dimensions_preserved(self, rng):
        w = random_fusion_frame(rng, 5, 4, weighted=True)
        dual = canonical_dual(w)
        assert [s.dim for s in dual.subspaces] == [s.dim for s in w.subspaces]
        assert dual.weights == w.weights

    def test_members_are_the_one_member_images(self, rng):
        # orthonormalized together, each member keeps the bits of its own image_subspace
        for weighted in (False, True):
            w = random_fusion_frame(rng, 6, 5, weighted=weighted)
            s_inv = spd_inverse(frame_operator(w))
            for sub, dual_sub in zip(w.subspaces, canonical_dual(w).subspaces):
                alone = image_subspace(s_inv, sub).basis
                assert np.array_equal(dual_sub.basis, alone)
                assert np.array_equal(np.signbit(dual_sub.basis), np.signbit(alone))


class TestInverseForms:
    @pytest.mark.parametrize(
        "frame", [overcomplete_frame_r3(), discrete_frame([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])], ids=["fusion", "discrete"]
    )
    def test_formed_once_and_frame_tested_on_every_call(self, frame):
        eigvals, eigvecs = frame.spectrum
        strict = Tolerance(rank_eps=2 * float(eigvals[0]))
        for root, form in ((False, eigvecs / eigvals), (True, eigvecs / np.sqrt(eigvals))):
            first = _inverse(frame, DEFAULT_TOL, root)
            assert np.array_equal(first, form @ eigvecs.T) and not first.flags.writeable
            with pytest.raises(ValueError, match="not a frame"):
                _inverse(frame, strict, root)
            assert _inverse(frame, DEFAULT_TOL, root) is first

    def test_non_frame_refused_before_any_form(self):
        w = fusion_frame([coordinate_subspace(3, [1])])
        for root in (False, True):
            with pytest.raises(ValueError, match="does not span"):
                _inverse(w, DEFAULT_TOL, root)
        assert "_s_inv" not in vars(w) and "_s_inv_sqrt" not in vars(w)


class TestInvariants:
    def test_operator_positive_definite_iff_frame(self, rng):
        for _ in range(10):
            w = random_fusion_frame(rng, 4, 3)
            eigvals = np.linalg.eigvalsh(frame_operator(w))
            assert classify(w).is_frame == (eigvals[0] > 1e-9)

    def test_unitary_conjugation_of_operator(self, rng):
        from fusionframes import FusionFrame, image_subspace

        for _ in range(10):
            w = random_fusion_frame(rng, 4, 3, weighted=True)
            u = random_unitary(rng, 4)
            moved = FusionFrame(
                4, tuple(image_subspace(u, s) for s in w.subspaces), w.weights
            )
            assert np.abs(frame_operator(moved) - u @ frame_operator(w) @ u.T).max() < 1e-9

    def test_invertible_conjugation_under_member_invariance(self):
        # for maps whose Gram matrix leaves every member invariant, the
        # frame operator transforms by similarity
        from fusionframes import FusionFrame, image_subspace

        w = overlap_frame_r4()
        u = np.diag([1.0, 1.0, 1.0, 2.0])
        moved = FusionFrame(4, tuple(image_subspace(u, s) for s in w.subspaces), w.weights)
        expected = u @ frame_operator(w) @ np.linalg.inv(u)
        assert np.abs(frame_operator(moved) - expected).max() < 1e-9

    def test_double_canonical_of_parseval(self, rng):
        w = orthobasis_frame_r3()
        again = canonical_dual(canonical_dual(w))
        for ws, vs in zip(w.subspaces, again.subspaces):
            assert subspaces_equal(ws, vs)

    def test_canonical_dual_reconstructs(self, rng):
        for _ in range(10):
            w = random_fusion_frame(rng, int(rng.integers(3, 6)), int(rng.integers(2, 5)), weighted=True)
            pair = make_dual_pair(w, canonical_dual(w))
            assert pair.duality_residual < 1e-9

    def test_inflated_duals_reconstruct(self, rng):
        for _ in range(10):
            w = random_fusion_frame(rng, 4, 3)
            pair = make_dual_pair(w, inflated_dual(rng, w))
            assert pair.duality_residual < 1e-9

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3])
    def test_weight_scaling_keeps_the_classification(self, c):
        # scaling every weight by c scales S_W by c^2; the frame, tight and
        # Riesz tests compare with its largest eigenvalue, so they keep
        # their verdicts, and both bounds scale by c^2
        rng = np.random.default_rng(60)
        for k in range(60):
            w = scaling_sample(rng, k)
            scaled = fusion_frame(list(w.subspaces), [c * weight for weight in w.weights])
            before, after = classify(w), classify(scaled)
            verdicts = [(cls.is_frame, cls.is_tight, cls.is_riesz_fusion_basis) for cls in (before, after)]
            assert verdicts[0] == verdicts[1], (k, verdicts)
            assert after.lower_bound == pytest.approx(c**2 * before.lower_bound, rel=1e-9, abs=0.0)
            assert after.upper_bound == pytest.approx(c**2 * before.upper_bound, rel=1e-9, abs=0.0)


@seed(26)
@settings(max_examples=60, deadline=None)
@given(sample=st.integers(0, 59), k=st.sampled_from([-200, -100, -37, 1, 64, 100, 200, -260, 300, -499, 497]))
def test_power_of_two_weight_scaling_is_exact(sample, k):
    # scaling every weight by 2**k scales S_W by 4**k with no rounding, and every
    # erasure component w_i v_i P_{V_i} S_W^{-1} P_{W_i} of the canonical pair not at all;
    # past |k| = 200, up to the ends the weight refusals leave, the eigensolver may
    # round S_W^{-1} differently: the flags and the canonical certificate are pinned,
    # its extremal value to 1e-12
    w = scaling_sample(np.random.default_rng([60, sample]), sample)
    scaled = fusion_frame(list(w.subspaces), [2.0**k * weight for weight in w.weights])
    before, after = classify(w), classify(scaled)
    flags = [dataclasses.replace(cls, lower_bound=0.0, upper_bound=0.0) for cls in (before, after)]
    assert flags[0] == flags[1]
    if before.is_frame:
        certificates = [dataclasses.asdict(certify_canonical_optimal(frame)) for frame in (w, scaled)]
        values = [certificate.pop("c_value") for certificate in certificates]
        assert certificates[0] == certificates[1]
        assert values[1] == pytest.approx(values[0], rel=1e-12, abs=0.0)
        assert abs(k) > 200 or values[0] == values[1]
    if abs(k) > 200:
        return
    assert (after.lower_bound, after.upper_bound) == (4.0**k * before.lower_bound, 4.0**k * before.upper_bound)
    if not before.is_frame:
        return
    pairs = canonical_pair(w), canonical_pair(scaled)
    for r in range(1, min(2, w.member_count - 1) + 1):
        for norm_kind in ("frobenius", "operator"):
            reports = [dataclasses.asdict(worst_case_error(pair, r, norm_kind)) for pair in pairs]
            assert reports[0] == reports[1], (r, norm_kind)


def scaling_sample(rng, k: int):
    """Sample ``k`` of a seeded mix: weighted frames, Riesz bases, tight frames and non-spanning families."""
    n = 3 + k % 3
    kind = k % 4
    if kind == 0:
        return random_fusion_frame(rng, n, 3, weighted=True)
    if kind == 1:
        return random_riesz_basis(rng, n, 2)
    lines = [orthonormal_basis([u[:, j]]) for u in (random_unitary(rng, n), random_unitary(rng, n)) for j in range(n)]
    # two orthonormal bases of lines: a tight frame with bounds (2, 2); one basis short of a line spans no R^n
    return fusion_frame(lines if kind == 2 else lines[: n - 1])


def test_weights_whose_squares_overflow_are_refused():
    axes = [coordinate_subspace(2, [1]), coordinate_subspace(2, [2])]
    for weights in ([1e200, 1.0], [1.3e154, 1.3e154], [2.0**500, 1.0]):
        with pytest.raises(ValueError, match=r"weights too large: .* \(member 1 has weight"):
            fusion_frame(axes, weights)
    for weights in ([1e150, 1e150], [2.0**499, 2.0**499]):
        assert np.isfinite(spd_inverse(frame_operator(fusion_frame(axes, weights)))).all()


def test_weights_whose_squares_underflow_are_refused():
    axes = [coordinate_subspace(2, [1]), coordinate_subspace(2, [2])]
    for weights, member in (([1e-170, 1e-170], 1), ([1e-200, 1e-160], 2), ([2.0**-501, 2.0**-600], 1)):
        with pytest.raises(ValueError, match=rf"weights too small: .* \(member {member} has weight"):
            fusion_frame(axes, weights)
    for weights in ([1e-150, 1e-150], [2.0**-500, 2.0**-500]):
        assert np.isfinite(_inverse(fusion_frame(axes, weights), DEFAULT_TOL)).all()


def test_an_inverse_frame_operator_that_overflows_is_refused():
    # the largest weight is just above the floor and the smallest eigenvalue 1e-8 of the largest: a frame
    # whose S_W^{-1} exceeds the float range, though S_W^{-1/2} does not
    w = fusion_frame([coordinate_subspace(2, [1]), coordinate_subspace(2, [2])], [2.0**-499, 2.0**-499 * 1e-4])
    assert classify(w).is_frame
    assert np.isfinite(_inverse(w, DEFAULT_TOL, root=True)).all()
    with pytest.raises(ValueError, match="inverse frame operator overflows"):
        _inverse(w, DEFAULT_TOL)
    with pytest.raises(ValueError, match="inverse frame operator overflows"):
        canonical_dual(w)


def test_member_validation():
    for weight in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            fusion_frame([full_subspace(2)], [weight])
    with pytest.raises(ValueError, match="at least one"):
        fusion_frame([])
