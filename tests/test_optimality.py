import dataclasses
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fusionframes.fusion
from fusionframes import cli
from fusionframes import optimality
from fusionframes import (
    DEFAULT_TOL,
    FusionFrame,
    Tolerance,
    bridge_fusion_to_discrete,
    canonical_pair,
    certify_canonical_optimal,
    certify_dual_optimal,
    certify_tight_uniform,
    classify,
    coordinate_subspace,
    discrete_worst_case,
    expand_optimal_family,
    frame_operator,
    full_subspace,
    fusion_frame,
    image_subspace,
    make_dual_pair,
    orthogonal_complement,
    orthonormal_basis,
    lift_to_component_preserving,
    parseval_optimal_family,
    spd_inv_sqrt,
    subspace_intersection,
    subspace_sum,
    subspaces_equal,
    transport_by_unitary,
    verify_discrete_dual,
    verify_dual,
    worst_case_error,
)
from helpers import (
    FIXTURES,
    ORTHOBASIS_ALT_DUAL_BRIDGED,
    ORTHOBASIS_BRIDGED,
    SQRT54,
    certified_random_frame,
    inflated_dual,
    orthobasis_alt_dual,
    orthobasis_frame_r3,
    overlap_frame_r4,
    permuted_members,
    planted_span_frame,
    random_fusion_frame,
    random_perturbation,
    random_riesz_basis,
    random_subspace,
    random_unitary,
    riesz_block_errors,
    span_dim_reference,
)
from fusionframes.optimality import _whitened_members


def repeated_line_frame():
    """Doubled line plus the remaining axes in R^3; leaves room for dual rewrites."""
    e1 = coordinate_subspace(3, [1])
    return fusion_frame([e1, e1, coordinate_subspace(3, [2]), coordinate_subspace(3, [3])])


class TestCanonicalCertificate:
    def test_overlap_frame_certified(self):
        cert = certify_canonical_optimal(overlap_frame_r4())
        assert cert.verdict == "certified_optimal"
        assert cert.c_value == pytest.approx(SQRT54, abs=1e-12)
        assert cert.lambda1 == (1, 2)
        assert cert.lambda2 == (3,)
        assert (cert.h1_dim, cert.h2_dim, cert.intersection_dim) == (3, 1, 0)
        assert not cert.lambda_side_riesz

    def test_orthonormal_basis_vacuous_complement(self):
        w = fusion_frame([coordinate_subspace(2, [1]), coordinate_subspace(2, [2])])
        cert = certify_canonical_optimal(w)
        assert cert.verdict == "certified_optimal"
        assert cert.lambda1 == (1, 2)
        assert cert.lambda2 == ()

    def test_overlapping_spans_not_applicable(self):
        # oracle: the extremal member spans {e2, e3}; the others span {e1, e2}
        w = fusion_frame(
            [
                coordinate_subspace(3, [1, 2]),
                coordinate_subspace(3, [2, 3]),
                coordinate_subspace(3, [1]),
            ]
        )
        cert = certify_canonical_optimal(w)
        assert cert.lambda1 == (2,)
        assert cert.verdict == "not_applicable"
        assert cert.intersection_dim == 1

    @pytest.mark.parametrize("k", [-499, -300, -260, 0, 300, 497])
    def test_extremal_value_keeps_under_weight_scaling(self, k):
        # S_W^{-1} is 4**-k times its unit-weight self; its squares used to overflow to c = inf
        # at k <= -260 and underflow to c = 0 at k >= 300, both certified
        lines = [orthonormal_basis([v]) for v in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])]
        certificate = certify_canonical_optimal(fusion_frame(lines, [2.0**k] * 3))
        assert certificate.c_value == 0.7905694150420948
        assert (certificate.lambda1, certificate.verdict) == ((1, 2), "not_applicable")

    def test_zero_member(self):
        # the zero member's basis is 2 x 0, so its value is the norm of an empty matrix, 0
        w = fusion_frame([coordinate_subspace(2, [1]), coordinate_subspace(2, [2]), orthonormal_basis([[0.0, 0.0]])])
        assert dataclasses.asdict(certify_canonical_optimal(w)) == {
            "kind": "canonical",
            "c_value": 1.0,
            "lambda1": (1, 2),
            "lambda2": (3,),
            "h1_dim": 2,
            "h2_dim": 0,
            "intersection_dim": 0,
            "lambda_side_riesz": False,
            "verdict": "certified_optimal",
            "notes": "canonical dual certified 1-loss optimal (not unique); nontrivial fusion frame",
        }

    def test_non_frame_rejected(self):
        with pytest.raises(ValueError, match="span"):
            certify_canonical_optimal(fusion_frame([coordinate_subspace(2, [1])]))

    def test_member_spans_are_taken_at_the_given_tolerance(self):
        # members 1 and 2 differ by 1e-11 in e2: one line at the default rank_eps, a plane at 1e-13
        w = fusion_frame(
            [coordinate_subspace(3, [1]), orthonormal_basis([[1, 1e-11, 0]]), coordinate_subspace(3, [2, 3])]
        )
        cert = certify_canonical_optimal(w, Tolerance(1e-13, 1e-13))
        assert cert.lambda2 == (1, 2)
        assert (cert.h2_dim, cert.intersection_dim) == (2, 1)
        assert cert.notes.startswith("extremal and complementary spans overlap (1-dimensional);")
        default = certify_canonical_optimal(w)
        assert (default.h2_dim, default.intersection_dim) == (1, 0)


class TestDualCertificate:
    def test_overlap_canonical_pair_hypotheses_fail(self):
        # the extremal members span only three directions but have total
        # dimension four, so the Riesz hypothesis on the extremal side fails
        w = overlap_frame_r4()
        span_dim = subspace_sum([w.subspaces[0], w.subspaces[1]]).dim
        assert span_dim == 3
        cert = certify_dual_optimal(canonical_pair(w))
        assert cert.c_value == pytest.approx(SQRT54, abs=1e-12)
        assert cert.lambda1 == (1, 2)
        assert cert.h1_dim == 3
        assert cert.verdict == "not_applicable"
        assert cert.lambda_side_riesz

    def test_orthonormal_basis_certified(self):
        w = fusion_frame([coordinate_subspace(3, [k]) for k in range(1, 4)])
        cert = certify_dual_optimal(canonical_pair(w))
        assert cert.verdict == "certified_optimal"
        assert cert.lambda1 == (1, 2, 3)

    def test_orthobasis_pair_certified(self):
        cert = certify_dual_optimal(canonical_pair(orthobasis_frame_r3()))
        assert cert.verdict == "certified_optimal"
        assert cert.lambda1 == (2,)

    def test_symmetric_overlap_not_applicable(self):
        w = fusion_frame([coordinate_subspace(3, [1, 2]), coordinate_subspace(3, [2, 3])])
        cert = certify_dual_optimal(canonical_pair(w))
        assert cert.lambda1 == (1, 2)
        assert cert.verdict == "not_applicable"

    @pytest.mark.parametrize(
        "name", ["overlap_r4", "overlap_r4_extended_dual", "orthobasis_r3", "overcomplete_r3", "preserving_nondual_r3"]
    )
    def test_c_value_is_the_worst_single_erasure_value_on_fixtures(self, name):
        # the certificate measures each member as worst_case_error does at r = 1, in member coordinates
        doc = cli.parse_document(FIXTURES / f"{name}.json")
        pairs = [canonical_pair(doc.frame, doc.tol), doc._pair[0]]
        for pair in [p for p in pairs if verify_dual(p)[0]]:
            assert certify_dual_optimal(pair).c_value == worst_case_error(pair, 1, "frobenius").worst_value

    def test_c_value_is_the_worst_single_erasure_value_with_unequal_member_dims(self, rng):
        w = random_fusion_frame(rng, 6, 9, weighted=True)
        assert len({sub.dim for sub in w.subspaces}) > 1
        pair = make_dual_pair(w, inflated_dual(rng, w))
        cert = certify_dual_optimal(pair)
        report = worst_case_error(pair, 1, "frobenius")
        assert cert.c_value == report.worst_value
        assert tuple((i,) for i in cert.lambda1) == report.argmax_subsets

    def test_non_dual_rejected(self):
        from helpers import preserving_pair_r3

        w, v, _ = preserving_pair_r3()
        with pytest.raises(ValueError, match="verified dual"):
            certify_dual_optimal(make_dual_pair(w, v))


class TestTightCertificate:
    def test_parseval_singletons_certified(self):
        w = fusion_frame([coordinate_subspace(3, [k]) for k in range(1, 4)])
        cert = certify_tight_uniform(canonical_pair(w))
        assert cert.verdict == "certified_optimal"
        assert cert.c_value == pytest.approx(1.0)

    def test_heavy_dual_weights_rejected(self):
        w = fusion_frame([coordinate_subspace(3, [k]) for k in range(1, 4)])
        v = fusion_frame(list(w.subspaces), [2.0, 2.0, 2.0])
        cert = certify_tight_uniform(make_dual_pair(w, v))
        assert cert.verdict == "not_applicable"
        assert "ratio" in cert.notes

    def test_enlarged_dual_members_certified(self):
        w = fusion_frame([coordinate_subspace(3, [k]) for k in range(1, 4)])
        v = fusion_frame(
            [
                coordinate_subspace(3, [1, 2]),
                coordinate_subspace(3, [2]),
                coordinate_subspace(3, [3]),
            ]
        )
        cert = certify_tight_uniform(make_dual_pair(w, v))
        assert cert.verdict == "certified_optimal"
        assert "bound c/alpha = 1" in cert.notes

    @pytest.mark.parametrize("c", [1e-5, 1.0, 1e3])
    def test_uneven_member_values_refused_at_every_weight_scale(self, c):
        # the plane of R^2 at weight c and its two axes at weight 2c form a
        # tight frame (S = 9 c^2 I) whose member values sqrt(2) c^2 and 4 c^2
        # differ at every scale
        w = fusion_frame([full_subspace(2), coordinate_subspace(2, [1]), coordinate_subspace(2, [2])], [c, 2 * c, 2 * c])
        cert = certify_tight_uniform(canonical_pair(w))
        assert cert.verdict == "not_applicable"
        assert cert.notes.startswith("member value w_i^2 sqrt(dim W_i) is not constant")

    def test_non_tight_frame_not_applicable(self):
        w = overlap_frame_r4()
        cert = certify_tight_uniform(canonical_pair(w))
        assert cert.verdict == "not_applicable"
        assert "not tight" in cert.notes


class TestExpandFamily:
    def test_overlap_extension_directions(self):
        pair = canonical_pair(overlap_frame_r4())
        vpairs = expand_optimal_family(pair, 3)
        assert len(vpairs) == 3
        e1_plus_e4 = coordinate_subspace(4, [1, 4])
        assert any(subspaces_equal(vp.dual_candidate.subspaces[2], e1_plus_e4) for vp in vpairs)
        for vpair in vpairs:
            assert vpair.primal is pair.primal
            assert vpair.dual_candidate.subspaces[2].dim == 2
            assert vpair.duality_residual < 1e-9

    def test_zero_member_variant(self):
        w = repeated_line_frame()
        v = fusion_frame(
            [
                coordinate_subspace(3, [2, 3]),
                coordinate_subspace(3, [1]),
                coordinate_subspace(3, [2]),
                coordinate_subspace(3, [3]),
            ],
            [1.0, 2.0, 1.0, 1.0],
        )
        pair = make_dual_pair(w, v)
        assert pair.duality_residual < 1e-12
        vpairs = expand_optimal_family(pair, 1)
        assert len(vpairs) == 1
        assert vpairs[0].dual_candidate.subspaces[0].is_zero

    def test_trimmed_variant(self):
        w = repeated_line_frame()
        v = fusion_frame(
            [
                full_subspace(3),
                coordinate_subspace(3, [1]),
                coordinate_subspace(3, [2]),
                coordinate_subspace(3, [3]),
            ]
        )
        pair = make_dual_pair(w, v)
        assert pair.duality_residual < 1e-12
        vpairs = expand_optimal_family(pair, 1)
        assert len(vpairs) == 1
        assert subspaces_equal(vpairs[0].dual_candidate.subspaces[0], coordinate_subspace(3, [1]))

    def test_no_variant_for_full_canonical_member(self):
        w = fusion_frame([full_subspace(2), coordinate_subspace(2, [1])])
        pair = canonical_pair(w)
        assert expand_optimal_family(pair, 1) == []

    def test_values_preserved_on_certified_random_frames(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 7))
            w = certified_random_frame(rng, n)
            assert certify_canonical_optimal(w).verdict == "certified_optimal"
            pair = canonical_pair(w)
            i = int(rng.integers(1, w.member_count + 1))
            for vpair in expand_optimal_family(pair, i):
                assert vpair.duality_residual < 1e-9
                for r in (1, 2):
                    if r >= w.member_count:
                        continue
                    a = worst_case_error(pair, r, "frobenius").worst_value
                    b = worst_case_error(vpair, r, "frobenius").worst_value
                    assert a == pytest.approx(b, abs=1e-9)

    def test_non_dual_rejected(self):
        from helpers import preserving_pair_r3

        w, v, _ = preserving_pair_r3()
        with pytest.raises(ValueError, match="verified dual"):
            expand_optimal_family(make_dual_pair(w, v), 1)

    # member dimensions of every variant at every member of the fixtures that carry a verified dual
    FIXTURE_VARIANT_DIMS = {
        ("overlap_r4", 1): [[3, 2, 1], [3, 2, 1]],
        ("overlap_r4", 2): [[2, 3, 1], [2, 3, 1]],
        ("overlap_r4", 3): [[2, 2, 2], [2, 2, 2], [2, 2, 2]],
        ("overlap_r4_extended_dual", 1): [[4, 3, 2]],
        ("overlap_r4_extended_dual", 2): [[3, 4, 2]],
        ("overlap_r4_extended_dual", 3): [[3, 3, 3], [3, 3, 3]],
        ("orthobasis_r3", 1): [[3, 2]],
        ("orthobasis_r3", 2): [[2, 3]],
        ("overcomplete_r3", 1): [[3, 1, 2]],
        ("overcomplete_r3", 2): [[2, 2, 2], [2, 2, 2]],
        ("overcomplete_r3", 3): [[2, 1, 3]],
    }

    def test_fixture_variants_are_checked_without_enumeration(self, monkeypatch):
        # each variant is compared with the input by its component stack, so
        # no worst-case report is built, and the variants are those that the
        # worst-case comparison for r <= 2 accepted
        pairs = {
            name: cli.parse_document(FIXTURES / f"{name}.json")._pair[0]
            for name in ("overlap_r4", "overlap_r4_extended_dual", "orthobasis_r3", "overcomplete_r3")
        }
        with monkeypatch.context() as mp:
            mp.setattr(optimality, "worst_case_error", lambda *a: pytest.fail("worst_case_error called"))
            found = {(name, i): expand_optimal_family(pair, i) for (name, i) in self.FIXTURE_VARIANT_DIMS for pair in [pairs[name]]}
        dims = {key: [[s.dim for s in vp.dual_candidate.subspaces] for vp in vpairs] for key, vpairs in found.items()}
        assert dims == self.FIXTURE_VARIANT_DIMS
        for (name, _), vpairs in found.items():
            pair = pairs[name]
            for vpair in vpairs:
                # the returned pair is the one make_dual_pair builds for the variant, which the CLI reports from
                assert np.array_equal(vpair.components, make_dual_pair(pair.primal, vpair.dual_candidate, pair.tol).components)
                for r in range(1, min(2, pair.member_count - 1) + 1):
                    for kind in ("frobenius", "operator"):
                        expected = worst_case_error(pair, r, kind).worst_value
                        assert worst_case_error(vpair, r, kind).worst_value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_changed_component_is_an_internal_error(self, monkeypatch):
        pair = canonical_pair(overlap_frame_r4())
        build = optimality.make_dual_pair

        def corrupted(*args):
            built = build(*args)
            components = built.components.copy()
            components[0, 0, 0] += 1e-6
            return dataclasses.replace(built, components=components)

        monkeypatch.setattr(optimality, "make_dual_pair", corrupted)
        with pytest.raises(ArithmeticError, match=r"changed the error components \(distance 1.000e-06\)"):
            expand_optimal_family(pair, 3)


class TestParsevalFamily:
    def test_orthobasis_with_standard_basis(self):
        w = orthobasis_frame_r3()
        f, duals, parseval_residual, checks = parseval_optimal_family(
            w, list(orthobasis_alt_dual().subspaces), basis=np.eye(3)
        )
        kept = [k for k in range(f.count) if np.linalg.norm(f.vectors[k]) > 1e-9]
        assert np.abs(f.vectors[kept] - ORTHOBASIS_BRIDGED).max() < 1e-12
        assert np.abs(duals[1].vectors[kept] - ORTHOBASIS_ALT_DUAL_BRIDGED).max() < 1e-12
        # the returned checks are the values the same calls give
        assert parseval_residual == verify_discrete_dual(f, f)[1]
        assert len(checks) == len(duals) == 2
        for g, (ok, residual, d1) in zip(duals, checks):
            assert (ok, residual) == verify_discrete_dual(f, g)
            assert ok
            assert d1 == discrete_worst_case(f, g, 1, "operator").worst_value
            assert d1 == pytest.approx(1.0, abs=1e-12)

    def test_canonical_extensions_give_self_dual(self):
        w = orthobasis_frame_r3()
        root_inv = spd_inv_sqrt(frame_operator(w))
        whitened = [image_subspace(root_inv, s) for s in w.subspaces]
        f, duals, _, _ = parseval_optimal_family(w, whitened, basis=np.eye(3))
        for g in duals:
            assert np.abs(g.vectors - f.vectors).max() < 1e-9

    def test_constructed_basis_on_random_riesz(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 6))
            w = random_riesz_basis(rng, n, int(rng.integers(2, min(4, n) + 1)))
            root_inv = spd_inv_sqrt(frame_operator(w))
            whitened = [image_subspace(root_inv, s) for s in w.subspaces]
            extensions = []
            for s in whitened:
                from fusionframes import orthogonal_complement

                comp = orthogonal_complement(s)
                if comp.dim > 0 and rng.random() < 0.7:
                    extra = comp.basis @ rng.standard_normal(comp.dim)
                    extensions.append(subspace_sum([s, orthonormal_basis([extra])]))
                else:
                    extensions.append(s)
            f, duals, _, _ = parseval_optimal_family(w, extensions)
            s_f = f.vectors.T @ f.vectors
            assert np.abs(s_f - np.eye(n)).max() < 1e-9
            for g in duals:
                assert verify_discrete_dual(f, g)[0]
                d1 = discrete_worst_case(f, g, 1, "operator").worst_value
                assert d1 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("basis", [np.eye(3), None], ids=["given", "constructed"])
    def test_basis_checked_once_and_no_frame_wrapped(self, monkeypatch, basis):
        # the basis was checked twice, and the whitened members and the
        # extensions each wrapped in a frame; only the whitening pass builds one
        checked, built = [], []
        check = optimality._check_orthonormal_basis
        monkeypatch.setattr(optimality, "_check_orthonormal_basis", lambda *a: (checked.append(a), check(*a))[1])
        post_init = FusionFrame.__post_init__
        monkeypatch.setattr(FusionFrame, "__post_init__", lambda frame: (built.append(frame), post_init(frame))[1])

        def refuse(*args, **kwargs):
            raise AssertionError("fusion_frame called")

        monkeypatch.setattr(fusionframes.fusion, "fusion_frame", refuse)
        monkeypatch.setattr(optimality, "fusion_frame", refuse, raising=False)
        w, extensions = orthobasis_frame_r3(), list(orthobasis_alt_dual().subspaces)
        built.clear()
        _, _, _, checks = parseval_optimal_family(w, extensions, basis=basis)
        assert len(checked) == 1 and len(built) == 1
        assert [ok for ok, _, _ in checks] == [True, True]

    def test_constructed_basis_completes_the_representatives(self, rng):
        # the constructed basis starts with each whitened member's first basis vector,
        # which its projection keeps: every one is a row of F
        for _ in range(5):
            n = int(rng.integers(3, 6))
            w = random_riesz_basis(rng, n, int(rng.integers(2, min(4, n) + 1)))
            f, duals, parseval_residual, checks = parseval_optimal_family(w)
            assert parseval_residual <= 1e-12
            assert np.abs(f.vectors.T @ f.vectors - np.eye(n)).max() < 1e-12
            for ok, _, d1 in checks:
                assert ok
                assert d1 == pytest.approx(1.0, abs=1e-9)
            for s in _whitened_members(w, DEFAULT_TOL):
                assert np.linalg.norm(f.vectors - s.basis[:, 0], axis=1).min() < 1e-12
            again, again_duals, _, _ = parseval_optimal_family(w)
            assert np.array_equal(again.vectors, f.vectors)
            assert all(np.array_equal(a.vectors, b.vectors) for a, b in zip(again_duals, duals))

    def test_zero_member(self):
        # the zero member has no representative: its bridged rows are all zero
        w = fusion_frame([coordinate_subspace(2, [1]), coordinate_subspace(2, [2]), orthonormal_basis([[0.0, 0.0]])])
        assert classify(w).is_orthonormal_fusion_basis
        f, duals, parseval_residual, checks = parseval_optimal_family(w)
        assert parseval_residual == 0.0
        assert checks == [(True, 0.0, 1.0)] * 2
        assert np.array_equal(f.vectors[[0, 3]], np.eye(2))
        assert not np.any(np.delete(f.vectors, [0, 3], axis=0))
        for g in duals:
            assert np.array_equal(g.vectors, f.vectors)

    @pytest.mark.parametrize("turn", [0.5, 1.1])
    def test_constructed_basis_for_nearly_parallel_lines(self, turn):
        # cond(S_W) is about 500, so the two representatives are orthogonal
        # only to about 1e-14, more than a subspace basis may be off
        a, b = turn, turn + np.radians(5)
        w = fusion_frame([orthonormal_basis([[np.cos(t), np.sin(t)]]) for t in (a, b)], [1.0, 1.0])
        f, duals, parseval_residual, checks = parseval_optimal_family(w)
        assert parseval_residual <= DEFAULT_TOL.residual_eps
        for ok, _, d1 in checks:
            assert ok
            assert d1 == pytest.approx(1.0, abs=1e-9)

    def test_non_riesz_rejected(self):
        w = overlap_frame_r4()
        with pytest.raises(ValueError, match="Riesz"):
            parseval_optimal_family(w, [full_subspace(4)] * 3)

    def test_non_unit_weights_rejected(self):
        w = fusion_frame(
            [coordinate_subspace(2, [1]), coordinate_subspace(2, [2])], [1.0, 2.0]
        )
        with pytest.raises(ValueError, match="unit weights"):
            parseval_optimal_family(w, list(w.subspaces))

    def test_containment_violation_rejected(self):
        w = orthobasis_frame_r3()
        bad = [coordinate_subspace(3, [1]), w.subspaces[1]]
        with pytest.raises(ValueError, match="does not contain"):
            parseval_optimal_family(w, bad, basis=np.eye(3))


class TestRieszBridgePartialOptimal:
    def test_zero_perturbation(self):
        w = orthobasis_frame_r3()
        u = np.zeros((6, 3))
        values = riesz_block_errors(w, np.eye(3), u)
        assert len(values) == 2
        for perturbed, canonical in values:
            assert perturbed == pytest.approx(canonical, abs=1e-12)

    def test_random_riesz_with_random_perturbations(self, rng):
        for _ in range(5):
            w = random_riesz_basis(rng, 4, 2)
            f = bridge_fusion_to_discrete(w, np.eye(4), "canonical_weighted")
            u = random_perturbation(rng, f)
            values = riesz_block_errors(w, np.eye(4), u)
            for perturbed, canonical in values:
                assert perturbed == pytest.approx(canonical, abs=1e-9)


class TestTransportByUnitary:
    def test_identity(self):
        pair = canonical_pair(overlap_frame_r4())
        moved = transport_by_unitary(pair, np.eye(4))
        for a, b in zip(moved.primal.subspaces, pair.primal.subspaces):
            assert subspaces_equal(a, b)

    def test_random_unitary_preserves_worst_value(self, rng):
        pair = canonical_pair(overlap_frame_r4())
        for _ in range(5):
            moved = transport_by_unitary(pair, random_unitary(rng, 4))
            assert moved.duality_residual < 1e-9
            report = worst_case_error(moved, 1, "frobenius")
            assert report.worst_value == pytest.approx(SQRT54, abs=1e-9)

    def test_permutation_relabels_coordinates(self):
        perm = np.eye(4)[[1, 0, 3, 2]]
        pair = canonical_pair(overlap_frame_r4())
        moved = transport_by_unitary(pair, perm)
        expected_first = orthonormal_basis((perm @ pair.primal.subspaces[0].basis).T)
        assert subspaces_equal(moved.primal.subspaces[0], expected_first)
        assert worst_case_error(moved, 1, "frobenius").worst_value == pytest.approx(
            SQRT54, abs=1e-12
        )

    def test_argmax_sets_preserved(self, rng):
        w = certified_random_frame(rng, 5)
        pair = make_dual_pair(w, inflated_dual(rng, w))
        moved = transport_by_unitary(pair, random_unitary(rng, 5))
        for r in (1, 2):
            for kind in ("frobenius", "operator"):
                before = worst_case_error(pair, r, kind)
                after = worst_case_error(moved, r, kind)
                assert before.argmax_subsets == after.argmax_subsets

    def test_non_unitary_rejected(self):
        pair = canonical_pair(overlap_frame_r4())
        with pytest.raises(ValueError, match="not orthonormal"):
            transport_by_unitary(pair, np.diag([1.0, 1.0, 1.0, 2.0]))

    @pytest.mark.parametrize(
        "u, error",
        [
            (np.eye(4)[:3], "^u must consist of 4 vectors of length 4$"),
            (np.diag([1.0, 1.0, 1.0, np.inf]), r"^u\[3\]: non-finite entry$"),
            (np.diag([1.0, -np.inf, 1.0, 1.0]), r"^u\[1\]: non-finite entry$"),
            (np.diag([np.nan, 1.0, 1.0, 1.0]), r"^u\[0\]: non-finite entry$"),
            (np.diag([1.0, 1.0, 1e200, 1.0]), "^u is not orthonormal$"),
            (np.diag([1.0, 1.0, 1.0, 2.0]), "^u is not orthonormal$"),
        ],
        ids=["non-square", "inf", "-inf", "nan", "1e200", "diag-2"],
    )
    def test_refusals_raise_one_value_error_and_no_warning(self, u, error):
        # squaring u before looking at its entries warned on inf and 1e200 and let NaN through
        pair = canonical_pair(overlap_frame_r4())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=error):
                transport_by_unitary(pair, u)


@seed(18)
@settings(max_examples=40, deadline=None)
@given(seed_=st.integers(0, 2**32 - 1), n=st.integers(4, 6), certified=st.booleans())
def test_unitary_transport_keeps_verdicts_values_and_argmax_sets(seed_, n, certified):
    rng = np.random.default_rng(seed_)
    if certified:
        w = certified_random_frame(rng, n)
    else:
        w = random_fusion_frame(rng, n, int(rng.integers(3, 6)), weighted=True)
    pair = make_dual_pair(w, inflated_dual(rng, w))
    moved = transport_by_unitary(pair, random_unitary(rng, n))
    eps = DEFAULT_TOL.residual_eps
    before, after = (dataclasses.asdict(classify(f)) for f in (w, moved.primal))
    for bound in ("lower_bound", "upper_bound"):
        assert after.pop(bound) == pytest.approx(before.pop(bound), rel=eps)
    assert after == before
    spans = operator.attrgetter("verdict", "lambda1", "lambda2", "h1_dim", "h2_dim", "intersection_dim")
    assert spans(certify_canonical_optimal(moved.primal)) == spans(certify_canonical_optimal(w))
    for r in (1, 2):
        for kind in ("frobenius", "operator"):
            a, b = worst_case_error(pair, r, kind), worst_case_error(moved, r, kind)
            assert b.worst_value == pytest.approx(a.worst_value, rel=eps)
            assert b.argmax_subsets == a.argmax_subsets


@seed(23)
@settings(max_examples=40, deadline=None)
@given(seed_=st.integers(0, 2**32 - 1), n=st.integers(3, 6), m=st.integers(2, 5))
def test_certificate_span_counts_match_the_built_spans(seed_, n, m):
    # members repeated and widened by one direction, so spans share whole members
    rng = np.random.default_rng(seed_)
    base = random_fusion_frame(rng, n, m, weighted=True)
    subs, weights = list(base.subspaces), list(base.weights)
    for _ in range(2):
        k = int(rng.integers(0, m))
        extra = orthonormal_basis(rng.standard_normal((1, n)))
        subs.append(subs[k] if rng.random() < 0.5 else subspace_sum([subs[k], extra]))
        weights.append(weights[k] if rng.random() < 0.5 else 0.5 + 1.5 * rng.random())
    w = fusion_frame(subs, weights)
    for tol in (DEFAULT_TOL, Tolerance(1e-13, 1e-13)):
        # an ill-conditioned draw's canonical pair can miss residual_eps 1e-13; spans read only rank_eps
        pair = canonical_pair(w, dataclasses.replace(tol, residual_eps=DEFAULT_TOL.residual_eps))
        for cert in (certify_canonical_optimal(w, tol), certify_dual_optimal(pair)):
            h1, h2 = (subspace_sum([subs[i - 1] for i in side], tol, ambient_dim=n) for side in (cert.lambda1, cert.lambda2))
            expected = (h1.dim, h2.dim, subspace_intersection(h1, h2, tol).dim)
            assert (cert.h1_dim, cert.h2_dim, cert.intersection_dim) == expected


@seed(29)
@settings(max_examples=150, deadline=None)
@given(
    seed_=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    rank_eps=st.sampled_from([DEFAULT_TOL.rank_eps, 1e-3, 1e-12]),
    plant=st.sampled_from([1 - 1e-6, 1 + 1e-6, 1 - 1e-3, 1 + 1e-3, 10.0, None]),
    data=st.data(),
)
def test_span_dim_counts_as_the_svd(seed_, n, rank_eps, plant, data):
    # a singular value planted at rank_eps, just off it and well above (None: at 0.01, where the
    # screen also passes for the small rank_eps); the Gram screen may only answer "all n", and
    # only where the SVD counts all n above rank_eps
    count = data.draw(st.integers(n - 1, 30 * n), label="count")
    sigma = 0.01 if plant is None else plant * rank_eps
    w = planted_span_frame(np.random.default_rng(seed_), n, count, sigma)
    tol = Tolerance(rank_eps, DEFAULT_TOL.residual_eps)
    indices = range(1, count + 1)
    assert optimality._span_dim(w, indices, tol) == span_dim_reference(w, indices, tol)


def test_spanning_side_is_counted_without_an_svd(monkeypatch):
    # a (64, 200, 8) frame: its complementary side stacks 1,592 rows that span R^64
    rng = np.random.default_rng(2901)
    w = fusion_frame([random_subspace(rng, 64, 8) for _ in range(200)], list(0.5 + rng.random(200)))
    cert = certify_canonical_optimal(w)
    assert 8 * len(cert.lambda2) >= 64
    svd, shapes = np.linalg.svd, []
    monkeypatch.setattr(optimality.np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
    assert optimality._span_dim(w, cert.lambda2, DEFAULT_TOL) == 64
    assert shapes == []
    # the whole certificate takes one SVD, of the extremal side's stack of fewer than 64 rows
    certify_canonical_optimal(w)
    assert shapes == [(8 * len(cert.lambda1), 64)]


@seed(27)
@settings(max_examples=60, deadline=None)
@given(seed_=st.integers(0, 2**32 - 1), n=st.integers(3, 4), m=st.integers(2, 6), certified=st.booleans())
def test_member_permutation_permutes_certificate_splits(seed_, n, m, certified):
    # member k of the permuted frame is member perm[k - 1] + 1 of the original; S_W is summed
    # in another order, so the member values move by rounding only, far inside the tie window
    rng = np.random.default_rng(seed_)
    w = certified_random_frame(rng, n) if certified else random_fusion_frame(rng, n, m, weighted=True)
    v = inflated_dual(rng, w)
    perm = rng.permutation(w.member_count)
    pw, pv = permuted_members(w, perm), permuted_members(v, perm)
    original = lambda side: tuple(sorted(int(perm[k - 1]) + 1 for k in side))
    same = operator.attrgetter("h1_dim", "h2_dim", "intersection_dim", "verdict")
    for cert, moved in (
        (certify_canonical_optimal(w), certify_canonical_optimal(pw)),
        (certify_dual_optimal(make_dual_pair(w, v)), certify_dual_optimal(make_dual_pair(pw, pv))),
    ):
        assert (original(moved.lambda1), original(moved.lambda2)) == (cert.lambda1, cert.lambda2)
        assert same(moved) == same(cert)


class TestProbeSoundness:
    def test_probes_never_beat_certified_canonical(self, rng):
        # per certified frame: 8 inflated duals, their component-preserving lifts, and the
        # value-preserving variants of the canonical and inflated duals at every member
        checked = 0
        for _ in range(10):
            n = int(rng.integers(3, 7))
            w = certified_random_frame(rng, n)
            assert certify_canonical_optimal(w).verdict == "certified_optimal"
            pair = canonical_pair(w)
            baseline = worst_case_error(pair, 1, "frobenius").worst_value
            inflated = [make_dual_pair(w, inflated_dual(rng, w)) for _ in range(8)]
            lifts = [make_dual_pair(w, lift_to_component_preserving(source)) for source in inflated]
            members = range(1, w.member_count + 1)
            variants = [vp for source in (pair, *inflated) for i in members for vp in expand_optimal_family(source, i)]
            for probe in inflated + lifts + variants:
                assert probe.duality_residual < 1e-9
                assert worst_case_error(probe, 1, "frobenius").worst_value >= baseline - 1e-9
                checked += 1
        assert checked >= 200
