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
    Subspace,
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
    parseval_optimal_family,
    probe_duals,
    projector,
    riesz_bridge_partial_optimal,
    spd_inv_sqrt,
    subspace_sum,
    subspaces_equal,
    transport_by_unitary,
    verify_discrete_dual,
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
    random_fusion_frame,
    random_perturbation,
    random_riesz_basis,
    random_unitary,
    record_canonical_dual_formations,
)
from fusionframes.discrete import _whitened_members


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
        variants = expand_optimal_family(pair, 3)
        assert len(variants) == 3
        e1_plus_e4 = coordinate_subspace(4, [1, 4])
        assert any(subspaces_equal(v.subspaces[2], e1_plus_e4) for v in variants)
        for variant in variants:
            assert variant.subspaces[2].dim == 2
            assert make_dual_pair(pair.primal, variant).duality_residual < 1e-9

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
        variants = expand_optimal_family(pair, 1)
        assert len(variants) == 1
        assert variants[0].subspaces[0].is_zero

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
        variants = expand_optimal_family(pair, 1)
        assert len(variants) == 1
        assert subspaces_equal(variants[0].subspaces[0], coordinate_subspace(3, [1]))

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
            for variant in expand_optimal_family(pair, i):
                vpair = make_dual_pair(w, variant)
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
            name: cli._document_pair(cli.parse_document(FIXTURES / f"{name}.json"))[0]
            for name in ("overlap_r4", "overlap_r4_extended_dual", "orthobasis_r3", "overcomplete_r3")
        }
        with monkeypatch.context() as mp:
            mp.setattr(optimality, "worst_case_error", lambda *a: pytest.fail("worst_case_error called"))
            found = {(name, i): expand_optimal_family(pair, i) for (name, i) in self.FIXTURE_VARIANT_DIMS for pair in [pairs[name]]}
        assert {key: [[s.dim for s in v.subspaces] for v in variants] for key, variants in found.items()} == self.FIXTURE_VARIANT_DIMS
        for (name, _), variants in found.items():
            pair = pairs[name]
            for variant in variants:
                vpair = make_dual_pair(pair.primal, variant, pair.tol)
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
        # one representative per whitened member, then the orthogonal complement of their span
        for _ in range(5):
            n = int(rng.integers(3, 6))
            w = random_riesz_basis(rng, n, int(rng.integers(2, min(4, n) + 1)))
            whitened = _whitened_members(w, DEFAULT_TOL)
            basis = optimality._pick_and_complete_basis(whitened, n, DEFAULT_TOL)
            m = len(whitened)
            assert np.abs(basis @ basis.T - np.eye(n)).max() < 1e-12
            for row, s in zip(basis[:m], whitened):
                assert np.linalg.norm(row - projector(s) @ row) < 1e-12
            rest = orthogonal_complement(Subspace(n, basis[:m].T))
            assert np.array_equal(basis[m:], rest.basis.T)
            assert np.array_equal(optimality._pick_and_complete_basis(whitened, n, DEFAULT_TOL), basis)

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
        values = riesz_bridge_partial_optimal(w, np.eye(3), u)
        assert len(values) == 2
        for perturbed, canonical in values:
            assert perturbed == pytest.approx(canonical, abs=1e-12)

    def test_random_riesz_with_random_perturbations(self, rng):
        for _ in range(5):
            w = random_riesz_basis(rng, 4, 2)
            f = bridge_fusion_to_discrete(w, np.eye(4), "canonical_weighted")
            u = random_perturbation(rng, f)
            values = riesz_bridge_partial_optimal(w, np.eye(4), u)
            for perturbed, canonical in values:
                assert perturbed == pytest.approx(canonical, abs=1e-9)

    def test_canonical_dual_formed_once(self, rng, monkeypatch):
        # dual_from_perturbation and the canonical column each formed it: 2 before
        formed = record_canonical_dual_formations(monkeypatch)
        w = random_riesz_basis(rng, 4, 2)
        f = bridge_fusion_to_discrete(w, np.eye(4), "canonical_weighted")
        riesz_bridge_partial_optimal(w, np.eye(4), random_perturbation(rng, f))
        assert len(formed) == 1

    def test_non_riesz_rejected(self, rng):
        w = overlap_frame_r4()
        f = bridge_fusion_to_discrete(w, np.eye(4), "canonical_weighted")
        u = random_perturbation(rng, f)
        with pytest.raises(ValueError, match="Riesz"):
            riesz_bridge_partial_optimal(w, np.eye(4), u)


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
            (np.eye(4)[:3], "basis must consist of 4 vectors of length 4"),
            (np.diag([1.0, 1.0, 1.0, np.inf]), r"basis\[3\]: non-finite entry"),
            (np.diag([1.0, -np.inf, 1.0, 1.0]), r"basis\[1\]: non-finite entry"),
            (np.diag([np.nan, 1.0, 1.0, 1.0]), r"basis\[0\]: non-finite entry"),
            (np.diag([1.0, 1.0, 1e200, 1.0]), "basis is not orthonormal"),
            (np.diag([1.0, 1.0, 1.0, 2.0]), "basis is not orthonormal"),
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


class TestProbeSoundness:
    def test_probes_never_beat_certified_canonical(self, rng):
        # 10 certified frames x 20 probes = 200 verified duals
        for _ in range(10):
            n = int(rng.integers(3, 7))
            w = certified_random_frame(rng, n)
            assert certify_canonical_optimal(w).verdict == "certified_optimal"
            pair = canonical_pair(w)
            baseline = worst_case_error(pair, 1, "frobenius").worst_value
            for probe in probe_duals(w, 20, rng):
                ppair = make_dual_pair(w, probe)
                assert ppair.duality_residual < 1e-9
                value = worst_case_error(ppair, 1, "frobenius").worst_value
                assert value >= baseline - 1e-9
