import json

import numpy as np
import pytest

import fusionframes.cli as cli
from fusionframes import DEFAULT_TOL, subspaces_equal
from fusionframes.cli import DocumentError, main, parse_document
from helpers import (
    FIXTURES,
    ORTHOBASIS_ALT_DUAL_BRIDGED,
    ORTHOBASIS_BRIDGED,
    OVERCOMPLETE_BRIDGED,
    PRESERVING_RECON,
    SQRT54,
    jsonable_reference,
)

OVERLAP = str(FIXTURES / "overlap_r4.json")
OVERLAP_DUAL = str(FIXTURES / "overlap_r4_extended_dual.json")
ORTHOBASIS = str(FIXTURES / "orthobasis_r3.json")
OVERCOMPLETE = str(FIXTURES / "overcomplete_r3.json")
PRESERVING = str(FIXTURES / "preserving_nondual_r3.json")

# a JSON integer beyond the range of a float
HUGE = 10**400


def run_json(capsys, argv):
    code = main(["--json", *argv])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestParsing:
    def test_fixture_files_parse(self):
        for path in (OVERLAP, OVERLAP_DUAL, ORTHOBASIS, OVERCOMPLETE, PRESERVING):
            doc = parse_document(path)
            assert doc.frame.ambient_dim in (3, 4)

    def test_fraction_strings(self, tmp_path):
        p = tmp_path / "frame.json"
        p.write_text(
            json.dumps(
                {
                    "ambient_dim": 2,
                    "subspaces": [
                        {"weight": "1/2", "spanning_vectors": [["1/2", "-1/2"]]},
                        {"weight": 1, "spanning_vectors": [[0, 1]]},
                    ],
                }
            )
        )
        doc = parse_document(p)
        assert doc.frame.weights[0] == pytest.approx(0.5)
        assert np.allclose(np.abs(doc.frame.subspaces[0].basis[:, 0]), np.sqrt(0.5))

    def test_dual_weights_default_to_primal(self, tmp_path):
        p = tmp_path / "frame.json"
        p.write_text(
            json.dumps(
                {
                    "ambient_dim": 2,
                    "subspaces": [
                        {"weight": 2, "spanning_vectors": [[1, 0]]},
                        {"weight": 3, "spanning_vectors": [[0, 1]]},
                    ],
                    "dual": {
                        "subspaces": [
                            {"spanning_vectors": [[1, 0]]},
                            {"spanning_vectors": [[0, 1]]},
                        ]
                    },
                }
            )
        )
        doc = parse_document(p)
        assert doc.dual.weights == (2.0, 3.0)

    def test_empty_subspace_list_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"ambient_dim": 2, "subspaces": []}))
        with pytest.raises(DocumentError, match="non-empty"):
            parse_document(p)

    def test_dual_member_count_mismatch(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps(
                {
                    "ambient_dim": 2,
                    "subspaces": [
                        {"spanning_vectors": [[1, 0]]},
                        {"spanning_vectors": [[0, 1]]},
                    ],
                    "dual": {"subspaces": [{"spanning_vectors": [[1, 0]]}]},
                }
            )
        )
        with pytest.raises(DocumentError, match="member count"):
            parse_document(p)

    def test_complex_field_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"ambient_dim": 2, "field": "complex", "subspaces": []}))
        with pytest.raises(DocumentError, match="real"):
            parse_document(p)

    def test_infinite_weight_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        members = [{"weight": float("inf"), "spanning_vectors": [[1, 0]]}, {"spanning_vectors": [[0, 1]]}]
        p.write_text(json.dumps({"ambient_dim": 2, "subspaces": members}))
        assert main(["classify", str(p)]) == 1
        assert "error: weight of member 1 must be positive and finite" in capsys.readouterr().err

    def test_boolean_ambient_dim_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"ambient_dim": True, "subspaces": [{"spanning_vectors": [[1]]}]}))
        assert main(["classify", str(p)]) == 1
        assert "error: ambient_dim" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "first, extra, where",
        [
            ({"spanning_vectors": [[HUGE, 0]]}, {}, "subspaces[0].spanning_vectors[0][0]"),
            ({"spanning_vectors": [["1/2", -HUGE]]}, {}, "subspaces[0].spanning_vectors[0][1]"),
            ({"spanning_vectors": [[f"{HUGE}/3", 0]]}, {}, "subspaces[0].spanning_vectors[0][0]"),
            ({"spanning_vectors": [[1, 0]], "weight": HUGE}, {}, "subspaces[0].weight"),
            ({"spanning_vectors": [[1, 0]]}, {"tolerance": {"rank_eps": HUGE}}, "tolerance.rank_eps"),
        ],
    )
    def test_huge_integer_exits_nonzero(self, tmp_path, capsys, first, extra, where):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"ambient_dim": 2, "subspaces": [first, {"spanning_vectors": [[0, 1]]}], **extra}))
        assert main(["classify", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1

    def test_boolean_vector_entry_names_its_location(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        members = [{"spanning_vectors": [[1, 0]]}, {"spanning_vectors": [[0, 1], [True, 0]]}]
        p.write_text(json.dumps({"ambient_dim": 2, "subspaces": members}))
        assert main(["classify", str(p)]) == 1
        err = capsys.readouterr().err
        assert err == "error: subspaces[1].spanning_vectors[1][0]: expected a number, got a boolean\n"

    def test_parse_error_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["classify", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", [None, 0, False, "", []], ids=["null", "zero", "false", "empty-string", "empty-list"]
    )
    def test_non_object_tolerance_exits_nonzero(self, tmp_path, capsys, value):
        p = tmp_path / "bad.json"
        doc = {"ambient_dim": 2, "subspaces": [{"spanning_vectors": [[1, 0]]}, {"spanning_vectors": [[0, 1]]}]}
        p.write_text(json.dumps({**doc, "tolerance": value}))
        assert main(["classify", str(p)]) == 1
        assert capsys.readouterr().err == "error: tolerance: expected an object\n"
        p.write_text(json.dumps({**doc, "tolerance": {}}))
        assert parse_document(p).tol == DEFAULT_TOL

    @pytest.mark.parametrize(
        "tolerance, flags", [('{"residual_eps": 1e400}', []), ("{}", ["--tol", "inf"])], ids=["document", "flag"]
    )
    def test_infinite_tolerance_exits_nonzero(self, tmp_path, capsys, tolerance, flags):
        # 1e400 reads as an infinite float; overlap_r4's bounds are (1, 2),
        # so an infinite residual tolerance would call it Parseval
        p = tmp_path / "inf.json"
        p.write_text((FIXTURES / "overlap_r4.json").read_text().rstrip()[:-1] + f', "tolerance": {tolerance}}}')
        assert main([*flags, "classify", str(p)]) == 1
        assert capsys.readouterr().err == "error: tolerances must be positive and finite\n"


class TestClassify:
    def test_orthobasis_summary(self, capsys):
        report = run_json(capsys, ["classify", ORTHOBASIS])
        assert report["result"]["summary"] == "orthonormal fusion basis"

    def test_overlap_summary_and_bounds(self, capsys):
        report = run_json(capsys, ["classify", OVERLAP])
        assert report["result"]["summary"] == "fusion frame, not Riesz, bounds (1, 2)"
        assert report["result"]["lower_bound"] == 1.0
        assert report["result"]["upper_bound"] == 2.0

    def test_text_output(self, capsys):
        assert main(["classify", OVERLAP]) == 0
        out = capsys.readouterr().out
        assert "fusion frame, not Riesz" in out


class TestVerifyDual:
    def test_preserving_pair_fails_with_map(self, capsys):
        report = run_json(capsys, ["verify-dual", PRESERVING])
        result = report["result"]
        assert result["is_dual"] is False
        assert np.abs(np.array(result["reconstruction"]) - PRESERVING_RECON).max() < 1e-12

    def test_negative_verdict_still_exits_zero(self, capsys):
        assert main(["verify-dual", PRESERVING]) == 0
        assert "FAIL" in capsys.readouterr().out

    def test_extended_dual_passes(self, capsys):
        report = run_json(capsys, ["verify-dual", OVERLAP_DUAL])
        assert report["result"]["is_dual"] is True
        assert report["result"]["residual"] < 1e-9

    def test_missing_dual_section(self, capsys):
        assert main(["verify-dual", OVERLAP]) == 1
        assert "dual section" in capsys.readouterr().err


class TestErasure:
    def test_overlap_worst_single(self, capsys):
        report = run_json(capsys, ["erasure", OVERLAP, "--r", "1", "--norm", "frobenius"])
        result = report["result"]
        assert result["worst_value"] == pytest.approx(SQRT54, abs=1e-12)
        assert result["argmax_subsets"] == [[1], [2]]
        assert result["dual_source"] == "canonical"

    def test_overcomplete_fixed_pair_comparison(self, capsys):
        report = run_json(
            capsys, ["erasure", OVERCOMPLETE, "--norm", "frobenius", "--fixed", "1,2"]
        )
        result = report["result"]
        assert result["mode"] == "fixed-discrete"
        assert result["halving_feasible"] is True
        assert result["ratio"] == pytest.approx(2.0, rel=1e-9)

    def test_overcomplete_fixed_with_final_vector_infeasible(self, capsys):
        report = run_json(
            capsys, ["erasure", OVERCOMPLETE, "--norm", "frobenius", "--fixed", "6,7"]
        )
        assert report["result"]["halving_feasible"] is False

    def test_fusion_fixed_without_basis(self, capsys):
        report = run_json(capsys, ["erasure", OVERLAP, "--norm", "frobenius", "--fixed", "3"])
        assert report["result"]["mode"] == "fixed"
        assert report["result"]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_fusion_fixed_uses_document_tolerance(self, capsys, tmp_path):
        # S_W = 1e-10 I: invertible under rank_eps = 1e-13, not under the default 1e-9
        p = tmp_path / "small_weights.json"
        p.write_text(
            json.dumps(
                {
                    "ambient_dim": 3,
                    "subspaces": [
                        {"weight": 1e-5, "spanning_vectors": [row]} for row in np.eye(3).tolist()
                    ],
                    "tolerance": {"rank_eps": 1e-13, "residual_eps": 1e-13},
                }
            )
        )
        worst = run_json(capsys, ["erasure", str(p), "--r", "1"])["result"]
        fixed = run_json(capsys, ["erasure", str(p), "--fixed", "1"])["result"]
        assert fixed["value"] == worst["worst_value"] == pytest.approx(1.0, abs=1e-12)

    def test_bridged_fixed_builds_no_fusion_pair(self, capsys, monkeypatch):
        argv = ["erasure", OVERCOMPLETE, "--norm", "frobenius", "--fixed", "1,2"]
        expected = run_json(capsys, argv)

        def refuse(*args, **kwargs):
            raise AssertionError("the bridged fixed-set path reads no fusion dual pair")

        monkeypatch.setattr(cli, "make_dual_pair", refuse)
        monkeypatch.setattr(cli, "canonical_pair", refuse)
        assert run_json(capsys, argv) == expected

    @pytest.mark.parametrize(
        "fixture, fixed", [("overlap_r4", "1,1"), ("overlap_r4", "3,1,3"), ("overcomplete_r3", "2,2")]
    )
    def test_repeated_fixed_index_refused(self, capsys, fixture, fixed):
        # the lost set would silently collapse to its distinct indices, on
        # the fusion path and on the bridged path of a document with a basis
        path = str(FIXTURES / f"{fixture}.json")
        assert main(["--json", "erasure", path, "--fixed", fixed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --fixed repeats index ")

    def test_r_equal_member_count_refused(self, capsys):
        assert main(["erasure", OVERLAP, "--r", "3"]) == 1
        assert "r must" in capsys.readouterr().err


class TestCertify:
    def test_overlap_canonical_certified(self, capsys):
        report = run_json(capsys, ["certify", OVERLAP, "--which", "canonical"])
        result = report["result"]
        assert result["verdict"] == "certified_optimal"
        assert result["c_value"] == pytest.approx(SQRT54, abs=1e-12)
        assert result["lambda1"] == [1, 2]

    def test_overlap_tight_not_applicable(self, capsys):
        report = run_json(capsys, ["certify", OVERLAP, "--which", "tight"])
        assert report["result"]["verdict"] == "not_applicable"

    def test_dual_certificate_requires_dual(self, capsys):
        assert main(["certify", OVERLAP, "--which", "dual"]) == 1
        assert "dual section" in capsys.readouterr().err

    def test_dual_certificate_on_extended_family(self, capsys):
        report = run_json(capsys, ["certify", OVERLAP_DUAL, "--which", "dual"])
        assert report["result"]["lambda1"] == [1, 2]


class TestConstruct:
    def test_parseval_family_matches_display(self, capsys):
        report = run_json(capsys, ["construct", ORTHOBASIS, "--what", "parseval-family"])
        result = report["result"]
        compact = np.array(result["compact_vectors"])
        assert np.abs(compact - ORTHOBASIS_BRIDGED).max() < 1e-12
        alt = np.array(result["duals"][1]["vectors"])[np.array(result["kept_raw_indices"]) - 1]
        assert np.abs(alt - ORTHOBASIS_ALT_DUAL_BRIDGED).max() < 1e-12
        for dual in result["duals"]:
            assert dual["is_dual"] is True
            assert dual["d1_operator"] == pytest.approx(1.0, abs=1e-12)

    def test_expand_variants_preserve_value(self, capsys):
        report = run_json(capsys, ["construct", OVERLAP, "--what", "expand", "--index", "3"])
        result = report["result"]
        assert result["variant_count"] == 3
        for entry in result["variants"]:
            assert entry["residual"] < 1e-9
            assert entry["d1_frobenius"] == pytest.approx(SQRT54, abs=1e-9)

    def test_expand_requires_index(self, capsys):
        assert main(["construct", OVERLAP, "--what", "expand"]) == 1
        assert "--index" in capsys.readouterr().err

    def test_bridge_emits_seven_vectors(self, capsys):
        report = run_json(capsys, ["construct", OVERCOMPLETE, "--what", "bridge"])
        result = report["result"]
        compact = np.array(result["compact_vectors"])
        assert compact.shape == (7, 3)
        assert np.abs(compact - OVERCOMPLETE_BRIDGED).max() < 1e-12
        assert result["kept_raw_indices"] == [1, 2, 4, 5, 7, 8, 9]

    def test_parseval_family_hypothesis_failure_named(self, capsys):
        assert main(["construct", OVERLAP, "--what", "parseval-family"]) == 1
        assert "Riesz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("expand_optimal_family", ["construct", OVERLAP, "--what", "expand", "--index", "1"]),
            ("parseval_optimal_family", ["construct", ORTHOBASIS, "--what", "parseval-family"]),
        ],
    )
    def test_internal_check_failure_exits_three(self, capsys, monkeypatch, name, argv):
        assert main(argv) == 0
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise ArithmeticError("emitted dual failed verification (residual 1.000e-03)")

        monkeypatch.setattr(cli, name, fail)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal check failed: emitted dual failed verification (residual 1.000e-03)\n"
        )


class TestReportContracts:
    def test_json_reports_are_reproducible(self, capsys):
        first = main(["--json", "erasure", OVERLAP, "--r", "2"])
        out1 = capsys.readouterr().out
        second = main(["--json", "erasure", OVERLAP, "--r", "2"])
        out2 = capsys.readouterr().out
        assert first == second == 0
        assert out1 == out2

    def test_frame_document_round_trips(self, capsys, tmp_path):
        report = run_json(capsys, ["classify", ORTHOBASIS])
        echoed = report["result"]["frame_document"]
        p = tmp_path / "echo.json"
        p.write_text(json.dumps(echoed))
        doc = parse_document(p)
        original = parse_document(ORTHOBASIS)
        assert doc.frame.member_count == original.frame.member_count
        for a, b in zip(doc.frame.subspaces, original.frame.subspaces):
            assert subspaces_equal(a, b)

    def test_json_hook_matches_recursive_conversion(self):
        result = {
            "array": np.arange(6.0).reshape(2, 3) / 7,
            "float": np.float64(0.1),
            "special": [np.float64("inf"), np.float64("nan"), np.float64(-0.0)],
            "int": np.int64(-7),
            "flag": np.bool_(True),
            "set": frozenset({3, 1, 2}),
            "nested": ((1, (2.5, np.float64(1 / 3))), [np.int64(4), (np.bool_(False), np.eye(2))]),
            "plain": {"x": [1, 2.0, None, "s", True]},
        }
        report = {"command": "classify", "result": result}
        hooked = json.dumps(report, sort_keys=True, indent=2, default=cli._json_default)
        assert hooked == json.dumps(jsonable_reference(report), sort_keys=True, indent=2)

    def test_digest_present(self, capsys):
        report = run_json(capsys, ["classify", OVERLAP])
        assert len(report["input"]["sha256"]) == 64

    def test_tol_override(self, capsys):
        report = run_json(capsys, ["--tol", "1e-6", "classify", OVERLAP])
        assert report["tolerance"]["residual_eps"] == 1e-6
