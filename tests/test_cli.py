import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fusionframes
import fusionframes.cli as cli
import fusionframes.optimality as optimality
from fusionframes import DEFAULT_TOL, subspaces_equal
from fusionframes.cli import DocumentError, main, parse_document
from helpers import (
    FIXTURES,
    ORTHOBASIS_ALT_DUAL_BRIDGED,
    ORTHOBASIS_BRIDGED,
    OVERCOMPLETE_BRIDGED,
    PRESERVING_RECON,
    SQRT54,
    record_canonical_dual_formations,
    record_dual_pairs,
)
from test_fixture_golden import COMMANDS as GOLDEN_COMMANDS

OVERLAP = str(FIXTURES / "overlap_r4.json")
OVERLAP_DUAL = str(FIXTURES / "overlap_r4_extended_dual.json")
ORTHOBASIS = str(FIXTURES / "orthobasis_r3.json")
OVERCOMPLETE = str(FIXTURES / "overcomplete_r3.json")
PRESERVING = str(FIXTURES / "preserving_nondual_r3.json")

# a JSON integer beyond the range of a float
HUGE = 10**400


# the values command results hold: plain numbers, flags, None, strings and float arrays
_NUMBERS = st.integers(-(2**80), 2**80) | st.floats()
_ARRAYS = st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=3).map(
    lambda rows: np.array(rows, dtype=float).reshape(len(rows), 2)
)
_LEAVES = _NUMBERS | st.none() | st.booleans() | st.text(max_size=5) | _ARRAYS


@st.composite
def _record_lists(draw):
    """Lists of records with one key set, each column drawn from one kind: the erasure table's shape as a
    plain list, which the writer walks record by record."""
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True))
    kinds = [_NUMBERS, st.lists(_NUMBERS, max_size=3), st.lists(_LEAVES, min_size=1, max_size=2), _LEAVES]
    columns = {key: draw(st.sampled_from(kinds)) for key in keys}
    rows = draw(st.lists(st.fixed_dictionaries(columns), min_size=1, max_size=6))
    return tuple(rows) if draw(st.booleans()) else rows


def _json_trees():
    return st.recursive(
        _LEAVES | _record_lists(),
        lambda children: st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=4), children, max_size=4),
        max_leaves=30,
    )


def _random_document(n, m, k, seed):
    """An (n, m, k) frame document: m members of k Gaussian spanning vectors in R^n."""
    rng = np.random.default_rng([seed, n, m, k])
    members = [
        {"weight": float(0.5 + rng.random()), "spanning_vectors": rng.standard_normal((k, n)).tolist()}
        for _ in range(m)
    ]
    return {"ambient_dim": n, "field": "real", "subspaces": members}


def _lists(x):
    """``x`` with its ndarrays as lists, which is how ``--json`` writes them."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {k: _lists(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_lists(v) for v in x]
    return x


def _written(value) -> str:
    """The ``--json`` writer's text for ``value`` at depth 0."""
    out: list[str] = []
    cli._json_chunks(value, 0, out)
    return "".join(out)


def _assert_writes_as_json_dumps(value) -> None:
    assert _written(value) == json.dumps(_lists(value), sort_keys=True, indent=2)


# table values whose shortest repr json.dumps must reproduce: zero, the least subnormal, a repeating
# binary fraction and the greatest finite float
_TABLE_VALUES = (0.0, 5e-324, 1 / 3, 1.7976931348623157e308)


def _table(r: int, m: int, rows: int, values=_TABLE_VALUES) -> "cli._Table":
    """The first ``rows`` r-subsets of 1..m in lexicographic order, as an erasure table cycling through ``values``."""
    subsets = itertools.islice(itertools.combinations(range(1, m + 1), r), rows)
    return cli._Table({"subset": list(s), "value": v} for s, v in zip(subsets, itertools.cycle(values)))


def _assert_table_writes_as_json_dumps(table, level: int) -> None:
    """The writer's text for ``table`` at depth ``level`` is ``json.dumps``' with every line after the first indented."""
    out: list[str] = []
    cli._json_chunks(table, level, out)
    assert "".join(out) == json.dumps(list(table), sort_keys=True, indent=2).replace("\n", "\n" + "  " * level)


def _assert_report_types(x, where="result") -> None:
    """Every value in a command result is one the ``--json`` writer handles: a dict with ``str`` keys, a
    list, tuple or erasure ``_Table`` (each row checked too), a float ndarray, or a ``str``, ``int``,
    ``float``, ``bool`` or ``None``."""
    if type(x) is dict:
        for k, v in x.items():
            assert type(k) is str, (where, k)
            _assert_report_types(v, f"{where}.{k}")
    elif type(x) in (list, tuple, cli._Table):
        for i, v in enumerate(x):
            _assert_report_types(v, f"{where}[{i}]")
    elif type(x) is np.ndarray:
        assert x.dtype == np.float64, (where, x.dtype)
    else:
        assert type(x) in (str, int, float, bool, type(None)), (where, type(x))


def _assert_report_matches_json_dumps(args) -> str:
    """``run(args)``, checked against ``json.dumps`` of the same report, on its first call and on a second,
    memo-served one; the oracle's frame document is a plain dict of lists."""
    written = cli.run(args)
    doc = parse_document(args.file, args.tol)
    assert "_frame_echo" in vars(doc)
    # lines, not one string: pytest reports the first differing line instead of diffing megabytes
    lines = written.split("\n")
    assert cli.run(args).split("\n") == lines
    result = cli._COMMANDS[args.command](doc, args)
    result["frame_document"] = {
        "ambient_dim": doc.frame.ambient_dim,
        "field": "real",
        "subspaces": [
            {"weight": w, "spanning_vectors": s.basis.T.tolist()} for s, w in zip(doc.frame.subspaces, doc.frame.weights)
        ],
    }
    report = {
        "command": args.command,
        "input": {"path": str(args.file), "sha256": doc.sha256},
        "tolerance": {"rank_eps": doc.tol.rank_eps, "residual_eps": doc.tol.residual_eps},
        "result": result,
    }
    assert json.dumps(_lists(report), sort_keys=True, indent=2).split("\n") == lines
    return written


def _fresh_process(argv) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of ``argv`` in a new ``fusionframes`` process."""
    done = subprocess.run([sys.executable, "-m", "fusionframes.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    return done.returncode, done.stdout, done.stderr


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
        assert "error: subspaces: weight of member 1 must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "members, dual, commands, section, named",
        [
            # the squared weights overflow a float
            ([([1, 0], 1e200), ([0, 1], 1e200)], None, ["classify", "erasure"], "subspaces", "1e+200"),
            # the primal is fine; w_i v_i of the dual's weights overflows, and the refusal names the dual
            (
                [([1, 0], 1e150), ([0, 1], 1e150)],
                [1e200, 1e200],
                ["verify-dual", "erasure"],
                "dual.subspaces",
                "1e+200",
            ),
            # each square is finite, their sum is not
            ([([1, 0], 1.3e154), ([1, 0], 1.3e154), ([0, 1], 1)], None, ["classify"], "subspaces", "1.3e+154"),
        ],
        ids=["squares", "dual", "sum"],
    )
    def test_overflowing_weights_exit_one(self, tmp_path, capsys, members, dual, commands, section, named):
        doc = {"ambient_dim": 2, "subspaces": [{"spanning_vectors": [v], "weight": w} for v, w in members]}
        if dual is not None:
            doc["dual"] = [{"spanning_vectors": [v], "weight": w} for (v, _), w in zip(members, dual)]
        p = tmp_path / "heavy.json"
        p.write_text(json.dumps(doc))
        for command in commands:
            for flags in ([], ["--json"]):
                assert main([*flags, command, str(p)]) == 1
                assert capsys.readouterr() == (
                    "",
                    f"error: {section}: weights too large: the squared weights must sum below 2**1000 "
                    f"(member 1 has weight {named})\n",
                )

    @pytest.mark.parametrize("weight", [1e-170, 1e-160])
    def test_underflowing_weights_exit_one(self, tmp_path, capsys, weight):
        # w^2 underflows: at 1e-170 classify said "does not span" with exit 0, at 1e-160 S_W^{-1} overflowed
        members = [{"weight": weight, "spanning_vectors": [v]} for v in ([1, 0], [0, 1], [1, 1])]
        p = tmp_path / "light.json"
        p.write_text(json.dumps({"ambient_dim": 2, "subspaces": members}))
        for argv in (["classify", str(p)], ["--json", "erasure", str(p), "--r", "1"]):
            assert main(argv) == 1
            assert capsys.readouterr() == (
                "",
                "error: subspaces: weights too small: the largest weight must be at least 2**-500 "
                f"(member 1 has weight {weight})\n",
            )

    def test_overflowing_inverse_frame_operator_exits_one(self, tmp_path, capsys):
        # just above the weight floor, S_W's smallest eigenvalue 3.7e-309 passes the frame test and has no finite inverse
        members = [{"weight": w, "spanning_vectors": [v]} for v, w in (([1, 0], 2.0**-499), ([0, 1], 2.0**-499 * 1e-4))]
        p = tmp_path / "ill.json"
        p.write_text(json.dumps({"ambient_dim": 2, "subspaces": members}))
        assert main(["erasure", str(p), "--r", "1"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: the inverse frame operator overflows: smallest eigenvalue 3.733e-309 is too small to invert\n",
        )

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"ambient_dim": 2, "subspaces": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "nested too deep to parse"),
            (b'{"ambient_dim": 2, "x": "\xff"}', "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 25: invalid start byte"),
        ],
        ids=["deep", "not-utf8"],
    )
    def test_unreadable_document_exits_one_in_a_fresh_process(self, tmp_path, data, message):
        # a RecursionError from json.loads used to end in a traceback, a decoding error to name no file
        p = tmp_path / "doc.json"
        p.write_bytes(data)
        assert _fresh_process(["--json", "classify", str(p)]) == (1, "", f"error: {p}: {message}\n")

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 298. GiB for an array with shape (200000, 200000) and data type float64"),
             "error: out of memory: Unable to allocate 298. GiB for an array with shape (200000, 200000) and data type float64"),
            (MemoryError(), "error: out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_exits_one(self, capsys, monkeypatch, exc, line):
        # a real one needs n >= 5e6, whose n x n doubles pass the address space; frame_operator raises it instead
        def exhausted(frame):
            raise exc

        monkeypatch.setattr(fusionframes.fusion, "frame_operator", exhausted)
        for flags in ([], ["--json"]):
            assert main([*flags, "classify", OVERLAP]) == 1
            assert capsys.readouterr() == ("", line + "\n")

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

    @pytest.mark.parametrize("section", ["subspaces", "dual"])
    @pytest.mark.parametrize(
        "members, error",
        [
            (
                [{"spanning_vectors": [[1, 0], [0, float("inf")]]}, {"weight": -1, "spanning_vectors": [[0, 1]]}],
                "spanning_vectors[1]: non-finite entry",
            ),
            (
                [{"weight": -1, "spanning_vectors": [[1, 0]]}, {"spanning_vectors": [[float("nan"), 1]]}],
                "weight: must be positive",
            ),
        ],
        ids=["vector-first", "weight-first"],
    )
    def test_malformed_members_reported_in_member_order(self, tmp_path, capsys, section, members, error):
        # the first malformed member is reported, whichever of its fields is wrong
        good = [{"spanning_vectors": [[1, 0]]}, {"spanning_vectors": [[0, 1]]}, {"spanning_vectors": [[1, 1]]}]
        raw = {"ambient_dim": 2, "subspaces": good[:1] + members}
        where = "subspaces"
        if section == "dual":
            raw = {"ambient_dim": 2, "subspaces": good, "dual": {"subspaces": good[:1] + members}}
            where = "dual.subspaces"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        assert main(["classify", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {where}[1].{error}\n"

    def test_plain_members_convert_without_the_per_entry_path(self, tmp_path, monkeypatch):
        # only the member holding a fraction string goes entry by entry
        calls = []
        vector = cli._vector
        monkeypatch.setattr(cli, "_vector", lambda entry, dim, where: (calls.append(where), vector(entry, dim, where))[1])
        members = [
            {"spanning_vectors": [[1, 0.5, -2], [0, 3, 1]]},
            {"spanning_vectors": [["1/3", 0, 1]]},
            {"spanning_vectors": [[0, 0, 1e-3]]},
        ]
        p = tmp_path / "frame.json"
        p.write_text(json.dumps({"ambient_dim": 3, "subspaces": members}))
        doc = parse_document(p)
        assert calls == ["subspaces[1].spanning_vectors[0]"]
        assert [s.dim for s in doc.frame.subspaces] == [2, 1, 1]
        assert np.allclose(np.abs(doc.frame.subspaces[1].basis[:, 0]), np.array([1, 0, 3]) / np.sqrt(10))

    @pytest.mark.parametrize(
        "vectors, error",
        [
            ([[1, 0], [0, 1, 2]], "spanning_vectors[1]: expected a list of 2 scalars"),
            ([[1, 0], 5], "spanning_vectors[1]: expected a list of 2 scalars"),
            ([[1, 0], [0, None]], "spanning_vectors[1][1]: expected a number or fraction string, got NoneType"),
            ([[1, "x"], [0, None]], "spanning_vectors[0][1]: cannot parse scalar 'x'"),
            ([[1, False], [1, 0]], "spanning_vectors[0][1]: expected a number, got a boolean"),
        ],
    )
    def test_member_refusals_name_their_entry(self, tmp_path, capsys, vectors, error):
        members = [{"spanning_vectors": [[1, 0]]}, {"spanning_vectors": vectors}]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"ambient_dim": 2, "subspaces": members}))
        assert main(["classify", str(p)]) == 1
        assert capsys.readouterr().err == f"error: subspaces[1].{error}\n"

    @pytest.mark.parametrize("scale", ["1e200", "1e-200"])
    def test_extreme_scale_member_keeps_its_dimension(self, tmp_path, capsys, scale):
        # squaring these entries over- or underflows; the member used to become the zero subspace
        p = tmp_path / "extreme.json"
        p.write_text(
            f'{{"ambient_dim": 2, "subspaces": [{{"spanning_vectors": [[{scale}, 0]]}}, '
            '{"spanning_vectors": [[0, 1]]}, {"spanning_vectors": [[1, 1]]}]}'
        )
        assert main(["classify", str(p)]) == 0
        out = capsys.readouterr().out
        assert "member dims:     [1, 1, 1]" in out
        assert "classification:  fusion frame, not Riesz, bounds (1, 2)" in out

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize(
        "argv",
        [["classify"], ["erasure", "--fixed", "1,2"], ["construct", "--what", "bridge"], ["construct", "--what", "parseval-family"]],
        ids=" ".join,
    )
    def test_non_finite_basis_entry_names_its_row(self, tmp_path, capsys, argv, entry):
        # it used to pass the orthonormality test (a NaN residual fails "> eps"),
        # and the basis commands then refused "frame vectors have non-finite entries"
        text = (FIXTURES / "orthobasis_r3.json").read_text()
        p = tmp_path / "basis.json"
        p.write_text(text.replace('"basis": [[1, 0, 0], [0, 1, 0]', f'"basis": [[1, 0, 0], [0, 1, {entry}]'))
        assert p.read_text() != text
        assert main([argv[0], str(p), *argv[1:]]) == 1
        assert capsys.readouterr() == ("", "error: basis[1]: non-finite entry\n")

    @pytest.mark.parametrize(
        "argv", [["erasure", "--fixed", "1,2"], ["construct", "--what", "bridge"], ["construct", "--what", "parseval-family"]], ids=" ".join
    )
    def test_non_orthonormal_basis_refused(self, tmp_path, capsys, argv):
        text = (FIXTURES / "orthobasis_r3.json").read_text()
        p = tmp_path / "basis.json"
        p.write_text(text.replace('"basis": [[1, 0, 0]', '"basis": [[1, 0, "1/2"]'))
        assert main([argv[0], str(p), *argv[1:]]) == 1
        assert capsys.readouterr() == ("", "error: basis is not orthonormal\n")
        assert main(["classify", str(p)]) == 0

    @pytest.mark.parametrize("entry", ["1e200", "-1e200"])
    @pytest.mark.parametrize(
        "argv", [["erasure", "--fixed", "1"], ["construct", "--what", "bridge"], ["construct", "--what", "parseval-family"]], ids=" ".join
    )
    def test_huge_basis_entry_refused_without_warning(self, tmp_path, capsys, argv, entry):
        # finite, so it parses; squaring it in the orthonormality test used to
        # print numpy's overflow warning ahead of the refusal
        text = (FIXTURES / "orthobasis_r3.json").read_text()
        p = tmp_path / "basis.json"
        p.write_text(text.replace('"basis": [[1, 0, 0], [0, 1, 0]', f'"basis": [[1, 0, 0], [0, 1, {entry}]'))
        assert p.read_text() != text
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([argv[0], str(p), *argv[1:]]) == 1
        assert capsys.readouterr() == ("", "error: basis is not orthonormal\n")

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

    @pytest.mark.parametrize(
        "fixture, edit, error",
        [
            ("overcomplete_r3", lambda d: d.update(bases=d.pop("basis")), "top level: unknown key 'bases'"),
            ("overlap_r4", lambda d: d.update(tolerance={"rank": 0.5}), "tolerance: unknown key 'rank'"),
            ("overlap_r4_extended_dual", lambda d: d["dual"].update(weights=[1, 1, 1]), "dual: unknown key 'weights'"),
            ("overlap_r4", lambda d: d["subspaces"][2].update(wieght=2), "subspaces[2]: unknown key 'wieght'"),
            (
                "overlap_r4_extended_dual",
                lambda d: d["dual"]["subspaces"][0].update(Weight=2),
                "dual.subspaces[0]: unknown key 'Weight'",
            ),
        ],
        ids=["top-level", "tolerance", "dual", "member", "dual-member"],
    )
    def test_unknown_key_refused_where_it_is(self, tmp_path, capsys, fixture, edit, error):
        # a misspelt key used to fall back to its default: other bounds, tolerance or erasure mode
        doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
        edit(doc)
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        assert main(["erasure", str(p), "--fixed", "1,2"]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")


class TestClassify:
    def test_orthobasis_summary(self, capsys):
        report = run_json(capsys, ["classify", ORTHOBASIS])
        assert report["result"]["summary"] == "orthonormal fusion basis"

    def test_overlap_summary_and_bounds(self, capsys):
        report = run_json(capsys, ["classify", OVERLAP])
        assert report["result"]["summary"] == "fusion frame, not Riesz, bounds (1, 2)"
        assert report["result"]["lower_bound"] == 1.0
        assert report["result"]["upper_bound"] == 2.0

    def test_tiny_weights_keep_an_orthonormal_basis_a_frame(self, capsys, tmp_path):
        # weights 1e-5 give S_W = 1e-10 I; the frame test is relative to the
        # largest eigenvalue, so every command answers it as a Riesz fusion basis
        p = tmp_path / "tiny.json"
        p.write_text(
            json.dumps({"ambient_dim": 3, "subspaces": [{"weight": 1e-5, "spanning_vectors": [row]} for row in np.eye(3).tolist()]})
        )
        result = run_json(capsys, ["classify", str(p)])["result"]
        assert result["summary"] == "Riesz fusion basis, bounds (1e-10, 1e-10)"
        assert (result["lower_bound"], result["upper_bound"]) == pytest.approx((1e-10, 1e-10), rel=1e-12, abs=0.0)
        worst = run_json(capsys, ["erasure", str(p), "--r", "1"])["result"]
        assert worst["worst_value"] == pytest.approx(1.0, abs=1e-12)
        assert run_json(capsys, ["certify", str(p), "--which", "canonical"])["result"]["verdict"] == "certified_optimal"
        for argv in (["erasure", str(p), "--r", "1"], ["certify", str(p), "--which", "canonical"]):
            assert main(argv) == 0
            assert capsys.readouterr().err == ""

    def test_text_output(self, capsys):
        assert main(["classify", OVERLAP]) == 0
        out = capsys.readouterr().out
        assert "fusion frame, not Riesz" in out

    @pytest.mark.parametrize(
        "lines, weight, summary",
        [
            ([[1, 0], [1, 1]], 1.0, "Riesz fusion basis, bounds (0.292893218813, 1.70710678119)"),
            ([[1, 0], [-0.5, 3**0.5 / 2], [-0.5, -(3**0.5) / 2]], (2 / 3) ** 0.5, "Parseval fusion frame"),
            ([[1, 0], [-0.5, 3**0.5 / 2], [-0.5, -(3**0.5) / 2]], 1.0, "tight fusion frame (bound 1.5)"),
        ],
        ids=["riesz-45-degrees", "parseval-120-degrees", "tight-120-degrees"],
    )
    def test_summaries_of_small_frames(self, tmp_path, capsys, lines, weight, summary):
        p = tmp_path / "lines.json"
        p.write_text(json.dumps({"ambient_dim": 2, "subspaces": [{"weight": weight, "spanning_vectors": [v]} for v in lines]}))
        assert main(["classify", str(p)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"classification:  {summary}"
        result = run_json(capsys, ["classify", str(p)])["result"]
        assert result["summary"] == summary
        assert result["member_dims"] == [1] * len(lines)


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
    def test_one_member_document_has_nothing_to_erase(self, capsys, tmp_path):
        # with no --r the report is for r = 1, which no range 1 <= r < m holds when m = 1
        p = tmp_path / "plane.json"
        p.write_text(json.dumps({"ambient_dim": 2, "subspaces": [{"spanning_vectors": [[1, 0], [0, 1]]}]}))
        assert _outcome(capsys, ["erasure", str(p)]) == (
            1, "", "error: nothing to erase: a worst-case report needs at least 2 members, got 1\n"
        )

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
        assert result["ratio"] == 2.0

    @pytest.mark.parametrize("scale", [1e-10, 1e-5, 1e5, 1e10])
    @pytest.mark.parametrize("fixture", ["overcomplete_r3", "orthobasis_r3"])
    def test_bridged_commands_do_not_depend_on_weight_scale(self, tmp_path, capsys, fixture, scale):
        # bridged vectors scale as 1/weight; an absolute zero-row floor dropped every one past 1e9
        def outcome(p):
            kept = run_json(capsys, ["construct", str(p), "--what", "bridge"])["result"]["kept_raw_indices"]
            assert main(["erasure", str(p), "--fixed", "1,2"]) == 0
            return kept, capsys.readouterr().out

        doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
        for member in doc["subspaces"]:
            member["weight"] = scale
        p = tmp_path / "scaled.json"
        p.write_text(json.dumps(doc))
        assert outcome(p) == outcome(FIXTURES / f"{fixture}.json")

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
        # S_W = diag(1, 1, 1e-10): a frame under rank_eps = 1e-13, not under the default 1e-9
        p = tmp_path / "small_weights.json"
        p.write_text(
            json.dumps(
                {
                    "ambient_dim": 3,
                    "subspaces": [
                        {"weight": w, "spanning_vectors": [row]} for w, row in zip([1, 1, 1e-5], np.eye(3).tolist())
                    ],
                    "tolerance": {"rank_eps": 1e-13, "residual_eps": 1e-13},
                }
            )
        )
        worst = run_json(capsys, ["erasure", str(p), "--r", "1"])["result"]
        fixed = run_json(capsys, ["erasure", str(p), "--fixed", "1"])["result"]
        assert fixed["value"] == worst["worst_value"] == pytest.approx(1.0, abs=1e-12)

    def test_frame_test_reads_the_document_tolerance(self, capsys, tmp_path):
        # S_W = diag(1, 1, 1e-10): its eigenvalue ratio 1e-10 passes the frame
        # test under rank_eps = 1e-13, not under the default 1e-9
        raw = {
            "ambient_dim": 3,
            "subspaces": [{"weight": w, "spanning_vectors": [row]} for w, row in zip([1, 1, 1e-5], np.eye(3).tolist())],
        }
        p = tmp_path / "ratio.json"
        p.write_text(json.dumps(raw))
        assert main(["erasure", str(p), "--r", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: not a frame: the family does not span R^3 (smallest eigenvalue of the frame operator "
            "1.000e-10 <= rank_eps 1.000e-09 x largest eigenvalue 1.000e+00 = 1.000e-09)\n"
        )
        raw["tolerance"] = {"rank_eps": 1e-13, "residual_eps": 1e-13}
        p.write_text(json.dumps(raw))
        assert run_json(capsys, ["erasure", str(p), "--r", "1"])["result"]["worst_value"] == pytest.approx(1.0, abs=1e-12)

    def test_bridged_fixed_builds_no_fusion_pair(self, capsys, monkeypatch):
        argv = ["erasure", OVERCOMPLETE, "--norm", "frobenius", "--fixed", "1,2"]
        expected = run_json(capsys, argv)

        def refuse(*args, **kwargs):
            raise AssertionError("the bridged fixed-set path reads no fusion dual pair")

        monkeypatch.setattr(cli, "make_dual_pair", refuse)
        monkeypatch.setattr(cli, "canonical_pair", refuse)
        assert run_json(capsys, argv) == expected

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_bridged_fixed_forms_the_canonical_dual_once(self, capsys, monkeypatch, flags):
        # cli._bridged and halving_dual both read the one canonical dual of the compacted frame
        formed = record_canonical_dual_formations(monkeypatch)
        assert main([*flags, "erasure", OVERCOMPLETE, "--fixed", "1,2"]) == 0
        assert "ratio" in capsys.readouterr().out
        assert len(formed) == 1 and formed[0].count == 7

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

    @pytest.mark.parametrize("fixture", ["overlap_r4", "overcomplete_r3"])
    @pytest.mark.parametrize("fixed", [",", ""])
    def test_empty_fixed_set_refused(self, capsys, fixture, fixed):
        # nothing lost would report 0 on the fusion path and 0/0 on the bridged one
        path = str(FIXTURES / f"{fixture}.json")
        assert main(["--json", "erasure", path, "--fixed", fixed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --fixed needs at least one index\n"

    @pytest.mark.parametrize("fixed", ["1,a", "2.5", "1;2"])
    def test_non_integer_fixed_token_named(self, capsys, fixed):
        code, out, err = _outcome(capsys, ["erasure", OVERLAP, "--fixed", fixed])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --fixed: expected comma-separated integers, got '{fixed}'\n")

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--fixed", "1", "--r", "2"], "--r: not allowed with argument --fixed"),
            (["--fixed", "1", "--r", "1"], "--r: not allowed with argument --fixed"),
            (["--r", "2", "--fixed", "1,2"], "--fixed: not allowed with argument --r"),
        ],
    )
    def test_r_with_fixed_refused(self, capsys, flags, named):
        code, out, err = _outcome(capsys, ["erasure", OVERLAP, *flags])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {named}\n")

    def test_json_table_formats_no_text_rows(self, capsys, monkeypatch, tmp_path):
        p = tmp_path / "enum.json"
        p.write_text(json.dumps(_random_document(4, 20, 2, seed=7)))
        calls = []
        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda x: (calls.append(x), fmt(x))[1])
        rows = len(run_json(capsys, ["erasure", str(p), "--r", "3"])["result"]["table"])
        assert rows == 1140
        assert len(calls) < rows
        calls.clear()
        assert main(["erasure", str(p), "--r", "3"]) == 0
        assert capsys.readouterr().out.count("\n    {") == rows
        assert len(calls) >= rows

    def test_report_past_the_table_size_lists_no_values(self, capsys, tmp_path):
        # C(20, 4) = 4845 subsets: worst value and argmax sets, no table
        p = tmp_path / "enum.json"
        p.write_text(json.dumps(_random_document(4, 20, 2, seed=7)))
        result = run_json(capsys, ["erasure", str(p), "--r", "4"])["result"]
        assert result["table"] == [] and len(result["argmax_subsets"]) >= 1
        assert main(["erasure", str(p), "--r", "4"]) == 0
        text = capsys.readouterr().out
        assert text == "\n".join(cli._text("erasure", result)) + "\n"
        lines = text.splitlines()
        assert len(lines) == 3 and "per-subset values:" not in text
        assert lines[0] == "worst-case erasure error (r=4, norm=frobenius, dual=canonical)"
        assert lines[2] == "argmax sets:  " + ", ".join("{" + ", ".join(map(str, s)) + "}" for s in result["argmax_subsets"])

    def test_r_equal_member_count_refused(self, capsys):
        assert main(["erasure", OVERLAP, "--r", "3"]) == 1
        assert "r must" in capsys.readouterr().err


NOT_SPANNING_R3 = (
    "error: not a frame: the family does not span R^3 "
    "(smallest eigenvalue of the frame operator 0.000e+00 <= rank_eps 1.000e-09 x largest eigenvalue 1.000e+00 = 1.000e-09)\n"
)


def _plane_document(tmp_path, with_dual: bool, basis: bool = False):
    """The two coordinate axes of the x-y plane in R^3, which do not span R^3."""
    members = [{"spanning_vectors": [[1, 0, 0]]}, {"spanning_vectors": [[0, 1, 0]]}]
    raw = {"ambient_dim": 3, "subspaces": members}
    if with_dual:
        raw["dual"] = {"subspaces": members}
    if basis:
        raw["basis"] = np.eye(3).tolist()
    p = tmp_path / "plane.json"
    p.write_text(json.dumps(raw))
    return p


# every op that needs S_W^{-1}: argv after the file, whether it needs a dual section, whether it reads a basis
_INVERTING_OPS = [
    (["verify-dual"], True, False),
    (["erasure", "--r", "1"], False, False),
    (["erasure", "--fixed", "1"], False, False),
    (["erasure", "--fixed", "1"], False, True),
    (["certify", "--which", "canonical"], False, False),
    (["certify", "--which", "dual"], True, False),
    (["certify", "--which", "tight"], False, False),
    (["construct", "--what", "bridge"], False, False),
    (["construct", "--what", "expand", "--index", "1"], False, False),
]


class TestNonSpanningFamily:
    @pytest.mark.parametrize(
        "argv, with_dual, basis",
        [
            pytest.param(argv, with_dual, basis, id=" ".join(argv) + " basis" * basis + f" dual={with_dual}")
            for argv, needs_dual, basis in _INVERTING_OPS
            for with_dual in (False, True)
            if with_dual or not needs_dual
        ],
    )
    def test_one_refusal_on_every_path(self, capsys, tmp_path, argv, with_dual, basis):
        p = _plane_document(tmp_path, with_dual, basis)
        for json_flag in ([], ["--json"]):
            assert main([*json_flag, argv[0], str(p), *argv[1:]]) == 1
            assert capsys.readouterr() == ("", NOT_SPANNING_R3)

    @pytest.mark.parametrize("with_dual", [False, True])
    def test_classify_and_parseval_family_keep_their_reports(self, capsys, tmp_path, with_dual):
        p = _plane_document(tmp_path, with_dual)
        assert main(["classify", str(p)]) == 0
        assert "not a fusion frame (family does not span; lower bound 0)" in capsys.readouterr().out
        assert main(["construct", str(p), "--what", "parseval-family"]) == 1
        assert capsys.readouterr() == ("", "error: the family is not a Riesz fusion basis\n")


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

    @pytest.mark.parametrize("with_dual", [False, True])
    def test_tight_certificate_of_non_spanning_family_refused(self, capsys, tmp_path, with_dual):
        # the pair is built first, as for every other command on the document's dual pair
        p = _plane_document(tmp_path, with_dual)
        assert main(["certify", str(p), "--which", "tight"]) == 1
        assert capsys.readouterr().err == NOT_SPANNING_R3

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

    def test_parseval_family_without_dual_section(self, capsys, tmp_path):
        raw = json.loads(open(ORTHOBASIS).read())
        del raw["dual"]
        p = tmp_path / "orthobasis_no_dual.json"
        p.write_text(json.dumps(raw))
        result = run_json(capsys, ["construct", str(p), "--what", "parseval-family"])["result"]
        assert len(result["duals"]) == 2
        for dual in result["duals"]:
            assert dual["is_dual"] is True
            assert dual["residual"] <= DEFAULT_TOL.residual_eps
            assert dual["d1_operator"] == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _orthobasis_with_dual_weights(tmp_path, weights):
        raw = json.loads(open(ORTHOBASIS).read())
        for entry, weight in zip(raw["dual"]["subspaces"], weights):
            entry["weight"] = weight
        p = tmp_path / "orthobasis_weighted_dual.json"
        p.write_text(json.dumps(raw))
        return str(p)

    @pytest.mark.parametrize(
        "weights, refusal",
        [((5, 5), "dual.subspaces[0].weight: the Parseval family requires unit weights, got 5"),
         ((1, "1/3"), "dual.subspaces[1].weight: the Parseval family requires unit weights, got 0.333333333333")],
        ids=["both-5", "second-third"],
    )
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_parseval_family_refuses_non_unit_dual_weights(self, capsys, tmp_path, weights, refusal, flags):
        # the dual section's members become the family's extensions, which carry no weights: a weight
        # other than 1 would go unread, and a document that fails verify-dual would print a family
        argv = [*flags, "construct", self._orthobasis_with_dual_weights(tmp_path, weights), "--what", "parseval-family"]
        assert _outcome(capsys, argv) == _fresh_process(argv) == (1, "", f"error: {refusal}\n")

    def test_parseval_family_takes_dual_weights_within_residual_eps_as_unit(self, capsys, tmp_path):
        p = self._orthobasis_with_dual_weights(tmp_path, (1, "1000000000001/1000000000000"))
        argv = ["construct", p, "--what", "parseval-family"]
        assert _outcome(capsys, argv) == _outcome(capsys, ["construct", ORTHOBASIS, "--what", "parseval-family"])
        assert run_json(capsys, argv)["result"] == run_json(capsys, [*argv[:1], ORTHOBASIS, *argv[2:]])["result"]

    def test_parseval_family_refuses_dimension_one(self, capsys, tmp_path):
        # the one-dimensional Riesz basis bridges to a single vector, which has no erasure to measure
        p = tmp_path / "line.json"
        p.write_text(json.dumps({"ambient_dim": 1, "subspaces": [{"spanning_vectors": [[1]]}]}))
        assert _outcome(capsys, ["construct", str(p), "--what", "parseval-family"]) == (
            1, "", "error: nothing to erase: the Parseval family needs ambient_dim >= 2, got 1\n"
        )

    @pytest.mark.parametrize("turn", [0.5, 1.1])
    def test_parseval_family_of_nearly_parallel_lines(self, capsys, tmp_path, turn):
        lines = [[[np.cos(t), np.sin(t)]] for t in (turn, turn + np.radians(5))]
        p = tmp_path / "lines.json"
        p.write_text(json.dumps({"ambient_dim": 2, "subspaces": [{"weight": 1, "spanning_vectors": v} for v in lines]}))
        result = run_json(capsys, ["construct", str(p), "--what", "parseval-family"])["result"]
        for dual in result["duals"]:
            assert dual["is_dual"] is True
            assert dual["d1_operator"] == pytest.approx(1.0, abs=1e-9)

    def test_expand_variants_preserve_value(self, capsys):
        report = run_json(capsys, ["construct", OVERLAP, "--what", "expand", "--index", "3"])
        result = report["result"]
        assert result["variant_count"] == 3
        for entry in result["variants"]:
            assert entry["residual"] < 1e-9
            assert entry["d1_frobenius"] == pytest.approx(SQRT54, abs=1e-9)

    def test_expand_with_a_changed_component_exits_3(self, capsys, monkeypatch):
        build = optimality.make_dual_pair

        def corrupted(*args):
            built = build(*args)
            components = built.components.copy()
            components[0, 0, 0] += 1e-6
            return dataclasses.replace(built, components=components)

        monkeypatch.setattr(optimality, "make_dual_pair", corrupted)
        for flags in ([], ["--json"]):
            assert main([*flags, "construct", OVERLAP, "--what", "expand", "--index", "3"]) == 3
            assert capsys.readouterr() == (
                "",
                "error: internal check failed: emitted variant changed the error components (distance 1.000e-06)\n",
            )

    def test_expand_requires_index(self, capsys):
        assert main(["construct", OVERLAP, "--what", "expand"]) == 1
        assert "--index" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["bridge", "parseval-family"])
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_index_refused_outside_expand(self, capsys, what, flags):
        outcome = _outcome(capsys, [*flags, "construct", OVERCOMPLETE, "--what", what, "--index", "2"])
        assert outcome == (1, "", "error: construct --index applies to --what expand only\n")

    def test_bridge_emits_seven_vectors(self, capsys):
        report = run_json(capsys, ["construct", OVERCOMPLETE, "--what", "bridge"])
        result = report["result"]
        compact = np.array(result["compact_vectors"])
        assert compact.shape == (7, 3)
        assert np.abs(compact - OVERCOMPLETE_BRIDGED).max() < 1e-12
        assert result["kept_raw_indices"] == [1, 2, 4, 5, 7, 8, 9]

    def test_parseval_family_measures_each_value_once(self, capsys, monkeypatch):
        # the family's own checks are reported, not measured again
        calls = {"discrete_worst_case": 0, "verify_discrete_dual": 0}
        for name in calls:
            for module in (cli, optimality, fusionframes.discrete, fusionframes.erasures):
                if hasattr(module, name):
                    original = getattr(module, name)

                    def counted(*args, _name=name, _original=original, **kwargs):
                        calls[_name] += 1
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        result = run_json(capsys, ["construct", ORTHOBASIS, "--what", "parseval-family"])["result"]
        assert calls == {"discrete_worst_case": 2, "verify_discrete_dual": 3}
        assert [entry["d1_operator"] for entry in result["duals"]] == [1.0, 1.0]

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


# lines e1, e2, (1, 1) in R^2 at weight 1e-100: S_W^{-1} is about 1e200, so its squares overflow
_TINY_LINES = {"ambient_dim": 2, "subspaces": [{"spanning_vectors": [v], "weight": 1e-100} for v in ([1, 0], [0, 1], [1, 1])]}
# the second component, 5e199 in R^1, is finite; its square, and the reconstruction's, are not,
# so its norms and the dual residual are taken rescaled
_OVERFLOWING_PAIR = {
    "ambient_dim": 1,
    "subspaces": [{"spanning_vectors": [[2]], "weight": 1e-100}, {"spanning_vectors": [[1]], "weight": 1e-100}],
    "dual": {"subspaces": [{"spanning_vectors": [[1]]}, {"spanning_vectors": [[1]], "weight": 1e100}]},
}


class TestFreshProcessStderr:
    """Refusals seen as a user sees them: pytest turns a RuntimeWarning into an error, a fresh process prints it."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["certify", "{doc}", "--which", "dual"], "pair is not a verified dual (residual 5.000e+199)"),
            (["certify", PRESERVING, "--which", "dual"], "pair is not a verified dual (residual 7.849e-01)"),
        ],
        ids=["certify-dual", "fixture"],
    )
    def test_refusal_is_one_error_line(self, tmp_path, argv, message):
        doc = tmp_path / "pair.json"
        doc.write_text(json.dumps(_OVERFLOWING_PAIR))
        assert _fresh_process([a.format(doc=doc) for a in argv]) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "content, argv, message",
        [
            ({"ambient_dim": 2, "subspaces": [5]}, ["classify", "{doc}"], "subspaces[0]: expected an object with spanning_vectors"),
            (
                {"ambient_dim": 2, "subspaces": [{"spanning_vectors": []}]},
                ["classify", "{doc}"],
                "subspaces[0].spanning_vectors: expected a non-empty list",
            ),
            ([1], ["classify", "{doc}"], "{doc}: top level must be an object"),
            (
                {"ambient_dim": 2, "subspaces": [{"spanning_vectors": [[1, 0]]}, {"spanning_vectors": [[0, 1]]}], "basis": [[1, 0]]},
                ["classify", "{doc}"],
                "basis: expected 2 vectors",
            ),
            (None, ["classify", "{doc}"], "cannot read {doc}: [Errno 2] No such file or directory: '{doc}'"),
            ("directory", ["classify", "{doc}"], "cannot read {doc}: [Errno 21] Is a directory: '{doc}'"),
            (None, ["construct", OVERLAP, "--what", "expand", "--index", "9"], "member index 9 out of range 1..3"),
        ],
        ids=["member-not-object", "empty-spanning-vectors", "top-level-not-object", "basis-count", "missing-file", "directory", "expand-index"],
    )
    def test_document_and_index_refusals_are_one_error_line(self, tmp_path, capsys, content, argv, message):
        # in this process and in a fresh one: exit 1, no output and exactly one error line
        doc = tmp_path / "doc.json"
        if content == "directory":
            doc.mkdir()
        elif content is not None:
            doc.write_text(json.dumps(content))
        args, line = [a.format(doc=doc) for a in argv], f"error: {message.format(doc=doc)}\n"
        assert main(args) == 1
        assert capsys.readouterr() == ("", line)
        assert _fresh_process(args) == (1, "", line)

    @pytest.mark.parametrize("norm", ["frobenius", "operator"])
    @pytest.mark.parametrize(
        "argv, line", [(["--fixed", "2"], "value:        5e+199\n"), ([], "worst value:  5e+199\n")], ids=["fixed", "worst-case"]
    )
    def test_values_past_the_square_range_are_reported(self, tmp_path, argv, line, norm):
        # the Frobenius value was refused as "not finite", with its overflow warning silenced
        doc = tmp_path / "pair.json"
        doc.write_text(json.dumps(_OVERFLOWING_PAIR))
        code, out, err = _fresh_process(["erasure", str(doc), "--norm", norm, *argv])
        assert (code, err) == (0, "")
        assert line in out

    def test_canonical_certificate_of_tiny_weights(self, tmp_path):
        # the extremal value was inf, every member extremal and the verdict certified_optimal
        doc = tmp_path / "lines.json"
        doc.write_text(json.dumps(_TINY_LINES))
        code, out, err = _fresh_process(["certify", str(doc), "--which", "canonical"])
        assert (code, err) == (0, "")
        assert "extremal value c:    0.790569415042\nlambda1 (extremal):  {1, 2}\n" in out
        assert "verdict:             not_applicable\n" in out


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

    @pytest.mark.parametrize(
        "value",
        [
            [float("nan"), float("inf"), -float("inf"), -0.0, 0.0],
            {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "zero": -0.0},
            [2**70, -(2**70), 1.5],
            2**70,
            {},
            [],
            {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
            [[], [[]], [{}]],
            [1, True, 2.0],
            [None, 1.5, 2],
            [False, None],
            ["a", 1, 2.5],
            [1, "x, y", 2],
            "comma, space",
            {"k, v": "line\nbreak", "\u00e9t\u00e9": "caf\u00e9 \u2713", "tab": "\t"},
            (1, 2.5, (3, ("s", -0.0))),
            {"t": ((), (1,), [1, (2, 3)])},
            np.array([[1.0, -0.0], [np.nan, np.inf]]),
            np.zeros((2, 0)),
            1e-320,
            "",
            # lists of records, the erasure table's shape
            [{"subset": [1, 2], "value": 0.5}],
            [{"subset": [], "value": 1.0}, {"subset": [3], "value": 2.0}],
            [{"subset": [1], "value": 1.0}, {"subset": [2], "worth": 2.0}],
            [{"subset": [1], "value": 1.0}, {"subset": [2]}],
            [{"subset": [1, 2.5], "value": 1}, {"subset": [3, -0.0], "value": 2.0}],
            [{"subset": [True, 1], "value": 1.0}, {"subset": [2], "value": False}],
            [{"subset": [None], "value": None}, {"subset": [1], "value": 1.0}],
            [{"v": float("nan"), "s": [float("inf")]}, {"v": -float("inf"), "s": [-0.0, 1]}],
            [{"v": 2**70, "s": [-(2**70), 1]}, {"v": -0.0, "s": [1e-320, 1e308]}],
            ({"subset": (1, 2), "value": 0.5}, {"subset": [3, 4], "value": 1.5}),
            ({"subset": (), "value": 0.5},),
            [{"a": {"b": 1}, "c": 2}, {"a": {"b": 3}, "c": 4}],
            [{"a": [[1, 2]], "c": 2}, {"a": [[3]], "c": 4}],
            [{"a": ["x"], "c": 2}, {"a": [1], "c": 4}],
            [{"%s": 1, 'q"%d\n': [2, 3]}, {"%s": 4, 'q"%d\n': [5]}],
            [{"\u00e9": 1.0, "]": [1, 2]}, {"\u00e9": 2.0, "]": [3]}],
            [{}, {}],
            [{"a": 1}, [1], 2.0],
            {"table": [{"subset": [1, 2], "value": 0.25}, {"subset": [1, 3], "value": 1e-17}], "x": [[1], [2]]},
            # values two or more levels deep that json.dumps writes, indented to their depth
            {"a": {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf")}},
            {"a": [{"2": [1.5, {"x": None}], "1": [True, False]}]},
        ],
    )
    def test_json_writer_matches_json_dumps(self, value):
        _assert_writes_as_json_dumps(value)

    @seed(29)
    @settings(max_examples=300, deadline=None)
    @given(value=_json_trees())
    def test_json_writer_matches_json_dumps_on_generated_trees(self, value):
        _assert_writes_as_json_dumps(value)

    @pytest.mark.parametrize("level", range(4))
    @pytest.mark.parametrize(
        "r, m, rows",
        [(1, 4096, 4096), (1, 3, 3), (2, 6, 15), (3, 7, 35), (4, 8, 70), (5, 9, 126), (3, 30, 1), (5, 6, 1)],
        ids=str,
    )
    def test_table_writer_matches_json_dumps(self, r, m, rows, level):
        # (1, 4096) has four-digit indices; the last two are one-row tables
        table = _table(r, m, rows)
        assert len(table) == rows
        _assert_table_writes_as_json_dumps(table, level)

    @pytest.mark.parametrize("level", range(4))
    def test_empty_table_writes_as_empty_list(self, level):
        out: list[str] = []
        cli._json_chunks(cli._Table(), level, out)
        assert out == ["[]"]

    @seed(35)
    @settings(max_examples=200, deadline=None)
    @given(
        r=st.integers(1, 5),
        values=st.lists(st.floats(min_value=0, allow_infinity=False), min_size=1, max_size=8),
        level=st.integers(0, 3),
    )
    def test_table_writer_matches_json_dumps_on_generated_values(self, r, values, level):
        _assert_table_writes_as_json_dumps(_table(r, r + 8, len(values), values), level)

    @pytest.mark.parametrize(
        "value",
        [
            np.int64(-7),
            np.bool_(True),
            np.float32(0.5),
            frozenset({3, 1, 2}),
            {"s": frozenset()},
            [np.int64(4), 2.0],
            {2: [1], 1: "int keys", 0.5: "float key"},
            {True: "bool key"},
            {None: 1.0},
            {(1, 2): 3},
            [{1: 2.0, 2: [3.0]}, {1: 4.0, 2: [5.0]}],
        ],
    )
    def test_json_writer_refuses_values_no_report_holds(self, value):
        # numpy scalars, frozensets and non-str keys; np.float64 is a float, which json writes as one
        with pytest.raises(TypeError):
            _written(value)

    def test_command_results_hold_only_report_types(self, tmp_path):
        # what the writer's fast paths and its json.dumps fallback handle; anything else raises TypeError
        p = tmp_path / "random.json"
        document = _random_document(3, 5, 2, seed=26)
        p.write_text(json.dumps(document))
        dual = fusionframes.canonical_dual(parse_document(p).frame)
        document["dual"] = [
            {"weight": w, "spanning_vectors": s.basis.T.tolist()} for s, w in zip(dual.subspaces, dual.weights)
        ]
        document["basis"] = np.random.default_rng(26).standard_normal((3, 3)).tolist()
        p.write_text(json.dumps(document))
        results = []
        for path in [*map(str, sorted(FIXTURES.glob("*.json"))), str(p)]:
            for command, *flags in GOLDEN_COMMANDS:
                args = cli._build_parser().parse_args([command, path, *flags])
                try:
                    results.append(cli._COMMANDS[command](parse_document(path), args))
                except ValueError:
                    continue  # a refusal: no result to write
                _assert_report_types(results[-1], " ".join([command, Path(path).name, *flags]))
        assert len(results) == 53

    def test_generated_report_matches_json_dumps(self, tmp_path):
        # a (64, 200, 8) frame document: the echo carries 102,400 computed floats
        p = tmp_path / "large.json"
        p.write_text(json.dumps(_random_document(64, 200, 8, seed=101)))
        args = cli._build_parser().parse_args(["--json", "erasure", str(p), "--r", "1"])
        written = _assert_report_matches_json_dumps(args)
        assert len(json.loads(written)["result"]["table"]) == 200

    def test_large_erasure_table_matches_json_dumps(self, tmp_path):
        # C(30, 3) = 4,060 table rows, written from one row template
        p = tmp_path / "table.json"
        p.write_text(json.dumps(_random_document(8, 30, 3, seed=613)))
        args = cli._build_parser().parse_args(["--json", "erasure", str(p), "--r", "3", "--norm", "operator"])
        written = _assert_report_matches_json_dumps(args)
        assert len(json.loads(written)["result"]["table"]) == 4060

    def test_large_erasure_table_is_one_piece(self, tmp_path):
        # main writes each piece separately, so the table must not be a piece per row
        p = tmp_path / "table.json"
        p.write_text(json.dumps(_random_document(8, 30, 3, seed=613)))
        args = cli._build_parser().parse_args(["--json", "erasure", str(p), "--r", "3"])
        chunks = cli._report(args)
        assert len(json.loads("".join(chunks))["result"]["table"]) == 4060
        assert len(chunks) < 100

    def test_digest_present(self, capsys):
        report = run_json(capsys, ["classify", OVERLAP])
        assert len(report["input"]["sha256"]) == 64

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_input_is_read_once(self, capsys, monkeypatch, flags):
        # --json used to hash a second read of the file, which could hold other bytes
        reads = []
        for name in ("read_bytes", "read_text"):
            original = getattr(Path, name)
            monkeypatch.setattr(Path, name, lambda path, *a, _original=original, **k: (reads.append(path), _original(path, *a, **k))[1])
        assert main([*flags, "classify", OVERLAP]) == 0
        out = capsys.readouterr().out
        assert reads == [Path(OVERLAP)]
        if flags:
            with open(OVERLAP, "rb") as fh:
                assert json.loads(out)["input"]["sha256"] == hashlib.sha256(fh.read()).hexdigest()

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", OVERLAP],
            ["verify-dual", OVERLAP_DUAL],
            ["erasure", OVERLAP, "--r", "1"],
            ["erasure", OVERCOMPLETE, "--fixed", "1,2"],
            ["erasure", OVERLAP, "--fixed", "1,2"],
            ["certify", OVERLAP, "--which", "canonical"],
            ["certify", OVERLAP_DUAL, "--which", "dual"],
            ["certify", OVERLAP, "--which", "tight"],
            ["construct", OVERCOMPLETE, "--what", "bridge"],
            ["construct", OVERLAP, "--what", "expand", "--index", "1"],
            ["construct", ORTHOBASIS, "--what", "parseval-family"],
        ],
        ids=lambda argv: " ".join([Path(argv[1]).stem, argv[0], *argv[2:]]),
    )
    def test_every_command_parses_through_parse_document_once(self, capsys, monkeypatch, argv):
        docs = []
        parse = cli.parse_document
        monkeypatch.setattr(cli, "parse_document", lambda *a, **k: docs.append(parse(*a, **k)) or docs[-1])
        report = run_json(capsys, argv)
        assert len(docs) == 1
        digest = hashlib.sha256(Path(argv[1]).read_bytes()).hexdigest()
        assert report["input"]["sha256"] == docs[0].sha256 == digest

    @pytest.mark.parametrize(
        "data",
        [
            b'{"ambient_dim": 2,\r\n "subspaces":\r [\r\n oops]}',
            b'{\r"a":\r1,\r\rx}',
            b'{"ambient_dim": 2, "x": "\xff"}',
            b'{"ambient_dim": 2, "x": "' + b"a" * 20000 + b'\xc3"}',
            b'{"ambient_dim": 2, "x": "\xe2\x82',
            b'\xef\xbb\xbf{"ambient_dim": 2}',
        ],
        ids=["crlf", "cr", "bad-byte", "late-bad-byte", "truncated", "bom"],
    )
    def test_bytes_decode_as_read_text_does(self, tmp_path, capsys, data):
        # UTF-8 with universal newlines: line numbers and codec positions as before
        p = tmp_path / "doc.json"
        p.write_bytes(data)
        try:
            json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            expected = f"error: {p}: invalid JSON at line {exc.lineno}: {exc.msg}\n"
        except UnicodeDecodeError as exc:
            expected = f"error: {p}: not UTF-8: {exc}\n"
        assert main(["classify", str(p)]) == 1
        assert capsys.readouterr() == ("", expected)

    def test_tol_override(self, capsys):
        report = run_json(capsys, ["--tol", "1e-6", "classify", OVERLAP])
        assert report["tolerance"]["residual_eps"] == 1e-6

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_closed_stdout_exits_quietly(self, tmp_path, flags):
        # as `fusionframes ... | head -0` (text) and `fusionframes --json ... | head -1` (a report past any pipe buffer)
        p = tmp_path / "large.json"
        p.write_text(json.dumps(_random_document(16, 400, 8, seed=7)))
        read_end, write_end = os.pipe()
        if not flags:
            os.close(read_end)
        proc = subprocess.Popen([sys.executable, "-m", "fusionframes.cli", *flags, "classify", str(p)],
                                stdout=write_end, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        os.close(write_end)
        if flags:
            with open(read_end, "rb") as reader:
                assert reader.readline() == b"{\n"
        err = proc.communicate(timeout=120)[1]
        assert (proc.returncode, err) == (141, b"")


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParserReuse:
    SEQUENCE = (
        ["erasure", OVERCOMPLETE, "--fixed", "1,2"],
        ["erasure", OVERLAP, "--r", "2"],
        ["--tol", "1e-6", "classify", OVERLAP],
        ["erasure", OVERLAP],
        ["certify", OVERLAP, "--which", "bogus"],
        ["--json", "verify-dual", OVERLAP_DUAL],
    )

    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        parser = cli._build_parser()
        reused = []
        for argv in self.SEQUENCE:
            reused.append(_outcome(capsys, argv))
            assert cli._build_parser() is parser
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [_outcome(capsys, argv) for argv in self.SEQUENCE]
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0]
        assert "invalid choice: 'bogus'" in reused[4][2]
        assert reused == fresh

    def test_parser_is_not_built_at_import(self):
        probe = "import fusionframes.cli as cli; print(cli._build_parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert done.stdout == "0\n"


class TestParseReuse:
    """``parse_document`` keeps the last document it parsed, keyed by its bytes and the override."""

    PLANE = {"ambient_dim": 2, "subspaces": [{"spanning_vectors": [[1, 0]]}, {"spanning_vectors": [[1, 1]]}]}
    REFUSED = [
        ("{not json", "invalid JSON at line 1: Expecting property name enclosed in double quotes"),
        ({"ambient_dim": 2, "subspaces": []}, "subspaces: expected a non-empty list of subspaces"),
        ({**PLANE, "basis": [[1, 0], [0, "x"]]}, "basis[1][1]: cannot parse scalar 'x'"),
    ]

    def _write(self, tmp_path, doc) -> Path:
        p = tmp_path / "doc.json"
        p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return p

    @staticmethod
    def _count(monkeypatch, *names) -> dict:
        """Count the calls of ``Path.read_bytes``, ``hashlib.sha256`` and ``json.loads`` named in ``names``."""
        calls = dict.fromkeys(names, 0)
        owners = {"read_bytes": Path, "sha256": cli.hashlib, "loads": cli.json}
        for name in names:
            original = getattr(owners[name], name)

            def counted(*a, _name=name, _original=original, **k):
                calls[_name] += 1
                return _original(*a, **k)

            monkeypatch.setattr(owners[name], name, counted)
        return calls

    def test_same_bytes_and_tolerance_give_the_same_object(self, tmp_path, monkeypatch):
        p = self._write(tmp_path, self.PLANE)
        calls = self._count(monkeypatch, "read_bytes", "sha256", "loads")
        first = parse_document(p, 1e-6)
        assert parse_document(str(p), 1e-6) is first
        # the file is read on every call, and hashed and decoded once per kept document
        assert calls == {"read_bytes": 2, "sha256": 1, "loads": 1}
        assert first.sha256 == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_rewritten_bytes_parse_afresh(self, tmp_path):
        # neither the size nor the mtime stands in for the bytes: every rewrite restores the first mtime,
        # and the first rewrite, of one byte, also keeps the size
        p = self._write(tmp_path, self.PLANE)
        stamp = p.stat()
        docs = [parse_document(p)]
        one_byte = p.read_bytes().replace(b"[1, 1]", b"[1, 2]")
        wider = {**self.PLANE, "subspaces": [*self.PLANE["subspaces"], {"spanning_vectors": [[0, 1]]}]}
        for data in (one_byte, json.dumps(wider).encode()):
            p.write_bytes(data)
            os.utime(p, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
            docs.append(parse_document(p))
            assert docs[-1] is not docs[-2] and docs[-1].sha256 == hashlib.sha256(data).hexdigest()
        assert len(one_byte) == stamp.st_size and len({doc.sha256 for doc in docs}) == 3
        assert [doc.frame.member_count for doc in docs] == [2, 2, 3]
        np.testing.assert_allclose(docs[1].frame.subspaces[1].basis[:, 0], np.array([1, 2]) / np.sqrt(5))

    def test_another_tolerance_parses_afresh(self, tmp_path):
        p = self._write(tmp_path, self.PLANE)
        default, tight = parse_document(p), parse_document(p, 1e-6)
        assert tight is not default and tight.sha256 == default.sha256
        assert (default.tol, tight.tol.rank_eps) == (DEFAULT_TOL, 1e-6)
        assert parse_document(p, 1e-6) is tight
        assert parse_document(p, 1) is not tight

    @pytest.mark.parametrize("bad, error", REFUSED, ids=["json", "schema", "basis"])
    def test_refused_document_is_not_kept(self, tmp_path, capsys, bad, error):
        p = self._write(tmp_path, bad)
        assert main(["classify", str(p)]) == 1
        cold = capsys.readouterr()
        assert cold.out == "" and cold.err.startswith("error: ") and cold.err.endswith(error + "\n")
        outcomes, kept = [], []
        for doc in (self.PLANE, bad, self.PLANE):
            self._write(tmp_path, doc)
            outcomes.append((main(["classify", str(p)]), *capsys.readouterr()))
            kept.append(cli._last_parse)
        assert [code for code, _, _ in outcomes] == [0, 1, 0]
        assert outcomes[1][1:] == tuple(cold)
        assert outcomes[2] == outcomes[0]
        # the refusal neither replaced nor dropped the valid document, which the third call reused
        assert kept[0] is kept[1] is kept[2] is not None

    @pytest.mark.parametrize("bad, error", REFUSED, ids=["json", "schema", "basis"])
    def test_refused_document_is_never_hashed(self, tmp_path, capsys, monkeypatch, bad, error):
        p = self._write(tmp_path, self.PLANE)
        calls = self._count(monkeypatch, "sha256")
        assert _outcome(capsys, ["classify", str(p)])[0] == 0 and calls == {"sha256": 1}
        self._write(tmp_path, bad)
        for _ in range(2):
            code, out, err = _outcome(capsys, ["--json", "classify", str(p)])
            assert (code, out) == (1, "") and err.startswith("error: ") and err.endswith(error + "\n")
        assert calls == {"sha256": 1}

    def test_reused_parse_reports_the_file_digest(self, tmp_path, capsys):
        p = self._write(tmp_path, self.PLANE)
        assert main(["classify", str(p)]) == 0
        kept = cli._last_parse[1]
        capsys.readouterr()
        for argv in (["classify", str(p)], ["erasure", str(p), "--r", "1"]):
            report = run_json(capsys, argv)
            assert cli._last_parse[1] is kept
            assert report["input"]["sha256"] == hashlib.sha256(p.read_bytes()).hexdigest() == kept.sha256

    def test_arrays_are_read_only(self):
        doc = parse_document(ORTHOBASIS)
        arrays = [doc.basis, *(s.basis for frame in (doc.frame, doc.dual) for s in frame.subspaces)]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            doc.basis[0, 0] = 2.0
        assert parse_document(ORTHOBASIS) is doc and doc.basis[0, 0] == 1.0

    def test_json_echo_is_encoded_once_per_document(self, tmp_path, capsys, monkeypatch):
        p = self._write(tmp_path, self.PLANE)
        calls = []
        frame_document = cli._frame_document
        monkeypatch.setattr(cli, "_frame_document", lambda frame: calls.append(frame) or frame_document(frame))
        wider = {**self.PLANE, "subspaces": [*self.PLANE["subspaces"], {"spanning_vectors": [[0, 1]]}]}
        steps = [
            # (document written before the op, argv, echo encodings so far)
            (None, ["classify", str(p)], 0),
            (None, ["--json", "classify", str(p)], 1),
            (None, ["--json", "erasure", str(p), "--r", "1"], 1),
            (None, ["erasure", str(p), "--fixed", "1"], 1),
            (None, ["--json", "certify", str(p), "--which", "canonical"], 1),
            (None, ["--tol", "1e-6", "--json", "classify", str(p)], 2),
            # a refusal (this document has no dual section) encodes nothing
            (None, ["--tol", "1e-6", "--json", "verify-dual", str(p)], 2),
            (wider, ["--json", "classify", str(p)], 3),
            (wider, ["--json", "erasure", str(p), "--r", "2"], 3),
        ]
        for doc, argv, encoded in steps:
            if doc is not None:
                self._write(tmp_path, doc)
            outcome = _outcome(capsys, argv)
            assert len(calls) == encoded, argv
            assert outcome == _fresh_process(argv), argv

    @pytest.mark.parametrize(
        "path, argv",
        [
            (OVERLAP, ["erasure", "--r", "1"]),
            (OVERLAP, ["erasure", "--fixed", "1,2"]),
            (OVERLAP, ["certify", "--which", "tight"]),
            (OVERLAP, ["construct", "--what", "expand", "--index", "1"]),
            (OVERLAP_DUAL, ["verify-dual"]),
            (OVERLAP_DUAL, ["certify", "--which", "dual"]),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, list) else Path(x).stem,
    )
    def test_document_pair_is_built_once(self, capsys, monkeypatch, path, argv):
        monkeypatch.setattr(cli, "_last_parse", None)
        built = record_dual_pairs(monkeypatch)
        runs = []
        for json_flag in ([], ["--json"], []):
            built.clear()
            code, out, err = _outcome(capsys, [*json_flag, argv[0], path, *argv[1:]])
            assert code == 0, err
            # construct --what expand reports from the pairs expand_optimal_family verified
            runs.append((len(built), out))
        assert [document_pairs for document_pairs, _ in runs] == [1, 0, 0]
        assert runs[2][1] == runs[0][1]
        doc = parse_document(path)
        assert vars(doc)["_pair"][1] == ("canonical" if doc.dual is None else "file")

    def test_new_tolerance_or_bytes_build_a_new_pair(self, tmp_path, capsys, monkeypatch):
        p = self._write(tmp_path, self.PLANE)
        stamp = p.stat()
        built = record_dual_pairs(monkeypatch)
        wider = {**self.PLANE, "subspaces": [*self.PLANE["subspaces"], {"spanning_vectors": [[0, 1]]}]}
        steps = [
            # (document written before the op, with the first one's mtime; argv; pairs built so far)
            (None, ["erasure", str(p)], 1),
            (None, ["--json", "certify", str(p), "--which", "tight"], 1),
            (None, ["--tol", "1e-6", "erasure", str(p)], 2),
            (None, ["--tol", "1e-6", "erasure", str(p), "--fixed", "2"], 2),
            (wider, ["--tol", "1e-6", "erasure", str(p)], 3),
            (self.PLANE, ["erasure", str(p), "--fixed", "1"], 4),
        ]
        pairs = []
        for doc, argv, count in steps:
            if doc is not None:
                self._write(tmp_path, doc)
                os.utime(p, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
            outcome = _outcome(capsys, argv)
            assert outcome[0] == 0 and len(built) == count, argv
            assert outcome == _fresh_process(argv), argv
            pairs.append(vars(cli._last_parse[1])["_pair"][0])
        assert pairs[1] is pairs[0] and pairs[3] is pairs[2] and len({id(pair) for pair in pairs}) == 4

    @pytest.mark.parametrize("with_dual", [False, True], ids=["canonical", "file"])
    def test_refused_pair_is_not_kept(self, tmp_path, capsys, with_dual):
        p = _plane_document(tmp_path, with_dual)
        outcomes, docs = [], []
        for _ in range(2):
            outcomes.append(_outcome(capsys, ["erasure", str(p)]))
            docs.append(cli._last_parse[1])
        assert outcomes == [(1, "", NOT_SPANNING_R3)] * 2
        # the document is kept and reused; its pair, refused, is built afresh and refused again
        assert docs[0] is docs[1] and "_pair" not in vars(docs[0])

    def test_every_fixture_command_forward_then_reversed(self, monkeypatch):
        # one process, every op after the first on a document reusing its parse: the golden reports, byte for byte
        from test_fixture_golden import ROOT, _golden, fixture_ops, run_op

        monkeypatch.chdir(ROOT)
        golden = _golden()
        ops = fixture_ops()
        for argv in ops + ops[::-1]:
            assert run_op(argv) == golden[" ".join(argv)]
