"""Every command on every bundled fixture, text and --json, byte for byte.

``fixture_reports.json`` holds the exit status, stdout and stderr of each
op, run from the repository root with the fixture path relative to it, so
the echoed ``input.path`` does not depend on the checkout. A change that is
meant to alter a report lists the ops whose reports differ, writing nothing, with

    PYTHONPATH=src python tests/test_fixture_golden.py --diff

(under each op's argv, every differing line, old -> new, with the distance
in units in the last place of each number that changed, so a last-bit drift
reads apart from a real change of output), then regenerates the file with

    PYTHONPATH=src python tests/test_fixture_golden.py

and names the changed reports in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import math
import os
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import fusionframes.cli
import fusionframes.discrete
import fusionframes.fusion
from fusionframes import DiscreteFrame, FusionFrame, canonical_dual, canonical_pair, make_dual_pair
from fusionframes.cli import _text, main, parse_document
from helpers import record_dual_pairs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "fixture_reports.json"

FIXTURES = (
    "overlap_r4",
    "overlap_r4_extended_dual",
    "orthobasis_r3",
    "overcomplete_r3",
    "preserving_nondual_r3",
)

COMMANDS = (
    ("classify",),
    ("verify-dual",),
    ("erasure", "--r", "1", "--norm", "frobenius"),
    ("erasure", "--r", "1", "--norm", "operator"),
    ("erasure", "--fixed", "1,2"),
    ("certify", "--which", "canonical"),
    ("certify", "--which", "dual"),
    ("certify", "--which", "tight"),
    ("construct", "--what", "bridge"),
    ("construct", "--what", "expand", "--index", "1"),
    ("construct", "--what", "parseval-family"),
)


def fixture_ops() -> list[list[str]]:
    """argv of each op, 5 fixtures x 11 commands x (text, --json)."""
    return [
        ([] if text else ["--json"]) + [command, f"fixtures/{name}.json", *flags]
        for name in FIXTURES
        for command, *flags in COMMANDS
        for text in (True, False)
    ]


def run_op(argv: list[str]) -> dict:
    """Exit status, stdout and stderr of one in-process ``main(argv)`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict[str, dict]:
    return {" ".join(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def changed_ops(entries: list[dict]) -> list[list[str]]:
    """argv of each entry whose report differs from, or is missing in, ``fixture_reports.json``."""
    golden = _golden()
    return [entry["argv"] for entry in entries if golden.get(" ".join(entry["argv"])) != entry]


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def _ulps(a: float, b: float) -> int:
    """Distance between two finite doubles in units in the last place, across zero too."""
    ka, kb = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (a, b))
    ka, kb = (k if k >= 0 else -(k & (2**63 - 1)) for k in (ka, kb))
    return abs(ka - kb)


def _line_change(old: str, new: str) -> str:
    """``old -> new``, followed by the ulp distance of each changed number when only numbers changed."""
    shown = f"{old!r} -> {new!r}"
    if _NUMBER.split(old) != _NUMBER.split(new):
        return shown
    pairs = [(float(a), float(b)) for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new)) if a != b]
    if not all(math.isfinite(x) for pair in pairs for x in pair):
        return shown
    return f"{shown}  ({', '.join(f'{_ulps(a, b)} ulp' for a, b in pairs)})"


def report_changes(old: dict | None, new: dict) -> list[str]:
    """The differing parts of one op's report against its golden entry: each changed line of
    stdout and stderr as ``old -> new`` with its ulp distances, or the changed exit status."""
    if old is None:
        return ["  not in the golden file"]
    lines = [f"  exit: {old['exit']} -> {new['exit']}"] if old["exit"] != new["exit"] else []
    for stream in ("stdout", "stderr"):
        a, b = old[stream].splitlines(), new[stream].splitlines()
        for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
            if tag == "equal":
                continue
            paired = min(i2 - i1, j2 - j1) if tag == "replace" else 0
            for k in range(paired):
                lines.append(f"  {stream} line {i1 + k + 1}: {_line_change(a[i1 + k], b[j1 + k])}")
            lines += [f"  {stream} line {i + 1} removed: {a[i]!r}" for i in range(i1 + paired, i2)]
            lines += [f"  {stream} line {i1 + paired + 1} added: {line!r}" for line in b[j1 + paired : j2]]
    return lines


def _text_ops() -> list[list[str]]:
    """argv of each text op whose golden report exits 0."""
    golden = _golden()
    return [argv for argv in fixture_ops() if argv[0] != "--json" and golden[" ".join(argv)]["exit"] == 0]


def test_golden_covers_every_op():
    golden = _golden()
    assert sorted(golden) == sorted(" ".join(argv) for argv in fixture_ops())
    assert sum(entry["exit"] == 1 for entry in golden.values()) == 20
    assert len(_text_ops()) == 45


def test_diff_lists_the_changed_ops_only():
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert changed_ops(entries) == []
    entries[3] = {**entries[3], "stdout": entries[3]["stdout"] + " "}
    assert changed_ops(entries) == [entries[3]["argv"]]


def test_diff_prints_each_changed_line_with_its_ulps():
    old = {"argv": ["op"], "exit": 0, "stdout": 'a\n "value": 0.5,\nworst: 1.25 and 2\nz\n', "stderr": ""}
    new = {
        "argv": ["op"],
        "exit": 1,
        "stdout": 'a\n "value": 0.5000000000000001,\nworst: 1.5 and 2\nlabel: x\nz\nextra\n',
        "stderr": "error: x\n",
    }
    assert report_changes(old, new) == [
        "  exit: 0 -> 1",
        "  stdout line 2: ' \"value\": 0.5,' -> ' \"value\": 0.5000000000000001,'  (1 ulp)",
        f"  stdout line 3: 'worst: 1.25 and 2' -> 'worst: 1.5 and 2'  ({2**50} ulp)",
        "  stdout line 4 added: 'label: x'",
        "  stdout line 5 added: 'extra'",
        "  stderr line 1 added: 'error: x'",
    ]
    assert report_changes(new, {**new, "stdout": new["stdout"].replace("label: x", "label: y")}) == [
        "  stdout line 4: 'label: x' -> 'label: y'"
    ]
    assert report_changes(None, new) == ["  not in the golden file"]
    assert _ulps(-0.0, 0.0) == 0 and _ulps(-5e-324, 5e-324) == 2


@pytest.mark.parametrize("argv", fixture_ops(), ids=" ".join)
def test_fixture_report_is_byte_identical(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_op(argv) == _golden()[" ".join(argv)]


@pytest.mark.parametrize("argv", _text_ops(), ids=" ".join)
def test_text_report_is_a_view_of_the_json_result(argv, monkeypatch):
    # the text report holds nothing that the --json result does not
    monkeypatch.chdir(ROOT)
    text = run_op(argv)
    report = json.loads(run_op(["--json", *argv])["stdout"])
    assert text["exit"] == 0
    assert text["stdout"] == "\n".join(_text(argv[0], report["result"])) + "\n"


# (S_W builds, S_F builds) of ops whose several consumers of S^{-1} or S^{-1/2} share one spectrum
_PINNED = {
    "erasure fixtures/overcomplete_r3.json --fixed 1,2": (1, 1),
    "certify fixtures/overlap_r4.json --which tight": (1, 0),
    "construct fixtures/orthobasis_r3.json --what parseval-family": (1, 1),
    "construct fixtures/overlap_r4.json --what expand --index 1": (1, 0),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_each_frame_operator_is_decomposed_once(name, monkeypatch):
    # every op builds S_W of the document's frame, and S_F of a bridged frame,
    # at most once each, and decomposes each operator it builds exactly once
    monkeypatch.chdir(ROOT)
    built, decomposed = [], []
    for module, attr in ((fusionframes.fusion, "frame_operator"), (fusionframes.discrete, "discrete_frame_operator")):
        def build(frame, _original=getattr(module, attr)):
            built.append(frame)
            return _original(frame)

        monkeypatch.setattr(module, attr, build)
    for attr in ("eigh", "eigvalsh"):
        def decompose(a, *args, _original=getattr(np.linalg, attr), **kwargs):
            if np.ndim(a) == 2:  # a frame operator; the operator norm decomposes (b, k, k) Gram stacks
                decomposed.append(a)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, attr, decompose)
    pairs = record_dual_pairs(monkeypatch)
    ops = [argv for argv in fixture_ops() if f"fixtures/{name}.json" in argv]
    assert len(ops) == 2 * len(COMMANDS)
    for argv in ops:
        # cold: the document is parsed afresh, as in a new process
        fusionframes.cli._last_parse = None
        built.clear()
        decomposed.clear()
        assert run_op(argv) == _golden()[" ".join(argv)]
        counts = tuple(sum(isinstance(f, kind) for f in built) for kind in (FusionFrame, DiscreteFrame))
        assert counts[0] <= 1 and counts[1] <= 1 and sum(counts) == len(built), argv
        assert len(decomposed) == len(built), argv
        key = " ".join(a for a in argv if a != "--json")
        assert counts == _PINNED.get(key, counts), argv
        # warm: the same op again reuses the parsed frame, whose S_W is already decomposed, and
        # its dual pair; construct --what expand reports from the pairs expand_optimal_family verified
        built.clear()
        decomposed.clear()
        pairs.clear()
        warm = run_op(argv)
        assert warm == _golden()[" ".join(argv)]
        assert not any(isinstance(f, FusionFrame) for f in built), argv
        assert len(decomposed) == len(built) == counts[1], argv
        assert not pairs, argv

    w = parse_document(f"fixtures/{name}.json").frame
    pair, reference = canonical_pair(w), make_dual_pair(w, canonical_dual(w))
    for attr in ("s_inv", "components", "reconstruction"):
        assert np.array_equal(getattr(pair, attr), getattr(reference, attr))


@pytest.mark.parametrize("text", [True, False], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, frames",
    [
        (["construct", "fixtures/overlap_r4.json", "--what", "expand", "--index", "1"], [FusionFrame]),
        (["erasure", "fixtures/overcomplete_r3.json", "--fixed", "1,2"], [FusionFrame, DiscreteFrame]),
    ],
    ids=["expand", "fixed-discrete"],
)
def test_each_inverse_is_formed_once_per_frame(argv, frames, text, monkeypatch):
    # S^{-1} had been re-formed by each consumer: 6 times for expand, 3 times (S_F) for the bridged --fixed op
    monkeypatch.chdir(ROOT)
    formed = []

    def form(frame, root, _original=fusionframes.fusion._inverse_form):
        formed.append((frame, root))
        return _original(frame, root)

    monkeypatch.setattr(fusionframes.fusion, "_inverse_form", form)
    argv = argv if text else ["--json", *argv]
    assert run_op(argv) == _golden()[" ".join(argv)]
    assert [(type(frame), root) for frame, root in formed] == [(kind, False) for kind in frames]
    # the same op again reuses the parsed frame and its S_W^{-1}; only a per-op bridged frame forms S_F^{-1}
    formed.clear()
    assert run_op(argv) == _golden()[" ".join(argv)]
    per_op = [(kind, False) for kind in frames if kind is DiscreteFrame]
    assert [(type(frame), root) for frame, root in formed] == per_op


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--diff"]):
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    os.chdir(ROOT)
    entries = [run_op(argv) for argv in fixture_ops()]
    if sys.argv[1:]:
        golden = _golden()
        for argv in changed_ops(entries):
            key = " ".join(argv)
            print(key)
            print("\n".join(report_changes(golden.get(key), next(e for e in entries if e["argv"] == argv))))
    else:
        GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(entries)} ops to {GOLDEN}", file=sys.stderr)
