"""Smoke test of the benchmark itself: tiny workloads, metric names, and the checker.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from check import Checker  # noqa: E402
from fusionframes import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_documents_are_reproducible():
    assert workloads.document(5, 4, 6, 2, basis=True) == workloads.document(5, 4, 6, 2, basis=True)
    assert workloads.document(5, 4, 6, 2) != workloads.document(6, 4, 6, 2)


def _outcome(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    return code, out.getvalue(), err.getvalue()


def _corruptions(text: str):
    report = json.loads(text)
    result = report["result"]
    assert len(result["argmax_subsets"]) >= 2
    perturbed = json.loads(text)
    perturbed["result"]["worst_value"] = result["worst_value"] * (1 + 1e-6)
    dropped = json.loads(text)
    dropped["result"]["argmax_subsets"] = result["argmax_subsets"][:-1]
    return [json.dumps(perturbed), json.dumps(dropped)]


def test_checker_fails_a_corrupted_fixture_report():
    op = next(op for op in workloads.fixtures_workload(ROOT).ops
              if op.key == "overlap_r4:json:erasure overlap_r4 --r 1 --norm frobenius")
    code, out, err = _outcome(op)
    assert Checker(use_expected=True).check(op, code, out, err)
    for bad in _corruptions(out):
        assert not Checker(use_expected=True).check(op, code, bad, err)


def test_checker_fails_a_corrupted_generated_report(tmp_path):
    # every member appears twice, so the worst single erasure is attained at least twice
    doc = json.loads(workloads.document(7, 3, 4, 1))
    doc["subspaces"] += doc["subspaces"]
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(doc))
    op = workloads.cli_op(str(path), "twin", "erasure", {"r": 1, "norm": "operator"}, True)
    code, out, err = _outcome(op)
    assert Checker(use_expected=False).check(op, code, out, err)
    for bad in _corruptions(out):
        checker = Checker(use_expected=False)
        assert not checker.check(op, code, bad, err)
        assert checker.problems


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    for workload in workloads.WORKLOADS:
        done = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
