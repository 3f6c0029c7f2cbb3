"""The README's ledger of the paper's claims: each covered row's command, run, prints the row's numbers.

A row that is not yet covered gets no test here; the ledger names the
ROADMAP item that would cover it.
"""

import json
import re
import shlex
from pathlib import Path

from fusionframes.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _ledger_row(number: int) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Paper claims\n(.*?)(?=^## |\Z)", readme, re.S | re.M).group(1)
    return re.search(rf"^\| {number} \|.*$", section, re.M).group(0)


def test_row_4_parseval_family_of_a_riesz_fusion_basis(capsys):
    # "we obtain an overcomplete frame and a family of associated optimal duals by a given Riesz fusion basis"
    command = "fusionframes construct fixtures/orthobasis_r3.json --what parseval-family"
    row = _ledger_row(4)
    assert f"`{command}`" in row
    argv = [str(ROOT / arg) if arg.startswith("fixtures/") else arg for arg in shlex.split(command)[1:]]
    assert main(["--json", *argv]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    # an overcomplete frame: six bridged vectors, five nonzero, in R^3, Parseval to rounding
    assert len(result["frame_vectors"]) == 6 and len(result["compact_vectors"]) == 5
    assert f"{result['parseval_residual']:.2e}" == "6.28e-16"
    assert "Parseval residual 6.28e-16" in row
    # two duals, each verified, each with worst single-erasure operator error exactly 1
    assert [dual["is_dual"] for dual in result["duals"]] == [True, True]
    assert [f"{dual['residual']:.2e}" for dual in result["duals"]] == ["1.74e-32", "1.74e-32"]
    assert "both duals verify (residual 1.74e-32 each)" in row
    assert [dual["d1_operator"] for dual in result["duals"]] == [1.0, 1.0]
    assert "worst single-erasure operator error exactly 1.0 for each" in row
