"""The README's example session runs as written and with ``--json``, alike in this process and in a fresh one.

Each command runs twice in this process, where every call after the first
reuses the parser, and the second call reuses the document that the first
parsed (the worst-case erasure command also its dual pair, and a ``--json``
call the echo the first encoded). It runs once more in a fresh
``fusionframes`` process, which builds the parser and parses the document
once. All three calls exit 0 with the same stdout.
"""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fusionframes.cli as cli

ROOT = Path(__file__).resolve().parent.parent
SESSION = re.search(r"Example session:\s*```sh\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S).group(1)
COMMANDS = [shlex.split(line) for line in SESSION.splitlines() if line.strip()]
# the worst-case erasure command reads the document's dual pair, built by its first call only
PAIR_COMMAND = shlex.split("erasure fixtures/overlap_r4.json --r 1 --norm frobenius")


def test_session_is_five_fusionframes_commands():
    assert len(COMMANDS) == 5 and all(argv[0] == "fusionframes" for argv in COMMANDS), COMMANDS


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", [argv[1:] for argv in COMMANDS], ids=shlex.join)
def test_command_runs_alike_in_process_and_in_a_fresh_process(monkeypatch, argv, flags):
    monkeypatch.chdir(ROOT)
    args = flags + argv
    runs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(args)
        kept = cli._last_parse
        runs.append((code, out.getvalue().encode(), kept, kept and vars(kept[1]).get("_pair")))
    fresh = subprocess.run(
        [sys.executable, "-m", "fusionframes.cli", *args],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert runs[1][2] is runs[0][2] is not None
    if args[-len(PAIR_COMMAND) :] == PAIR_COMMAND:
        assert runs[1][3] is runs[0][3] is not None
    assert fresh.returncode == 0
    assert [run[:2] for run in runs] == [(0, fresh.stdout)] * 2
