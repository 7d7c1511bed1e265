"""CLI output pinned byte for byte: the sha256 of stdout and the exit code of
a fixed list of invocations, recorded in ``cli_golden.json``.

A refactor must leave every entry unchanged.  A deliberate change of output
is announced in CHANGES.md and re-recorded with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from gpdescent.cli import ENV_BOUND, main
from gpdescent.core import partitions

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _shapes(top: int) -> list[str]:
    return [",".join(map(str, lam)) for n in range(top + 1) for lam in partitions(n)]


def invocations() -> list[list[str]]:
    calls = []
    for shape in _shapes(5):
        calls.append(["verify", shape])
        calls.append(["--format", "table", "verify", shape])
    for shape in _shapes(6):
        calls.append(["hall-littlewood", shape])
        calls.append(["hall-littlewood", shape, "--twisted"])
    for kind in ("D", "Jmaj", "R0", "PF0"):
        for shape in _shapes(5):
            calls.append(["enumerate", kind, shape])
    return calls


def observe(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}


def test_cli_output_matches_golden(monkeypatch):
    monkeypatch.delenv(ENV_BOUND, raising=False)
    golden = json.loads(GOLDEN.read_text())
    calls = invocations()
    assert sorted(golden) == sorted(" ".join(argv) for argv in calls)
    changed = [" ".join(argv) for argv in calls if observe(argv) != golden[" ".join(argv)]]
    assert not changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    os.environ.pop(ENV_BOUND, None)
    record = {" ".join(argv): observe(argv) for argv in invocations()}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
