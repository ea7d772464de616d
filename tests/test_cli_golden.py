"""Golden CLI outputs: exit code, stdout, stderr and the ``-o`` file, byte
for byte, for every command in plain, json and csv.

``golden/cli.json`` holds one capture per argv, taken in-process from the
CLI before its output code was rewritten around one writer.  ``{out}`` in an
argv stands for a fresh file path; its content is stored under ``file``.
"""
import json
from pathlib import Path

import pytest

from hptsums.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_matches_golden(case, capsys, monkeypatch, tmp_path):
    # argparse wraps its usage message to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    target = tmp_path / "out.txt"
    argv = [a.replace("{out}", str(target)) for a in case["argv"]]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) \
        == (case["exit"], case["stdout"], case["stderr"])
    if "file" in case:
        assert target.read_text(encoding="utf-8") == case["file"]
