"""Every function and method defined in ``src/hptsums`` is entered by some
CLI command: the package ships what its commands run, and the second routes
that cross-check it live in ``tests/reference.py``.

A fixed list of argvs runs in this process under ``sys.settrace``, which
records the code of every frame entered.  It covers every command in every
format, ``--q-list``, ``--reduced`` and ``-o``, a truncation of each command
that truncates, and each kind of usage error: a command's own check, a
library ``ValueError``, an argparse error and an unwritable ``-o``.
"""
import ast
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import hptsums
from hptsums.cli import main

SRC = Path(hptsums.__file__).resolve().parent

# Entered by no command, and kept: the methods that make values comparable,
# hashable and printable, and the console-script wrapper around cli.main.
ALLOWED_NAMES = {"__eq__", "__hash__", "__repr__"}
ALLOWED = {"cli.entry"}

COMMANDS = [
    ["row", "--q", "6", "--n", "3"],
    ["sums", "--q", "6", "--k", "3", "--n-max", "4", "--state-vectors"],
    ["recurrence", "--k", "0"],
    ["recurrence", "--k", "1"],
    ["recurrence", "--k", "9"],
    ["table", "--k-max", "12"],
    ["verify", "--k-range", "0..3", "--q-list", "5,6", "--cap", "1000",
     "--reduced"],
    ["conjecture", "--k-min", "2", "--k-max", "11"],
]

# (argv, exit code); {out} is a writable path, {missing} one in a missing
# directory.
EDGES = [
    (["recurrence", "--k", "2", "-o", "{out}"], 0),
    (["row", "--q", "6", "--n", "10", "--entry-cap", "10"], 1),
    (["sums", "--q", "6", "--k", "2", "--n-max", "10", "--entry-cap", "50"],
     1),
    (["sums", "--q", "6", "--k", "-1", "--n-max", "3"], 2),
    (["sums", "--q", "6", "--k", "1", "--n-max", "3", "--state-vectors"], 2),
    (["sums", "--q", "6", "--k", "40000", "--n-max", "4", "--state-vectors"],
     2),
    (["row", "--q", "4", "--n", "1"], 2),
    (["recurrence", "--k", "-1"], 2),
    (["verify", "--q-list", "4"], 2),
    (["verify", "--k-range", "3..2"], 2),
    (["verify", "--q-list", "5,x"], 2),
    (["table", "--k-max", "-1"], 2),
    (["conjecture", "--k-min", "1", "--k-max", "3"], 2),
    (["conjecture", "--k-min", "3", "--k-max", "2"], 2),
    (["recurrence", "--k", "2", "-o", "{missing}"], 2),
]


def _defined_functions() -> dict:
    """(file, first line) -> module.qualname for every def in the package.

    A code object's first line is that of its first decorator, if any."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                found[(path, line)] = f"{prefix}.{child.name}"
                walk(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), path.stem)
    return found


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            return exc.code


def test_every_function_is_entered_by_a_command(tmp_path):
    runs = [(argv + ["--format", fmt], 0)
            for argv in COMMANDS for fmt in ("plain", "json", "csv")]
    runs += [([a.format(out=tmp_path / "out.txt",
                        missing=tmp_path / "missing" / "out.txt")
               for a in argv], code) for argv, code in EDGES]
    entered = set()

    def record(frame, event, arg):
        entered.add(frame.f_code)  # only "call" events reach this function

    previous = sys.gettrace()
    sys.settrace(record)
    try:
        codes = [_run(argv) for argv, _ in runs]
    finally:
        sys.settrace(previous)

    assert codes == [code for _, code in runs]
    assert (tmp_path / "out.txt").read_text().startswith("k=2 order=4")
    seen = {(os.path.realpath(c.co_filename), c.co_firstlineno)
            for c in entered}
    missed = sorted(name for key, name in _defined_functions().items()
                    if key not in seen and name not in ALLOWED
                    and name.rsplit(".", 1)[1] not in ALLOWED_NAMES)
    assert not missed, "functions no command enters: " + ", ".join(missed)


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports the package from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)


def test_importing_the_cli_loads_no_code_generation_modules():
    # Every command is its own process and pays this import.  dataclasses
    # (with inspect, ast, dis and tokenize) took 13-17 ms of it; typing is
    # not needed for annotations under `from __future__ import annotations`.
    # The set difference keeps this right where site preloads some of them.
    proc = _fresh_python("import sys; before = set(sys.modules); "
                         "import hptsums.cli; "
                         "print(*sorted(set(sys.modules) - before))")
    loaded = set(proc.stdout.split())
    assert "hptsums.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize",
                         "typing"}


def test_each_command_loads_only_the_modules_it_runs():
    # Importing the CLI loads no package module; each command loads its own.
    # recurrence, the product and the derive workload, runs no check (verify,
    # tables), builds no row (triangle) and writes no csv.
    proc = _fresh_python(
        "import sys; before = set(sys.modules); import hptsums.cli; "
        "print(*sorted(set(sys.modules) - before), file=sys.stderr); "
        "before = set(sys.modules); "
        "hptsums.cli.main(['recurrence', '--k', '2', '--format', 'json']); "
        "print(*sorted(set(sys.modules) - before), file=sys.stderr)")
    on_import, on_run = (set(line.split())
                         for line in proc.stderr.splitlines())
    assert {m for m in on_import if m.startswith("hptsums")} == {
        "hptsums", "hptsums.cli"}
    assert "hptsums.systembuilder" in on_run
    assert not on_run & {"hptsums.verify", "hptsums.triangle",
                         "hptsums.tables", "hptsums.sums", "csv"}
    assert proc.stdout.startswith('{"k": 2, "order": 4')

    # conjecture derives recurrences and reads no rows: it loads
    # systembuilder, and tables only for MAX_TABLED_K.  Neither command
    # loads sums: the fold of the reduced system lives in systembuilder.
    proc = _fresh_python(
        "import sys; import hptsums.cli; before = set(sys.modules); "
        "hptsums.cli.main(['conjecture', '--k-min', '2', '--k-max', '3', "
        "'--format', 'json']); "
        "print(*sorted(set(sys.modules) - before), file=sys.stderr)")
    on_run = set(proc.stderr.split())
    assert "hptsums.systembuilder" in on_run
    assert not on_run & {"hptsums.verify", "hptsums.triangle",
                         "hptsums.sums", "csv"}
    assert proc.stdout.startswith('[\n  {\n    "k": 2,\n    "stripped_order": 4')
