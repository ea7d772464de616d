import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

import hptsums
from hptsums import (cli, exactalg, sums, systembuilder, tables, triangle,
                     verify)
from hptsums.cli import main
from hptsums.systembuilder import recurrence_for_k
from reference import QONE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


def test_row_plain(capsys):
    code, out, _ = run(capsys, "row", "--q", "6", "--n", "3")
    assert code == 0 and out == "1B 3A 2B 2B 3A 1B"


def test_row_n0(capsys):
    code, out, _ = run(capsys, "row", "--q", "6", "--n", "0")
    assert code == 0 and out == "1B"


def test_row_invalid_q(capsys):
    code, _, err = run(capsys, "row", "--q", "4", "--n", "1")
    assert code == 2 and "q must be >= 5" in err


def test_row_truncation(capsys):
    code, _, err = run(capsys, "row", "--q", "6", "--n", "10",
                       "--entry-cap", "10")
    assert code == 1 and "entry cap" in err


def test_row_past_the_cap_under_1gib_address_space():
    # Row 5 at q=1000 holds 9.9e8 entries; the cap is decided from the row
    # sizes, so no row past it is built.
    proc = run_under_1gib("row", "--q", "1000", "--n", "5")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: row 5 exceeds the entry cap of 1000000 "
               "(last generated row: 4)\n")


GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", [
    ("row", "--q", "6", "--n", "10", "--entry-cap", "10"),
    ("sums", "--q", "6", "--k", "2", "--n-max", "10", "--entry-cap", "50")])
def test_truncation_builds_no_row_past_the_cap(capsys, monkeypatch, argv):
    # row decides its entry cap before it builds any row; sums streams rows
    # while the next one fits its key cap, so none it builds holds more
    # than 50 keys.
    sizes = []
    real_pairs = triangle.next_pairs

    def refuse(*args):
        raise AssertionError("row built a row past its entry cap")

    def next_pairs(*args):
        ab, bb = out = real_pairs(*args)
        sizes.append(len(ab) + len(bb))
        return out

    monkeypatch.setattr(triangle, "next_row", refuse)
    monkeypatch.setattr(triangle, "next_pairs", next_pairs)
    (case,) = [c for c in GOLDEN if c["argv"] == [*argv, "--format", "plain"]]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (case["exit"], "", case["stderr"])
    assert max(sizes, default=0) <= int(argv[-1])


def test_row_json_deterministic(capsys):
    code, out1, _ = run(capsys, "row", "--q", "6", "--n", "3",
                        "--format", "json")
    code2, out2, _ = run(capsys, "row", "--q", "6", "--n", "3",
                         "--format", "json")
    assert code == code2 == 0 and out1 == out2
    assert json.loads(out1)["entries"][1] == [3, "A"]


def test_sums_plain(capsys):
    code, out, _ = run(capsys, "sums", "--q", "6", "--k", "2",
                       "--n-max", "4")
    assert code == 0
    assert [int(line.split()[-1]) for line in out.splitlines()] \
        == [2, 6, 28, 160]


def test_sums_k1(capsys):
    code, out, _ = run(capsys, "sums", "--q", "6", "--k", "1",
                       "--n-max", "3")
    assert code == 0
    assert out.splitlines()[-1].endswith("12")


def test_sums_state_vectors(capsys):
    code, out, _ = run(capsys, "sums", "--q", "6", "--k", "2", "--n-max",
                       "4", "--state-vectors", "--format", "json")
    payload = json.loads(out)
    assert payload["rows"][-1]["state_vector"] == [98, 49, 62, 34]


@pytest.mark.parametrize("k", ["0", "1"])
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_sums_state_vectors_need_k2(capsys, k, fmt):
    code, out, err = run(capsys, "sums", "--q", "6", "--k", k, "--n-max",
                         "3", "--state-vectors", "--format", fmt)
    assert (code, out, err) == (2, "", "error: state vectors need k >= 2\n")


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_sums_prints_integers_of_any_length(capsys, fmt):
    # Row 2 at q=5 is 1B 2A 1B, so (s^15000)_2 = 2**15000 + 2 has 4516
    # digits, past the interpreter's default int-to-str limit of 4300.
    code, out, err = run(capsys, "sums", "--q", "5", "--k", "15000",
                         "--n-max", "2", "--format", fmt)
    assert (code, err) == (0, "")
    expected = 2**15000 + 2
    assert len(str(expected)) == 4516
    if fmt == "json":
        assert json.loads(out)["rows"][-1] == {"n": 2, "power_sum": expected}
    else:
        assert out.splitlines() == ["n=1: 2", f"n=2: {expected}"]


def test_sums_computes_only_the_printed_power(capsys):
    # sums --k K prints k = K alone and computes no power below it: holding
    # every power sum up to K kept about K**2 / 2 bits per distinct value,
    # a 168 MiB peak here.
    tracemalloc.start()
    try:
        code = main(["sums", "--q", "6", "--k", "20000", "--n-max", "4",
                     "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20, peak
    rows = islice(triangle.entry_rows(triangle.TriangleParams(6)), 1, 5)
    assert [r["power_sum"] for r in json.loads(capsys.readouterr().out)
            ["rows"]] == [sum(v**20000 for v, _ in row) for row in rows]


class CountedInt(int):
    """An int that counts its conversions to text; a sum with it is one."""
    conversions = 0

    def __add__(self, other):
        return CountedInt(int(self) + other)

    def __str__(self):
        CountedInt.conversions += 1
        return int.__repr__(self)

    def __format__(self, spec):
        CountedInt.conversions += 1
        return format(int(self), spec)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_sums_renders_only_the_printed_format(capsys, monkeypatch, fmt):
    # json dumps the numbers itself; the plain lines and the csv table turn
    # them into text only when they are the format printed.
    real_tags, real_vectors = sums.tag_power_sums, sums.state_vectors

    def tags(pairs, ks):
        return tuple({k: CountedInt(v) for k, v in d.items()}
                     for d in real_tags(pairs, ks))

    def vectors(pairs, ks, tag_sums):
        return [list(map(CountedInt, g))
                for g in real_vectors(pairs, ks, tag_sums)]

    monkeypatch.setattr(sums, "tag_power_sums", tags)
    monkeypatch.setattr(sums, "state_vectors", vectors)
    monkeypatch.setattr(CountedInt, "conversions", 0)
    code, out, _ = run(capsys, "sums", "--q", "6", "--k", "3", "--n-max", "4",
                       "--state-vectors", "--format", fmt)
    assert code == 0
    # 4 rows, each a power sum and a state vector of 5 numbers.
    assert CountedInt.conversions == (0 if fmt == "json" else 4 * 6)
    last = {"plain": "n=4: 600  state=[442, 221, 121, 158, 86]",
            "csv": "4,600,442 221 121 158 86"}
    if fmt == "json":
        assert json.loads(out)["rows"][3] == {
            "n": 4, "power_sum": 600, "state_vector": [442, 221, 121, 158, 86]}
    else:
        assert out.splitlines()[-1] == last[fmt]


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_recurrence_formats_only_the_printed_output(capsys, monkeypatch,
                                                    fmt):
    # json dumps the coefficient lists; the plain lines and the csv table
    # format each coefficient and initial value only when they are printed.
    calls = []
    real = exactalg.format_qpoly
    monkeypatch.setattr(exactalg, "format_qpoly",
                        lambda p: calls.append(p) or real(p))
    code, out, _ = run(capsys, "recurrence", "--k", "2", "--format", fmt)
    assert code == 0
    # k = 2: four coefficients and four initial values
    assert len(calls) == (0 if fmt == "json" else 8)
    last = {"plain": "  initial values (n=1..4): 2, 6, 4q+4, 4q^2+6q-20",
            "csv": "2,q+2,-q-7,8,-2,1,full,2,6,4q+4,4q^2+6q-20",
            "json": '"variant": "full"}'}
    assert out.splitlines()[-1].endswith(last[fmt])


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_conjecture_builds_only_the_printed_lines(capsys, monkeypatch, fmt):
    # json dumps the findings; the plain lines, which csv prints too, turn
    # them into text only when they are printed.
    real = systembuilder.probe_conjecture

    def counted(k_min, k_max):
        findings = real(k_min, k_max)
        for f in findings:
            f["k"] = CountedInt(f["k"])
        return findings

    monkeypatch.setattr(systembuilder, "probe_conjecture", counted)
    monkeypatch.setattr(CountedInt, "conversions", 0)
    code, out, _ = run(capsys, "conjecture", "--k-min", "2", "--k-max", "5",
                       "--format", fmt)
    assert code == 0
    assert CountedInt.conversions == (0 if fmt == "json" else 4)
    if fmt == "json":
        assert [f["k"] for f in json.loads(out)] == [2, 3, 4, 5]
    else:
        assert out.splitlines()[-1].startswith("k=5: order 5 vs")


def test_recurrence_json_schema(capsys):
    code, out, _ = run(capsys, "recurrence", "--k", "2", "--format", "json")
    payload = json.loads(out)
    assert payload == {
        "k": 2, "order": 4,
        "coefficients": [[2, 1], [-7, -1], [8], [-2]],
        "x_strip_count": 1,
        "initial_values": [[2], [6], [4, 4], [-20, 6, 4]],
        "variant": "full",
    }


def test_recurrence_k0(capsys):
    code, out, _ = run(capsys, "recurrence", "--k", "0", "--format", "json")
    assert json.loads(out)["coefficients"] == [[-1, 1], [1, -1], [1]]


def test_recurrence_k5_plain(capsys):
    code, out, _ = run(capsys, "recurrence", "--k", "5")
    assert "c1 = q+11" in out and "c4 = -10q+88" in out and "c5 = -10" in out


def test_recurrence_csv(capsys):
    code, out, _ = run(capsys, "recurrence", "--k", "2", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == \
        "k,c1,c2,c3,c4,x_strip_count,variant,iv1,iv2,iv3,iv4"
    assert lines[1] == "2,q+2,-q-7,8,-2,1,full,2,6,4q+4,4q^2+6q-20"


def run_under_1gib(*argv):
    """The CLI in a child process; the 1 GiB address-space cap applies to
    the child only."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(hptsums.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "hptsums.cli", *argv], env=env,
        preexec_fn=cap_address_space, capture_output=True, text=True)


def test_recurrence_past_the_k_bound_exits_2_under_1gib():
    # k is checked before any matrix is built: a 100002-dimensional system
    # would not fit in the address space, and its derivation would not end.
    proc = run_under_1gib("recurrence", "--k", "100000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: k must be <= 256, not 100000\n"


@pytest.mark.parametrize("argv", [
    ["recurrence", "--k", "257"],
    ["conjecture", "--k-min", "2", "--k-max", "257"],
    ["table", "--k-max", "257"],
    ["verify", "--k-range", "2..257"],
])
def test_every_derivation_checks_the_k_bound_first(capsys, monkeypatch, argv):
    # One bound, systembuilder.MAX_K, checked on the largest k before any
    # matrix is built: a build here would fail the test.
    def no_build(k):
        raise AssertionError(f"built the matrix of k = {k}")

    monkeypatch.setattr(systembuilder, "build_reduced_matrix", no_build)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: k must be <= 256, not 257\n"
    assert systembuilder.MAX_K == 256
    systembuilder.check_k(256)


def test_recurrence_k32_k64_under_1gib_address_space():
    # Initial values come from the system's orbit, not from rows, so a large
    # k stays small.
    for k in (32, 64):
        proc = run_under_1gib("recurrence", "--k", str(k), "--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["k"] == k
        assert len(payload["initial_values"]) == payload["order"]


# sha256 of the whole stdout of `recurrence --k K --format json`, with its
# order and x_strip_count.  K <= 64 were pinned before the kernels moved to
# Newton traces, the rank degree bound and the integer split of the initial
# values; K = 96 before charpoly_q moved to the matrix determinant lemma.
LARGE_K_JSON = {
    16: ("0100c2c52e38aa64717eb3f665c3a28cac2c4d3327a6bd2d5e68312d72f69d25",
         11, 8),
    24: ("ebdc38def646f8a1db3e443a7c4b39aff32a88a35eb6367142e16ae582659cf3",
         15, 12),
    32: ("4f8ae29d16a7398dac6cbddc5a62a5cc9b738bcc0ee1ac2e215ae69123690c04",
         19, 16),
    48: ("44ca16304d29fafec9ef2ea912d718a4aaaacd919bd7379b1002c4c5aa6f48fd",
         27, 24),
    64: ("ebc4dba957895c8cd9e21f8088cd1ba6960175321a78374f1a51b403538353ec",
         35, 32),
    96: ("c5f5aeddc221cdd368e6711410ac1e6251c44fb611418008a84a8b1bf858326c",
         51, 48),
}


@pytest.mark.parametrize("k", sorted(LARGE_K_JSON))
def test_recurrence_large_k_json_is_pinned(capsys, k):
    assert main(["recurrence", "--k", str(k), "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    digest, order, strip = LARGE_K_JSON[k]
    assert (payload["order"], payload["x_strip_count"]) == (order, strip)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_deep_sums_under_1gib_address_space():
    # sums reads pair multisets: row 12 at q=9 holds 2.3e8 entries in
    # 2,777 keys of its half form.
    proc = run_under_1gib("sums", "--q", "9", "--k", "3", "--n-max", "12",
                          "--entry-cap", "1000000000", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    rec = recurrence_for_k(3)
    cs = rec.evaluated_at(9)
    seq = [v(9) for v in rec.initial_values]  # (s^3)_n at q=9, n = 1, 2, ...
    while len(seq) < 12:
        seq.append(sum(c * seq[-j] for j, c in enumerate(cs, 1)))
    assert [r["power_sum"] for r in json.loads(proc.stdout)["rows"]] == seq
    assert seq[-1] == 553318915314


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_recurrence", exhausted)
    code, out, err = run(capsys, "recurrence", "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, result", [
    (["verify", "--k-range", "0..5", "--q-list", "6,5", "--cap", "500",
      "--reduced"], lambda: verify.run_grid((0, 5), (6, 5), 500, True)),
    (["conjecture", "--k-min", "2", "--k-max", "12"],
     lambda: systembuilder.probe_conjecture(2, 12)),
])
def test_json_output_is_what_verify_returns(capsys, argv, result):
    # verify and conjecture render the records that verify.run_grid and
    # systembuilder.probe_conjecture return as they are: the json form is
    # the same data, key for key.
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert json.loads(out) == result()


def test_verify_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--k-range", "2..3",
                       "--q-list", "5,6", "--cap", "10000")
    assert code == 0 and out.endswith("all-exact")


def test_verify_counting_range(capsys):
    code, out, _ = run(capsys, "verify", "--k-range", "0..1",
                       "--q-list", "6", "--cap", "10000")
    assert code == 0


VERIFY_K2_Q6 = ("verify", "--k-range", "2..2", "--q-list", "6",
                "--cap", "10000")


def wrong_c1(monkeypatch, wrong_k=2):
    """Derive wrong_k with c1 one too large; every other k is left as is."""
    real = systembuilder.recurrence_for_k

    def wrong(k, *args, **kwargs):
        rec = real(k, *args, **kwargs)
        if k == wrong_k:
            rec.coefficients[0] = QONE + rec.coefficients[0]
        return rec

    monkeypatch.setattr(systembuilder, "recurrence_for_k", wrong)


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_verify_reports_a_wrong_coefficient(capsys, monkeypatch, fmt):
    wrong_c1(monkeypatch)
    code, out, err = run(capsys, *VERIFY_K2_Q6, "--format", fmt)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "recurrence k=2 q=6 [full] n=5..12: FAIL (8 mismatches)",
        "system    k=2 q=6 [full] n=1..11: ok",
        "counting  q=6 depth=12: ok",
        "MISMATCHES FOUND"]


def test_verify_reports_a_wrong_coefficient_json(capsys, monkeypatch):
    wrong_c1(monkeypatch)
    code, out, err = run(capsys, *VERIFY_K2_Q6, "--format", "json")
    assert (code, err) == (1, "")
    record = json.loads(out)
    assert record["all_exact"] is False
    (check,) = record["recurrence_checks"]
    # the row sums (s^2)_5..12 at q=6 against what the wrong c1 predicts
    assert check["mismatches"][:4] == [
        {"n": 5, "expected": "1120", "actual": "960"},
        {"n": 6, "expected": "6772", "actual": "5812"},
        {"n": 7, "expected": "41052", "actual": "35240"},
        {"n": 8, "expected": "248964", "actual": "213724"}]
    assert [m["n"] for m in check["mismatches"]] == list(range(5, 13))
    assert [c["failing_equations"] for c in record["system_checks"]] == [[]]
    assert [c["mismatches"] for c in record["counting_checks"]] == [[]]


def test_verify_reports_a_wrong_counting_coefficient(capsys, monkeypatch):
    # The k = 0 recurrence is read by the counting check only.
    wrong_c1(monkeypatch, 0)
    code, out, err = run(capsys, *VERIFY_K2_Q6)
    assert (code, err) == (1, "")
    assert out.splitlines()[2:] == [
        "counting  q=6 depth=12: FAIL (9 mismatches)", "MISMATCHES FOUND"]
    code, out, err = run(capsys, *VERIFY_K2_Q6, "--format", "json")
    assert (code, err) == (1, "")
    (check,) = json.loads(out)["counting_checks"]
    # the vertex counts s_4..12 at q=6 against what the wrong c1 predicts
    assert check["mismatches"][:2] == [
        {"sequence": "s", "n": 4, "expected": "23", "actual": "17"},
        {"sequence": "s", "n": 5, "expected": "75", "actual": "58"}]
    assert [(m["sequence"], m["n"]) for m in check["mismatches"]] \
        == [("s", n) for n in range(4, 13)]


def test_verify_rejects_a_repeated_q(capsys):
    code, out, err = run(capsys, "verify", "--k-range", "2..4",
                         "--q-list", "5,5,9", "--cap", "50")
    assert (code, out, err) == (2, "", "error: q listed twice: 5\n")


def test_verify_invalid_q(capsys):
    code, _, err = run(capsys, "verify", "--k-range", "2..2",
                       "--q-list", "4")
    assert code == 2


def test_table_exit_ok(capsys):
    code, out, _ = run(capsys, "table", "--k-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("0,q-1,-q+1,1")
    assert len(lines) == 5


def test_table_reports_a_wrong_reference_cell(capsys, monkeypatch):
    # c2 of k = 3 is q - 19; the reference cell is made 2q - 19
    monkeypatch.setitem(tables.REFERENCE_COEFFICIENTS, 3,
                        [[4, 1], [-19, 2], [18, -2], [-2]])
    code, out, err = run(capsys, "table", "--k-max", "3")
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == [
        "diff:", "  k=3 c2: expected 2q-19, computed q-19"]
    code, out, _ = run(capsys, "table", "--k-max", "3", "--format", "json")
    assert code == 1
    assert json.loads(out)["diff"] == [
        {"k": 3, "j": 2, "expected": "2q-19", "computed": "q-19"}]


def test_table_derives_row_0(capsys, monkeypatch):
    # A k = 0 A row that counts each adjacent pair twice, as the general A
    # row would, shows in the table: its row 0 is derived, not copied.
    build = systembuilder.build_reduced_matrix

    def double_counting(k):
        s = build(k)
        if k == 0:
            s.a[0], s.h0[0] = [2, 2, 0], -2
        return s

    monkeypatch.setattr(systembuilder, "build_reduced_matrix", double_counting)
    code, out, err = run(capsys, "table", "--k-max", "1")
    assert (code, err) == (1, "")
    diff = out.splitlines()[out.splitlines().index("diff:") + 1:]
    assert diff and all(line.startswith("  k=0 c") for line in diff)


def test_table_exploratory_marker(capsys):
    code, out, _ = run(capsys, "table", "--k-max", "12")
    assert code == 0
    assert "no fixture (exploratory)" in out.splitlines()[-1]


def test_conjecture(capsys):
    code, out, _ = run(capsys, "conjecture", "--k-min", "2", "--k-max", "9")
    assert code == 0
    assert "k=9" in out and "trailing zero" in out


def test_conjecture_kmin_validation(capsys):
    code, _, err = run(capsys, "conjecture", "--k-min", "1", "--k-max", "3")
    assert code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "row.txt"
    code, out, _ = run(capsys, "row", "--q", "6", "--n", "3",
                       "-o", str(target))
    assert code == 0
    assert target.read_text().strip() == "1B 3A 2B 2B 3A 1B"


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "row.txt"
    code, out, err = run(capsys, "row", "--q", "6", "--n", "3",
                         "-o", str(target))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.exists()


def test_closed_stdout_is_a_usage_error():
    # Row 9 at q=7 holds 60,607 entries, far more than a pipe buffer; the
    # reader takes one line and closes the pipe.
    src = os.path.dirname(os.path.dirname(hptsums.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hptsums.cli", "row", "--q", "7", "--n", "9",
         "--format", "csv"], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "value,tag\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_checks_that_cover_no_row_are_uncovered(capsys):
    # A key cap of 1 stops at row 1: no recurrence or system step can be
    # tested, so neither check may read "ok", and the run fails without
    # claiming a mismatch.
    code, out, _ = run(capsys, "verify", "--k-range", "2..2", "--q-list",
                       "6", "--cap", "1")
    lines = out.splitlines()
    assert lines == ["recurrence k=2 q=6 [full] n=5..1: uncovered",
                     "system    k=2 q=6 [full] n=1..0: uncovered",
                     "counting  q=6 depth=1: ok",
                     "UNCOVERED CHECKS FOUND"]
    assert code == 1
    code, out, _ = run(capsys, "verify", "--k-range", "2..2", "--q-list",
                       "6", "--cap", "1", "--format", "csv")
    assert (code, out.splitlines()) == (1, lines)
    code, out, _ = run(capsys, "verify", "--k-range", "2..2", "--q-list",
                       "6", "--cap", "1", "--format", "json")
    assert code == 1 and "uncovered" not in out
    record = json.loads(out)
    assert record["all_exact"] is False
    assert record["recurrence_checks"][0]["last_n"] == 1


@pytest.mark.parametrize("cap", ["1", "3"])
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_a_cap_below_row_2_exits_1(capsys, cap, fmt):
    # Rows 0 and 1 always stream, and row 2 needs a cap of 4 keys: every
    # recurrence and system check is uncovered, and the counting check
    # reads row 1 alone, its initial values included, with no error.
    code, out, err = run(capsys, "verify", "--k-range", "0..3", "--q-list",
                         "6", "--cap", cap, "--format", fmt)
    assert (code, err) == (1, "")
    if fmt == "json":
        record = json.loads(out)
        assert record["all_exact"] is False
        assert [c["depth"] for c in record["counting_checks"]] == [1]
        assert not record["counting_checks"][0]["mismatches"]
    else:
        assert out.splitlines()[-2:] == ["counting  q=6 depth=1: ok",
                                         "UNCOVERED CHECKS FOUND"]
