from collections import Counter
from itertools import islice

import pytest

from hptsums import sums, systembuilder, triangle, verify
from hptsums.exactalg import QPoly


def test_verify_recurrence_k2_q6():
    (check,) = verify.run_grid((2, 2), (6,), 10**5)["recurrence_checks"]
    assert not check["mismatches"]
    assert check["order"] == 4
    assert check["last_n"] >= 8


def test_verify_recurrence_hand_value():
    # (s^2)_5 at q=6 from the derived coefficients (8, -13, 8, -2) and the
    # power sums of rows 1..4, read from the pair step
    rows = islice(triangle.pair_rows(triangle.TriangleParams(6)), 1, 6)
    seq = [sum(x[2] for x in sums.tag_power_sums(r, range(3)))
           for r in rows]  # seq[n - 1] = (s^2)_n
    assert seq == [2, 6, 28, 160, 960]
    rec = systembuilder.recurrence_for_k(2, with_initial_values=False)
    cs = rec.evaluated_at(6)
    assert cs == [8, -13, 8, -2]
    assert sum(c * seq[3 - j] for j, c in enumerate(cs)) == seq[4]


def test_verify_recurrence_counting_cases():
    k0, k1 = verify.run_grid((0, 1), (6,), 10**5)["recurrence_checks"]
    assert not k0["mismatches"]
    assert not k1["mismatches"]
    (k2,) = verify.run_grid((2, 2), (5,), 10**5)["recurrence_checks"]
    assert not k2["mismatches"]  # q-5 = 0 case


def test_verify_system_steps():
    (full,) = verify.run_grid((3, 3), (5,), 10**4)["system_checks"]
    assert not full["failing_equations"]
    _, printed = verify.run_grid((3, 3), (6,), 10**4,
                                 reduced=True)["system_checks"]
    assert printed["failing_equations"]
    assert {f["equation"] for f in printed["failing_equations"]} == {"c1"}


def test_verify_system_steps_rejects_an_unknown_system():
    g = [0, 0, 2, 1]  # the k=2 state vector of row 1
    with pytest.raises(ValueError, match="unknown system 'reduced'"):
        verify.verify_system_steps(2, 6, [g, g], "reduced")


def test_the_step_oracle_reads_no_system_matrix():
    # The oracle checks the matrices of systembuilder, so no code of it,
    # nested code included, names that module.
    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                yield from names(const)

    for fn in (verify._full_rhs, verify._reduced_printed_rhs,
               verify.verify_system_steps):
        assert "systembuilder" not in set(names(fn.__code__)), fn.__name__
    assert not hasattr(sums, "check_system_step")


def test_verify_counting():
    for check in verify.run_grid((2, 2), range(5, 10),
                                 10**5)["counting_checks"]:
        assert not check["mismatches"], check["mismatches"]
        assert check["depth"] == verify.COUNTING_DEPTH == 12


def test_reproduce_tables_empty_diff():
    _, diffs = verify.reproduce_tables(11)
    assert diffs == []


def test_reproduce_tables_subrange():
    _, diffs = verify.reproduce_tables(3)
    assert diffs == []


def test_probe_conjecture():
    findings = verify.probe_conjecture(2, 11)
    assert all(f["order_matches"] for f in findings)
    assert all(f["coefficients_linear"] for f in findings)
    anomalies = {f["k"] for f in findings if f["anomaly"]}
    assert anomalies == {9, 11}
    by_k = {f["k"]: f for f in findings}
    assert by_k[2]["stripped_order"] == 4
    assert by_k[7]["stripped_order"] == 6
    rec7 = systembuilder.recurrence_for_k(7, with_initial_values=False)
    assert QPoly((302, -42)) in rec7.coefficients


def test_run_grid_small():
    report = verify.run_grid((2, 3), (5, 6), 10**4)
    assert report["all_exact"]
    report = verify.run_grid((2, 3), (6,), 10**4, reduced=True)
    # one recurrence check per (k, q): --reduced adds only the printed sweep
    assert [(c["k"], c["q"]) for c in report["recurrence_checks"]] \
        == [(2, 6), (3, 6)]
    # printed-reduced failures are reported but do not flip all_exact
    assert report["all_exact"]
    printed = [c for c in report["system_checks"]
               if c["variant"] == "reduced-as-printed"]
    assert any(c["failing_equations"] for c in printed)
    assert report["all_exact"] and report["system_checks"]


def test_verify_counting_reads_the_k1_recurrence(monkeypatch):
    # The value sums are checked against recurrence_for_k(1) itself, so a
    # wrong coefficient there must show as mismatches, not pass unseen.
    real = verify.systembuilder.recurrence_for_k

    def wrong_c3(k, *args, **kwargs):
        rec = real(k, *args, **kwargs)
        if k == 1:
            rec.coefficients[2] = rec.coefficients[2] + QPoly.const(1)
        return rec

    monkeypatch.setattr(verify.systembuilder, "recurrence_for_k", wrong_c3)
    (check,) = verify.run_grid((2, 2), (6,), 10**5)["counting_checks"]
    assert {m["sequence"] for m in check["mismatches"]} \
        == {"a_hat", "b_hat", "s_hat"}
    assert all(m["n"] >= 4 for m in check["mismatches"])


def test_verify_counting_reads_rows_past_the_old_cap(monkeypatch):
    # Row 10 at q=9 holds 4,976,786 entries: past what a 2e5-entry cap on
    # materialised rows reaches (row 8) and past the 1e5-entry cap of the
    # grid checks (row 7), so only the counting check reads it, from the one
    # stream of q=9.  One A entry of that row turned into a B entry must show
    # there, from row 10 on, while the grid check of rows <= 7 stays exact.
    params = triangle.TriangleParams(9)
    row10 = triangle.row_counts(params, 10).s
    real = triangle.next_pairs

    def perturbed(pairs, params):
        out = real(pairs, params)
        if sum(out.values()) + 1 == row10:
            x, tx, y, _ = key = next(key for key in out if key[3] == "A")
            moved = (x, tx, y, "B")
            out[key] -= 1
            out[moved] = out.get(moved, 0) + 1
        return out

    monkeypatch.setattr(triangle, "next_pairs", perturbed)
    report = verify.run_grid((2, 2), (9,), 10**5)
    (check,) = report["counting_checks"]
    assert ("row_counts", 10) \
        in {(m["sequence"], m["n"]) for m in check["mismatches"]}
    assert min(m["n"] for m in check["mismatches"]) == 10
    (rec_check,) = report["recurrence_checks"]
    assert rec_check["last_n"] == 7
    assert not rec_check["mismatches"]


def test_verify_materialises_no_rows(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify materialised a row")

    monkeypatch.setattr(triangle, "next_row", refuse)
    monkeypatch.setattr(triangle, "entry_rows", refuse)
    assert verify.run_grid((2, 4), (5, 7, 9), 10**4,
                           reduced=True)["all_exact"]


def test_run_grid_builds_each_input_once(monkeypatch):
    # The rows of each q are streamed once, for the grid checks and the
    # counting check alike, and the recurrence of each k is derived once,
    # however many checks read them; the counting checks of every q read
    # the same k = 0 and k = 1 recurrences.
    row_builds, derivations = Counter(), Counter()
    real_rows = triangle.pair_rows
    real_rec = systembuilder.recurrence_for_k

    def rows(params, *args, **kwargs):
        row_builds[params.q] += 1
        return real_rows(params, *args, **kwargs)

    def rec(k, *args, **kwargs):
        derivations[k] += 1
        return real_rec(k, *args, **kwargs)

    monkeypatch.setattr(triangle, "pair_rows", rows)
    monkeypatch.setattr(systembuilder, "recurrence_for_k", rec)
    q_list = (5, 6, 7, 8, 9, 10, 11, 12, 13)
    report = verify.run_grid((2, 11), q_list, 10**5)
    assert row_builds == {q: 1 for q in q_list}
    assert derivations == {0: 1, 1: 1, **{k: 1 for k in range(2, 12)}}
    assert [(c["k"], c["q"]) for c in report["recurrence_checks"]] \
        == [(k, q) for k in range(2, 12) for q in q_list]
    assert [c["q"] for c in report["counting_checks"]] == list(q_list)


def test_run_grid_reads_each_rows_tag_sums_once(monkeypatch):
    # Each streamed row's tag power sums are computed once and passed to
    # state_vectors, never computed again there: on the default grid the
    # streams reach row 13 at q=5 and row 12 at q=6, 7 and 9, so 14 + 3 * 13
    # rows.
    calls = []
    real = sums.tag_power_sums

    def counted(pairs, ks):
        calls.append(ks)
        return real(pairs, ks)

    monkeypatch.setattr(sums, "tag_power_sums", counted)
    verify.run_grid((2, 11))
    assert len(calls) == 14 + 3 * 13 == 53
