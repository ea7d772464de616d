from collections import Counter
from itertools import islice
from operator import mul

import pytest

from hptsums import sums, systembuilder, triangle, verify
from hptsums.exactalg import QPoly
from reference import QONE, system_at


def test_verify_recurrence_k2_q6():
    (check,) = verify.run_grid((2, 2), (6,), 10**5)["recurrence_checks"]
    assert not check["mismatches"]
    assert check["order"] == 4
    assert check["last_n"] >= 8


def test_verify_recurrence_hand_value():
    # (s^2)_5 at q=6 from the derived coefficients (8, -13, 8, -2) and the
    # power sums of rows 1..4, read from the pair step
    rows = islice(triangle.pair_rows(triangle.TriangleParams(6)), 1, 6)
    seq = [sum(x[2] for x in sums.tag_power_sums(counts, range(3)))
           for _, counts in rows]  # seq[n - 1] = (s^2)_n
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


def test_printed_reduced_equations_differ_by_the_erratum():
    # Printed minus folded, at every state vector: each paired c_j equation
    # (1 <= j < k/2) carries the a^k, b^k, u and constant terms of full row
    # j alone, where the fold sums rows j and k - j; every other equation
    # agrees.  Both sides are affine, so the zero vector and the unit
    # vectors decide it.
    for k in range(3, 65):
        reduced = systembuilder.build_reduced_matrix(k)
        r = len(reduced.a)
        for q in (5, 7):
            m, h = system_at(reduced, q)
            for g in [[0] * r] + [[int(i == j) for i in range(r)]
                                  for j in range(r)]:
                a, b, u = g[0], g[1], g[-1]
                folded = [sum(map(mul, row, g)) + c for row, c in zip(m, h)]
                erratum = [0] * r
                for j in range(1, (k + 1) // 2):
                    erratum[j + 1] = -a - b + (1 - 2**j) * u + 1
                assert [p - f for p, f in zip(
                    verify._reduced_printed_rhs(g, k, q), folded)] \
                    == erratum, (k, q, g)


def test_verify_system_steps_rejects_an_unknown_system():
    g = [0, 0, 2, 1]  # the k=2 state vector of row 1
    with pytest.raises(ValueError, match="unknown system 'reduced'"):
        verify.verify_system_steps(2, 6, [g, g], "reduced")


def test_the_step_oracle_reads_no_system_matrix():
    # The oracle checks the matrices of systembuilder, so no code of it,
    # nested code included, names that module or any name of it but
    # fold_state, the fold of a state vector into the reduced coordinates,
    # which the reduced system and the oracle share as their coordinate
    # order.
    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                yield from names(const)

    system_names = ({"systembuilder", "fold_classes"}
                    | set(systembuilder.__all__)) - {"fold_state"}
    for fn in (verify._full_rhs, verify._reduced_printed_rhs,
               verify.verify_system_steps):
        used = set(names(fn.__code__))
        assert "systembuilder" not in used, fn.__name__
        assert not used & system_names, (fn.__name__, used & system_names)
    assert not hasattr(sums, "check_system_step")


def test_verify_counting():
    # The counting check reads every row the stream yields, as the grid
    # checks do: at the default key cap, rows to 12 at q=5 and 11 at q>=6.
    report = verify.run_grid((2, 2), range(5, 10))
    for check, rec in zip(report["counting_checks"],
                          report["recurrence_checks"]):
        assert not check["mismatches"], check["mismatches"]
        assert check["depth"] == rec["last_n"] \
            == (12 if check["q"] == 5 else 11)


def test_reproduce_tables_empty_diff():
    _, diffs = verify.reproduce_tables(11)
    assert diffs == []


def test_reproduce_tables_subrange():
    _, diffs = verify.reproduce_tables(3)
    assert diffs == []


def test_probe_conjecture():
    findings = systembuilder.probe_conjecture(2, 11)
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
            rec.coefficients[2] = QONE + rec.coefficients[2]
        return rec

    monkeypatch.setattr(verify.systembuilder, "recurrence_for_k", wrong_c3)
    (check,) = verify.run_grid((2, 2), (6,), 10**5)["counting_checks"]
    assert {m["sequence"] for m in check["mismatches"]} \
        == {"a_hat", "b_hat", "s_hat"}
    assert all(m["n"] >= 4 for m in check["mismatches"])


def test_verify_counting_reads_rows_past_the_old_cap(monkeypatch):
    # Row 10 at q=9 holds 4,976,786 entries in 669 keys: past what a
    # 2e5-entry cap on materialised rows reaches (row 8), and the last row
    # that a cap of 2,000 keys streams, since 4 * 325 <= 2,000 < 4 * 669
    # (rows 9 and 10).  One count of that row moved from an A-then-B pair
    # (s, y) to the B copy pairs of values s and y turns an A entry into a
    # B entry and keeps the row's size and values, so only the per-tag
    # counts can show it, and they do, since the stream decodes the
    # perturbed row itself.  It must show in the counting check, at row 10
    # first, and in the step into row 10, while the power sums of every
    # row, which no tag enters, stay exact.
    params = triangle.TriangleParams(9)
    row10 = triangle.row_counts(params, 10).s
    real = triangle.next_pairs

    def perturbed(pairs, counts, params):
        ab, bb = out = real(pairs, counts, params)
        if 1 + 2 * sum(ab.values()) + sum(bb.values()) == row10:
            s, y = key = next(key for key in ab if key[1] != 1)
            ab[key] -= 1
            bb[s] = bb.get(s, 0) + 1
            bb[y] = bb.get(y, 0) + 1
            assert 1 + 2 * sum(ab.values()) + sum(bb.values()) == row10
        return out

    monkeypatch.setattr(triangle, "next_pairs", perturbed)
    report = verify.run_grid((2, 2), (9,), 2000)
    (check,) = report["counting_checks"]
    assert check["depth"] == 10
    assert ("row_counts", 10) \
        in {(m["sequence"], m["n"]) for m in check["mismatches"]}
    assert min(m["n"] for m in check["mismatches"]) == 10
    (system_check,) = report["system_checks"]
    assert {f["n"] for f in system_check["failing_equations"]} == {9}
    (rec_check,) = report["recurrence_checks"]
    assert rec_check["last_n"] == 10
    assert not rec_check["mismatches"]
    assert report["all_exact"] is False


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
    # Each streamed row's tag power sums are computed once, from the row's
    # entry counts, and passed to state_vectors, never computed again there:
    # on the default grid the streams reach row 12 at q=5 and row 11 at
    # q=6, 7 and 9, so 13 + 3 * 12 rows.
    calls = []
    real = sums.tag_power_sums

    def counted(counts, ks):
        calls.append(ks)
        return real(counts, ks)

    monkeypatch.setattr(sums, "tag_power_sums", counted)
    verify.run_grid((2, 11))
    assert len(calls) == 13 + 3 * 12 == 49


def test_run_grid_decodes_each_row_once(monkeypatch):
    # entry_counts decodes each streamed row once, 13 + 3 * 12 times on the
    # default grid, and the counts it returns, the very objects, feed both
    # the row's tag power sums and the step to the next row.  Rows 0 and
    # the last of each stream take no step, so 4 streams step 49 - 2 * 4
    # rows.
    decoded, tagged, stepped = [], [], []
    real_counts, real_tags = triangle.entry_counts, sums.tag_power_sums
    real_step = triangle.next_pairs

    def counts(pairs):
        decoded.append(real_counts(pairs))
        return decoded[-1]

    def tags(counts, ks):
        tagged.append(counts)
        return real_tags(counts, ks)

    def step(pairs, counts, params):
        stepped.append(counts)
        return real_step(pairs, counts, params)

    monkeypatch.setattr(triangle, "entry_counts", counts)
    monkeypatch.setattr(sums, "tag_power_sums", tags)
    monkeypatch.setattr(triangle, "next_pairs", step)
    verify.run_grid((2, 11))
    assert len(decoded) == 13 + 3 * 12 == 49
    assert len(tagged) == 49
    assert all(t is d for t, d in zip(tagged, decoded))
    assert len(stepped) == 49 - 2 * 4
    assert {id(c) for c in stepped} < {id(c) for c in decoded}
