"""Acceptance suite: one test per criterion, exact equality throughout
(no tolerances anywhere).  Each test prints a PASS line when its criterion
holds; a failing assertion is the FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
output.
"""
import random
import time
from itertools import islice

from hptsums import systembuilder as sb
from hptsums import tables, verify
from hptsums.cli import main
from hptsums.exactalg import ExactAlgError, QPoly, binom, charpoly_q
from hptsums.sums import state_vectors, tag_power_sums
from hptsums.systembuilder import fold_state
from hptsums.triangle import (TriangleParams, capped_depth, entry_counts,
                              entry_rows)
from reference import (Q, build_full_matrix, build_structured_charpoly,
                       charpoly_int, matrix_from_orbit, row_pairs, system_at)

GRID_K = range(2, 7)
GRID_Q = (5, 6, 7, 9)
ROW_CAP = 10**5  # entries of a materialised row
GRID_KQ = [(k, q) for k in GRID_K for q in GRID_Q]


def _grid():
    """The criterion-3 grid, run as the verify command runs it, at its
    default key cap."""
    return verify.run_grid((GRID_K[0], GRID_K[-1]), GRID_Q)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_table_reproduction(capsys):
    t0 = time.monotonic()
    assert main(["table", "--k-max", "11"]) == 0
    _, diffs = verify.reproduce_tables(11)
    assert diffs == []
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        _report(1, f"all c_j(q) for k=0..11 reproduced exactly "
                   f"({elapsed:.2f}s)")


def test_criterion_2_k2_golden_path(capsys):
    full = build_full_matrix(2)
    cp = charpoly_q(full.a, full.u, full.v)
    assert list(map(QPoly, cp)) \
        == [QPoly(), QPoly((-2,)), QPoly((6,)), -Q - 1, QPoly((1,))]
    lifted = sb.lift_inhomogeneous(cp)
    assert list(map(QPoly, lifted)) == [QPoly(), QPoly((2,)), QPoly((-8,)),
                                        Q + 7, -Q - 2, QPoly((1,))]
    rec = sb.recurrence_from_polynomial(lifted, 2)
    assert rec.order == 4
    assert rec.coefficients == [Q + 2, -Q - 7, QPoly((8,)), QPoly((-2,))]
    assert sb.initial_values_symbolic(sb.build_reduced_matrix(2), 4) == [
        QPoly((2,)), QPoly((6,)), 4 * Q + 4, QPoly((-20, 6, 4))]
    with capsys.disabled():
        _report(2, "k=2 characteristic polynomial, lift, recurrence and "
                   "symbolic initial values all exact")


def test_criterion_3_recurrence_oracle_grid(capsys):
    t0 = time.monotonic()
    checked = 0
    checks = _grid()["recurrence_checks"]
    assert [(c["k"], c["q"]) for c in checks] == GRID_KQ
    for check in checks:
        assert not check["mismatches"], \
            (check["k"], check["q"], check["mismatches"][:3])
        assert check["last_n"] >= check["first_n"]
        checked += check["last_n"] - check["first_n"] + 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    with capsys.disabled():
        _report(3, f"derived recurrences exact on {checked} rows across "
                   f"k=2..6, q in {GRID_Q} ({elapsed:.2f}s)")


def test_criterion_4_system_equation_oracle(capsys):
    steps = 0
    checks = _grid()["system_checks"]
    assert [(c["k"], c["q"], c["variant"]) for c in checks] \
        == [(k, q, "full") for k, q in GRID_KQ]
    for check in checks:
        assert not check["failing_equations"], \
            (check["k"], check["q"], check["failing_equations"][:3])
        steps += check["last_n"] - check["first_n"] + 1
    with capsys.disabled():
        _report(4, f"every full-system equation exact over {steps} row "
                   "steps on the grid")


def test_criterion_5_structured_path_equivalence(capsys):
    for k in range(2, 12):
        full = build_full_matrix(k)
        assert build_structured_charpoly(k) \
            == list(map(QPoly, charpoly_q(full.a, full.u, full.v))), k
    with capsys.disabled():
        _report(5, "structured determinant equals the direct characteristic "
                   "polynomial for k=2..11")


def test_criterion_6_counting_recurrences(capsys):
    # A cap of 6,000 keys streams every q to row 12: row 11 holds at most
    # 1,367 keys (4 * 1,367 <= 6,000), and row 12 at least 1,860.
    checks = verify.run_grid((0, 1), range(5, 10), 6000)["counting_checks"]
    assert [c["q"] for c in checks] == list(range(5, 10))
    for check in checks:
        assert not check["mismatches"], (check["q"], check["mismatches"])
        assert check["depth"] == 12
    with capsys.disabled():
        _report(6, "counting and value-sum recurrences exact for q=5..9 "
                   "to depth 12, initial values included")


def test_criterion_7_binomial_identity(capsys):
    rng = random.Random(20240824)
    for _ in range(1000):
        z = rng.randint(0, 30)
        delta = rng.randint(0, z)
        r = rng.randint(0, z)
        lhs = sum((-1)**t * binom(delta, t) * binom(z - t, r)
                  for t in range(delta + 1))
        assert lhs == binom(z - delta, r - delta), (delta, z, r)
    with capsys.disabled():
        _report(7, "alternating binomial identity exact on 1000 random "
                   "(delta, z, r) instances")


def test_criterion_8_lemma_round_trip(capsys):
    rng = random.Random(8128)
    for trial in range(100):
        nu = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(nu)] for _ in range(nu)]
        while True:
            orbit = [[rng.randint(-4, 4) for _ in range(nu)]]
            for _ in range(nu + 10):
                orbit.append([sum(m[i][j] * orbit[-1][j] for j in range(nu))
                              for i in range(nu)])
            try:
                recovered = matrix_from_orbit(orbit[:nu + 1])
                break
            except ExactAlgError:
                continue  # orbit vectors dependent; redraw the start
        # recovered matrix reproduces the orbit action
        for t in range(nu + 10):
            stepped = [sum(recovered[i][j] * orbit[t][j] for j in range(nu))
                       for i in range(nu)]
            assert stepped == orbit[t + 1], trial
        # char-poly coefficients give the scalar recurrence, 10 extra steps
        cp = charpoly_int(m)
        alphas = [-cp[i] for i in range(nu)]
        for t in range(10):
            for c in range(nu):
                assert orbit[t + nu][c] == sum(
                    alphas[i] * orbit[t + i][c] for i in range(nu)), trial
    with capsys.disabled():
        _report(8, "orbit matrix recovery and char-poly recurrence exact "
                   "on 100 random systems (nu <= 5)")


def test_criterion_9_reduced_system(capsys):
    for k in range(2, 12):
        assert len(sb.build_reduced_matrix(k).a) \
            == sb.conjectured_order(k), k
    # the reduced matrix itself steps the folded state vectors of the
    # criterion-3 grid rows: M_red(q) fold(g_n) + h_red(q) == fold(g_{n+1})
    steps = 0
    for q in GRID_Q:
        params = TriangleParams(q)
        rows = list(islice(entry_rows(params),
                           capped_depth(params, 64, ROW_CAP) + 1))
        for k in GRID_K:
            m, h = system_at(sb.build_reduced_matrix(k), q)
            folded = [fold_state(g) for t in map(row_pairs, rows[1:])
                      for g in state_vectors(t, (k,), tag_power_sums(
                          entry_counts(t), (k,)))]
            for n, (g, g_next) in enumerate(zip(folded, folded[1:]), 1):
                stepped = [sum(a * b for a, b in zip(row, g)) + c
                           for row, c in zip(m, h)]
                assert stepped == g_next, (k, q, n)
                steps += 1
    assert steps > 0
    # the printed reduced equations are adjudicated by the step oracle:
    # k=2 holds verbatim, k>=3 fails on the paired c_j rows, and the
    # discrepancy report identifies each failing equation
    printed = {c["k"]: c for c in verify.run_grid(
        (2, 6), (6,), 10**4, reduced=True)["system_checks"]
        if c["variant"] == "reduced-as-printed"}
    assert not printed[2]["failing_equations"]
    adjudicated = {}
    for k in range(3, 7):
        check = printed[k]
        assert check["failing_equations"]
        names = {f["equation"] for f in check["failing_equations"]}
        assert names and all(name.startswith("c") for name in names), names
        adjudicated[k] = sorted(names)
    with capsys.disabled():
        _report(9, "reduced dimensions floor(k/2)+3 and the reduced matrix "
                   f"exact over {steps} folded row steps on the grid; "
                   "printed paired-c_j equations fail the oracle for k>=3 "
                   f"{adjudicated}")


def test_criterion_10_conjecture_probe(capsys):
    findings = sb.probe_conjecture(2, 11)
    for f in findings:
        assert f["order_matches"], f
        assert f["max_q_degree"] <= 1, f
    exploratory = sb.probe_conjecture(12, 13)
    assert [f["k"] for f in exploratory] == [12, 13]
    for f in exploratory:
        assert f["stripped_order"] >= 1 and not f["tabled"]
    summary = {f["k"]: (f["stripped_order"], f["max_q_degree"])
               for f in exploratory}
    with capsys.disabled():
        _report(10, "printed orders match floor(k/2)+3 with linear "
                    f"coefficients for k=2..11; exploratory k=12,13 -> "
                    f"{summary}")
