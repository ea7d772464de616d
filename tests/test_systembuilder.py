import random
from itertools import islice
from operator import mul

import pytest

from hptsums import systembuilder as sb
from hptsums.exactalg import ExactAlgError, QPoly, binom, charpoly_q
from hptsums.sums import state_vectors, tag_power_sums
from hptsums.systembuilder import fold_state
from hptsums.triangle import (TriangleParams, entry_counts, entry_rows,
                              pair_rows, type_counts)
from hptsums.verify import DEFAULT_KEY_CAP, _full_rhs
from reference import (Q, QZERO, build_full_matrix, build_structured_charpoly,
                       charpoly_int, fold_system, row_pairs,
                       structured_addends, system_at)


def qp(*coeffs):
    return QPoly(coeffs)


def test_full_matrix_k2():
    sys2 = build_full_matrix(2)
    assert (sys2.a, sys2.u, sys2.v, sys2.h0, sys2.h1) == (
        [[2, 4, 2, 2], [1, 2, 1, 1], [-4, 0, -3, 0], [-5, 0, -4, 0]],
        [0, 0, 1, 1], [1, 0, 1, 0], [-2, -1, 8, 8], [0, 0, -2, -2])
    assert system_at(sys2, Q) == (
        [[qp(2), qp(4), qp(2), qp(2)],
         [qp(1), qp(2), qp(1), qp(1)],
         [Q - 4, qp(), Q - 3, qp()],
         [Q - 5, qp(), Q - 4, qp()]],
        [qp(-2), qp(-1), -2 * (Q - 4), -2 * (Q - 4)])


def test_full_matrix_entry_formulas():
    m3, _ = system_at(build_full_matrix(3), 5)
    assert m3[0][2] == binom(3, 2) + binom(3, 1)  # = 6
    for k in (2, 4, 7):
        for q in (5, 9):
            m, h = system_at(build_full_matrix(k), q)
            assert (m[k][0], m[k][k]) == (q - 4, q - 3)
            assert (m[k + 1][0], m[k + 1][k]) == (q - 5, q - 4)
            assert m[0][k + 1] == 2**k - 2
            assert h == [-2] + [-1] * (k - 1) + [-2 * (q - 4)] * 2


def test_full_matrix_rejects_small_k():
    with pytest.raises(ValueError):
        build_full_matrix(-1)


def test_k0_system_steps_the_type_counts_and_bb_pairs():
    # The k = 0 system advances [#A, #B, #bb]; #A and #B against the
    # type-count step of triangle, #bb against the B-then-B pairs of the
    # materialised rows.
    for q in (5, 6, 7, 9):
        m, h = system_at(build_full_matrix(0), q)
        params = TriangleParams(q)
        rows = islice(entry_rows(params), 1, 11)
        g = [0, 2, 1]  # row 1: two B wingers, one bb pair
        for n, (counts, row) in enumerate(zip(type_counts(params), rows), 1):
            assert (g[0], g[1]) == counts, (q, n)
            assert g[2] == sum(row_pairs(row)[1].values()), (q, n)
            g = [sum(map(mul, r, g)) + c for r, c in zip(m, h)]


@pytest.mark.parametrize("k", [0, 1])
def test_k0_k1_systems_step_the_streamed_rows(k):
    # The reduced systems that derive the counting recurrences, against
    # every row the default key cap streams: g_n is [#A, #B, #bb] at k = 0
    # and [a, b, u] at k = 1, read off the tag power sums of row n and its
    # bb pairs, and (A + q u v^T) g_n + h0 + q h1 must be g_{n+1}.
    s = sb.build_reduced_matrix(k)
    for q in (5, 6, 7, 9):
        rows = islice(pair_rows(TriangleParams(q), DEFAULT_KEY_CAP), 1, None)
        gs = []
        for (_, bb), counts in rows:
            a, b = tag_power_sums(counts, (k,))
            gs.append([a[k], b[k], sum(m * y**k for y, m in bb.items())])
        assert len(gs) == (12 if q == 5 else 11)
        for n, (g, g_next) in enumerate(zip(gs, gs[1:]), 1):
            vg = q * sum(map(mul, s.v, g))
            stepped = [sum(map(mul, row, g)) + ui * vg + c0 + q * c1
                       for row, ui, c0, c1 in zip(s.a, s.u, s.h0, s.h1)]
            assert stepped == g_next, (k, q, n)


def test_full_matrix_agrees_with_step_oracle():
    # M g_n + h must equal g_{n+1} computed from actual rows
    for q, k in ((5, 3), (6, 4), (7, 2)):
        m, h = system_at(build_full_matrix(k), q)
        rows = list(islice(entry_rows(TriangleParams(q)), 6))
        for n in range(1, 4):
            (g,), (g_next,) = [state_vectors(t, (k,), tag_power_sums(
                                   entry_counts(t), (k,)))
                               for t in map(row_pairs, rows[n:n + 2])]
            stepped = [sum(m[i][j] * g[j] for j in range(len(g))) + h[i]
                       for i in range(len(g))]
            assert stepped == g_next


def test_full_system_is_the_step_oracle_map():
    # The step oracle's equations are affine in the state vector: column j
    # of M is the oracle at e_j minus the oracle at 0, and h is the oracle
    # at 0.  Every column of the full system, at two q, for each k.
    for k in range(1, 21):
        n = k + 2
        for q in (5, 9):
            at_zero = _full_rhs([0] * n, q)
            columns = [[x - z for x, z in zip(
                _full_rhs([int(i == j) for i in range(n)], q), at_zero)]
                for j in range(n)]
            m, h = system_at(build_full_matrix(k), q)
            assert (m, h) == ([list(r) for r in zip(*columns)], at_zero), \
                (k, q)


def full_charpoly(k):
    """The full system's characteristic polynomial, as the (c0, c1) pairs
    of charpoly_q."""
    s = build_full_matrix(k)
    return charpoly_q(s.a, s.u, s.v)


def qpolys(pairs):
    return [QPoly(p) for p in pairs]


def test_charpoly_k2_golden():
    assert full_charpoly(2) == [(0, 0), (-2, 0), (6, 0), (-1, -1), (1, 0)]
    assert qpolys(full_charpoly(2)) == [qp(), qp(-2), qp(6), -Q - 1, qp(1)]


def test_charpoly_k2_at_q6():
    cp = full_charpoly(2)
    assert [c0 + 6 * c1 for c0, c1 in cp] \
        == [0, -2, 6, -7, 1]  # x^4-7x^3+6x^2-2x
    assert charpoly_int(system_at(build_full_matrix(2), 6)[0]) \
        == [0, -2, 6, -7, 1]


def test_structured_addends_k2_display():
    x1, x2 = structured_addends(2)

    def xm(c_q):  # c_q * x, ascending in x
        return [QPoly(), c_q]

    assert x1 == ([[xm(qp(-1)), xm(qp(2)), xm(qp(-1)), xm(qp(1))],
                   [[], xm(qp(-1)), xm(qp(1)), xm(qp(-1))],
                   [[], [], xm(qp(-1)), xm(qp(1))],
                   [[], [], xm(Q - 5), xm(-(Q - 4))]])
    one = [qp(1)]
    zero = []
    assert x2 == [[one, zero, one, zero],
                  [zero, [qp(2)], zero, one],
                  [one, zero, one, zero],
                  [zero, zero, one, zero]]


def test_structured_path_equivalence():
    for k in range(2, 12):
        assert build_structured_charpoly(k) == qpolys(full_charpoly(k))


def _fields(s):
    return s.k, s.a, s.u, s.v, s.h0, s.h1


def test_reduced_matrix_is_the_fold_of_the_full_system():
    # The closed form against the full system, entry by entry, folded, for
    # every k that the product derives.
    for k in range(sb.MAX_K + 1):
        assert _fields(sb.build_reduced_matrix(k)) \
            == _fields(fold_system(build_full_matrix(k))), k
    with pytest.raises(ValueError, match=">= 0"):
        sb.build_reduced_matrix(-1)


def test_fold_system_rejects_a_system_it_cannot_fold():
    # c_1 pairs full columns 1 and k-1; a row of a, or v, that differs
    # there has no folded column.
    for field, mutate in (("a", lambda s: s.a[0].__setitem__(1, 99)),
                          ("v", lambda s: s.v.__setitem__(1, 1))):
        broken = build_full_matrix(6)
        mutate(broken)
        with pytest.raises(ExactAlgError, match="columns 1/5"):
            fold_system(broken)


def test_lift_examples():
    lifted = sb.lift_inhomogeneous(full_charpoly(2))
    assert qpolys(lifted) == [qp(), qp(2), qp(-8), Q + 7, -Q - 2, qp(1)]
    x_minus_1 = [(-1, 0), (1, 0)]
    assert sb.lift_inhomogeneous(x_minus_1) == [(1, 0), (-2, 0), (1, 0)]
    assert sb.lift_inhomogeneous([(1, 0)]) == x_minus_1
    with pytest.raises(ValueError, match="nonzero"):
        sb.lift_inhomogeneous([(0, 0), (0, 0)])


def test_recurrence_from_polynomial_k2():
    lifted = sb.lift_inhomogeneous(full_charpoly(2))
    rec = sb.recurrence_from_polynomial(lifted, 2)
    assert rec.order == 4
    assert rec.coefficients == [Q + 2, -Q - 7, qp(8), qp(-2)]
    assert rec.x_strip_count == 1


def test_recurrence_from_polynomial_strips_geometric():
    rec = sb.recurrence_from_polynomial([(0, 0), (0, 0), (0, -1), (1, 0)], 2)
    assert rec.order == 1 and rec.coefficients == [Q] \
        and rec.x_strip_count == 2


def test_recurrence_from_polynomial_rejects_non_monic():
    for lead, shown in (((-1, 0), "-1"), ((2, 0), "2"), ((0, 1), "q")):
        with pytest.raises(ValueError,
                           match=rf"not monic \(leading {shown}\)"):
            sb.recurrence_from_polynomial([(0, 0), (0, -1), lead], 2)
    with pytest.raises(ValueError, match="zero-free"):
        sb.recurrence_from_polynomial([(0, 0), (0, 0)], 2)


def test_recurrence_for_k_derives_k0_and_k1():
    rec0 = sb.recurrence_for_k(0)
    assert rec0.coefficients == [Q - 1, -Q + 1, qp(1)]
    assert rec0.initial_values == [qp(2), qp(3), Q]
    rec1 = sb.recurrence_for_k(1)
    assert rec1.coefficients == [Q, -Q - 1, qp(2)]
    assert rec1.initial_values == [qp(2), qp(4), 2 * Q]
    # the u column is read by no row at k = 0 and 1
    assert rec0.x_strip_count == rec1.x_strip_count == 1


def test_recurrence_for_k_examples():
    rec3 = sb.recurrence_for_k(3, with_initial_values=False)
    assert rec3.coefficients == [Q + 4, Q - 19, -2 * Q + 18, qp(-2)]
    rec4 = sb.recurrence_for_k(4, with_initial_values=False)
    assert rec4.coefficients == [Q + 7, 6 * Q - 41, -7 * Q + 31, qp(6),
                                 qp(-2)]
    rec5 = sb.recurrence_for_k(5, with_initial_values=False)
    assert rec5.coefficients == [Q + 11, 18 * Q - 71, -9 * Q - 17,
                                 -10 * Q + 88, qp(-10)]


def _initial_values_against_rows(k, q, d=None):
    """The first d initial values at q, asserted equal to direct summation
    over generated rows."""
    vals = [v(q) for v in sb.recurrence_for_k(k).initial_values[:d]]
    rows = list(islice(entry_rows(TriangleParams(q)), len(vals) + 1))
    assert vals == [sum(v**k for v, _ in rows[n])
                    for n in range(1, len(vals) + 1)], (k, q)
    return vals


def test_initial_values_match_row_sums():
    for k in range(9):
        for q in (5, 6, 7, 9):
            _initial_values_against_rows(k, q)
    _initial_values_against_rows(14, 5, 10)
    assert _initial_values_against_rows(2, 6) == [2, 6, 28, 160]
    assert _initial_values_against_rows(0, 7) == [2, 3, 7]
    assert _initial_values_against_rows(1, 5) == [2, 4, 10]


def test_initial_values_symbolic():
    vals = sb.initial_values_symbolic(sb.build_reduced_matrix(2), 4)
    assert vals == [qp(2), qp(6), 4 * Q + 4, qp(-20, 6, 4)]
    assert sb.initial_values_symbolic(sb.build_reduced_matrix(1), 3) == [
        qp(2), qp(4), 2 * Q]
    with pytest.raises(ValueError):
        sb.initial_values_symbolic(sb.build_reduced_matrix(2), 0)


def test_reduced_matrix_dimensions():
    for k, dim in ((2, 4), (3, 4), (4, 5), (5, 5), (10, 8), (11, 8)):
        assert len(sb.build_reduced_matrix(k).a) == dim \
            == sb.conjectured_order(k)


def test_reduced_path_matches_full_path():
    # the product path (reduced charpoly times x^(n-r)) against the
    # direct route through the full matrix's own characteristic polynomial
    for k in range(17):
        derived = sb.recurrence_for_k(k, with_initial_values=False)
        direct = sb.recurrence_from_polynomial(
            sb.lift_inhomogeneous(full_charpoly(k)), k)
        for attr in ("coefficients", "order", "x_strip_count"):
            assert getattr(derived, attr) == getattr(direct, attr), (k, attr)


def test_recurrence_for_k_builds_the_reduced_matrix_once(monkeypatch):
    # The derivation builds the reduced matrix once, and no full matrix:
    # it reads the full dimension max(k, 1) + 2 from k.  The initial values
    # are iterated on that same reduced system.
    builds = []
    real = sb.build_reduced_matrix

    def counted(k):
        builds.append(k)
        return real(k)

    monkeypatch.setattr(sb, "build_reduced_matrix", counted)
    for k in range(13):
        builds.clear()
        sb.recurrence_for_k(k, with_initial_values=False)
        assert builds == [k]
        assert len(build_full_matrix(k).a) == max(k, 1) + 2
        builds.clear()
        rec = sb.recurrence_for_k(k)
        assert builds == [k]
        builds.clear()
        assert sb.initial_values_symbolic(
            sb.build_reduced_matrix(k), rec.order) == rec.initial_values
        assert builds == [k]


def test_reduced_matrix_commutes_with_fold():
    # fold(M g + h) == M_red fold(g) + h_red for arbitrary full vectors g
    rng = random.Random(4242)
    for k in range(2, 41):
        full, reduced = build_full_matrix(k), sb.build_reduced_matrix(k)
        for q in (5, 9):
            m, h = system_at(full, q)
            m_red, h_red = system_at(reduced, q)
            for _ in range(3):
                g = [rng.randint(-10**6, 10**6) for _ in range(k + 2)]
                stepped = [sum(a * b for a, b in zip(row, g)) + c
                           for row, c in zip(m, h)]
                folded = fold_state(g)
                assert fold_state(stepped) == [
                    sum(a * b for a, b in zip(row, folded)) + c
                    for row, c in zip(m_red, h_red)], (k, q)


def test_full_matrix_annihilates_fold_kernel():
    for k in range(2, 65):
        full = build_full_matrix(k)
        kernel = [(j, k - j) for j in range(1, k) if 2 * j < k]
        assert len(kernel) == k + 2 - len(sb.build_reduced_matrix(k).a)
        for j, jj in kernel:
            # columns j and jj of a + q u v^T agree at every q
            assert all(row[j] == row[jj] for row in full.a), (k, j)
            assert full.v[j] == full.v[jj], (k, j)


def test_full_charpoly_is_x_power_times_reduced():
    for k in range(21):
        reduced = sb.build_reduced_matrix(k)
        nullity = len(build_full_matrix(k).a) - len(reduced.a)
        assert full_charpoly(k) == [(0, 0)] * nullity + charpoly_q(
            reduced.a, reduced.u, reduced.v), k


def test_initial_values_match_full_orbit():
    for k in list(range(13)) + [32]:
        m, h = system_at(build_full_matrix(k), Q)
        bk = len(m) - 2  # the b^k coordinate
        g = [QZERO] * bk + [qp(2), qp(1)]
        orbit = [g[0] + g[bk]]
        while len(orbit) < sb.conjectured_order(k) + 1:
            g = [sum((a * b for a, b in zip(row, g)), c)
                 for row, c in zip(m, h)]
            orbit.append(g[0] + g[bk])
        assert sb.initial_values_symbolic(
            sb.build_reduced_matrix(k), len(orbit)) == orbit, k


def test_trailing_zero_anomalies():
    rec9 = sb.recurrence_for_k(9, with_initial_values=False)
    assert rec9.order == 6 < sb.conjectured_order(9)
    rec11 = sb.recurrence_for_k(11, with_initial_values=False)
    assert rec11.order == 7 < sb.conjectured_order(11)
    rec10 = sb.recurrence_for_k(10, with_initial_values=False)
    assert rec10.order == 8 == sb.conjectured_order(10)


def test_lemma_round_trip_randomized():
    rng = random.Random(99)
    for _ in range(20):
        nu = rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(nu)] for _ in range(nu)]
        g = [[rng.randint(-3, 3) for _ in range(nu)]]
        for _ in range(nu + 8):
            g.append([sum(m[i][j] * g[-1][j] for j in range(nu))
                      for i in range(nu)])
        cp = charpoly_int(m)
        alphas = [-cp[i] for i in range(nu)]  # g_{t+nu} = sum a_i g_{t+i}
        for t in range(8):
            lhs = g[t + nu]
            rhs = [sum(alphas[i] * g[t + i][c] for i in range(nu))
                   for c in range(nu)]
            assert lhs == rhs
