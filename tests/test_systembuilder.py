import random

import pytest

from hptsums import systembuilder as sb
from hptsums.exactalg import (Q, QZERO, QPoly, XQPoly, binom, charpoly_int,
                              charpoly_q)
from hptsums.sums import StateVector, fold_state, power_sum, state_vector
from hptsums.triangle import TriangleParams, generate_rows
from reference import (build_structured_charpoly, row_triples,
                       structured_addends)


def qp(*coeffs):
    return QPoly(coeffs)


def test_full_matrix_k2():
    sys2 = sb.build_full_matrix(2)
    assert sys2.matrix.entries == [
        [qp(2), qp(4), qp(2), qp(2)],
        [qp(1), qp(2), qp(1), qp(1)],
        [Q - 4, qp(), Q - 3, qp()],
        [Q - 5, qp(), Q - 4, qp()],
    ]
    assert sys2.constant == [qp(-2), qp(-1), -2 * (Q - 4), -2 * (Q - 4)]


def test_full_matrix_entry_formulas():
    sys3 = sb.build_full_matrix(3)
    assert sys3.matrix.entries[0][2] == qp(binom(3, 2) + binom(3, 1))  # = 6
    for k in (2, 4, 7):
        s = sb.build_full_matrix(k)
        assert s.matrix.entries[k][0] == Q - 4
        assert s.matrix.entries[k][k] == Q - 3
        assert s.matrix.entries[k + 1][0] == Q - 5
        assert s.matrix.entries[k + 1][k] == Q - 4
        assert s.matrix.entries[0][k + 1] == qp(2**k - 2)
        assert s.constant == [qp(-2)] + [qp(-1)] * (k - 1) \
            + [-2 * (Q - 4)] * 2


def test_full_matrix_rejects_small_k():
    with pytest.raises(ValueError):
        sb.build_full_matrix(1)


def test_full_matrix_agrees_with_step_oracle():
    # M g_n + h must equal g_{n+1} computed from actual rows
    for q, k in ((5, 3), (6, 4), (7, 2)):
        sys_k = sb.build_full_matrix(k)
        m = sys_k.matrix.eval_q(q)
        h = [c(q) for c in sys_k.constant]
        rows = generate_rows(TriangleParams(q), 5, entry_cap=10**5).rows
        for n in range(1, 4):
            g = state_vector(row_triples(rows[n]), k).coords
            g_next = state_vector(row_triples(rows[n + 1]), k).coords
            stepped = [sum(m[i][j] * g[j] for j in range(len(g))) + h[i]
                       for i in range(len(g))]
            assert stepped == g_next


def test_charpoly_k2_golden():
    cp = charpoly_q(sb.build_full_matrix(2).matrix)
    assert cp == XQPoly([qp(), qp(-2), qp(6), -Q - 1, qp(1)])


def test_charpoly_k2_at_q6():
    cp = charpoly_q(sb.build_full_matrix(2).matrix)
    assert [c(6) for c in cp.coeffs] == [0, -2, 6, -7, 1]  # x^4-7x^3+6x^2-2x
    assert charpoly_int(sb.build_full_matrix(2).matrix.eval_q(6)) \
        == [0, -2, 6, -7, 1]


def test_structured_addends_k2_display():
    x1, x2 = structured_addends(2)

    def xm(c_q):  # c_q * x as an XQPoly
        return XQPoly([QPoly(), c_q])

    assert x1 == ([[xm(qp(-1)), xm(qp(2)), xm(qp(-1)), xm(qp(1))],
                   [XQPoly(), xm(qp(-1)), xm(qp(1)), xm(qp(-1))],
                   [XQPoly(), XQPoly(), xm(qp(-1)), xm(qp(1))],
                   [XQPoly(), XQPoly(), xm(Q - 5), xm(-(Q - 4))]])
    one = XQPoly([qp(1)])
    zero = XQPoly()
    assert x2 == [[one, zero, one, zero],
                  [zero, XQPoly([qp(2)]), zero, one],
                  [one, zero, one, zero],
                  [zero, zero, one, zero]]


def test_structured_path_equivalence():
    for k in range(2, 12):
        assert build_structured_charpoly(k) \
            == charpoly_q(sb.build_full_matrix(k).matrix)


def test_lift_examples():
    cp2 = charpoly_q(sb.build_full_matrix(2).matrix)
    lifted = sb.lift_inhomogeneous(cp2)
    assert lifted == XQPoly([qp(), qp(2), qp(-8), Q + 7, -Q - 2, qp(1)])
    x_minus_1 = XQPoly([qp(-1), qp(1)])
    assert sb.lift_inhomogeneous(x_minus_1) \
        == XQPoly([qp(1), qp(-2), qp(1)])
    assert sb.lift_inhomogeneous(XQPoly([qp(1)])) == x_minus_1


def test_recurrence_from_polynomial_k2():
    lifted = sb.lift_inhomogeneous(charpoly_q(sb.build_full_matrix(2).matrix))
    rec = sb.recurrence_from_polynomial(lifted, 2)
    assert rec.order == 4
    assert rec.coefficients == [Q + 2, -Q - 7, qp(8), qp(-2)]
    assert rec.x_strip_count == 1


def test_recurrence_from_polynomial_strips_geometric():
    rec = sb.recurrence_from_polynomial(XQPoly([qp(), qp(), -Q, qp(1)]), 2)
    assert rec.order == 1 and rec.coefficients == [Q] \
        and rec.x_strip_count == 2


def test_recurrence_from_polynomial_rejects_non_monic():
    for lead in (qp(-1), qp(2), Q):
        with pytest.raises(ValueError, match="not monic"):
            sb.recurrence_from_polynomial(XQPoly([qp(), -Q, lead]), 2)


def test_recurrence_for_k_closed_forms():
    rec0 = sb.recurrence_for_k(0)
    assert rec0.coefficients == [Q - 1, -Q + 1, qp(1)]
    assert rec0.initial_values == [qp(2), qp(3), Q]
    rec1 = sb.recurrence_for_k(1)
    assert rec1.coefficients == [Q, -Q - 1, qp(2)]
    assert rec1.initial_values == [qp(2), qp(4), 2 * Q]


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
    rows = generate_rows(TriangleParams(q), len(vals)).rows
    assert vals == [power_sum(row_triples(rows[n]), k)
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
    vals = sb.initial_values_symbolic(2, 4)
    assert vals == [qp(2), qp(6), 4 * Q + 4, qp(-20, 6, 4)]
    with pytest.raises(ValueError):
        sb.initial_values_symbolic(1, 3)


def test_reduced_matrix_dimensions():
    for k, dim in ((2, 4), (3, 4), (4, 5), (5, 5), (10, 8), (11, 8)):
        assert sb.build_reduced_matrix(k).matrix.dim == dim \
            == sb.conjectured_order(k)


def test_reduced_path_matches_full_path():
    # the product path (reduced charpoly times x^(k+2-r)) against the
    # direct route through the full matrix's own characteristic polynomial
    for k in range(2, 17):
        derived = sb.recurrence_for_k(k, with_initial_values=False)
        direct = sb.recurrence_from_polynomial(sb.lift_inhomogeneous(
            charpoly_q(sb.build_full_matrix(k).matrix)), k)
        for attr in ("coefficients", "order", "x_strip_count"):
            assert getattr(derived, attr) == getattr(direct, attr), (k, attr)


def test_reduced_matrix_commutes_with_fold():
    # fold(M g + h) == M_red fold(g) + h_red for arbitrary full vectors g
    rng = random.Random(4242)
    for k in range(2, 41):
        full, reduced = sb.build_full_matrix(k), sb.build_reduced_matrix(k)
        for q in (5, 9):
            m, h = full.matrix.eval_q(q), [c(q) for c in full.constant]
            m_red = reduced.matrix.eval_q(q)
            h_red = [c(q) for c in reduced.constant]
            for _ in range(3):
                g = [rng.randint(-10**6, 10**6) for _ in range(k + 2)]
                stepped = [sum(a * b for a, b in zip(row, g)) + c
                           for row, c in zip(m, h)]
                folded = fold_state(StateVector(k, g))
                assert fold_state(StateVector(k, stepped)) == [
                    sum(a * b for a, b in zip(row, folded)) + c
                    for row, c in zip(m_red, h_red)], (k, q)


def test_full_matrix_annihilates_fold_kernel():
    for k in range(2, 65):
        m = sb.build_full_matrix(k).matrix.entries
        kernel = [(j, k - j) for j in range(1, k) if 2 * j < k]
        assert len(kernel) == k + 2 - sb.build_reduced_matrix(k).matrix.dim
        for j, jj in kernel:
            assert all(row[j] == row[jj] for row in m), (k, j)


def test_full_charpoly_is_x_power_times_reduced():
    for k in range(2, 21):
        reduced = sb.build_reduced_matrix(k).matrix
        nullity = k + 2 - reduced.dim
        assert charpoly_q(sb.build_full_matrix(k).matrix) == XQPoly(
            (QZERO,) * nullity + charpoly_q(reduced).coeffs), k


def test_initial_values_match_full_orbit():
    for k in list(range(2, 13)) + [32]:
        full = sb.build_full_matrix(k)
        g = [QZERO] * k + [qp(2), qp(1)]
        orbit = [g[0] + g[k]]
        while len(orbit) < sb.conjectured_order(k) + 1:
            g = [sum((a * b for a, b in zip(row, g)), c)
                 for row, c in zip(full.matrix.entries, full.constant)]
            orbit.append(g[0] + g[k])
        assert sb.initial_values_symbolic(k, len(orbit)) == orbit, k


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
