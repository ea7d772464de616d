import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hptsums import exactalg
from hptsums import systembuilder as sb
from hptsums.exactalg import (ExactAlgError, QPoly, binom, charpoly_q,
                              format_qpoly)
from reference import (Q, RingPoly, build_full_matrix, charpoly_int,
                       charpoly_rank_one, det_int, lagrange_interpolate,
                       matrix_from_orbit, rank_one_update, xq_eval_x)

small_ints = st.integers(-50, 50)
qpolys = st.lists(small_ints, max_size=5).map(RingPoly)


def test_qpoly_canonical_form():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert not QPoly((0, 0))


def test_qpoly_examples():
    assert (4 * Q + 4)(6) == 28
    assert (Q - 1) + (-Q + 1) == QPoly()
    assert (Q + 2) * (Q - 1) == QPoly((-2, 1, 1))


def test_qpoly_hash_agrees_with_int_equality():
    # A constant polynomial equals its integer, so it must hash like it.
    for c in range(-50, 51):
        assert QPoly((c,)) == c and hash(QPoly((c,))) == hash(c)
    assert 5 in {QPoly((5,))} and QPoly((-3,)) in {-3}
    assert QPoly() == 0 and 0 in {QPoly()}
    assert len({QPoly((7,)), 7, QPoly((7, 0))}) == 1


def test_qpoly_formatting():
    assert format_qpoly(-62 * Q + 404) == "-62q+404"
    assert format_qpoly(Q + 2) == "q+2"
    assert format_qpoly(QPoly()) == "0"
    assert format_qpoly(QPoly((0, 0, 4))) == "4q^2"


@settings(max_examples=60)
@given(a=qpolys, b=qpolys, c=qpolys)
def test_qpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QPoly() == a
    assert a - a == QPoly()


@settings(max_examples=60)
@given(a=qpolys, b=qpolys, q0=st.integers(-9, 9))
def test_qpoly_evaluation_is_homomorphism(a, b, q0):
    assert (a + b)(q0) == a(q0) + b(q0)
    assert (a * b)(q0) == a(q0) * b(q0)


def test_binom_convention():
    assert binom(5, -1) == 0
    assert binom(3, 4) == 0
    assert binom(5, 2) == 10


@settings(max_examples=200)
@given(data=st.data())
def test_binomial_alternating_identity(data):
    z = data.draw(st.integers(0, 30))
    delta = data.draw(st.integers(0, z))
    r = data.draw(st.integers(0, z))
    lhs = sum((-1)**t * binom(delta, t) * binom(z - t, r)
              for t in range(delta + 1))
    assert lhs == binom(z - delta, r - delta)


def test_charpoly_int_trivial():
    assert charpoly_int([[5]]) == [-5, 1]
    assert charpoly_int([[1, 0], [0, 1]]) == [1, -2, 1]


@settings(max_examples=40)
@given(diag=st.lists(st.integers(-8, 8), min_size=1, max_size=5))
def test_charpoly_int_triangular(diag):
    n = len(diag)
    rng = random.Random(sum(diag) + n)
    m = [[diag[i] if i == j else (rng.randint(-5, 5) if j > i else 0)
          for j in range(n)] for i in range(n)]
    # product of (x - d) over the diagonal
    expected = [1]
    for d in diag:
        expected = [0] + expected
        for i in range(len(expected) - 1):
            expected[i] -= d * expected[i + 1]
    assert charpoly_int(m) == expected


def test_det_int_matches_charpoly_constant():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        cp = charpoly_int(m)
        assert det_int(m) == (-1)**n * cp[0]


def test_charpoly_int_matches_bareiss_at_n_plus_1_points():
    # n = 1..13 reaches the last trace step with both parities of n; the
    # char poly has degree n, so n+1 points determine it.
    rng = random.Random(2024)
    singular = [[1, 2, 3], [2, 4, 6], [-1, 5, 0]]
    cases = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
             for n in range(1, 14)] + [singular]
    for m in cases:
        n = len(m)
        cp = charpoly_int(m)
        assert len(cp) == n + 1 and cp[n] == 1
        for x0 in range(-(n // 2), n - n // 2 + 1):
            shifted = [[(x0 if i == j else 0) - m[i][j] for j in range(n)]
                       for i in range(n)]
            assert det_int(shifted) == QPoly(cp)(x0), (m, x0)
    assert charpoly_int(singular)[0] == 0 == det_int(singular)


def _agrees_with_bareiss(m, cp) -> bool:
    """cp is det(xI - m): monic of degree n and equal to the Bareiss
    determinant at n+1 integer points."""
    n = len(m)
    return len(cp) == n + 1 and cp[n] == 1 and all(
        det_int([[(x0 if i == j else 0) - m[i][j] for j in range(n)]
                 for i in range(n)]) == QPoly(cp)(x0)
        for x0 in range(-(n // 2), n - n // 2 + 1))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_products_match_bareiss(data):
    # Entries up to 2^70 of either sign: the packed slots of m^a span
    # several hundred bits and hold negative entries.
    n = data.draw(st.integers(1, 8))
    entry = st.integers(-2**70, 2**70) | st.sampled_from(
        [0, 1, -1, 2**70, -2**70])
    m = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    assert _agrees_with_bareiss(m, charpoly_int(m))


def test_packed_products_at_the_slot_bound():
    # Each product m p is packed from the bound ||m|| max|p|, which these
    # powers reach exactly, at both signs.
    c = 2**64 - 1
    for n in range(3, 9):
        alternating = [[(-1)**i * c if i == j else 0 for j in range(n)]
                       for i in range(n)]
        expected = [1]  # the product of (x - d) over the diagonal
        for i in range(n):
            expected = [0] + expected
            for j in range(len(expected) - 1):
                expected[j] -= (-1)**i * c * expected[j + 1]
        assert charpoly_int(alternating) == expected
        for sign in (1, -1):  # sign c J: m^a = (sign c)^a n^(a-1) J
            m = [[sign * c] * n for _ in range(n)]
            assert charpoly_int(m) == [0] * (n - 1) + [-sign * n * c, 1]
    # m = w v^T with w = (1, 1, -1) and v = (x, y, -z), y, z <= x: ||m|| =
    # x + y + z = v.w and max|m| = x, and m^2 = (v.w) m holds +-x (v.w) =
    # +-bound in its first column, which the trace of m^3 reads.  2^15 - 1
    # and 2^63 - 1 fill a slot of 2 and 8 bytes to its first and last value.
    for x, bound in ((151, 2**15 - 1), (2323823089, 2**63 - 1)):
        rest = bound // x - x
        y, z = rest // 2, rest - rest // 2
        assert x * (x + y + z) == bound and 0 < y <= z <= x
        m = [[x, y, -z], [x, y, -z], [-x, -y, z]]
        assert charpoly_int(m) == [0, 0, -(x + y + z), 1]
        assert _agrees_with_bareiss(m, charpoly_int(m))


def test_charpoly_int_where_no_product_runs():
    # n <= 2 runs no product, and the zero matrix has bound 0.
    c = 2**64 - 1
    assert charpoly_int([]) == [1]
    assert charpoly_int([[-c]]) == [c, 1]
    assert charpoly_int([[c, 0], [0, -c]]) == [-c * c, 0, 1]
    for n in range(1, 9):
        assert charpoly_int([[0] * n for _ in range(n)]) == [0] * n + [1]


def _counting_charpoly_q(monkeypatch, a, u, v):
    """charpoly_q(a, u, v) and the matrices it passed to the Newton loop
    of charpoly_int."""
    calls = []
    newton = exactalg._newton
    with monkeypatch.context() as patch:
        patch.setattr(exactalg, "_newton", lambda mat, *rest: calls.append(
            mat) or newton(mat, *rest))
        cp = charpoly_q(a, u, v)
    return cp, calls


def _at(cp, q0):
    """The x-coefficients of charpoly_q's (c0, c1) pairs at q = q0."""
    return [c0 + c1 * q0 for c0, c1 in cp]


def _random_rank_one_cases():
    """Random integer a (n = 1..8) with random u and v, zero vectors and
    negative entries included, and a 2x2 [[q-4, 2], [q-5, 3]]."""
    rng = random.Random(77)

    def vec(n):
        return [rng.randint(-4, 4) for _ in range(n)]

    cases = [([[-4, 2], [-5, 3]], [1, 1], [1, 0])]
    for n in range(1, 9):
        a = [vec(n) for _ in range(n)]
        cases += [(a, vec(n), vec(n)), (a, [0] * n, vec(n)),
                  (a, vec(n), [0] * n)]
    return cases


def test_charpoly_rank_one_is_the_determinant_lemma():
    # The reference takes any a, u and v; its coefficients at held-out q
    # are the integer charpoly of a + q u v^T.
    for a, u, v in _random_rank_one_cases():
        cp = charpoly_rank_one(a, u, v)
        for q0 in (11, 23, 40):
            assert [c(q0) for c in cp] \
                == charpoly_int(rank_one_update(a, u, v, q0)), (a, u, v, q0)


def test_charpoly_rank_one_diagonal():
    cp = charpoly_rank_one([[0, 0], [0, 1]], [1, 0], [1, 0])
    assert cp == [Q, -Q - 1, QPoly((1,))]  # (x-q)(x-1)


SYSTEMS = {
    "reduced k=2..64": lambda: [(s.a, s.u, s.v) for s in map(
        sb.build_reduced_matrix, range(2, 65))],
    "full k=2..20": lambda: [(s.a, s.u, s.v) for s in map(
        build_full_matrix, range(2, 21))],
}


@pytest.mark.parametrize("family", SYSTEMS)
def test_charpoly_q_is_the_determinant_lemma(monkeypatch, family):
    # One run of the Newton loop per system, on the (n-2)-dim block off
    # the two q-rows; the result is the lemma's on all n dimensions, and
    # its coefficients at held-out q are the integer charpoly of
    # a + q u v^T.
    for a, u, v in SYSTEMS[family]():
        n = len(a)
        cp, calls = _counting_charpoly_q(monkeypatch, a, u, v)
        assert len(calls) == 1, n
        assert len(calls[0]) == n - 2, n
        assert all(len(row) == n - 2 for row in calls[0]), n
        assert [QPoly(c) for c in cp] == charpoly_rank_one(a, u, v), n
        for q0 in (11, 23, 40):
            assert _at(cp, q0) \
                == charpoly_int(rank_one_update(a, u, v, q0)), (a, u, v, q0)


@st.composite
def _two_row_systems(draw):
    """An integer a, u and v of the form charpoly_q accepts: u nonzero on
    two rows S, which with v read one column d0 outside S, and a q-free
    block on the other coordinates of dimension 1..10, entries up to
    2^40 of either sign."""
    big = st.integers(-2**40, 2**40)
    nonzero = big.filter(bool)
    dim = draw(st.integers(1, 10))
    n = dim + 2
    order = draw(st.permutations(range(n)))
    qrows, rest = sorted(order[:2]), order[2:]
    d0 = rest[0]
    a = [[draw(big) for _ in range(n)] for _ in range(n)]
    u, v = [0] * n, [0] * n
    for s in qrows:
        u[s] = draw(nonzero)
        a[s] = [draw(big) if j in qrows else 0 for j in range(n)]
    for j in qrows:
        v[j] = draw(big)
    # at least one of v and the q-rows reads d0
    where = draw(st.sampled_from(["v", "a0", "a1"]))
    v[d0] = draw(nonzero if where == "v" else big)
    for s, name in zip(qrows, ("a0", "a1")):
        a[s][d0] = draw(nonzero if where == name else big)
    return a, u, v


@settings(max_examples=60, deadline=None)
@given(system=_two_row_systems())
def test_charpoly_q_moments_match_held_out_q(system):
    # The moments e_d0^T a_DD^j a_{D,s} come off the powers of the Newton
    # loop, the last ones through m^H a_{D,s}; a moment read one power off,
    # or from the wrong power, changes a coefficient at some q0.
    a, u, v = system
    cp = charpoly_q(a, u, v)
    assert len(cp) == len(a) + 1
    for q0 in (3, -17, 2**20 + 1):
        assert _at(cp, q0) == charpoly_int(rank_one_update(a, u, v, q0)), q0


def _broken_q_parts():
    """Reduced k=10, over [a^k, b^k, c_1..c_5, u], edited so that the
    q-part no longer sits on two rows reading one column outside them."""
    s = sb.build_reduced_matrix(10)
    third_column = [row[:] for row in s.a]
    third_column[1][3] = 1  # the b^k row also reads c_2
    one_row, three_rows, second_column = s.u[:], s.u[:], s.v[:]
    one_row[-1] = 0
    three_rows[2] = 1
    second_column[2] = 1  # v reads c_1 as well as a^k
    return {"a[1][3] = 1": (third_column, s.u, s.v),
            "u on one row": (s.a, one_row, s.v),
            "u on three rows": (s.a, three_rows, s.v),
            "v reads two columns outside": (s.a, s.u, second_column)}


@pytest.mark.parametrize("case", _broken_q_parts())
def test_charpoly_q_checks_its_precondition(case):
    a, u, v = _broken_q_parts()[case]
    with pytest.raises(ExactAlgError):
        charpoly_q(a, u, v)


def test_lagrange_examples():
    assert lagrange_interpolate([(5, 24), (6, 28), (7, 32)], 1) == 4 * Q + 4
    assert lagrange_interpolate([(5, 7)], 0) == QPoly((7,))


def test_lagrange_rejects_wrong_bound():
    pts = [(5, 25), (6, 36), (7, 49), (8, 64)]  # q^2 with linear bound
    with pytest.raises(ExactAlgError):
        lagrange_interpolate(pts, 1)


def test_lagrange_rejects_noninteger():
    with pytest.raises(ExactAlgError):
        lagrange_interpolate([(0, 0), (2, 1)], 1)


@settings(max_examples=40)
@given(coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=5))
def test_lagrange_round_trip(coeffs):
    p = QPoly(coeffs)
    bound = max(len(p.coeffs) - 1, 0)
    pts = [(x, p(x)) for x in range(5, 5 + bound + 3)]
    assert lagrange_interpolate(pts, bound) == p


def test_matrix_from_orbit_trivial():
    assert matrix_from_orbit([[2], [6]]) == [[3]]


def test_matrix_from_orbit_rejects_dependent():
    with pytest.raises(ExactAlgError):
        matrix_from_orbit([[1, 2], [2, 4], [3, 6]])


def test_matrix_from_orbit_recovers_action():
    rng = random.Random(42)
    m = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
    g = [[1, 0, 2]]
    for _ in range(6):
        g.append([sum(m[i][j] * g[-1][j] for j in range(3))
                  for i in range(3)])
    rec = matrix_from_orbit(g[:4])
    for t in range(6):
        stepped = [sum(rec[i][j] * g[t][j] for j in range(3))
                   for i in range(3)]
        assert stepped == g[t + 1]


def test_xq_eval_x():
    x_minus_1_squared = [QPoly((1,)), QPoly((-2,)), QPoly((1,))]
    assert xq_eval_x(x_minus_1_squared, 3).coeffs == (4,)
    assert xq_eval_x([Q, -Q - 1, QPoly((1,))], 2) == -Q + 2  # (2-q)(2-1)
