"""Second routes to facts the package derives one way, kept as references
that tests compare the product path against.  No command runs them.

  * RingPoly, a QPoly with the ring operations, and the symbol Q, QZERO
    and QONE as ring values: the package builds each QPoly once and does
    no arithmetic on it, and the references and expected values here do;
  * charpoly_int, det(xI - m) for an integer matrix m alone, from the
    Newton loop that exactalg.charpoly_q runs on its q-free block; the
    tests' integer oracle at a held-out q;
  * lagrange_interpolate, the integer polynomial through sample points
    over exact rationals, with extra points that verify its degree bound;
  * charpoly_rank_one, the characteristic polynomial of a + q u v^T for
    any integer a, u and v by the matrix determinant lemma on all n
    dimensions, the general form of exactalg.charpoly_q;
  * rank_one_update and system_at, a systembuilder.LinearSystem written
    out as its matrix a + q u v^T and constant h0 + q h1, at an integer q
    or over Z[q] with q = Q, as lists of ints or of QPoly;
  * det_int, Bareiss's fraction-free determinant (Math. Comp. 22, 1968),
    and det_q, the same for a matrix of q-linear QPoly entries by
    evaluating q at integer points and interpolating;
  * structured_addends and build_structured_charpoly, the characteristic
    polynomial as the determinant of the row-reduced form of M - xI, with
    polynomials in x as ascending lists of QPoly (xq_add, xq_eval_x);
  * build_full_matrix, the full system of dimension k+2 written entry by
    entry from its defining binomials, and fold_system, its fold into the
    reduced coordinates, read at the first column of each fold class only
    where every row of a, and v, agrees at both columns of a class; the
    tests compare systembuilder.build_reduced_matrix, which writes the
    folded system directly, against the two;
  * matrix_from_orbit, a system matrix recovered from its orbit;
  * entry_pairs and pair_sum, the literal multiset of a materialised
    row's adjacent pairs, a plain dict from flat (x, tx, y, ty) keys to
    multiplicities, and the sums over those pairs;
  * row_pairs, a materialised row's half pair multiset (ab, bb), the form
    that triangle.pair_rows steps, read from its literal pairs with no
    symmetry assumed.
"""
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from operator import mul

from hptsums.exactalg import ExactAlgError, QPoly, _newton, binom
from hptsums.systembuilder import LinearSystem, fold_classes, fold_state


class RingPoly(QPoly):
    """A QPoly with +, - and *, with ints and any QPoly; every result is a
    RingPoly.  Equality and hashing are QPoly's, so a RingPoly equals the
    QPoly of the same coefficients."""

    __slots__ = ()

    def __add__(self, other) -> "RingPoly":
        other = _as_ring(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RingPoly(self.coeff(d) + other.coeff(d) for d in range(n))

    __radd__ = __add__

    def __sub__(self, other) -> "RingPoly":
        return self + -_as_ring(other)

    def __rsub__(self, other) -> "RingPoly":
        return _as_ring(other) + -self

    def __neg__(self) -> "RingPoly":
        return RingPoly(-c for c in self.coeffs)

    def __mul__(self, other) -> "RingPoly":
        other = _as_ring(other)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return RingPoly(out)

    __rmul__ = __mul__


def _as_ring(v) -> RingPoly:
    if isinstance(v, QPoly):
        return RingPoly(v.coeffs)
    if isinstance(v, int):
        return RingPoly((v,))
    raise TypeError(f"cannot coerce {v!r} to RingPoly")


Q = RingPoly((0, 1))
QZERO = RingPoly()
QONE = RingPoly((1,))


def lagrange_interpolate(points, deg_bound: int) -> QPoly:
    """Unique integer polynomial of degree <= deg_bound through the points.

    Fits on the first deg_bound+1 points with exact rationals, then checks
    the remaining points and the integrality of every coefficient; either
    failure signals a wrong degree bound and raises ExactAlgError.
    """
    if deg_bound < 0:
        raise ValueError("deg_bound must be >= 0")
    if len(points) < deg_bound + 1:
        raise ValueError("need at least deg_bound+1 points")
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("abscissae must be distinct")
    fit = points[: deg_bound + 1]
    # Newton divided differences over Fraction.
    n = len(fit)
    dd = [Fraction(y) for _, y in fit]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (fit[i][0] - fit[i - level][0])
    # Expand the Newton form into monomial coefficients.
    coeffs = [Fraction(0)] * n
    acc = [Fraction(1)]  # product (x - x_0)...(x - x_{i-1})
    for i in range(n):
        for d, c in enumerate(acc):
            coeffs[d] += dd[i] * c
        if i < n - 1:
            x_i = fit[i][0]
            acc = [Fraction(0)] + acc
            for d in range(len(acc) - 1):
                acc[d] -= x_i * acc[d + 1]
    if any(c.denominator != 1 for c in coeffs):
        raise ExactAlgError(f"non-integer interpolation result: {coeffs}")
    poly = RingPoly(int(c) for c in coeffs)
    for x0, y0 in points[deg_bound + 1:]:
        if poly(x0) != y0:
            raise ExactAlgError(
                f"degree bound {deg_bound} fails at verification point "
                f"({x0}, {y0}): polynomial gives {poly(x0)}")
    return poly


def det_int(m) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_q(m) -> QPoly:
    """Exact determinant of a square matrix of QPoly entries, given as a
    list of rows: det_int at q = 5, 6, ... interpolated.

    With entries of q-degree <= 1 the determinant, multilinear in the rows,
    has q-degree at most the number of q-dependent rows; one extra point
    verifies the bound."""
    if any(len(e.coeffs) > 2 for row in m for e in row):
        raise ValueError("matrix entries must have degree <= 1 in q")
    deg_bound = len([row for row in m if any(len(e.coeffs) > 1 for e in row)])
    points = [(q0, det_int([[e(q0) for e in row] for row in m]))
              for q0 in range(5, 5 + deg_bound + 2)]
    return lagrange_interpolate(points, deg_bound)


def charpoly_int(m) -> list:
    """det(xI - m) for an integer matrix m, as an ascending coefficient
    list: the Newton loop of exactalg (_newton), with no moment."""
    return _newton(m, 0, ())[0]


def charpoly_rank_one(a, u, v) -> list:
    """det(xI - a - q u v^T) for any integer a, u and v, as an ascending
    list of its x-coefficients, each a QPoly of degree <= 1 in q.

    By the matrix determinant lemma,
    det(xI - a - q u v^T) = p(x) - q v^T adj(xI - a) u with
    p(x) = det(xI - a) = sum_e c_e x^e, and by Cayley-Hamilton
    adj(xI - a) = sum_d x^d sum_{e>d} c_e a^(e-d-1).  So the x^d
    coefficient is c_d - q sum_{e>d} c_e s_(e-d-1), with the Krylov scalars
    s_j = v^T a^j u: one integer charpoly and n matrix-vector products.
    """
    n = len(a)
    c = charpoly_int(a)
    s, w = [], u  # s[j] = v^T a^j u, w = a^j u
    for _ in range(n):
        s.append(sum(map(mul, v, w)))
        w = [sum(map(mul, row, w)) for row in a]
    return [RingPoly((c[d], -sum(map(mul, c[d + 1:], s))))
            for d in range(n + 1)]


def build_full_matrix(k: int) -> LinearSystem:
    """The system advancing [a^k, mixed pairs, b^k, u], of dimension k+2 for
    k >= 1; k = 0 takes k = 1's layout [#A, #B, #bb], since a^0 and b^0
    cannot share one coordinate.

    Upper k x (k+1) block: a_{i,j} = C(k-i, j) + C(k-i, k-j); last column
    2^k - 2 then 2^{k-i} - 1; the two q-rows close the system.  Their
    q-part, q (a^k + b^k) in both, is written once as u = e_{b^k} + e_u,
    v = e_{a^k} + e_{b^k}, and their constant -2(q-4) as 8 - 2q.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    m = max(k, 1)  # the b^k coordinate
    n = m + 2
    a = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m + 1):
            a[i][j] = binom(k - i, j) + binom(k - i, k - j)
    a[0][m + 1] = 2**k - 2
    for i in range(1, m):
        a[i][m + 1] = 2**(k - i) - 1
    a[m][0], a[m][m] = -4, -3
    a[m + 1][0], a[m + 1][m] = -5, -4
    u, v = [0] * n, [0] * n
    u[m] = u[m + 1] = v[0] = v[m] = 1
    h0 = [-2] + [-1] * (m - 1) + [8, 8]
    h1 = [0] * m + [-2, -2]
    if k == 0:
        # A pair (x, y) yields the A vertex x + y, and the A row sums
        # (x + y)^k by its binomial terms.  At k = 0 the i = 0 and i = k
        # terms coincide, so the general row counts each adjacent pair
        # twice; a_{n+1} = a_n + b_n - 1 counts it once.
        a[0], h0[0] = [1, 1, 0], -1
    return LinearSystem(k, a, u, v, h0, h1)


def fold_system(full: LinearSystem) -> LinearSystem:
    """The full system folded into the reduced coordinates: each row of a
    and each entry of u, h0 and h1 summed over its fold class, the columns
    of a and v read at each class's first column.  A row of a, or v, that
    differs at the two columns of a class has no folded form and raises
    ExactAlgError."""
    classes = fold_classes(len(full.a) - 2)

    def read(vec):
        for c in classes:
            if vec[c[0]] != vec[c[-1]]:
                raise ExactAlgError(
                    f"not fold-symmetric at columns {c[0]}/{c[-1]}")
        return [vec[c[0]] for c in classes]

    a = [read(list(map(sum, zip(*(full.a[i] for i in c))))) for c in classes]
    return LinearSystem(full.k, a, fold_state(full.u), read(full.v),
                        fold_state(full.h0), fold_state(full.h1))


def rank_one_update(a, u, v, q):
    """The matrix a + q u v^T, for q an int or the symbol Q."""
    return [[x + q * ui * vj for x, vj in zip(row, v)]
            for row, ui in zip(a, u)]


def system_at(s, q) -> tuple:
    """(a + q u v^T, h0 + q h1) of a LinearSystem, for q an int or Q."""
    return (rank_one_update(s.a, s.u, s.v, q),
            [x + q * y for x, y in zip(s.h0, s.h1)])


def xq_add(a: list, b: list) -> list:
    return [x + y for x, y in zip_longest(a, b, fillvalue=QZERO)]


def xq_eval_x(p: list, x0: int) -> QPoly:
    acc = QZERO
    for c in reversed(p):
        acc = acc * x0 + c
    return acc


def structured_addends(k: int) -> tuple:
    """The two (k+2) x (k+2) matrices whose sum is the row-reduced form of
    M - xI: an upper-triangular alternating-binomial matrix of x-multiples
    (with a two-row q tail) and a 0/1 diagonal-plus-antidiagonal matrix."""
    if k < 2:
        raise ValueError("k must be >= 2")
    n = k + 2
    x1 = [[[] for _ in range(n)] for _ in range(n)]
    for u in range(k + 1):
        for j in range(u, k + 1):
            c = (-1)**(j - u + 1) * binom(k - u, j - u)
            x1[u][j] = [QZERO, RingPoly((c,))]
        if u <= k - 1:
            x1[u][k + 1] = [QZERO, RingPoly(((-1)**(k - u),))]
    x1[k][k] = [QZERO, RingPoly((-1,))]
    x1[k][k + 1] = [QZERO, QONE]
    x1[k + 1][k] = [QZERO, Q - 5]
    x1[k + 1][k + 1] = [QZERO, -(Q - 4)]

    x2 = [[[] for _ in range(n)] for _ in range(n)]
    for u in range(k):
        x2[u][u] = xq_add(x2[u][u], [QONE])
        x2[u][k - u] = xq_add(x2[u][k - u], [QONE])
        if 1 <= u <= k - 1:
            x2[u][k + 1] = [QONE]
    x2[k][0] = [QONE]
    x2[k][k] = [QONE]
    x2[k + 1][k] = [QONE]
    return x1, x2


def build_structured_charpoly(k: int) -> list:
    """Characteristic polynomial via the structured determinant route, as
    an ascending list of QPoly coefficients.

    Sums the two addend matrices, evaluates x at k+4 integer points, takes
    each exact determinant over Z[q], interpolates every q-coefficient as a
    polynomial in x (degree bound k+2, one extra verification point), and
    applies the (-1)^k sign that converts det(M - xI) back to det(xI - M).
    """
    x1, x2 = structured_addends(k)
    n = k + 2
    total = [[xq_add(x1[i][j], x2[i][j]) for j in range(n)] for i in range(n)]
    x_points = list(range(n + 2))
    dets = []
    for x0 in x_points:
        dets.append(det_q([[xq_eval_x(e, x0) for e in row]
                           for row in total]))
    max_qdeg = max((len(d.coeffs) for d in dets), default=0)
    coeffs_by_qdeg = []
    for d in range(max_qdeg):
        pts = [(x0, det.coeff(d)) for x0, det in zip(x_points, dets)]
        coeffs_by_qdeg.append(lagrange_interpolate(pts, n))
    # coeffs_by_qdeg[d] is a polynomial in x; transpose into QPoly
    # coefficients of x^0, x^1, ...
    max_xdeg = max((len(p.coeffs) for p in coeffs_by_qdeg), default=0)
    sign = (-1)**k
    return [RingPoly(sign * coeffs_by_qdeg[d].coeff(e)
                     for d in range(max_qdeg))
            for e in range(max_xdeg)]


def matrix_from_orbit(vectors) -> list:
    """Recover the unique matrix M with g_{t+1} = M g_t from nu+1 orbit
    vectors g_0..g_nu (the first nu must be linearly independent).

    Solves M G = G* by exact rational elimination; entries come back as
    Fractions (integers when the system is integral).
    """
    if len(vectors) < 2:
        raise ValueError("need at least two orbit vectors")
    nu = len(vectors[0])
    if len(vectors) != nu + 1 or any(len(v) != nu for v in vectors):
        raise ValueError(f"expected {nu + 1} vectors of length {nu}")
    g = [[Fraction(vectors[t][i]) for t in range(nu)] for i in range(nu)]
    gstar = [[Fraction(vectors[t + 1][i]) for t in range(nu)] for i in range(nu)]
    # Row-reduce [G^T | (G*)^T] so that M^T = solution of G^T M^T = (G*)^T.
    a = [[g[i][r] for i in range(nu)] + [gstar[i][r] for i in range(nu)]
         for r in range(nu)]
    for col in range(nu):
        piv = next((r for r in range(col, nu) if a[r][col] != 0), None)
        if piv is None:
            raise ExactAlgError("initial vectors not independent")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(nu):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [[a[c][nu + r] for c in range(nu)] for r in range(nu)]


def entry_pairs(e: list) -> dict:
    """The literal multiset of a materialised entry list's adjacent pairs:
    one flat (x, tx, y, ty) key per two adjacent entries, the wingers
    tagged B as in the list, as a plain dict."""
    return dict(Counter(left + right for left, right in zip(e, e[1:])))


def row_pairs(e: list) -> tuple:
    """The half pair multiset (ab, bb) of a materialised entry list: ab
    counts its A-then-B pairs (x, y), and bb its B-then-B pairs by their
    value.  It reads the literal pairs and assumes no symmetry, so it does
    not read the B-then-A pairs; a pair that the half form cannot hold, two
    adjacent A entries or two adjacent B entries of different values,
    raises ValueError."""
    ab, bb = Counter(), Counter()
    for (x, tx, y, ty), m in entry_pairs(e).items():
        if tx == ty == "A" or (tx == ty == "B" and x != y):
            raise ValueError(f"no half form holds the pair {x}{tx} {y}{ty}")
        if (tx, ty) == ("A", "B"):
            ab[x, y] += m
        elif tx == ty == "B":
            bb[y] += m
    return dict(ab), dict(bb)


def pair_sum(pairs: dict, i: int, j: int, first_tag: str,
             second_tag: str) -> int:
    """Sum of first^i * second^j over the adjacent ordered entry pairs of
    entry_pairs whose tags match (first_tag, second_tag)."""
    if i + j < 1:
        raise ValueError("i + j must be >= 1")
    return sum(m * x**i * y**j for (x, tx, y, ty), m in pairs.items()
               if (tx, ty) == (first_tag, second_tag))
