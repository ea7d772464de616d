"""System matrices for the power-sum state vector, recurrence extraction,
and initial values.

Every system is stored as g_{n+1} = (A + q u v^T) g_n + h0 + q h1 with
integer A, u, v, h0 and h1 (LinearSystem).  The q-part is rank 1 by
construction: in the full system only the two closing rows depend on q,
both by q (a^k + b^k), and those two rows read no column but a^k, b^k.
So every characteristic polynomial is q-linear by its form, and
exactalg.charpoly_q reads it off the Schur complement on the two q-rows:
one integer characteristic polynomial of the q-free block on the other
coordinates, two dimensions smaller, and a 2x2 determinant lemma.

One route derives every recurrence and its initial values, k = 0 and 1
included: the folded reduced system of dimension r = floor(k/2)+3, written
directly by build_reduced_matrix from one Pascal table.  The full system,
of dimension n = k+2 (at k = 0, k = 1's three coordinates [#A, #B, #bb]),
is never built; it is the entry-by-entry cross-check of the tests
(tests/reference.py).  The fold P maps the full coordinates
[a^k, mixed pairs, b^k, u] onto [a^k, b^k, c_1.., u] by summing each fold
class of fold_classes, the one statement of the reduced coordinate order,

  (0,), (k,), (1, k-1), (2, k-2), ..., [(k/2,) for even k], (k+1,),

where c_j = (a^{k-j} b^j) + (a^j b^{k-j}) is the class (j, k-j); at k = 0
and 1 it is the identity.  The reduced A has as row of a class the sum of
its full rows, read at the first column of every class; u, h0 and h1 are
summed the same way, and v is read at the first columns.  This is exact
because every summed row of A, and v, is fold-symmetric (equal at both
columns of each pair), so P M = M_red P and P h = h_red.  Hence ker P,
spanned by e_j - e_{k-j} for 1 <= j < k/2, is M-invariant; M maps it to
zero, because rows 0..k-1 of M are symmetric under j <-> k-j and rows k,
k+1 touch only columns 0, k and k+1.  So det(xI - M) = x^(n-r)
det(xI - M_red), and the full characteristic polynomial is read off the
reduced one exactly.  fold_state folds a state vector the same way, for
the step oracle of verify.

Recurrences come out of the characteristic polynomial, an ascending list
of its x-coefficients as the integer pairs (c0, c1) of c0 + c1 q, by the
(x-1) lift (absorbing the constant winger-correction vector) followed by
maximal x-stripping; each recurrence coefficient becomes a QPoly once, at
the end.  Initial values come from iterating the same reduced system,
split by powers of q into integer vectors, starting from the folded row-1
state vector.

The order/linearity conjecture probe lives here, next to the conjectured
order it compares with: it derives recurrences and reads no rows.  Every
entry point that derives recurrences checks its largest k against MAX_K
before it builds any matrix.

verify checks the system against real rows with the definition-level
step oracle verify.verify_system_steps.  The second routes to the
characteristic polynomial live in the tests: the full matrix's own, and
the structured determinant of the row-reduced form of M - xI in
tests/reference.py.
"""
from __future__ import annotations

from operator import add, mul

from .exactalg import QPoly, charpoly_q, format_qpoly

__all__ = [
    "LinearSystem", "Recurrence", "fold_classes", "fold_state",
    "build_reduced_matrix", "lift_inhomogeneous",
    "recurrence_from_polynomial", "recurrence_for_k",
    "initial_values_symbolic", "conjectured_order", "probe_conjecture", "MAX_K", "check_k",
]

# The largest k derived: the largest with a recorded cost, 647 s and 110 MB
# peak RSS for recurrence_for_k(256), 402 s without its initial values.
MAX_K = 256


class LinearSystem:
    """g_{n+1} = (a + q u v^T) g_n + h0 + q h1, all integer lists."""

    def __init__(self, k: int, a: list, u: list, v: list, h0: list,
                 h1: list):
        self.k, self.a, self.u, self.v, self.h0, self.h1 = k, a, u, v, h0, h1


class Recurrence:
    """(s^k)_n = sum_j c_j(q) (s^k)_{n-j}, with maximal x-stripping.

    Every k, 0 and 1 included, is derived from its full system, which
    the printed field variant names.  order is the order after maximal
    x-stripping; not always minimal (at k = 10 a valid order-7 recurrence
    exists where order is 8).  It falls short of conjectured_order(k) for
    some k, such as 9 and 11.
    """

    variant = "full"

    def __init__(self, k: int, order: int, coefficients: list,
                 x_strip_count: int):
        self.k, self.order, self.x_strip_count = k, order, x_strip_count
        self.coefficients = coefficients  # QPoly c_1..c_order
        self.initial_values = []  # QPoly per n

    def evaluated_at(self, q0: int) -> list:
        return [c(q0) for c in self.coefficients]


def check_k(k: int) -> None:
    """Raise ValueError for a k past MAX_K.  Every entry point that derives
    recurrences calls it on its largest k before it builds any matrix."""
    if k > MAX_K:
        raise ValueError(f"k must be <= {MAX_K}, not {k}")


def conjectured_order(k: int) -> int:
    return k // 2 + 3


def probe_conjecture(k_min: int, k_max: int) -> list:
    """Order and q-degree evidence for each k, one finding dict per k; rows
    beyond the reference table are exploratory output."""
    from .tables import MAX_TABLED_K  # only here: recurrence needs no table
    if k_min < 2:
        raise ValueError("k_min must be >= 2")
    check_k(k_max)
    findings = []
    for k in range(k_min, k_max + 1):
        rec = recurrence_for_k(k, with_initial_values=False)
        conj = conjectured_order(k)
        trailing = conj - rec.order if rec.order <= conj else 0
        max_deg = max((len(c.coeffs) - 1 for c in rec.coefficients
                       if c), default=0)
        findings.append({
            "k": k, "stripped_order": rec.order, "conjectured_order": conj,
            "trailing_zero_count": trailing, "max_q_degree": max_deg,
            "order_matches": rec.order + trailing == conj,
            "coefficients_linear": max_deg <= 1, "anomaly": trailing > 0,
            "tabled": k <= MAX_TABLED_K})
    return findings


def fold_classes(k: int) -> list:
    """The fold classes of the full state-vector coordinates, in the reduced
    order [a^k, b^k, c_1..c_m, u]: (0,), (k,), (j, k-j) for 1 <= j < k/2,
    (k/2,) for even k, and (k+1,).  c_j pairs the mixed sums with
    b-exponents j and k-j."""
    classes = [(0,), (k,)] + [(j, k - j) for j in range(1, (k + 1) // 2)]
    if k % 2 == 0:
        classes.append((k // 2,))
    classes.append((k + 1,))
    return classes


def fold_state(g: list) -> list:
    """Fold the full state vector g (k = len(g) - 2) into the reduced
    coordinates, summing each fold class."""
    return [sum(g[i] for i in c) for c in fold_classes(len(g) - 2)]


def build_reduced_matrix(k: int) -> LinearSystem:
    """The folded system of dimension floor(k/2)+3 over
    [a^k, b^k, c_1..c_m, u], where c_j = (a^{k-j}b^j) + (a^j b^{k-j}),
    written directly from one Pascal table.

    Full row i < k, the equation of (a^{k-i} b^i), reads
    C(k-i, j) + C(k-i, k-j) at column j <= k and 2^(k-i) - 1 at u, less 1
    at i = 0, with constant -1, less 1 at i = 0; the row of a class is the
    sum of those of its members, read at each class's first column.  The
    b^k and u rows, [-4, -3] and [-5, -4] at [a^k, b^k] with constant
    8 - 2q, carry the q-part q (a^k + b^k).  k = 0 takes k = 1's three
    coordinates [#A, #B, #bb] and its own A row [1, 1, 0], constant -1:
    there a^0 and b^0 cannot share one coordinate, and the general row
    counts each adjacent pair twice.  The published form of the c_j rows is
    encoded once, as the step oracle's verify._reduced_printed_rhs.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    classes = fold_classes(max(k, 1))
    cols = [c[0] for c in classes[:-1]]  # the columns read, but u
    pascal = [[1] + [0] * k]  # pascal[i][j] = C(i, j) for j <= k
    for _ in range(k):
        pascal.append(list(map(add, [0] + pascal[-1][:-1], pascal[-1])))

    def row(i):  # full row i < k at the columns read
        p = pascal[k - i]
        return [p[j] + p[k - j] for j in cols] + [2**(k - i) - 1 - (i == 0)]

    mixed = classes[2:-1]
    zeros = [0] * len(mixed)
    a = [row(0) if k else [1, 1, 0], [-4, -3, *zeros, 0],
         *[list(map(sum, zip(*map(row, c)))) for c in mixed],
         [-5, -4, *zeros, 0]]
    h0 = [-2 if k else -1, 8, *[-len(c) for c in mixed], 8]
    return LinearSystem(k, a, [0, 1, *zeros, 1], [1, 1, *zeros, 0], h0,
                        [0, -2, *zeros, -2])


def lift_inhomogeneous(p: list) -> list:
    """(x-1) * p(x), for p an ascending list of x-coefficients, each the
    integer pair (c0, c1) of c0 + c1 q, as charpoly_q gives them: the
    characteristic polynomial governing the orbit once the constant
    correction vector is absorbed by differencing."""
    if not any(map(any, p)):
        raise ValueError("polynomial must be nonzero")
    return [(lo0 - hi0, lo1 - hi1) for (lo0, lo1), (hi0, hi1)
            in zip([(0, 0)] + p, p + [(0, 0)])]


def recurrence_from_polynomial(p: list, k: int) -> Recurrence:
    """Strip the maximal power of x from a monic polynomial, an ascending
    list of x-coefficients, each the integer pair (c0, c1) of c0 + c1 q,
    and read off the recurrence coefficients, one QPoly each, as the
    negated lower coefficients."""
    if not any(map(any, p)):
        raise ValueError("polynomial must be zero-free")
    strip = next(d for d, c in enumerate(p) if any(c))
    coeffs = p[strip:]
    if tuple(coeffs[-1]) != (1, 0):
        raise ValueError("polynomial is not monic "
                         f"(leading {format_qpoly(QPoly(coeffs[-1]))})")
    cs = [QPoly((-c0, -c1)) for c0, c1 in reversed(coeffs[:-1])]
    return Recurrence(k, len(cs), cs, strip)


def initial_values_symbolic(s: LinearSystem, d: int) -> list:
    """(s^k)_n for n = 1..d as polynomials in q, s the reduced system
    build_reduced_matrix(k).

    Iterates g_{n+1} = M g_n + h with that system, starting from the
    folded row-1 state vector (row 1 is two B-wingers: (b^k) = 2, u = 1,
    every other sum 0), and reads (s^k)_n = g[0] + g[1].  The fold maps
    every full-system state and constant onto its reduced one, so this is
    the full orbit, folded.  No rows are built.

    The iteration runs over Z, split by powers of q: with
    g_n = sum_d q^d G_d and the system's M = A + q u v^T, h = h0 + q h1,
    one step is G'_d = A G_d + u (v . G_{d-1}) + h0 [d=0] + h1 [d=1].
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    gs = [[0, 2] + [0] * (len(s.a) - 3) + [1]]  # [G_0] of g_1
    out = [QPoly(g[0] + g[1] for g in gs)]
    while len(out) < d:
        vg = [0] + [sum(map(mul, s.v, g)) for g in gs]  # v . G_{d-1}
        gs = [[sum(map(mul, row, g)) + ui * t for row, ui in zip(s.a, s.u)]
              for g, t in zip(gs, vg)] + [[ui * vg[-1] for ui in s.u]]
        gs[0] = list(map(add, gs[0], s.h0))
        gs[1] = list(map(add, gs[1], s.h1))
        out.append(QPoly(g[0] + g[1] for g in gs))
    return out


def recurrence_for_k(k: int, with_initial_values: bool = True) -> Recurrence:
    """The scalar recurrence for (s^k)_n.

    Runs the characteristic-polynomial pipeline on the reduced system
    matrix, first multiplied by x^(n-r), n and r the full and the reduced
    dimension, which gives the full system's characteristic polynomial, so
    x_strip_count is the full system's.
    """
    check_k(k)
    s = build_reduced_matrix(k)
    # det(xI - M) = x^(n-r) det(xI - M_red), n = max(k, 1) + 2 the full
    # dimension: see the module docstring.
    nullity = max(k, 1) + 2 - len(s.a)
    cp = [(0, 0)] * nullity + charpoly_q(s.a, s.u, s.v)
    rec = recurrence_from_polynomial(lift_inhomogeneous(cp), k)
    if with_initial_values:
        rec.initial_values = initial_values_symbolic(s, rec.order)
    return rec
