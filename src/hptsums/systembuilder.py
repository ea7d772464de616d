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

One route derives every recurrence and its initial values: the folded
reduced system of dimension r = floor(k/2)+3.  The fold P maps the full
coordinates [a^k, mixed pairs, b^k, u] onto [a^k, b^k, c_1.., u] by summing
each fold class of sums.fold_classes,

  (0,), (k,), (1, k-1), (2, k-2), ..., [(k/2,) for even k], (k+1,),

where c_j = (a^{k-j} b^j) + (a^j b^{k-j}) is the class (j, k-j).  The
reduced A has as row of a class the sum of its full rows, read at the first
column of every class; u, h0 and h1 are summed the same way, and v is read
at the first columns.  This is exact because every summed row of A, and v,
is fold-symmetric (equal at both columns of each pair), so P M = M_red P
and P h = h_red.  Hence ker P, spanned by e_j - e_{k-j} for 1 <= j < k/2,
is M-invariant; M maps it to zero, because rows 0..k-1 of M are symmetric
under j <-> k-j and rows k, k+1 touch only columns 0, k and k+1.  So
det(xI - M) = x^(k+2-r) det(xI - M_red), and the full characteristic
polynomial is read off the reduced one exactly.

Recurrences come out of the characteristic polynomial, an ascending list
of QPoly coefficients, by the (x-1) lift (absorbing the constant
winger-correction vector) followed by maximal x-stripping.  Initial values
come from iterating the same reduced system, split by powers of q into
integer vectors, starting from the folded row-1 state vector.

verify checks the system against real rows with the definition-level
step oracle verify.verify_system_steps.  The second routes to the
characteristic polynomial live in the tests: the full matrix's own, and
the structured determinant of the row-reduced form of M - xI in
tests/reference.py.
"""
from __future__ import annotations

from operator import add, mul

from .exactalg import (Q, QONE, QZERO, ExactAlgError, QPoly, binom,
                       charpoly_q, format_qpoly)
from .sums import fold_classes, fold_state

__all__ = [
    "LinearSystem", "Recurrence", "build_full_matrix", "build_reduced_matrix",
    "lift_inhomogeneous", "recurrence_from_polynomial", "recurrence_for_k",
    "initial_values_symbolic", "conjectured_order",
]


class LinearSystem:
    """g_{n+1} = (a + q u v^T) g_n + h0 + q h1, all integer lists."""

    def __init__(self, k: int, a: list, u: list, v: list, h0: list,
                 h1: list):
        self.k, self.a, self.u, self.v, self.h0, self.h1 = k, a, u, v, h0, h1


class Recurrence:
    """(s^k)_n = sum_j c_j(q) (s^k)_{n-j}, with maximal x-stripping.

    order is the order after maximal x-stripping; not always minimal (at
    k = 10 a valid order-7 recurrence exists where order is 8).  It falls
    short of conjectured_order(k) for some k, such as 9 and 11.
    """

    def __init__(self, k: int, order: int, coefficients: list,
                 x_strip_count: int, variant: str = "full"):
        self.k, self.order, self.x_strip_count = k, order, x_strip_count
        self.coefficients = coefficients  # QPoly c_1..c_order
        self.variant = variant  # "full" | "closed" (k = 0, 1)
        self.initial_values = []  # QPoly per n

    def coefficients_padded(self, width: int) -> list:
        if width < self.order:
            raise ValueError("cannot pad below the stripped order")
        return self.coefficients + [QZERO] * (width - self.order)

    def evaluated_at(self, q0: int) -> list:
        return [c(q0) for c in self.coefficients]


def conjectured_order(k: int) -> int:
    return k // 2 + 3


def build_full_matrix(k: int) -> LinearSystem:
    """The (k+2)-dimensional system advancing [a^k, mixed pairs, b^k, u].

    Upper k x (k+1) block: a_{i,j} = C(k-i, j) + C(k-i, k-j); last column
    2^k - 2 then 2^{k-i} - 1; the two q-rows close the system.  Their
    q-part, q (a^k + b^k) in both, is written once as u = e_{b^k} + e_u,
    v = e_{a^k} + e_{b^k}, and their constant -2(q-4) as 8 - 2q.
    """
    if k < 2:
        raise ValueError("k must be >= 2 (k = 0, 1 have known closed "
                         "recurrences; see recurrence_for_k)")
    n = k + 2
    a = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k + 1):
            a[i][j] = binom(k - i, j) + binom(k - i, k - j)
    a[0][k + 1] = 2**k - 2
    for i in range(1, k):
        a[i][k + 1] = 2**(k - i) - 1
    a[k][0], a[k][k] = -4, -3
    a[k + 1][0], a[k + 1][k] = -5, -4
    u, v = [0] * n, [0] * n
    u[k] = u[k + 1] = v[0] = v[k] = 1
    h0 = [-2] + [-1] * (k - 1) + [8, 8]
    h1 = [0] * k + [-2, -2]
    return LinearSystem(k, a, u, v, h0, h1)


def build_reduced_matrix(k: int) -> LinearSystem:
    """The folded system of dimension floor(k/2)+3 over
    [a^k, b^k, c_1..c_m, u], where c_j = (a^{k-j}b^j) + (a^j b^{k-j}).

    Each row of a and each entry of u, h0 and h1 is the sum of the full
    ones in its fold class; the columns of a and v are read at each class's
    first column.  A row of a, or v, that differs at the two columns of a
    pair cannot be folded and raises ExactAlgError.  The published form of
    the c_j rows is encoded once, as the step oracle's
    verify._reduced_printed_rhs.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    full = build_full_matrix(k)
    classes = fold_classes(k)

    def read(vec):
        for c in classes:
            if vec[c[0]] != vec[c[-1]]:
                raise ExactAlgError(
                    f"not fold-symmetric at columns {c[0]}/{c[-1]}")
        return [vec[c[0]] for c in classes]

    # the rows of a summed within each class, then read class by class
    a = [read(list(map(sum, zip(*(full.a[i] for i in c))))) for c in classes]
    return LinearSystem(k, a, fold_state(full.u), read(full.v),
                        fold_state(full.h0), fold_state(full.h1))


def lift_inhomogeneous(p: list) -> list:
    """(x-1) * p(x), for p an ascending list of QPoly coefficients: the
    characteristic polynomial governing the orbit once the constant
    correction vector is absorbed by differencing."""
    if not any(p):
        raise ValueError("polynomial must be nonzero")
    return [lo - hi for lo, hi in zip([QZERO] + p, p + [QZERO])]


def recurrence_from_polynomial(p: list, k: int) -> Recurrence:
    """Strip the maximal power of x from a monic polynomial, an ascending
    list of QPoly coefficients, and read off the recurrence coefficients as
    the negated lower coefficients."""
    if not any(p):
        raise ValueError("polynomial must be zero-free")
    strip = next(d for d, c in enumerate(p) if c)
    coeffs = p[strip:]
    if coeffs[-1] != QONE:
        raise ValueError("polynomial is not monic "
                         f"(leading {format_qpoly(coeffs[-1])})")
    d = len(coeffs) - 1
    cs = [-coeffs[d - j] for j in range(1, d + 1)]
    if cs and not cs[-1]:
        raise AssertionError("stripping was not maximal")
    return Recurrence(k, d, cs, strip)


def initial_values_symbolic(k: int, d: int) -> list:
    """(s^k)_n for n = 1..d as polynomials in q.

    Iterates g_{n+1} = M g_n + h with the reduced system, starting from the
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
    s = build_reduced_matrix(k)
    gs = [fold_state([0] * k + [2, 1])]  # [G_0] of g_1
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

    k = 0 and k = 1 are the known ternary recurrences for vertex counts and
    plain row sums; k >= 2 runs the characteristic-polynomial pipeline on
    the reduced system matrix, first multiplied by x^(k+2-r), which gives
    the full system's characteristic polynomial, so x_strip_count is the
    full system's.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        rec = Recurrence(0, 3, [Q - 1, -Q + 1, QONE], 0, variant="closed")
        if with_initial_values:
            rec.initial_values = [QPoly.const(2), QPoly.const(3), Q]
        return rec
    if k == 1:
        rec = Recurrence(1, 3, [Q, -Q - 1, QPoly.const(2)], 0, variant="closed")
        if with_initial_values:
            rec.initial_values = [QPoly.const(2), QPoly.const(4), 2 * Q]
        return rec
    s = build_reduced_matrix(k)
    # det(xI - M) = x^(k+2-r) det(xI - M_red): see the module docstring.
    cp = [QZERO] * (k + 2 - len(s.a)) + charpoly_q(s.a, s.u, s.v)
    rec = recurrence_from_polynomial(lift_inhomogeneous(cp), k)
    if with_initial_values:
        rec.initial_values = initial_values_symbolic(k, rec.order)
    return rec
