"""System matrices for the power-sum state vector, recurrence extraction,
and initial values.

One route derives every recurrence and its initial values: the folded
reduced system of dimension r = floor(k/2)+3.  The fold P maps the full
coordinates [a^k, mixed pairs, b^k, u] onto [a^k, b^k, c_1.., u] by summing
each fold class

  (0,), (k,), (1, k-1), (2, k-2), ..., [(k/2,) for even k], (k+1,),

where c_j = (a^{k-j} b^j) + (a^j b^{k-j}) is the class (j, k-j).  The
reduced row of a class is the sum of its full rows, read at the first
column of every class, and the reduced constant is the sum of its full
constants; this is exact because every summed row is fold-symmetric
(equal at both columns of each pair), so P M = M_red P and P h = h_red.
Hence ker P, spanned by e_j - e_{k-j} for 1 <= j < k/2, is M-invariant;
M maps it to zero, because rows 0..k-1 of M are symmetric under j <-> k-j
and rows k, k+1 touch only columns 0, k and k+1.  So
det(xI - M) = x^(k+2-r) det(xI - M_red), and the full characteristic
polynomial is read off the reduced one exactly.

Recurrences come out of the characteristic polynomial by the (x-1) lift
(absorbing the constant winger-correction vector) followed by maximal
x-stripping.  Initial values come from iterating the same reduced system,
split by powers of q into integer vectors, starting from the folded row-1
state vector.

verify checks the system against real rows with the definition-level
step oracle sums.check_system_step.  The second routes to the
characteristic polynomial live in the tests: the full matrix's own, and
the structured determinant of the row-reduced form of M - xI in
tests/reference.py.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul

from .exactalg import (Q, QONE, QZERO, ExactAlgError, PolyMatrix, QPoly,
                       XQPoly, binom, charpoly_q, format_qpoly)

__all__ = [
    "LinearSystem", "Recurrence", "build_full_matrix", "build_reduced_matrix",
    "lift_inhomogeneous", "recurrence_from_polynomial", "recurrence_for_k",
    "initial_values_symbolic", "conjectured_order",
]


@dataclass
class LinearSystem:
    k: int
    matrix: PolyMatrix
    constant: list  # QPoly vector h


@dataclass
class Recurrence:
    """(s^k)_n = sum_j c_j(q) (s^k)_{n-j}, with maximal x-stripping.

    order is the order after maximal x-stripping; not always minimal (at
    k = 10 a valid order-7 recurrence exists where order is 8).  It falls
    short of conjectured_order(k) for some k, such as 9 and 11.
    """

    k: int
    order: int
    coefficients: list  # QPoly c_1..c_order
    x_strip_count: int
    variant: str = "full"  # "full" | "closed" (k = 0, 1)
    initial_values: list = field(default_factory=list)  # QPoly per n

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

    Upper k x (k+1) block: m_{i,j} = C(k-i, j) + C(k-i, k-j); last column
    2^k - 2 then 2^{k-i} - 1; the two q-rows close the system.
    """
    if k < 2:
        raise ValueError("k must be >= 2 (k = 0, 1 have known closed "
                         "recurrences; see recurrence_for_k)")
    n = k + 2
    m = [[QZERO] * n for _ in range(n)]
    for i in range(k):
        for j in range(k + 1):
            m[i][j] = QPoly.const(binom(k - i, j) + binom(k - i, k - j))
    m[0][k + 1] = QPoly.const(2**k - 2)
    for i in range(1, k):
        m[i][k + 1] = QPoly.const(2**(k - i) - 1)
    m[k][0], m[k][k] = Q - 4, Q - 3
    m[k + 1][0], m[k + 1][k] = Q - 5, Q - 4
    h = [QPoly.const(-2)] + [QPoly.const(-1)] * (k - 1) \
        + [-2 * (Q - 4), -2 * (Q - 4)]
    return LinearSystem(k, PolyMatrix(m), h)


def build_reduced_matrix(k: int) -> LinearSystem:
    """The folded system of dimension floor(k/2)+3 over
    [a^k, b^k, c_1..c_m, u], where c_j = (a^{k-j}b^j) + (a^j b^{k-j}).

    Each row and constant is the sum of the full ones in its fold class;
    a summed row that differs at the two columns of a pair cannot be folded
    and raises ExactAlgError.  The published form of the c_j rows is
    encoded once, as the step oracle's sums._reduced_printed_rhs.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    full = build_full_matrix(k)
    # fold classes, in the reduced order [a^k, b^k, c_1..c_m, u]
    classes = [(0,), (k,)] + [(j, k - j) for j in range(1, (k + 1) // 2)]
    if k % 2 == 0:
        classes.append((k // 2,))
    classes.append((k + 1,))
    rows, consts = [], []
    for cls in classes:
        summed = [reduce(add, col)
                  for col in zip(*(full.matrix.entries[i] for i in cls))]
        for c in classes:
            if summed[c[0]] != summed[c[-1]]:
                raise ExactAlgError(
                    f"row not fold-symmetric at columns {c[0]}/{c[-1]}")
        rows.append([summed[c[0]] for c in classes])
        consts.append(reduce(add, (full.constant[i] for i in cls)))
    return LinearSystem(k, PolyMatrix(rows), consts)


def lift_inhomogeneous(p: XQPoly) -> XQPoly:
    """(x-1) * p(x): the characteristic polynomial governing the orbit once
    the constant correction vector is absorbed by differencing."""
    if not p:
        raise ValueError("polynomial must be nonzero")
    return p * XQPoly((QPoly.const(-1), QONE))


def recurrence_from_polynomial(p: XQPoly, k: int) -> Recurrence:
    """Strip the maximal power of x from a monic polynomial and read off the
    recurrence coefficients as the negated lower coefficients."""
    if not p:
        raise ValueError("polynomial must be zero-free")
    coeffs = list(p.coeffs)
    strip = 0
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
        strip += 1
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
    folded row-1 state vector g_1 = [0, 2, 0, ..., 0, 1] over
    [a^k, b^k, c_1..c_m, u] (row 1 is two B-wingers), and reads
    (s^k)_n = g[0] + g[1].  The fold maps every full-system state and
    constant onto its reduced one, so this is the full orbit, folded.
    No rows are built.

    The iteration runs over Z, split by powers of q: with g_n = sum_d q^d G_d,
    M = M0 + q M1 and h = h0 + q h1, one step is
    G'_d = M0 G_d + M1 G_{d-1} + h0 [d=0] + h1 [d=1].  M1 is kept as its
    nonzero (i, j, v) entries, which are few (two rows of the reduced
    matrix).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    system = build_reduced_matrix(k)
    m, h = system.matrix.entries, system.constant
    m0 = [[e.coeff(0) for e in row] for row in m]
    m1 = [(i, j, e.coeff(1)) for i, row in enumerate(m)
          for j, e in enumerate(row) if e.coeff(1)]
    h0, h1 = [c.coeff(0) for c in h], [c.coeff(1) for c in h]
    gs = [[0, 2] + [0] * (len(m) - 3) + [1]]  # [G_0] of g_1
    out = [QPoly(g[0] + g[1] for g in gs)]
    while len(out) < d:
        nxt = [[sum(map(mul, row, g)) for row in m0] for g in gs]
        nxt.append([0] * len(m))
        for g, up in zip(gs, nxt[1:]):
            for i, j, v in m1:
                up[i] += v * g[j]
        nxt[0] = list(map(add, nxt[0], h0))
        nxt[1] = list(map(add, nxt[1], h1))
        gs = nxt
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
    reduced = build_reduced_matrix(k).matrix
    # det(xI - M) = x^(k+2-r) det(xI - M_red): see the module docstring.
    cp = XQPoly((QZERO,) * (k + 2 - reduced.dim)
                + charpoly_q(reduced).coeffs)
    rec = recurrence_from_polynomial(lift_inhomogeneous(cp), k)
    if with_initial_values:
        rec.initial_values = initial_values_symbolic(k, rec.order)
    return rec
