"""Exact arithmetic substrate.

Everything here is integer-exact: polynomials in ``q`` over the integers
(QPoly), polynomials in ``x`` over that ring (XQPoly), dense square matrices
over QPoly, characteristic polynomials and Lagrange interpolation.  Rational
numbers appear only transiently (fractions.Fraction inside the
interpolation); every returned coefficient is an int, and anything that
would not be integral raises instead of rounding.

Integer characteristic polynomials come from Newton's identities on power
traces, read off half-powers of the matrix.  Over Z[q] they are evaluated
at rank(q-part) + 2 integer points of q, since the q-degree is at most the
rank of the q-coefficient matrix, and interpolated with one point to spare.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, Sequence

NEG_INF = float("-inf")


class ExactAlgError(Exception):
    """Raised when an exactness contract is violated (non-integer result,
    degree-bound failure at a verification point, singular system)."""


def binom(n: int, r: int) -> int:
    """Binomial coefficient with C(n, r) = 0 whenever r < 0 or r > n."""
    if r < 0 or r > n or n < 0:
        return 0
    return math.comb(n, r)


# ---------------------------------------------------------------------------
# Polynomials in q over Z
# ---------------------------------------------------------------------------

class QPoly:
    """Polynomial in the symbol q with integer coefficients.

    Coefficients are stored ascending by degree; the canonical form has no
    trailing zeros, so the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(int(c) for c in cs)

    @classmethod
    def const(cls, c: int) -> "QPoly":
        return cls((c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QPoly.const(other)
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "QPoly":
        other = _as_qpoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(self.coeff(d) + other.coeff(d) for d in range(n))

    __radd__ = __add__

    def __sub__(self, other) -> "QPoly":
        other = _as_qpoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(self.coeff(d) - other.coeff(d) for d in range(n))

    def __neg__(self) -> "QPoly":
        return QPoly(-c for c in self.coeffs)

    def __mul__(self, other) -> "QPoly":
        other = _as_qpoly(other)
        if not self or not other:
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __call__(self, q0: int) -> int:
        """Evaluate at an integer, exactly (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"


Q = QPoly((0, 1))
QZERO = QPoly()
QONE = QPoly((1,))


def _as_qpoly(v) -> QPoly:
    if isinstance(v, QPoly):
        return v
    if isinstance(v, int):
        return QPoly.const(v)
    raise TypeError(f"cannot coerce {v!r} to QPoly")


def format_qpoly(p: QPoly, var: str = "q") -> str:
    """Descending powers with explicit signs, e.g. ``-62q+404``."""
    if not p:
        return "0"
    parts = []
    for d in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeff(d)
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if d == 0:
            term = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            term = f"{head}{var}" if d == 1 else f"{head}{var}^{d}"
        parts.append(sign + term)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Polynomials in x over Z[q]
# ---------------------------------------------------------------------------

class XQPoly:
    """Polynomial in x whose coefficients are QPoly values (Z[q][x])."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_qpoly(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, XQPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "XQPoly") -> "XQPoly":
        if not self or not other:
            return XQPoly()
        out = [QZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return XQPoly(out)

    def __repr__(self) -> str:
        return f"XQPoly({[list(c.coeffs) for c in self.coeffs]!r})"


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

@dataclass
class PolyMatrix:
    """Dense square matrix over Z[q]."""

    entries: list

    def __post_init__(self):
        n = len(self.entries)
        if n < 1 or any(len(r) != n for r in self.entries):
            raise ValueError("matrix must be square with dimension >= 1")
        self.entries = [[_as_qpoly(e) for e in row] for row in self.entries]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def eval_q(self, q0: int) -> list:
        return [[e(q0) for e in row] for row in self.entries]

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.entries == other.entries


def charpoly_int(m: Sequence[Sequence[int]]) -> list:
    """det(xI - m) for an integer matrix, as an ascending coefficient list.

    Newton's identities on the power traces p_i = tr(m^i) (Preparata and
    Sarwate, Inf. Process. Lett. 7, 1978): with c_n = 1,
    i c_{n-i} = -(p_i + c_{n-1} p_{i-1} + ... + c_{n-i+1} p_1), and every
    division by i is exact over Z.  Traces are read off half-powers as flat
    dot products, tr(m^(2a)) = <m^a, (m^a)^T> and
    tr(m^(2a+1)) = <m^(a+1), (m^a)^T>, so ceil(n/2)-1 matrix products
    suffice; only the current and the previous power are kept.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    traces = [0, sum(m[i][i] for i in range(n))]  # traces[i] = tr(m^i)
    cur = m  # m^a
    for a in range(1, n // 2 + 1):
        traces.append(_trace_of_product(cur, cur))  # tr(m^(2a))
        if 2 * a < n:
            nxt = _matmul_int(cur, m)
            traces.append(_trace_of_product(nxt, cur))  # tr(m^(2a+1))
            cur = nxt
    c = [0] * (n + 1)
    c[n] = 1
    for i in range(1, n + 1):
        s = sum(map(mul, c[n - i + 1:], traces[1:i + 1]))
        if s % i != 0:
            raise ExactAlgError("non-exact division in characteristic polynomial")
        c[n - i] = -s // i
    return c


def _trace_of_product(a, b) -> int:
    """tr(a b) = <a, b^T>, one flat dot product."""
    return sum(map(mul, chain.from_iterable(a), chain.from_iterable(zip(*b))))


def _matmul_int(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _rank_int(m: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    rows = [list(row) for row in m if any(row)]
    rank = 0
    while rows:
        pivot_row = rows.pop()
        j = next(j for j, v in enumerate(pivot_row) if v)
        p = pivot_row[j]
        rank += 1
        rows = [r for r in ([p * v - r[j] * w for v, w in zip(r, pivot_row)]
                            for r in rows) if any(r)]
    return rank


# ---------------------------------------------------------------------------
# Interpolation and evaluate-interpolate characteristic polynomials
# ---------------------------------------------------------------------------

def lagrange_interpolate(points: Sequence, deg_bound: int) -> QPoly:
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
    poly = QPoly(int(c) for c in coeffs)
    for x0, y0 in points[deg_bound + 1:]:
        if poly(x0) != y0:
            raise ExactAlgError(
                f"degree bound {deg_bound} fails at verification point "
                f"({x0}, {y0}): polynomial gives {poly(x0)}")
    return poly


def charpoly_q(m: PolyMatrix) -> XQPoly:
    """det(xI - m) as an exact element of Z[q][x], by evaluating q at
    integer points, running charpoly_int, and interpolating per x-coefficient.

    With entries of q-degree <= 1, m = A + qB, and the q-degree of every
    x-coefficient is at most rank B: deg_q det(C - qB) <= rank B for any C
    over Z[x], because writing B = U V^T with r = rank B columns,
    det(C - qB) = det(C) det(I_r - q V^T C^-1 U) over Q(x).  The rank is
    exact, so rank B + 1 points fit and one extra point verifies the bound.
    """
    if any(e.degree > 1 for row in m.entries for e in row):
        raise ValueError("matrix entries must have degree <= 1 in q")
    deg_bound = _rank_int([[e.coeff(1) for e in row] for row in m.entries])
    q_points = range(5, 5 + deg_bound + 2)
    samples = [charpoly_int(m.eval_q(q0)) for q0 in q_points]
    return XQPoly(lagrange_interpolate(list(zip(q_points, column)), deg_bound)
                  for column in zip(*samples))
