"""Exact arithmetic substrate.

Everything here is integer-exact: polynomials in ``q`` over the integers
(QPoly) and characteristic polynomials of integer matrices and of their
rank-1 q-updates.  No rational number appears here or anywhere else in the
package; a division that would not be exact raises instead of rounding.

Integer characteristic polynomials come from Newton's identities on power
traces, read off half-powers of the matrix.  Every system matrix is
A + q u v^T with integer A, u and v, and the matrix determinant lemma gives
its characteristic polynomial, a list of q-linear coefficients, from the
integer one of A and the Krylov scalars v^T A^j u.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import chain
from operator import mul


class ExactAlgError(Exception):
    """Raised when an exactness contract is violated: a non-exact division
    in charpoly_int, or a system row that cannot be folded."""


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

    def coeff(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QPoly.const(other)
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # A constant equals its int (see __eq__), so it hashes like it too.
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeff(0))

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


def format_qpoly(p: QPoly) -> str:
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
            term = f"{head}q" if d == 1 else f"{head}q^{d}"
        parts.append(sign + term)
    return "".join(parts)


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


def charpoly_q(a: Sequence[Sequence[int]], u: Sequence[int],
               v: Sequence[int]) -> list:
    """det(xI - a - q u v^T) for integer a, u and v, as an ascending list
    of its x-coefficients, each a QPoly of degree <= 1 in q.

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
    return [QPoly((c[d], -sum(map(mul, c[d + 1:], s)))) for d in range(n + 1)]
