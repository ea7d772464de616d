"""Exact arithmetic substrate.

Everything here is integer-exact: polynomials in ``q`` over the integers
(QPoly), polynomials in ``x`` over that ring (XQPoly), dense square matrices
over QPoly and characteristic polynomials.  No rational number appears here
or anywhere else in the package; a division that would not be exact raises
instead of rounding.

Integer characteristic polynomials come from Newton's identities on power
traces, read off half-powers of the matrix.  Over Z[q] every system matrix
is A + q u v^T with a rank-1 q-part, and the matrix determinant lemma gives
its characteristic polynomial from the integer one of A and the Krylov
scalars v^T A^j u.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


def _rank_one_factors(b: Sequence[Sequence[int]]) -> tuple:
    """Integer vectors u, v with b == u v^T, both zero for a zero b.

    v is the first nonzero row of b over its gcd, so u_i = b[i][j0] / v[j0]
    is exact when b has rank 1; u v^T is checked against b entry by entry,
    and a b of rank >= 2 raises ValueError."""
    n = len(b)
    row = next((r for r in b if any(r)), None)
    if row is None:
        return [0] * n, [0] * n
    g = math.gcd(*row)
    v = [e // g for e in row]
    j0 = next(j for j, e in enumerate(v) if e)
    u = [r[j0] // v[j0] for r in b]
    if any(r[j] != ui * vj for r, ui in zip(b, u) for j, vj in enumerate(v)):
        raise ValueError("the q-part of the matrix must have rank <= 1")
    return u, v


def charpoly_q(m: PolyMatrix) -> XQPoly:
    """det(xI - m) as an exact element of Z[q][x], for m = A + q u v^T.

    By the matrix determinant lemma,
    det(xI - A - q u v^T) = p(x) - q v^T adj(xI - A) u with
    p(x) = det(xI - A) = sum_e c_e x^e, and by Cayley-Hamilton
    adj(xI - A) = sum_d x^d sum_{e>d} c_e A^(e-d-1).  So the x^d
    coefficient is c_d - q sum_{e>d} c_e s_(e-d-1), with the Krylov scalars
    s_j = v^T A^j u: one integer charpoly and n matrix-vector products.
    Entries of q-degree > 1 and q-parts of rank >= 2 raise ValueError.
    """
    if any(e.degree > 1 for row in m.entries for e in row):
        raise ValueError("matrix entries must have degree <= 1 in q")
    a = m.eval_q(0)
    u, v = _rank_one_factors([[e.coeff(1) for e in row] for row in m.entries])
    c = charpoly_int(a)
    s, w = [], u  # s[j] = v^T A^j u, w = A^j u
    for _ in range(m.dim):
        s.append(sum(map(mul, v, w)))
        w = [sum(map(mul, row, w)) for row in a]
    return XQPoly(QPoly((c[d], -sum(map(mul, c[d + 1:], s))))
                  for d in range(m.dim + 1))
