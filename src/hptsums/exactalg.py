"""Exact arithmetic substrate.

Everything here is integer-exact: polynomials in ``q`` over the integers
(QPoly, a value built once from its coefficients) and characteristic
polynomials of integer matrices and of their rank-1 q-updates.  No
rational number appears here or anywhere else in the package; a division
that would not be exact raises instead of rounding.

Integer characteristic polynomials come from Newton's identities on power
traces, read off half-powers of the matrix; each matrix product packs the
rows of the power into one integer each, so that a row of the product is
one sum of small-by-packed integer products.  Every system matrix is
A + q u v^T with integer A, u and v, where u is nonzero on two rows only
and those rows, with v, read one column outside them.  The Schur
complement on those two rows and the matrix determinant lemma give its
characteristic polynomial, a list of q-linear coefficients as integer
pairs, from one run of the Newton loop on the q-free block on the other
n-2 coordinates: its characteristic polynomial, and the moments of the
lemma read off the powers that the loop forms.  An input of any other form
raises ExactAlgError.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import chain
from operator import mul


class ExactAlgError(Exception):
    """Raised when an exactness contract is violated: a non-exact division
    in the characteristic polynomial, or a system whose q-part charpoly_q
    cannot split off."""


def binom(n: int, r: int) -> int:
    """Binomial coefficient with C(n, r) = 0 whenever r < 0 or r > n."""
    if r < 0 or r > n or n < 0:
        return 0
    return math.comb(n, r)


# ---------------------------------------------------------------------------
# Polynomials in q over Z
# ---------------------------------------------------------------------------

class QPoly:
    """Polynomial in the symbol q with integer coefficients: a value that
    compares, hashes, evaluates and prints.

    Coefficients are stored ascending by degree; the canonical form has no
    trailing zeros, so the zero polynomial is the empty tuple.  The package
    builds each one once, from integers, and does no arithmetic on it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(int(c) for c in cs)

    def coeff(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QPoly((other,))
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # A constant equals its int (see __eq__), so it hashes like it too.
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeff(0))

    def __call__(self, q0: int) -> int:
        """Evaluate at an integer, exactly (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"


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


def _newton(m, d0: int, vecs) -> tuple:
    """(det(xI - m), moments) for an integer matrix m, as an ascending
    coefficient list and, for each vector w of vecs, e_d0^T m^j w, j < n.

    Newton's identities on the power traces p_i = tr(m^i) (Preparata and
    Sarwate, Inf. Process. Lett. 7, 1978): with c_n = 1,
    i c_{n-i} = -(p_i + c_{n-1} p_{i-1} + ... + c_{n-i+1} p_1), and every
    division by i is exact over Z.  Traces are read off half-powers as flat
    dot products, tr(m^(2a)) = <m^a, (m^a)^T> and
    tr(m^(2a+1)) = <m^(a+1), (m^a)^T>, so ceil(n/2)-1 matrix products
    (_packed_product) suffice; only the current and the previous power are
    kept.

    The moments are read off the powers the loop forms: it ends at m^H,
    H = ceil(n/2), and on its way holds row d0 of m^j for every j < H.  So
    e_d0^T m^j w is that row times w for j < H, and row d0 of m^(j-H) times
    the one product m^H w for H <= j < n, since j - H < n - H <= H.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    norm = max((sum(map(abs, row)) for row in m), default=0)
    traces = [0, sum(m[i][i] for i in range(n))]  # traces[i] = tr(m^i)
    tops = [[int(j == d0) for j in range(n)]]  # row d0 of m^0, m^1, ...
    cur = m  # m^a
    for a in range(1, n // 2 + 1):
        tops.append(cur[d0])
        traces.append(_trace_of_product(cur, cur))  # tr(m^(2a))
        if 2 * a < n:
            nxt = _packed_product(m, norm, cur)
            traces.append(_trace_of_product(nxt, cur))  # tr(m^(2a+1))
            cur = nxt
    c = [0] * (n + 1)
    c[n] = 1
    for i in range(1, n + 1):
        s = sum(map(mul, c[n - i + 1:], traces[1:i + 1]))
        if s % i != 0:
            raise ExactAlgError("non-exact division in characteristic polynomial")
        c[n - i] = -s // i
    high = n - (n + 1) // 2  # the moments read from m^H w
    moments = []
    for w in vecs:
        lifted = [sum(map(mul, row, w)) for row in cur]  # m^H w
        moments.append([sum(map(mul, t, w)) for t in tops[:n - high]]
                       + [sum(map(mul, t, lifted)) for t in tops[:high]])
    return c, moments


def _trace_of_product(a, b) -> int:
    """tr(a b) = <a, b^T>, one flat dot product."""
    return sum(map(mul, chain.from_iterable(a), chain.from_iterable(zip(*b))))


def _packed_product(m, norm: int, p) -> list:
    """The square product m p, norm being ||m||, the largest row sum of
    absolute values of m, from the rows of p packed into one integer each
    (Kronecker substitution; Harvey, J. Symb. Comput. 44, 2009): with
    B = 2^(8 nb), row j of p packs to sum_c p_jc B^c, and row i of m p is
    sum_j m_ij (packed row j), one sum of small-by-packed products, read
    back by one to_bytes and n int.from_bytes slices.  The slots are signed
    and byte-aligned, sized from the proven bound
    |(m p)_ij| <= sum_l |m_il| |p_lj| <= ||m|| max|p| = bound; for p = m^a,
    bound <= ||m||^(a+1), and at the q-free blocks of large k it is some
    40% narrower.  With nb = (bound.bit_length() + 8) // 8 bytes and the
    offset 2^(8 nb - 1) > bound added to every slot, each entry plus the
    offset lies in [0, B), so the bytes of the offset row read back every
    entry exactly.
    """
    bound = norm * max(map(abs, chain.from_iterable(p)))
    nb = (bound.bit_length() + 8) // 8
    off = 1 << (8 * nb - 1)
    width = nb * len(p)
    offsets = int.from_bytes(off.to_bytes(nb, "little") * len(p),
                             "little")  # off in every slot
    packed = [int.from_bytes(b"".join([(x + off).to_bytes(nb, "little")
                                       for x in row]), "little") - offsets
              for row in p]
    out = []
    for row in m:
        raw = (sum(map(mul, row, packed)) + offsets).to_bytes(width, "little")
        out.append([int.from_bytes(raw[s:s + nb], "little") - off
                    for s in range(0, width, nb)])
    return out


def charpoly_q(a: Sequence[Sequence[int]], u: Sequence[int],
               v: Sequence[int]) -> list:
    """det(xI - a - q u v^T) for integer a, u and v, as an ascending list
    of its x-coefficients, each the integer pair (c0, c1) of c0 + c1 q.

    The q-part must sit on two rows: u has exactly two nonzero entries, S,
    and the rows S of a, with v, touch exactly one column d0 outside S;
    any other input raises ExactAlgError.  With D the other coordinates,
    M = a + q u v^T has q-free blocks M_DD = a_DD and M_DS = a_DS, and
    M_SD = p e_d0^T is rank 1, p_s = a[s][d0] + q u_s v[d0].  The Schur
    complement on D and the matrix determinant lemma give

        det(xI - M) = det(X) c_D - rho^T adj(X) p,

    with X = xI - M_SS (2x2), c_D = det(xI - a_DD) = sum_e c_e x^e and
    rho_s = e_d0^T adj(xI - a_DD) a_{D,s}.  By Cayley-Hamilton
    adj(xI - a_DD) = sum_d x^d sum_{e>d} c_e a_DD^(e-d-1), so the x^d
    coefficient of rho_s is sum_{e>d} c_e sigma_(e-d-1) with the moments
    sigma_j = e_d0^T a_DD^j a_{D,s}, j < n-2.  One run of the Newton loop
    (_newton) on the (n-2)-dimensional block gives c_D and the
    moments, read off the powers it forms.

    Only the 2x2 tail depends on q, and it is linear in q for every input
    of this form: the q^2 part of det(X) is q^2 det(u_S v_S^T) = 0, and
    that of rho^T adj(X) p is -v_d0 rho^T adj(u_S v_S^T) u_S = 0, since a
    2x2 adjugate is linear and adj(u_S v_S^T) u_S = 0.  So the tail is
    evaluated exactly at q = 0 and q = 1, and c1 is the difference.
    """
    n = len(a)
    qrows = [i for i in range(n) if u[i]]
    if len(qrows) != 2:
        raise ExactAlgError(
            f"q-part must sit on exactly two rows, not {len(qrows)}")
    rest = [i for i in range(n) if not u[i]]
    outside = [j for j in rest if v[j] or any(a[s][j] for s in qrows)]
    if len(outside) != 1:
        raise ExactAlgError("q-rows and v must touch exactly one column "
                            f"outside them, not {len(outside)}")
    d0 = outside[0]
    c, moments = _newton([[a[i][j] for j in rest] for i in rest],
                         rest.index(d0), [[a[i][s] for i in rest]
                                          for s in qrows])
    rho = [[sum(map(mul, c[d + 1:], sigma)) for d in range(len(rest))]
           for sigma in moments]

    def tail(q0):  # det(xI - M) at q = q0, exactly
        (m00, m01), (m10, m11) = [[a[i][j] + q0 * u[i] * v[j] for j in qrows]
                                  for i in qrows]
        p0, p1 = [a[s][d0] + q0 * u[s] * v[d0] for s in qrows]
        out = _polymul([m00 * m11 - m01 * m10, -m00 - m11, 1], c)
        # x-coefficients of the two entries of adj(X) p
        for w, r in zip(([m01 * p1 - m11 * p0, p0],
                         [m10 * p0 - m00 * p1, p1]), rho):
            for d, x in enumerate(_polymul(w, r)):
                out[d] -= x
        return out

    t0, t1 = tail(0), tail(1)
    return [(lo, hi - lo) for lo, hi in zip(t0, t1)]


def _polymul(x: list, y: list) -> list:
    """Product of two ascending integer coefficient sequences, as a list."""
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] += xi * yj
    return out
