"""Power sums and state vectors of a row, read from its triple multiset
(see triangle), and the row-to-row step oracle.

The step oracle (check_system_step) evaluates the linear system that
advances the state vector from one row to the next, directly from its
defining formulas, so it stays independent of the matrix construction in
systembuilder.  The winger corrections (-2, -1, -2(q-4)) live here in the
equations, never inside state_vector, whose pair sums are a pure adjacency
scan.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .exactalg import binom
from .triangle import TAG_A, TAG_B


def power_sum(triples: Counter, k: int) -> int:
    """Sum of value^k over all entries of a row's triple multiset."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return sum(m * v**k for (_, (v, _), _), m in triples.items())


def type_power_sums(triples: Counter, k: int) -> tuple:
    """(sum over tag-A entries, sum over tag-B entries) of value^k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    totals = {TAG_A: 0, TAG_B: 0}
    for (_, (v, t), _), m in triples.items():
        totals[t] += m * v**k
    return totals[TAG_A], totals[TAG_B]


@dataclass
class StateVector:
    """Coordinates [ (a^k), (a^{k-1}b), ..., (a b^{k-1}), (b^k), u ]."""

    k: int
    coords: list

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if len(self.coords) != self.k + 2:
            raise ValueError(f"expected {self.k + 2} coordinates")

    @property
    def a(self) -> int:
        return self.coords[0]

    @property
    def b(self) -> int:
        return self.coords[self.k]

    @property
    def u(self) -> int:
        return self.coords[self.k + 1]


def state_vector(triples: Counter, k: int) -> StateVector:
    """The state vector of a row's triple multiset, in one pass over its
    distinct triples: the power sums by tag of the centres and the pair
    sums over (centre, right neighbour) pairs tagged (A, B) and (B, B)."""
    a = b = u = 0
    mixed = [0] * k  # mixed[j] = (a^{k-j} b^j), j = 1..k-1
    for (_, (x, t), right), m in triples.items():
        xk = m * x**k
        if t == TAG_A:
            a += xk
            if right is not None and right[1] == TAG_B:
                y = right[0]
                term = xk
                for j in range(1, k):  # m x^(k-j) y^j, from m x^k
                    term = term // x * y
                    mixed[j] += term
        else:
            b += xk
            if right is not None and right[1] == TAG_B:
                u += m * x * right[0]**(k - 1)
    return StateVector(k, [a] + mixed[1:] + [b, u])


def reduced_labels(k: int) -> list:
    m = -(-(k - 1) // 2)  # ceil((k-1)/2)
    return ["a^k", "b^k"] + [f"c{j}" for j in range(1, m + 1)] + ["u"]


def fold_state(g: StateVector) -> list:
    """Fold the full state vector into the reduced coordinates
    [a^k, b^k, c_1..c_m, u], where c_j pairs the mixed sums with b-exponents
    j and k-j (the middle term stays unpaired when k is even)."""
    k = g.k
    ell = (k - 1) // 2
    v = g.coords
    out = [g.a, g.b]
    out += [v[j] + v[k - j] for j in range(1, ell + 1)]
    if k % 2 == 0:
        out.append(v[k // 2])
    out.append(g.u)
    return out


@dataclass
class EquationCheck:
    name: str
    predicted: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.predicted == self.actual


@dataclass
class StepReport:
    k: int
    variant: str
    checks: list

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]


def _full_rhs(g: StateVector, q: int) -> list:
    k, v, u = g.k, g.coords, g.u
    a, b = g.a, g.b
    out = [2 * a + 2 * sum(binom(k, i) * v[i] for i in range(1, k)) + 2 * b
           + (2**k - 2) * u - 2]
    for j in range(1, k):
        mixed = sum(binom(k - j, i) * (v[j + i] + v[k - j - i])
                    for i in range(k - j))
        out.append(a + mixed + b + (2**(k - j) - 1) * u - 1)
    out.append((q - 4) * a + (q - 3) * b - 2 * (q - 4))
    out.append((q - 5) * a + (q - 4) * b - 2 * (q - 4))
    return out


def _reduced_printed_rhs(folded: list, k: int, q: int) -> list:
    """Right-hand sides of the reduced system exactly as its equations are
    printed, with no correction applied."""
    ell = (k - 1) // 2
    m = -(-(k - 1) // 2)
    a, b, u = folded[0], folded[1], folded[-1]
    c = folded[2:-1]  # c[0] is c_1

    def cs(i):
        return c[i - 1]

    out = [2 * a + 2 * sum(binom(k, i) * cs(i) for i in range(1, m + 1)) + 2 * b
           + (2**k - 2) * u - 2]
    out.append((q - 4) * a + (q - 3) * b - 2 * (q - 4))
    for j in range(1, ell + 1):
        rhs = a + sum(binom(k - j, i - j) * cs(i) for i in range(j, m + 1))
        rhs += sum((binom(k - j, i) + binom(j, i)) * cs(i)
                   for i in range(1, m + 1))
        rhs += b + (2**(k - j) - 1) * u - 1
        out.append(rhs)
    if k % 2 == 0:
        rhs = a + cs(ell + 1) + sum(binom(k - ell - 1, i) * cs(i)
                                    for i in range(1, ell + 2))
        rhs += b + (2**(k - ell - 1) - 1) * u - 1
        out.append(rhs)
    out.append((q - 5) * a + (q - 4) * b - 2 * (q - 4))
    return out


def check_system_step(g_n: StateVector, g_next: StateVector, q: int,
                      system: str = "full") -> StepReport:
    """Check every equation of the chosen system between the state vectors
    of consecutive rows n and n+1, n >= 1, of HPT_{4,q}.  Exact integer
    comparison per equation.

    system "full" uses the k+2 equation system; "reduced-as-printed" folds
    both vectors and evaluates the reduced equations verbatim, reporting any
    mismatch rather than correcting it.
    """
    k = g_n.k
    if g_next.k != k:
        raise ValueError("state vectors must have the same k")
    if system == "full":
        labels = (["a^k"] + [f"a^{k - j}b^{j}" for j in range(1, k)]
                  + ["b^k", "u"])
        rhs = _full_rhs(g_n, q)
        actual = g_next.coords
    elif system == "reduced-as-printed":
        labels = reduced_labels(k)
        # Equation order: a^k, b^k, c_1..c_m, u (matching the labels).
        rhs = _reduced_printed_rhs(fold_state(g_n), k, q)
        actual = fold_state(g_next)
    else:
        raise ValueError(f"unknown system {system!r}")
    checks = [EquationCheck(name, p, x)
              for name, p, x in zip(labels, rhs, actual)]
    return StepReport(k, system, checks)
