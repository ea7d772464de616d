"""Power sums by tag and state vectors of a row, read from its pair
multiset (see triangle: a dict from flat (x, tx, y, ty) keys to
multiplicities) for every k at once, and the row-to-row step oracle.

tag_power_sums gives the power sums and state_vectors the state vectors of
every k its caller asks for, each in one pass over the row's distinct pairs,
so a caller that checks many k reads each row once and one that prints a
single k computes that k alone.  state_vectors takes the row's tag power
sums from its caller, which computes them once per row.  Both count a
winger, tagged W in the pairs, as B.  A state vector is a plain list of k+2
integers, [(a^k), the k-1 mixed pair sums, (b^k), u]; k is its length
minus 2.  The step oracle (check_system_step) evaluates the linear system
that advances the state vector from one row to the next, directly from its
defining formulas, so it stays independent of the matrix construction in
systembuilder, and returns the equations that fail.  The winger corrections (-2, -1, -2(q-4)) live
here in the equations, never inside state_vectors, whose pair sums are a
pure adjacency scan.
"""
from __future__ import annotations

from operator import mul

from .exactalg import binom
from .triangle import TAG_A, TAG_B, TAG_W


def tag_power_sums(pairs: dict, ks) -> tuple:
    """(A, B), dicts from each k of ks to the sum of value^k over the tag-A
    and the tag-B entries of a row's pair multiset.  Every entry but the
    left winger ends one pair, so the multiplicities are summed per right
    value, in one dict per tag (W shares B's), plus 1 for the left winger,
    and each value's power is raised from one k of ks to the next."""
    ks = sorted(set(ks))
    if min(ks, default=0) < 0:
        raise ValueError("k must be >= 0")
    a_ends, b_ends = {}, {1: 1}  # value -> multiplicity; the left winger
    ends = {TAG_A: a_ends, TAG_B: b_ends, TAG_W: b_ends}
    for (_, _, y, ty), m in pairs.items():
        d = ends[ty]
        d[y] = d.get(y, 0) + m
    a, b = {}, {}
    for acc, by_value in ((a, a_ends), (b, b_ends)):
        values, terms = list(by_value), list(by_value.values())
        prev = 0
        for k in ks:
            # A run of ks, as run_grid asks for, costs one product per value.
            step = (values if k == prev + 1
                    else [v ** (k - prev) for v in values])
            terms = list(map(mul, terms, step))
            acc[k] = sum(terms)
            prev = k
    return a, b


def state_vectors(pairs: dict, ks, tag_sums: tuple) -> list:
    """The state vectors [(a^k), (a^{k-1}b), ..., (a b^{k-1}), (b^k), u] of a
    row's pair multiset for each k of ks (every k >= 2), in ks order, each
    a list of k+2 integers.  tag_sums is the row's (A, B) from
    tag_power_sums, holding every k of ks.

    One pass over the distinct pairs serves every k.  It groups the (A, B)
    pairs of values (x, y) by x, and sums U[j] = sum m x y^j over the
    (B, B) pairs, so that u = U[k-1]; a winger counts as B.  Then, one x at
    a time, S_x[j] = sum m y^j over the pairs of x does not depend on k,
    and the mixed sum (a^{k-j} b^j) is sum_x x^(k-j) S_x[j].
    """
    if min(ks) < 2:
        raise ValueError("k must be >= 2")
    top = max(ks)
    a, b = tag_sums
    missing = [k for k in ks if k not in a or k not in b]
    if missing:
        raise ValueError(f"tag sums must reach k = {max(missing)}")
    by_x, u = {}, [0] * top  # by_x[x] = [(y, m), ...]; u[j] = U[j], j < top
    for (x, t, y, ty), m in pairs.items():
        if ty == TAG_A:
            continue
        if t == TAG_A:
            by_x.setdefault(x, []).append((y, m))
        else:
            m *= x
            for j in range(top):
                u[j] += m
                m *= y
    mixed = {k: [0] * k for k in ks}  # mixed[k][j] = (a^{k-j} b^j), j >= 1
    for x, ys in by_x.items():
        sx, xp = [0] * top, [1] * top  # S_x[j] and x^j, j < top
        for y, m in ys:
            for j in range(top):
                sx[j] += m
                m *= y
        for j in range(1, top):
            xp[j] = xp[j - 1] * x
        for k, mk in mixed.items():
            for j in range(1, k):
                mk[j] += xp[k - j] * sx[j]
    return [[a[k]] + mixed[k][1:] + [b[k], u[k - 1]] for k in ks]


def reduced_labels(k: int) -> list:
    m = -(-(k - 1) // 2)  # ceil((k-1)/2)
    return ["a^k", "b^k"] + [f"c{j}" for j in range(1, m + 1)] + ["u"]


def fold_state(g: list) -> list:
    """Fold the full state vector g (k = len(g) - 2) into the reduced
    coordinates [a^k, b^k, c_1..c_m, u], where c_j pairs the mixed sums with
    b-exponents j and k-j (the middle term stays unpaired when k is even)."""
    k = len(g) - 2
    ell = (k - 1) // 2
    out = [g[0], g[k]]
    out += [g[j] + g[k - j] for j in range(1, ell + 1)]
    if k % 2 == 0:
        out.append(g[k // 2])
    out.append(g[-1])
    return out


def _full_rhs(g: list, q: int) -> list:
    k = len(g) - 2
    a, b, u = g[0], g[k], g[-1]
    out = [2 * a + 2 * sum(binom(k, i) * g[i] for i in range(1, k)) + 2 * b
           + (2**k - 2) * u - 2]
    for j in range(1, k):
        mixed = sum(binom(k - j, i) * (g[j + i] + g[k - j - i])
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


def check_system_step(g_n: list, g_next: list, q: int,
                      system: str = "full") -> list:
    """Check every equation of the chosen system between the state vectors
    of consecutive rows n and n+1, n >= 1, of HPT_{4,q}.  Exact integer
    comparison per equation; the equations that fail are returned as
    (name, predicted, actual), so an empty list means the step holds.

    system "full" uses the k+2 equation system; "reduced-as-printed" folds
    both vectors and evaluates the reduced equations verbatim, reporting any
    mismatch rather than correcting it.
    """
    if len(g_next) != len(g_n):
        raise ValueError("state vectors must have the same k")
    k = len(g_n) - 2
    if system == "full":
        labels = (["a^k"] + [f"a^{k - j}b^{j}" for j in range(1, k)]
                  + ["b^k", "u"])
        rhs = _full_rhs(g_n, q)
        actual = g_next
    elif system == "reduced-as-printed":
        labels = reduced_labels(k)
        # Equation order: a^k, b^k, c_1..c_m, u (matching the labels).
        rhs = _reduced_printed_rhs(fold_state(g_n), k, q)
        actual = fold_state(g_next)
    else:
        raise ValueError(f"unknown system {system!r}")
    return [(name, p, x) for name, p, x in zip(labels, rhs, actual)
            if p != x]
