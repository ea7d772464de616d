"""Power sums by tag and state vectors of a row, read from its pair
multiset (see triangle: a dict from flat (x, tx, y, ty) keys to
multiplicities) for every k at once, and the fold of a state vector into
the reduced coordinates.

tag_power_sums gives the power sums and state_vectors the state vectors of
every k its caller asks for, each in one pass over the row's distinct pairs,
so a caller that checks many k reads each row once and one that prints a
single k computes that k alone.  state_vectors takes the row's tag power
sums from its caller, which computes them once per row.  Both count a
winger, tagged W in the pairs, as B.  A state vector is a plain list of k+2
integers, [(a^k), the k-1 mixed pair sums, (b^k), u]; k is its length
minus 2.  Its pair sums are a pure adjacency scan: the winger corrections
(-2, -1, -2(q-4)) live in the step equations (systembuilder, and the step
oracle in verify), never here.  fold_classes is the one list of the fold
classes, which fold_state and the reduced system of systembuilder read.
"""
from __future__ import annotations

from operator import mul

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
