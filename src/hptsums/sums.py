"""Power sums by tag and state vectors of a row, read from its pair
multiset (see triangle: (ab, bb), the A-then-B pairs and the B copy pairs,
the B-then-A pairs being the ab pairs mirrored) for every k at once, and the
fold of a state vector into the reduced coordinates.

tag_power_sums gives the power sums and state_vectors the state vectors of
every k its caller asks for, each in one pass over the row's distinct pairs,
so a caller that checks many k reads each row once and one that prints a
single k computes that k alone.  state_vectors takes the row's tag power
sums from its caller, which computes them once per row.  Both count a
winger, the value 1, as B, and neither reads the mirror.  A state vector is
a plain list of k+2 integers, [(a^k), the k-1 mixed pair sums, (b^k), u];
k is its length minus 2.  Its pair sums are a pure adjacency scan: the
winger corrections (-2, -1, -2(q-4)) live in the step equations
(systembuilder, and the step oracle in verify), never here.  fold_classes
is the one list of the fold classes, which fold_state and the reduced
system of systembuilder read.
"""
from __future__ import annotations

from itertools import accumulate, repeat
from operator import mul

from . import triangle


def _power_sums(values: list, weights: list, ks) -> list:
    """The sum of w v^k over the values v and their weights w, for each k
    of the ascending ks, each value's power raised from one k to the
    next."""
    out, prev = [], 0
    for k in ks:
        # A run of ks, as run_grid asks for, costs one product per value.
        step = values if k == prev + 1 else [v ** (k - prev) for v in values]
        weights = list(map(mul, weights, step))
        out.append(sum(weights))
        prev = k
    return out


def tag_power_sums(pairs: tuple, ks) -> tuple:
    """(A, B), dicts from each k of ks to the sum of value^k over the tag-A
    and the tag-B entries of a row's pair multiset (ab, bb).  The interior
    entries are counted per value by triangle.entry_counts, and the wingers
    are added as B; each value's power is raised from one k of ks to the
    next."""
    ks = sorted(set(ks))
    if min(ks, default=0) < 0:
        raise ValueError("k must be >= 0")
    a_ends, b_ends = triangle.entry_counts(pairs)  # value -> multiplicity
    ab, bb = pairs
    b_ends[1] = 2 if ab or bb else 1  # row 0 is a single winger
    return tuple(dict(zip(ks, _power_sums(list(ends), list(ends.values()),
                                          ks)))
                 for ends in (a_ends, b_ends))


def state_vectors(pairs: tuple, ks, tag_sums: tuple) -> list:
    """The state vectors [(a^k), (a^{k-1}b), ..., (a b^{k-1}), (b^k), u] of a
    row's pair multiset (ab, bb) for each k of ks (every k >= 2), in ks
    order, each a list of k+2 integers.  tag_sums is the row's (A, B) from
    tag_power_sums, holding every k of ks.

    One pass over the distinct pairs serves every k.  The A-then-B pairs
    are ab itself, and u is the sum of m y^k over bb.  ab is grouped by x,
    and, one x at a time, S_x[j], the sum of m y^j over the pairs (x, y),
    does not depend on k; the mixed sum (a^{k-j} b^j) is
    sum_x x^(k-j) S_x[j].  Only one x's powers are held at a time.
    """
    if min(ks) < 2:
        raise ValueError("k must be >= 2")
    top = max(ks)
    a, b = tag_sums
    missing = [k for k in ks if k not in a or k not in b]
    if missing:
        raise ValueError(f"tag sums must reach k = {max(missing)}")
    ab, bb = pairs
    by_x = {}  # x -> ([y, ...], [m, ...]) over the ab pairs (x, y)
    for (x, y), m in ab.items():
        group = by_x.get(x)
        if group is None:
            by_x[x] = [y], [m]
        else:
            group[0].append(y)
            group[1].append(m)
    ascending = sorted(ks)
    u = dict(zip(ascending,
                 _power_sums(list(bb), list(bb.values()), ascending)))
    mixed = {k: [0] * (k - 1) for k in ks}  # [k][j - 1] = (a^{k-j} b^j)
    for x, (ys, ms) in by_x.items():
        # S_x[j] and x^j at index j - 1, for 1 <= j < top
        sx = _power_sums(ys, ms, range(1, top))
        xp = list(accumulate(repeat(x, top - 1), mul))
        for k, mk in mixed.items():
            for j in range(k - 1):
                mk[j] += xp[k - j - 2] * sx[j]
    return [[a[k]] + mixed[k] + [b[k], u[k]] for k in ks]


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
