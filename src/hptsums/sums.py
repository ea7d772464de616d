"""Power sums by tag and state vectors of a row, read from its entry counts
and its pair multiset (see triangle: (ab, bb), the A-then-B pairs and the B
copy pairs, the B-then-A pairs being the ab pairs mirrored) for every k at
once.

tag_power_sums gives the power sums and state_vectors the state vectors of
every k its caller asks for, so a caller that checks many k reads each row
once and one that prints a single k computes that k alone.  tag_power_sums
reads the row's entry counts per value, which the row stream
(triangle.pair_rows) decodes once per row for the statistics and the step
to the next row alike; state_vectors reads the distinct pairs, one power
column at a time across the whole row, and takes the row's tag power sums
from its caller, which computes them once per row.  Both count a winger,
the value 1, as B, and neither reads the mirror.  A state vector is a plain
list of k+2 integers, [(a^k), the k-1 mixed pair sums, (b^k), u]; k is its
length minus 2.  Its pair sums are a pure adjacency scan: the winger
corrections (-2, -1, -2(q-4)) live in the step equations (systembuilder,
and the step oracle in verify), never here.  Their fold into the reduced
coordinates is systembuilder.fold_state, next to the reduced system.

held_bits bounds the size of what the sums command holds, from q, k and
the number of rows alone, before any row is built.
"""
from __future__ import annotations

from operator import floordiv, mul

from . import triangle

# The most bits of numbers the sums command may hold (held_bits): 64 MiB.
HELD_BITS_LIMIT = 2**29


def _power_lists(values: list, weights: list, ks):
    """The lists of w v^k over the values v and their weights w, one for
    each k of the ascending ks, each value's power raised from one k to the
    next."""
    prev = 0
    for k in ks:
        # A run of ks, as run_grid asks for, costs one product per value.
        step = values if k == prev + 1 else [v ** (k - prev) for v in values]
        weights = list(map(mul, weights, step))
        yield weights
        prev = k


def _power_sums(values: list, weights: list, ks) -> list:
    """The sum of w v^k over the values v and their weights w, for each k
    of the ascending ks."""
    return list(map(sum, _power_lists(values, weights, ks)))


def tag_power_sums(counts: tuple, ks) -> tuple:
    """(A, B), dicts from each k of ks to the sum of value^k over the tag-A
    and the tag-B entries of a row, from its entry counts (A, B) per value
    (triangle.entry_counts, which counts the wingers as B); each value's
    power is raised from one k of ks to the next."""
    ks = sorted(set(ks))
    if min(ks, default=0) < 0:
        raise ValueError("k must be >= 0")
    return tuple(dict(zip(ks, _power_sums(list(c), list(c.values()), ks)))
                 for c in counts)


def state_vectors(pairs: tuple, ks, tag_sums: tuple) -> list:
    """The state vectors [(a^k), (a^{k-1}b), ..., (a b^{k-1}), (b^k), u] of a
    row's pair multiset (ab, bb) for each k of ks (every k >= 2), in ks
    order, each a list of k+2 integers.  tag_sums is the row's (A, B) from
    tag_power_sums, holding every k of ks.

    The A-then-B pairs are ab itself, and u is the sum of m y^k over bb.
    ab is grouped by its B end y once.  T_y[e], the sum of m x^e over the
    pairs (x, y), does not depend on k, and the mixed sum (a^e b^{k-e}) is
    sum_y y^(k-e) T_y[e].  So the sums go one power column e at a time,
    across all y: m x^e is one product per pair, T_y[e] one sum per y, and
    each mixed sum of column e one dot product with the list of y^(k-e).
    A row has fewer distinct B ends than A values (in row 12, 122 against
    183 at q >= 6), so grouping by y takes fewer of these large products.
    Only the y-power lists that column e reads are held, the exponents
    k - e of the ks above e; column e+1 reads each exponent one lower, held
    already for a run of ks, else divided out of the one above.
    """
    if min(ks) < 2:
        raise ValueError("k must be >= 2")
    a, b = tag_sums
    missing = [k for k in ks if k not in a or k not in b]
    if missing:
        raise ValueError(f"tag sums must reach k = {max(missing)}")
    ab, bb = pairs
    by_y = {}  # y -> ([x, ...], [m, ...]) over the ab pairs (x, y)
    for (x, y), m in ab.items():
        group = by_y.get(y)
        if group is None:
            by_y[y] = [x], [m]
        else:
            group[0].append(x)
            group[1].append(m)
    ys, xs, w, spans = list(by_y), [], [], []
    for y_xs, y_ms in by_y.values():
        spans.append(slice(len(xs), len(xs) + len(y_xs)))
        xs += y_xs
        w += y_ms
    ascending = sorted(ks)
    u = dict(zip(ascending,
                 _power_sums(list(bb), list(bb.values()), ascending)))
    exps = sorted({k - 1 for k in ks})
    powers = dict(zip(exps, _power_lists(ys, [1] * len(ys), exps)))
    mixed = {k: [] for k in ks}  # [k][e - 1] = (a^e b^{k-e})
    for e in range(1, max(ks)):
        w = list(map(mul, w, xs))  # m x^e
        t = list(map(sum, map(w.__getitem__, spans)))  # T_y[e]
        for k, mk in mixed.items():
            if k > e:
                mk.append(sum(map(mul, powers[k - e], t)))
        powers = {d - 1: powers.get(d - 1) or list(map(floordiv, p, ys))
                  for d, p in powers.items() if d > 1}
    return [[a[k]] + mixed[k][::-1] + [b[k], u[k]] for k in ks]


def held_bits(params: triangle.TriangleParams, k: int, n_max: int,
              vectors: bool) -> int:
    """An upper bound on the bits of the numbers held at once for the power
    sums of k, and with vectors the state vectors, of rows 1..n_max: every
    row's printed numbers, kept to the end, and the largest row's two lists
    of per-value powers (_power_lists).  Past HELD_BITS_LIMIT it stops
    adding rows and returns what it has, already past the limit.

    Row n holds s_n entries (triangle.type_counts), each at most F_{n+1},
    F_1 = F_2 = 1 being the Fibonacci numbers: an A entry of row n+1 sums
    two adjacent entries of row n, one of them a B entry, since no two A
    entries are adjacent, and a B entry copies an entry of the row above
    or is a winger 1.  So max_{n+1} <= max_n + max_{n-1}, with
    max_0 = max_1 = 1.  Every power sum, state-vector entry and power of
    row n is at most s_n F_{n+1}^k, and F^64 <= 2^b with
    b = (F^64 - 1).bit_length(), so it has at most
    s_n.bit_length() + ceil(k b / 64) bits.  Row n prints one of them, or
    k+3 with vectors, and holds at most min(s_n, F_{n+1}) distinct values.
    """
    printed = per_value = 0
    f, f_next = 1, 2  # F_{n+1} and F_{n+2} at row n = 1
    for _, (a, b) in zip(range(n_max), triangle.type_counts(params)):
        bits = ((a + b).bit_length()
                - (-k * (f**64 - 1).bit_length() // 64))
        printed += bits * (k + 3 if vectors else 1)
        per_value = max(per_value, 2 * min(a + b, f) * bits)
        if printed + per_value > HELD_BITS_LIMIT:
            break
        f, f_next = f_next, f + f_next
    return printed + per_value
