"""Row generation for the hyperbolic Pascal triangle on the {4,q} mosaic.

Rows are exact: every entry is an arbitrary-precision natural tagged A
(two ascendants, value = sum of parents) or B (one ascendant, value copied).
The boundary 1's (wingers) count as type B.

A row is its list of (value, tag) entries, left to right (next_row,
entry_rows); only the row command, which prints one, builds them.  A pair
multiset (next_pairs, pair_rows) is the half of a row's adjacent pairs that
the rest determines, a tuple (ab, bb) of plain dicts with every count > 0:
ab maps (s, y), an A entry of value s and its right neighbour y, to its
count, and bb maps y, two adjacent B entries of value y, to its count.  No
two A entries are adjacent, and two adjacent B entries are copies of one
value, so these are all the pairs but the B-then-A ones, which are the ab
pairs mirrored, since rows are palindromes.  Value 1 marks a winger: an A
entry sums two entries and a B entry copies an interior one, so no interior
entry is 1.  A row holds 1 + 2 sum(ab) + sum(bb) entries.  The children of
a pair depend only on the pair, so the multiset of row n determines that of
row n+1 in one step, q entering only the count of the copy pairs; its size
is the number of distinct pairs, not of entries.  The copy pairs read the
row's entries counted per value and tag (entry_counts), and so do the tag
power sums of sums; pair_rows yields each row with those counts, decoded
once, for the statistics and the step to the next row alike.

pair_rows caps the keys a row holds; an entry cap is decided from the sizes
of the type-count step (row_counts) before any row is built (capped_depth).
"""
from __future__ import annotations

from itertools import islice

TAG_A = "A"
TAG_B = "B"
WINGER = (1, TAG_B)  # a boundary 1 in an entry list


class TriangleParams:
    """Schlafli parameter q of the mosaic {4,q}; hyperbolic requires q >= 5."""

    def __init__(self, q: int):
        if q < 5:
            raise ValueError(f"q must be >= 5, got {q}")
        self.q = q


class RowCounts:
    def __init__(self, a: int, b: int, s: int):
        self.a = a  # type-A vertices
        self.b = b  # type-B vertices (wingers included)
        self.s = s  # all vertices


def validate_row(e: list) -> None:
    """Reject rows that cannot occur in any HPT_{4,q}: wrong wingers,
    broken palindrome, or non-positive values."""
    if len(e) < 2:
        raise ValueError("row must have length >= 2")
    if e[0] != (1, TAG_B) or e[-1] != (1, TAG_B):
        raise ValueError("row must start and end with a (1, B) winger")
    if e != e[::-1]:
        raise ValueError("row is not palindromic")
    if any(v < 1 for v, _ in e):
        raise ValueError("row values must be >= 1")
    if any(t not in (TAG_A, TAG_B) for _, t in e):
        raise ValueError("row tags must be A or B")


def next_row(e: list, params: TriangleParams) -> list:
    """Construct row n+1 from row n, n >= 1.

    Each adjacent pair contributes one A-child (sum of the pair); each
    interior vertex additionally contributes q-4 (type A) or q-3 (type B)
    equal-valued B-children between its two A-children; wingers contribute
    only the new boundary 1's.
    """
    validate_row(e)
    q = params.q
    out = [(1, TAG_B)]
    for i in range(len(e) - 1):
        out.append((e[i][0] + e[i + 1][0], TAG_A))
        if i + 1 < len(e) - 1:
            v, t = e[i + 1]
            copies = q - 4 if t == TAG_A else q - 3
            out.extend([(v, TAG_B)] * copies)
    out.append((1, TAG_B))
    return out


def entry_rows(params: TriangleParams):
    """The entry lists of rows 0, 1, 2, ... without end."""
    yield [WINGER]
    row = [WINGER, WINGER]
    while True:
        yield row
        row = next_row(row, params)


def entry_counts(pairs: tuple) -> tuple:
    """(A, B), dicts from each value to the number of A and of B entries of
    that value in the row of pair multiset (ab, bb), the wingers counted as
    B entries of value 1.  The A entries are the left ends of ab, and the B
    entries the right ends of ab and bb and the left winger, which ends no
    pair."""
    ab, bb = pairs
    n_a, n_b = {}, dict(bb)
    get_a, get_b = n_a.get, n_b.get
    for (s, y), m in ab.items():
        n_a[s] = get_a(s, 0) + m
        n_b[y] = get_b(y, 0) + m
    n_b[1] = get_b(1, 0) + 1  # the left winger
    return n_a, n_b


def next_pairs(pairs: tuple, counts: tuple, params: TriangleParams) -> tuple:
    """The pair multiset (ab, bb) of row n+1 from that of row n, n >= 1, and
    from the entry counts of row n (entry_counts).

    Row n+1 holds one block per entry v of row n: copies(v) copies of v,
    q-4 for tag A, q-3 for B and 1 for a winger, tagged B; then, unless v
    is the right winger, the A entry that sums v and its right neighbour.
    So each pair (x, y) of row n gives the pair (x+y, y) of row n+1: an ab
    pair (s, y) gives (s+y, y) and, through its mirror (y, s), (s+y, s),
    and a bb pair y gives (2y, y).  The copies(v) - 1 copy pairs of each
    block are the whole bb of row n+1: (q-4) #B(v) + (q-5) #A(v) of each
    interior value v, where #A(v) and #B(v) count the A and B entries of
    value v in row n, and none of the winger value 1.  A key is written
    only with a count > 0.
    """
    ab, bb = pairs
    if not ab and not bb:
        raise ValueError("row 0 has no pair step; start at row 1")
    q = params.q
    out = {}
    get = out.get
    for (s, y), m in ab.items():
        t = s + y
        key = (t, y)
        out[key] = get(key, 0) + m
        key = (t, s)
        out[key] = get(key, 0) + m
    for y, m in bb.items():
        key = (y + y, y)
        out[key] = get(key, 0) + m
    n_a, n_b = counts
    get_a, get_b = n_a.get, n_b.get
    copy_pairs = {}
    for v in n_a.keys() | n_b.keys():
        c = (q - 4) * get_b(v, 0) + (q - 5) * get_a(v, 0)
        # No copy pair of a winger, nor of an A entry at q = 5: one copy.
        if c and v != 1:
            copy_pairs[v] = c
    return out, copy_pairs


def pair_rows(params: TriangleParams, key_cap: int | None = None):
    """The pair multisets of rows 0, 1, 2, ..., each with its entry counts,
    as (pairs, counts): row 0, a single vertex, has no pair, and row 1 is
    its two wingers, one bb pair.  Each row is decoded once, by
    entry_counts, for its caller and for the step to the next row.

    Rows 0 and 1 always come; row n+1 only if 4 keys(n) <= key_cap, if
    given, keys being len(ab) + len(bb).  An ab key gives at most 2 keys,
    a bb key 1, and the copy keys number at most the distinct values,
    2 len(ab) + len(bb): so no row holds more than key_cap keys."""
    if key_cap is not None and key_cap <= 0:
        raise ValueError("key_cap must be > 0")
    row = {}, {}
    yield row, entry_counts(row)
    row = {}, {1: 1}
    while True:
        counts = entry_counts(row)
        yield row, counts
        if key_cap is not None and 4 * (len(row[0]) + len(row[1])) > key_cap:
            return
        row = next_pairs(row, counts, params)


def _type_counts(q: int):
    """(a, b) of rows 1, 2, 3, ... without end, by the structural step
    rules: each adjacent pair yields one A vertex (a_{n+1} = s_n - 1) and
    each interior vertex yields q-4 or q-3 B copies plus the two new
    wingers."""
    a, b = 0, 2  # row 1
    while True:
        yield a, b
        a, b = a + b - 1, 2 + (q - 4) * a + (q - 3) * (b - 2)


def row_counts(params: TriangleParams, n: int) -> RowCounts:
    """Type counts of row n without generating it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = next(islice(_type_counts(params.q), n - 1, None))
    return RowCounts(a, b, a + b)


def capped_depth(params: TriangleParams, n_max: int, entry_cap: int) -> int:
    """The last of rows 0..n_max that may be built: rows 0 and 1 always,
    then each row while it holds at most entry_cap entries.  Sizes come
    from the type-count step, so no row is built to decide it."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if entry_cap <= 0:
        raise ValueError("entry_cap must be > 0")
    depth = min(n_max, 1)
    for a, b in islice(_type_counts(params.q), 1, n_max):  # rows 2..n_max
        if a + b > entry_cap:
            break
        depth += 1
    return depth
