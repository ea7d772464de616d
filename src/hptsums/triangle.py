"""Row generation for the hyperbolic Pascal triangle on the {4,q} mosaic.

Rows are exact: every entry is an arbitrary-precision natural tagged A
(two ascendants, value = sum of parents) or B (one ascendant, value copied).
The boundary 1's (wingers) count as type B.

A row is its list of (value, tag) entries, left to right (next_row,
entry_rows); only the row command, which prints one, builds them.  A pair
multiset is a plain dict from the flat key (x, tx, y, ty) of each two
adjacent entries (x, tx) (y, ty) to its multiplicity, always > 0, the
wingers tagged W (next_pairs, pair_rows).  The children of a pair depend
only on the pair, so the multiset of row n determines that of row n+1 in
one step with no branch on q; its size is the number of distinct pairs, not
of entries.

The size of every row follows from the type-count step alone (row_counts),
so the entry cap is decided before any row is built (capped_depth).
"""
from __future__ import annotations

from itertools import islice

TAG_A = "A"
TAG_B = "B"
TAG_W = "W"  # a winger in a pair multiset: value 1, counted as B
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


def next_pairs(pairs: dict, params: TriangleParams) -> dict:
    """The pair multiset of row n+1 from that of row n, for n >= 1.

    Row n+1 holds one block per vertex v of row n: copies(v) copies of v,
    q-4 for tag A, q-3 for B and 1 for a winger, tagged B (W for a winger);
    then, unless v is the right winger, the A-child of v and its right
    neighbour.  So a pair (x, tx, y, ty) of row n has the children
    (x, B, x+y, A) and (x+y, A, y, B), and the copies(y) - 1 pairs
    (y, B, y, B) inside y's block.  Each block but the left winger's, which
    has no inner pair, is the right end of exactly one pair.  A key is
    written only with a count > 0.
    """
    if not pairs:
        raise ValueError("row 0 has no pair step; start at row 1")
    q = params.q
    inner = {TAG_A: q - 5, TAG_B: q - 4, TAG_W: 0}  # copies - 1
    copy_tag = {TAG_A: TAG_B, TAG_B: TAG_B, TAG_W: TAG_W}
    out = {}
    get = out.get
    for (x, tx, y, ty), m in pairs.items():
        s, cy = x + y, copy_tag[ty]
        key = (x, copy_tag[tx], s, TAG_A)
        out[key] = get(key, 0) + m
        key = (s, TAG_A, y, cy)
        out[key] = get(key, 0) + m
        c = m * inner[ty]
        if c > 0:  # a winger, or tag A at q = 5, has a single copy
            key = (y, cy, y, cy)
            out[key] = get(key, 0) + c
    return out


def pair_rows(params: TriangleParams):
    """The pair multisets of rows 0, 1, 2, ... without end; row 0, a single
    vertex, has no pair."""
    yield {}
    row = {(1, TAG_W, 1, TAG_W): 1}
    while True:
        yield row
        row = next_pairs(row, params)


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
