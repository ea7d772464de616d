"""Row generation for the hyperbolic Pascal triangle on the {4,q} mosaic.

Rows are exact: every entry is an arbitrary-precision natural tagged A
(two ascendants, value = sum of parents) or B (one ascendant, value copied).
The boundary 1's (wingers) count as type B.

A Row lists its entries (next_row, generate_rows); only the row command,
which prints one, builds Rows.  A triple multiset is a Counter of one
(left, (value, tag), right) triple per entry, None padding the row ends
(next_triples, generate_triples).  A vertex's children depend only on it
and its two neighbours, so the multiset of row n determines that of row
n+1; its size is the number of distinct triples, not of entries.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

TAG_A = "A"
TAG_B = "B"
WINGER = (1, TAG_B)  # a boundary 1


@dataclass(frozen=True)
class TriangleParams:
    """Schlafli parameter q of the mosaic {4,q}; hyperbolic requires q >= 5."""

    q: int

    def __post_init__(self):
        if self.q < 5:
            raise ValueError(f"q must be >= 5, got {self.q}")


@dataclass
class Row:
    index: int
    entries: list  # list of (value, tag) pairs, left to right

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class RowCounts:
    a: int  # type-A vertices
    b: int  # type-B vertices (wingers included)
    s: int  # all vertices


def row0() -> Row:
    return Row(0, [(1, TAG_B)])


def row1() -> Row:
    return Row(1, [(1, TAG_B), (1, TAG_B)])


def validate_row(row: Row) -> None:
    """Reject rows that cannot occur in any HPT_{4,q}: wrong wingers,
    broken palindrome, or non-positive values."""
    e = row.entries
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


def next_row(row: Row, params: TriangleParams) -> Row:
    """Construct row n+1 from row n.

    Each adjacent pair contributes one A-child (sum of the pair); each
    interior vertex additionally contributes q-4 (type A) or q-3 (type B)
    equal-valued B-children between its two A-children; wingers contribute
    only the new boundary 1's.
    """
    validate_row(row)
    q = params.q
    e = row.entries
    out = [(1, TAG_B)]
    for i in range(len(e) - 1):
        out.append((e[i][0] + e[i + 1][0], TAG_A))
        if i + 1 < len(e) - 1:
            v, t = e[i + 1]
            copies = q - 4 if t == TAG_A else q - 3
            out.extend([(v, TAG_B)] * copies)
    out.append((1, TAG_B))
    return Row(row.index + 1, out)


@dataclass
class GenerationResult:
    rows: list = field(default_factory=list)
    truncated: bool = False


def _check_limits(n_max: int, entry_cap: int) -> None:
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if entry_cap <= 0:
        raise ValueError("entry_cap must be > 0")


def generate_rows(params: TriangleParams, n_max: int,
                  entry_cap: int = 10**6) -> GenerationResult:
    """Rows 0..n_max, stopping early (truncated=True) once the next row
    would exceed entry_cap entries.  Truncation is always reported."""
    _check_limits(n_max, entry_cap)
    result = GenerationResult()
    rows = result.rows
    rows.append(row0())
    if n_max >= 1:
        rows.append(row1())
    while len(rows) <= n_max:
        nxt = next_row(rows[-1], params)
        if len(nxt) > entry_cap:
            result.truncated = True
            break
        rows.append(nxt)
    return result


def next_triples(triples: Counter, params: TriangleParams) -> Counter:
    """The triple multiset of row n+1 from that of row n, for n >= 1.

    Row n+1 holds one block per vertex of row n: the left winger gives the
    new left winger and the A-child it shares with its right neighbour; an
    interior vertex its q-4 (type A) or q-3 (type B) B-copies and then that
    A-child; the right winger the new right winger.  A block borders the
    left neighbour's A-child and the right neighbour's first entry, which
    has that neighbour's value and tag B.  A winger is the centre of the
    triple with None on one side; no step tells wingers apart by value.
    """
    q = params.q
    out = Counter()
    for (left, (v, t), right), m in triples.items():
        if left is None:
            if right is None:
                raise ValueError("row 0 has no triple step; start at row 1")
            child = (1 + right[0], TAG_A)
            out[(None, WINGER, child)] += m
            out[(WINGER, child, (right[0], TAG_B))] += m
        elif right is None:
            out[((left[0] + 1, TAG_A), WINGER, None)] += m
        else:
            copy = (v, TAG_B)
            first, child = (left[0] + v, TAG_A), (v + right[0], TAG_A)
            copies = q - 4 if t == TAG_A else q - 3
            if copies == 1:
                out[(first, copy, child)] += m
            else:
                out[(first, copy, copy)] += m
                if copies > 2:
                    out[(copy, copy, copy)] += (copies - 2) * m
                out[(copy, copy, child)] += m
            out[(copy, child, (right[0], TAG_B))] += m
    return out


def triple_rows(params: TriangleParams):
    """The triple multisets of rows 0, 1, 2, ... without end."""
    yield Counter({(None, WINGER, None): 1})
    row = Counter({(None, WINGER, WINGER): 1, (WINGER, WINGER, None): 1})
    while True:
        yield row
        row = next_triples(row, params)


def generate_triples(params: TriangleParams, n_max: int,
                     entry_cap: int = 10**6) -> GenerationResult:
    """The triple multisets of rows 0..n_max, under the contract of
    generate_rows: rows 0 and 1 always, and truncated=True once the next
    row would exceed entry_cap entries, counted exactly as the sum of the
    multiplicities."""
    _check_limits(n_max, entry_cap)
    result = GenerationResult()
    for n, row in enumerate(islice(triple_rows(params), n_max + 1)):
        if n >= 2 and sum(row.values()) > entry_cap:
            result.truncated = True
            break
        result.rows.append(row)
    return result


def row_counts(params: TriangleParams, n: int) -> RowCounts:
    """Type counts of row n without generating it.

    Iterates the structural step rules: each adjacent pair yields one A
    vertex (a_{n+1} = s_n - 1) and each interior vertex yields q-4 or q-3
    B copies plus the two new wingers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q = params.q
    a, b = 0, 2  # row 1
    for _ in range(n - 1):
        a, b = a + b - 1, 2 + (q - 4) * a + (q - 3) * (b - 2)
    return RowCounts(a, b, a + b)
