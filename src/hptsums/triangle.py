"""Row generation for the hyperbolic Pascal triangle on the {4,q} mosaic.

Rows are exact: every entry is an arbitrary-precision natural tagged A
(two ascendants, value = sum of parents) or B (one ascendant, value copied).
The boundary 1's (wingers) count as type B.
"""
from __future__ import annotations

from dataclasses import dataclass, field

TAG_A = "A"
TAG_B = "B"


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

    def __iter__(self):
        return iter((self.a, self.b, self.s))


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


def generate_rows(params: TriangleParams, n_max: int,
                  entry_cap: int = 10**6) -> GenerationResult:
    """Rows 0..n_max, stopping early (truncated=True) once the next row
    would exceed entry_cap entries.  Truncation is always reported."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if entry_cap <= 0:
        raise ValueError("entry_cap must be > 0")
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
