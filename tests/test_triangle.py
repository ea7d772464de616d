from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hptsums.triangle import (TriangleParams, capped_depth, entry_counts,
                              entry_rows, next_pairs, next_row, pair_rows,
                              type_counts, validate_row)
from reference import entry_pairs, row_pairs


def row_of(spec):
    """Build a row from compact text like '1B 3A 2B 2B 3A 1B'."""
    return [(int(tok[:-1]), tok[-1]) for tok in spec.split()]


def rows_upto(params, n):
    """The entry lists of rows 0..n."""
    return list(islice(entry_rows(params), n + 1))


def counts_of(params, n):
    """(a, b), the type counts of row n >= 1, from the type-count step."""
    return next(islice(type_counts(params), n - 1, None))


def test_q_validation():
    with pytest.raises(ValueError):
        TriangleParams(4)
    TriangleParams(5)


def test_next_row_q6():
    r3 = next_row(row_of("1B 2A 1B"), TriangleParams(6))
    assert r3 == row_of("1B 3A 2B 2B 3A 1B")


def test_next_row_q5():
    r3 = next_row(row_of("1B 2A 1B"), TriangleParams(5))
    assert r3 == row_of("1B 3A 2B 3A 1B")
    assert len(r3) == 5  # s_3 = q


def test_next_row_q6_row4():
    r3 = row_of("1B 3A 2B 2B 3A 1B")
    r4 = next_row(r3, TriangleParams(6))
    expected = row_of("1B 4A 3B 3B 5A 2B 2B 2B 4A 2B 2B 2B 5A 3B 3B 4A 1B")
    assert r4 == expected
    assert len(r4) == 17 == 5 * 6 - 5 * 3 + 2


def test_next_row_rejects_malformed():
    with pytest.raises(ValueError):
        next_row(row_of("1B 2A 2B"), TriangleParams(6))  # not palindromic
    with pytest.raises(ValueError):
        next_row(row_of("2B 1A 2B"), TriangleParams(6))  # missing wingers


def test_entry_rows_basics():
    assert [len(r) for r in rows_upto(TriangleParams(6), 2)] == [1, 2, 3]
    assert len(rows_upto(TriangleParams(7), 3)[3]) == 7  # s_3 = q
    assert rows_upto(TriangleParams(9), 0) == [[(1, "B")]]


def test_capped_depth_stops_below_the_cap():
    params = TriangleParams(6)
    depth = capped_depth(params, 10, 20)
    assert depth < 10
    rows = rows_upto(params, depth + 1)
    assert len(rows[depth]) <= 20 < len(rows[depth + 1])


def test_type_counts_examples():
    assert sum(counts_of(TriangleParams(6), 3)) == 6
    assert sum(counts_of(TriangleParams(6), 4)) == 17
    assert sum(counts_of(TriangleParams(5), 2)) == 3


@settings(max_examples=40, deadline=None)
@given(q=st.integers(5, 9), n=st.integers(1, 7))
def test_generated_rows_match_counts_and_structure(q, n):
    params = TriangleParams(q)
    row = rows_upto(params, n)[n]
    a, b = counts_of(params, n)
    assert len(row) == a + b
    assert sum(1 for _, t in row if t == "A") == a
    validate_row(row) if n >= 1 else None
    # every value bounded by 2^n
    assert all(1 <= v <= 2**n for v, _ in row)


@settings(max_examples=25, deadline=None)
@given(q=st.integers(5, 8), n=st.integers(2, 7))
def test_tag_pattern_between_a_entries(q, n):
    """Interior B runs have length q-4 after an A parent, q-3 after a B
    parent; all copies in a run share one value."""
    params = TriangleParams(q)
    parent, row = rows_upto(params, n)[n - 1:]
    runs = []
    current = []
    for v, t in row[1:-1]:
        if t == "B":
            current.append(v)
        else:
            if current:
                runs.append(current)
            current = []
    if current:
        runs.append(current)
    interior_parents = parent[1:-1]
    assert len(runs) == len(interior_parents)
    for run, (pv, pt) in zip(runs, interior_parents):
        assert set(run) == {pv}
        assert len(run) == (q - 4 if pt == "A" else q - 3)


def test_rows_0_and_1():
    assert rows_upto(TriangleParams(6), 1) \
        == [[(1, "B")], [(1, "B"), (1, "B")]]


def test_row_pairs_read_the_half_form():
    e = row_of("1B 3A 2B 2B 3A 1B")
    assert entry_pairs(e) == {(1, "B", 3, "A"): 1, (3, "A", 2, "B"): 1,
                              (2, "B", 2, "B"): 1, (2, "B", 3, "A"): 1,
                              (3, "A", 1, "B"): 1}
    assert row_pairs(e) == ({(3, 2): 1, (3, 1): 1}, {2: 1})
    assert row_pairs([(1, "B"), (1, "B")]) == ({}, {1: 1})
    assert row_pairs([(1, "B")]) == ({}, {})
    for spec in ("1B 2A 3A 1B", "1B 3A 2B 4B 3A 1B"):
        with pytest.raises(ValueError, match="no half form"):
            row_pairs(row_of(spec))


def entries_of(pairs):
    """The number of entries of a row held as the pair multiset (ab, bb)."""
    ab, bb = pairs
    return 1 + 2 * sum(ab.values()) + sum(bb.values())


@pytest.mark.parametrize("q", [5, 6, 7, 9])
def test_half_form_invariants_hold_on_generated_rows(q):
    """What the half form builds in, checked on the literal pairs of the
    materialised rows, rows 0..12 or as far as a row fits in 10**6 entries:
    the B-then-A pairs are the A-then-B pairs mirrored, no two A entries
    are adjacent, two adjacent B entries are equal, value 1 occurs only at
    the two ends, and the row holds 1 + 2 sum(ab) + sum(bb) entries."""
    params = TriangleParams(q)
    for e in rows_upto(params, capped_depth(params, 12, 10**6)):
        literal = entry_pairs(e)
        ab = {(x, y): m for (x, tx, y, ty), m in literal.items()
              if (tx, ty) == ("A", "B")}
        ba = {(y, x): m for (x, tx, y, ty), m in literal.items()
              if (tx, ty) == ("B", "A")}
        assert ba == ab
        assert not [key for key in literal if key[1] == key[3] == "A"]
        assert all(x == y for x, tx, y, ty in literal if tx == ty == "B")
        assert [i for i, (v, _) in enumerate(e) if v == 1] \
            == sorted({0, len(e) - 1})
        assert entries_of(row_pairs(e)) == len(e)


@pytest.mark.parametrize("q", [5, 6, 7, 9])
def test_pair_step_matches_generated_rows(q):
    """The pair step against the half form of the materialised rows, rows
    0..12 or as far as a row fits in 10**6 entries (q=7: 10, q=9: 9; row 12
    holds 6.7e6 entries at q=7 and 2.3e8 at q=9)."""
    params = TriangleParams(q)
    depth = capped_depth(params, 12, 10**6)
    rows = rows_upto(params, depth)
    pairs = [p for p, _ in islice(pair_rows(params), depth + 1)]
    assert len(rows) == {5: 13, 6: 13, 7: 11, 9: 10}[q]
    assert [row_pairs(r) for r in rows] == pairs
    for n, (ab, bb) in enumerate(pairs[1:], 1):
        # The step must write no key it does not use: no zero count.
        assert all(m > 0 for m in [*ab.values(), *bb.values()])
        # Value 1 marks the wingers: no A entry is 1, and the right winger
        # ends one pair, of ab from row 2 on, of bb (both wingers) in row 1.
        assert all(s > 1 for s, _ in ab)
        assert sum(m for (_, y), m in ab.items() if y == 1) \
            + bb.get(1, 0) == 1
        assert entries_of((ab, bb)) == sum(counts_of(params, n))


@pytest.mark.parametrize("q", [5, 9])
def test_entry_counts_match_generated_rows(q):
    """The per-value counts of the A and B entries, wingers included,
    read off the half form and streamed with it, against the materialised
    rows, rows 0..12 or as far as a row fits in 10**6 entries."""
    params = TriangleParams(q)
    depth = capped_depth(params, 12, 10**6)
    for e, (pairs, streamed) in zip(rows_upto(params, depth),
                                    pair_rows(params)):
        counts = {"A": {}, "B": {}}
        for v, t in e:
            counts[t][v] = counts[t].get(v, 0) + 1
        assert entry_counts(pairs) == streamed \
            == (counts["A"], counts["B"])


@pytest.mark.parametrize("q", [5, 9])
@pytest.mark.parametrize("cap", [1, 2, 3, 50, 10**5])
@pytest.mark.parametrize("n_max", [0, 1, 2, 64])
def test_capped_depth_matches_the_pair_step(q, cap, n_max):
    """The depth decided from the type-count step against the sizes read
    off the pair step, 1 + 2 sum(ab) + sum(bb): rows 0 and 1 always, then
    each row while it holds at most cap entries.  The rows are read lazily
    and no further than the first one past the cap."""
    params = TriangleParams(q)
    depth = 0
    for n, (row, _) in enumerate(islice(pair_rows(params), n_max + 1)):
        if n >= 2 and entries_of(row) > cap:
            break
        depth = n
    assert capped_depth(params, n_max, cap) == depth


def keys_of(row) -> int:
    ab, bb = row
    return len(ab) + len(bb)


@pytest.mark.parametrize("q", [5, 6, 9])
def test_the_pair_step_at_most_quadruples_the_keys(q):
    """keys(n+1) <= 4 keys(n) up to row 16: each ab key gives at most 2
    keys and each bb key 1, and there is at most one copy key per distinct
    value, of which a row has at most 2 len(ab) + len(bb)."""
    keys = [keys_of(row) for row, _ in
            islice(pair_rows(TriangleParams(q)), 1, 17)]
    assert all(b <= 4 * a for a, b in zip(keys, keys[1:])), keys


@pytest.mark.parametrize("q", [5, 6, 9])
@pytest.mark.parametrize("cap", [1, 3, 4, 50, 5000, 10**5])
def test_pair_rows_stop_at_the_key_cap(q, cap):
    """Rows 0 and 1 always come, then row n+1 only if 4 keys(n) <= cap:
    no streamed row holds more than cap keys, and the stream ends at the
    first row past which the bound does not fit."""
    keys = [keys_of(row) for row, _ in pair_rows(TriangleParams(q), cap)]
    assert len(keys) >= 2
    assert max(keys) <= cap
    assert all(4 * k <= cap for k in keys[1:-1])
    assert 4 * keys[-1] > cap


def test_capped_depth_rejects_bad_limits():
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        capped_depth(TriangleParams(6), -1, 0)
    with pytest.raises(ValueError, match="entry_cap must be > 0"):
        capped_depth(TriangleParams(6), 3, 0)
    with pytest.raises(ValueError, match="key_cap must be > 0"):
        next(pair_rows(TriangleParams(6), 0))
    with pytest.raises(ValueError):
        row = row_pairs([(1, "B")])
        next_pairs(row, entry_counts(row), TriangleParams(6))
