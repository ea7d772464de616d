from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hptsums import verify
from hptsums.sums import fold_state, state_vectors, tag_power_sums
from hptsums.triangle import TriangleParams, entry_rows, pair_rows
from reference import pair_sum, row_pairs


def rows_for(q, n):
    return list(islice(entry_rows(TriangleParams(q)), n + 1))


def pairs_for(q, n):
    return [row_pairs(r) for r in rows_for(q, n)]


def state_vector(pairs, k):
    (g,) = state_vectors(pairs, (k,), tag_power_sums(pairs, (k,)))
    return g


def test_power_sum_examples():
    rows = rows_for(6, 4)
    a, b = tag_power_sums(row_pairs(rows[3]), range(3))
    assert a[2] + b[2] == 28  # 4q+4 at q=6
    assert a[0] + b[0] == len(rows[3])
    a, b = tag_power_sums(row_pairs(rows[4]), range(3))
    assert a[2] + b[2] == 160  # 4q^2+6q-20 at q=6


def test_tag_power_sums_examples():
    rows = pairs_for(6, 4)
    assert tag_power_sums(rows[3], range(2)) == ({0: 2, 1: 6}, {0: 4, 1: 6})
    assert tag_power_sums(rows[4], range(3)) \
        == ({0: 5, 1: 22, 2: 98}, {0: 12, 1: 26, 2: 62})
    assert tag_power_sums(rows[1], range(6)) \
        == (dict.fromkeys(range(6), 0), dict.fromkeys(range(6), 2))
    assert tag_power_sums(rows[0], range(1)) == ({0: 0}, {0: 1})


def test_tag_power_sums_needs_k_max_0():
    with pytest.raises(ValueError, match="k must be >= 0"):
        tag_power_sums(pairs_for(6, 2)[2], (-1,))


@pytest.mark.parametrize("q", [5, 6, 7, 9])
def test_tag_power_sums_match_entry_sums(q):
    """Every k = 0..11 at once from the pair step, against brute-force
    sums over the materialised entries of rows 0..8."""
    for row, pairs in zip(rows_for(q, 8), pair_rows(TriangleParams(q))):
        assert tag_power_sums(pairs, range(12)) == tuple(
            {k: sum(v**k for v, t in row if t == tag) for k in range(12)}
            for tag in "AB")


@pytest.mark.parametrize("q", [5, 6, 7, 9])
def test_state_vectors_match_pair_sums(q):
    """The state vectors of many k from one pass over the pair step,
    against the reference pair sums on the materialised rows 1..8, for a
    k range, a single k and a tuple with gaps."""
    params = TriangleParams(q)
    rows = zip(rows_for(q, 8)[1:], islice(pair_rows(params), 1, None))
    for row, pairs in rows:
        ref = row_pairs(row)
        want = {k: ([sum(v**k for v, t in row if t == "A")]
                    + [pair_sum(ref, k - j, j, "A", "B") for j in range(1, k)]
                    + [sum(v**k for v, t in row if t == "B"),
                       pair_sum(ref, 1, k - 1, "B", "B")])
                for k in range(2, 12)}
        for ks in (range(2, 12), (5,), (3, 7), (11, 2)):
            assert state_vectors(pairs, ks,
                                 tag_power_sums(pairs, range(max(ks) + 1))) \
                == [want[k] for k in ks], ks


def test_pair_sum_examples():
    rows = pairs_for(6, 3)
    assert pair_sum(rows[3], 2, 3, "A", "B") == 81
    assert pair_sum(rows[3], 1, 3, "B", "B") == 16
    assert pair_sum(rows[3], 1, 1, "A", "A") == 0


def test_pair_sum_requires_positive_power():
    rows = pairs_for(6, 2)
    with pytest.raises(ValueError):
        pair_sum(rows[2], 0, 0, "A", "B")


def test_state_vectors_examples():
    rows = pairs_for(6, 4)
    assert state_vector(rows[3], 2) == [18, 9, 10, 4]
    assert state_vector(rows[4], 2) == [98, 49, 62, 34]
    assert state_vectors(rows[1], (4, 2),
                         tag_power_sums(rows[1], range(5))) \
        == [[0, 0, 0, 0, 2, 1], [0, 0, 2, 1]]


def test_state_vectors_need_k2():
    row = pairs_for(6, 3)[3]
    for ks in ((0,), (1,), (3, 1), range(1, 5)):
        with pytest.raises(ValueError, match="k must be >= 2"):
            state_vectors(row, ks, tag_power_sums(row, range(5)))


def test_state_vectors_need_tag_sums_to_max_k():
    # The caller's tag sums are read, never recomputed, so sums that stop
    # short of max(ks) are rejected rather than indexed past their end.
    row = pairs_for(6, 3)[3]
    for ks, k_max in (((2,), 1), ((3, 5), 4), (range(2, 12), 10)):
        with pytest.raises(ValueError, match=f"must reach k = {max(ks)}"):
            state_vectors(row, ks, tag_power_sums(row, range(k_max + 1)))
    a, b = tag_power_sums(row, range(6))
    with pytest.raises(ValueError):
        state_vectors(row, (5,), (a, {k: b[k] for k in range(5)}))
    assert state_vectors(row, (3, 5), (a, b)) \
        == [state_vector(row, 3), state_vector(row, 5)]


def failing_equations(k, q, g, g_next, system="full"):
    """The step oracle's failing equations between two state vectors."""
    return verify.verify_system_steps(k, q, [g, g_next],
                                      system)["failing_equations"]


def test_check_system_step_k2_hand_values():
    rows = pairs_for(6, 4)
    g3, g4 = state_vector(rows[3], 2), state_vector(rows[4], 2)
    assert failing_equations(2, 6, g3, g4) == []
    # hand evaluations of the k=2 equations at q=6, read from the failures
    # against a next vector that is one off in every coordinate
    off = [x + 1 for x in g4]
    by_name = {f["equation"]: (int(f["predicted"]), int(f["actual"]))
               for f in failing_equations(2, 6, g3, off)}
    assert by_name["b^k"] == (2 * 18 + 3 * 10 - 4, 63) == (62, 63)
    assert by_name["u"] == (18 + 2 * 10 - 4, 35) == (34, 35)
    assert by_name["a^1b^1"] == (18 + 2 * 9 + 10 + 4 - 1, 50) == (49, 50)


def test_check_system_step_dimension_mismatch():
    rows = pairs_for(6, 3)
    g2 = state_vector(rows[2], 2)
    g3 = state_vector(rows[3], 3)
    with pytest.raises(ValueError):
        failing_equations(2, 6, g2, g3)
    with pytest.raises(ValueError):
        verify.verify_system_steps(3, 6, [g3, g3, g2], "reduced-as-printed")


@settings(max_examples=30, deadline=None)
@given(q=st.integers(5, 9), k=st.integers(2, 6), n=st.integers(1, 6))
def test_full_system_steps_hold(q, k, n):
    rows = pairs_for(q, n + 1)
    if len(rows) <= n + 1:
        return
    g = state_vector(rows[n], k)
    g_next = state_vector(rows[n + 1], k)
    assert failing_equations(k, q, g, g_next) == []


@settings(max_examples=25, deadline=None)
@given(q=st.integers(5, 8), n=st.integers(2, 6), i=st.integers(1, 4),
       j=st.integers(1, 4))
def test_pair_sum_reversal_symmetry(q, n, i, j):
    row = pairs_for(q, n)[n]
    assert pair_sum(row, i, j, "A", "B") == pair_sum(row, j, i, "B", "A")
    assert pair_sum(row, i, j, "B", "A") == pair_sum(row, j, i, "A", "B")


@settings(max_examples=25, deadline=None)
@given(q=st.integers(5, 8), n=st.integers(1, 6), k=st.integers(2, 6))
def test_bb_pair_sums_split_independent(q, n, k):
    """(b^i b^{k-i})_n is the same for every split of k (adjacent B's are
    equal)."""
    row = pairs_for(q, n)[n]
    vals = {pair_sum(row, i, k - i, "B", "B") for i in range(1, k)}
    assert len(vals) == 1


def _scan_pair_sum(e, i, j, first_tag, second_tag):
    """An adjacent-pair sum by a scan of the materialised entry list."""
    return sum(v1**i * v2**j for (v1, t1), (v2, t2) in zip(e, e[1:])
               if (t1, t2) == (first_tag, second_tag))


@settings(max_examples=30, deadline=None)
@given(q=st.integers(5, 9), n=st.integers(1, 7), k=st.integers(2, 8))
def test_statistics_match_entry_scans(q, n, k):
    """The one pass over the pair multiset against the definitions: power
    sums and k-1 separate pair scans over the entry list."""
    row = rows_for(q, n)[n]
    a = sum(v**k for v, t in row if t == "A")
    b = sum(v**k for v, t in row if t == "B")
    expected = ([a] + [_scan_pair_sum(row, k - j, j, "A", "B")
                       for j in range(1, k)]
                + [b, _scan_pair_sum(row, 1, k - 1, "B", "B")])
    t = row_pairs(row)
    assert state_vector(t, k) == expected
    tag_a, tag_b = tag_power_sums(t, (k,))
    assert (tag_a[k], tag_b[k]) == (a, b)
    assert pair_sum(t, k, 2, "B", "A") == _scan_pair_sum(row, k, 2, "B", "A")


def test_fold_state_even_and_odd():
    rows = pairs_for(6, 4)
    v = state_vector(rows[4], 4)
    assert fold_state(v) == [v[0], v[4], v[1] + v[3], v[2], v[5]]
    v = state_vector(rows[4], 5)
    assert fold_state(v) == [v[0], v[5], v[1] + v[4], v[2] + v[3], v[6]]


def test_reduced_printed_oracle_k2_passes():
    # for k=2 there are no paired c_j equations, and the printed system
    # agrees with the triangle
    rows = pairs_for(6, 5)
    for n in range(1, 5):
        g = state_vector(rows[n], 2)
        g_next = state_vector(rows[n + 1], 2)
        assert failing_equations(2, 6, g, g_next, "reduced-as-printed") == []


def test_reduced_printed_oracle_k3_fails_on_c1():
    # the printed paired-c_j equations disagree with the triangle from k=3 on;
    # the oracle reports the failing equation instead of correcting it
    rows = pairs_for(6, 4)
    g = state_vector(rows[3], 3)
    g_next = state_vector(rows[4], 3)
    failures = failing_equations(3, 6, g, g_next, "reduced-as-printed")
    assert failures
    assert [f["equation"] for f in failures] == ["c1"]
    (fail,) = failures
    assert fail == {"n": 1, "equation": "c1", "predicted": "263",
                    "actual": "342"}
