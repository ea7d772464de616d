"""End-to-end validation: derived recurrences against brute-force row sums,
reference-table reproduction, counting recurrences and step-oracle sweeps.
The order/linearity conjecture probe reads no rows and lives in
systembuilder, next to the conjectured order it compares with.

The checks take their inputs as arguments, numbers read from rows, never
the rows; nothing is cached.  run_grid derives each recurrence once and
streams the rows of each q once, as pair multisets (see triangle), keeping
of each row its tag power sums and state vectors for every k at once (see
sums) and dropping the row; every check reads every row streamed, and the
counting checks of each q join the report, which is the whole of verify.
Each check returns its record as the verify command prints it, a dict of
JSON values whose mismatches and failing equations give their numbers as
decimal strings.

verify_system_steps is the step oracle: it evaluates the equations that
advance a state vector from one row to the next from their defining
formulas, so it stays independent of the matrices of systembuilder that it
checks; it takes from there only fold_state, the reduced coordinate order.
verify_recurrence and verify_counting share one recurrence loop.

Everything is exact integer equality; there are no tolerances anywhere.
"""
from __future__ import annotations

from . import sums, systembuilder, tables, triangle
from .exactalg import QPoly, binom
from .systembuilder import fold_state

DEFAULT_KEY_CAP = 5000  # rows to 12 at q = 5 and to 11 at q = 6, 7 and 9
DEFAULT_K_RANGE = (2, 8)
DEFAULT_Q_LIST = (5, 6, 7, 9)


def _misses(seq: list, cs: list) -> list:
    """(n, expected, actual) for each row n past the first len(cs) where
    seq[n] != sum_j cs[j-1] seq[n-j]."""
    out = []
    for n in range(len(cs) + 1, len(seq)):
        want = sum(c * seq[n - j] for j, c in enumerate(cs, 1))
        if want != seq[n]:
            out.append((n, want, seq[n]))
    return out


def verify_recurrence(rec: systembuilder.Recurrence, q: int,
                      seq: list) -> dict:
    """Check (s^k)_n = sum c_j(q) (s^k)_{n-j} for every n of seq past the
    initial segment, seq[n] being the power sum (s^k)_n of row n at q, with
    exact integer equality."""
    d = rec.order
    return {"k": rec.k, "q": q, "variant": rec.variant, "order": d,
            "first_n": d + 1, "last_n": len(seq) - 1,
            "mismatches": [{"n": n, "expected": str(e), "actual": str(a)}
                           for n, e, a in _misses(seq, rec.evaluated_at(q))]}


def _full_rhs(g: list, q: int) -> list:
    """The full system's equations at a state vector, as defined."""
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
    printed, with no correction applied, at a folded state vector."""
    ell, m = (k - 1) // 2, k // 2
    a, b, u = folded[0], folded[1], folded[-1]
    c = folded[1:-1]  # c[i] is c_i for i >= 1
    out = [2 * a + 2 * sum(binom(k, i) * c[i] for i in range(1, m + 1))
           + 2 * b + (2**k - 2) * u - 2]
    out.append((q - 4) * a + (q - 3) * b - 2 * (q - 4))
    for j in range(1, ell + 1):
        rhs = a + sum(binom(k - j, i - j) * c[i] for i in range(j, m + 1))
        rhs += sum((binom(k - j, i) + binom(j, i)) * c[i]
                   for i in range(1, m + 1))
        rhs += b + (2**(k - j) - 1) * u - 1
        out.append(rhs)
    if k % 2 == 0:
        rhs = a + c[ell + 1] + sum(binom(k - ell - 1, i) * c[i]
                                   for i in range(1, ell + 2))
        rhs += b + (2**(k - ell - 1) - 1) * u - 1
        out.append(rhs)
    out.append((q - 5) * a + (q - 4) * b - 2 * (q - 4))
    return out


def verify_system_steps(k: int, q: int, vectors: list,
                        system: str = "full") -> dict:
    """The step oracle: check every equation of the system between each
    consecutive pair of vectors, the state vectors of k of rows 1, 2, ...
    at q.  system "full" is the k+2 equation system; "reduced-as-printed"
    folds the vectors and evaluates the reduced equations verbatim,
    reporting any mismatch rather than correcting it."""
    if any(len(g) != k + 2 for g in vectors):
        raise ValueError(f"state vectors of k = {k} have length {k + 2}")
    if system == "full":
        labels = (["a^k"] + [f"a^{k - j}b^{j}" for j in range(1, k)]
                  + ["b^k", "u"])
        states = vectors
        rhs = [_full_rhs(g, q) for g in vectors[:-1]]
    elif system == "reduced-as-printed":
        labels = (["a^k", "b^k"]
                  + [f"c{j}" for j in range(1, k // 2 + 1)] + ["u"])
        states = [fold_state(g) for g in vectors]
        rhs = [_reduced_printed_rhs(c, k, q) for c in states[:-1]]
    else:
        raise ValueError(f"unknown system {system!r}")
    failing = [{"n": n, "equation": name, "predicted": str(p),
                "actual": str(x)}
               for n, (predicted, actual) in enumerate(zip(rhs, states[1:]), 1)
               for name, p, x in zip(labels, predicted, actual) if p != x]
    return {"k": k, "q": q, "variant": system, "first_n": 1,
            "last_n": len(vectors) - 1, "failing_equations": failing}


def verify_counting(q: int, tag_sums: list, s_rec: systembuilder.Recurrence,
                    hat_rec: systembuilder.Recurrence) -> dict:
    """Check the ternary recurrences and initial values for the four row
    sequences: vertex counts s_n and the value sums a-hat, b-hat, s-hat.

    tag_sums holds the tag power sums (A, B) of rows 0, 1, ... at q, read
    at k = 0 and k = 1; s_rec and hat_rec are the k = 0 and k = 1
    recurrences with their initial values; only the rows given are checked.
    The recurrences compare rows first_n..last_n, first_n being one past
    the larger order and last_n the depth, the last row given.  The vertex
    counts of rows 1, 2, ... are also compared with the type-count step
    (triangle.type_counts), walked once alongside them.
    The row sums come from pair multisets, whose size is the number of
    distinct adjacent pairs, so deep rows are checked without materializing
    hundreds of millions of entries.
    """
    mismatches = []  # (sequence, n, expected, actual)
    walk = triangle.type_counts(triangle.TriangleParams(q))
    for n, ((a, b), want) in enumerate(zip(tag_sums[1:], walk), 1):
        if (a[0], b[0]) != want:
            mismatches.append(("type_counts", n, want, (a[0], b[0])))
    s = [a[0] + b[0] for a, b in tag_sums]
    ahat = [a[1] for a, _ in tag_sums]
    bhat = [b[1] for _, b in tag_sums]
    shat = [x + y for x, y in zip(ahat, bhat)]
    # s follows the k = 0 recurrence and every value sum the k = 1 one;
    # a-hat and b-hat have initial values of their own.
    hat_cs = hat_rec.evaluated_at(q)
    for name, seq, cs, initial in (
            ("s", s, s_rec.evaluated_at(q),
             [v(q) for v in s_rec.initial_values]),
            ("a_hat", ahat, hat_cs, [0, 2, 6]),
            ("b_hat", bhat, hat_cs, [2, 2, 2 * q - 6]),
            ("s_hat", shat, hat_cs, [v(q) for v in hat_rec.initial_values])):
        for n, (want, got) in enumerate(zip(initial, seq[1:]), 1):
            if want != got:
                mismatches.append((name, n, want, got))
        mismatches += [(name, *m) for m in _misses(seq, cs)]
    depth = len(tag_sums) - 1
    return {"q": q, "depth": depth,
            "first_n": max(s_rec.order, hat_rec.order) + 1, "last_n": depth,
            "mismatches": [{"sequence": name, "n": n, "expected": str(e),
                            "actual": str(a)}
                           for name, n, e, a in mismatches]}


def reproduce_tables(k_max: int = tables.MAX_TABLED_K) -> tuple:
    """The derived coefficients of every k = 0..k_max as (k, coefficients,
    note) rows, and their diff against the reference table, which covers
    k <= 11, as (k, j, expected, computed) for each cell c_j that differs.
    A tabled k is padded with zeros to its reference width; an empty diff
    means exact reproduction."""
    systembuilder.check_k(k_max)
    rows, diffs = [], []
    for k in range(k_max + 1):
        rec = systembuilder.recurrence_for_k(k, with_initial_values=False)
        if k > tables.MAX_TABLED_K:
            rows.append((k, rec.coefficients, "no fixture (exploratory)"))
            continue
        expected = tables.reference_row(k)
        computed = (rec.coefficients
                    + [QPoly()] * (len(expected) - rec.order))
        rows.append((k, computed, ""))
        expected += [QPoly()] * (len(computed) - len(expected))
        diffs += [(k, j, e, c) for j, (e, c)
                  in enumerate(zip(expected, computed), 1) if e != c]
    return rows, diffs


# ---------------------------------------------------------------------------
# Grid runner: the report is the dict the verify command prints
# ---------------------------------------------------------------------------

def mismatches_found(report: dict) -> bool:
    """Whether a check of a run_grid report failed; the printed reduced
    equations are reported, never judged."""
    return any(c["mismatches"] for c in report["recurrence_checks"]
               + report["counting_checks"]) or any(c["failing_equations"]
               for c in report["system_checks"] if c["variant"] == "full")


def run_grid(k_range=DEFAULT_K_RANGE, q_list=DEFAULT_Q_LIST,
             key_cap: int = DEFAULT_KEY_CAP, reduced: bool = False) -> dict:
    """Verify recurrences and system steps over a (k, q) grid, then the
    counting recurrences of each q, in q_list order.

    Each recurrence is derived once.  The rows of each q are streamed once,
    under key_cap (triangle.pair_rows), to every check; of each row only
    its statistics are kept, for every k at once, its tag power sums
    computed once and passed to state_vectors.  With reduced=True the
    printed reduced equations are swept by the oracle too, on the same
    state vectors (see mismatches_found).  all_exact is false on a mismatch
    and on a check that covers no row (last_n < first_n)."""
    k_lo, k_hi = k_range
    systembuilder.check_k(k_hi)
    ks = range(k_lo, k_hi + 1)
    vector_ks = range(max(k_lo, 2), k_hi + 1)
    systems = ("full", "reduced-as-printed") if reduced else ("full",)
    recs = [systembuilder.recurrence_for_k(k, with_initial_values=False)
            for k in ks]
    counting_recs = [systembuilder.recurrence_for_k(k) for k in (0, 1)]
    by_kq = {}  # (k, q) -> (recurrence check, system checks)
    counting_checks = []
    for q in q_list:
        tag_sums = []  # of rows 0, 1, ...
        vectors = [[] for _ in vector_ks]  # of rows 1, 2, ...
        rows = triangle.pair_rows(triangle.TriangleParams(q), key_cap)
        for n, (row, counts) in enumerate(rows):
            a, b = sums.tag_power_sums(counts, range(max(k_hi, 1) + 1))
            tag_sums.append((a, b))
            if n >= 1 and vector_ks:
                for vs, g in zip(vectors, sums.state_vectors(
                        row, vector_ks, (a, b))):
                    vs.append(g)
        for rec in recs:
            seq = [a[rec.k] + b[rec.k] for a, b in tag_sums]  # (s^k)_n
            by_kq[rec.k, q] = (verify_recurrence(rec, q, seq), [])
        for k, vs in zip(vector_ks, vectors):
            by_kq[k, q][1].extend(verify_system_steps(k, q, vs, system)
                                  for system in systems)
        counting_checks.append(
            verify_counting(q, tag_sums, *counting_recs))
    checks = {"recurrence_checks": [by_kq[k, q][0] for k in ks
                                    for q in q_list],
              "system_checks": [c for k in ks for q in q_list
                                for c in by_kq[k, q][1]],
              "counting_checks": counting_checks}
    uncovered = any(c["last_n"] < c["first_n"]
                    for checks_of in checks.values() for c in checks_of)
    return {"k_range": [k_lo, k_hi], "q_list": list(q_list),
            "key_cap": key_cap,
            "all_exact": not uncovered and not mismatches_found(checks),
            **checks}
