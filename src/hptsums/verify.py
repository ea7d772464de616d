"""End-to-end validation: derived recurrences against brute-force row sums,
reference-table reproduction, counting recurrences, step-oracle sweeps, and
the order/linearity conjecture probe.

The checks take their inputs as arguments, numbers read from rows, never
the rows; nothing is cached.  run_grid derives each recurrence once and
streams the rows of each q once, as pair multisets (see triangle), keeping
of each row its tag power sums and state vectors for every k at once (see
sums) and dropping the row; it passes them to every check that reads them
and adds the counting checks of each q, so that its report is the whole of
verify.  Each check returns its record as the verify command prints it, a
dict of JSON values whose mismatches and failing equations give their
numbers as decimal strings.

verify_system_steps is the step oracle: it evaluates the equations that
advance a state vector from one row to the next from their defining
formulas, so it stays independent of the matrices of systembuilder that it
checks.  verify_recurrence and verify_counting share one recurrence loop.

Everything is exact integer equality; there are no tolerances anywhere.
"""
from __future__ import annotations

from itertools import islice

from . import sums, systembuilder, tables, triangle
from .exactalg import QPoly, binom

DEFAULT_ENTRY_CAP = 10**5
DEFAULT_K_RANGE = (2, 8)
DEFAULT_Q_LIST = (5, 6, 7, 9)
DEPTH_LIMIT = 64  # the deepest row verify generates, below the entry cap
COUNTING_DEPTH = 12  # the deepest row the counting checks read


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
        states = [sums.fold_state(g) for g in vectors]
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

    tag_sums holds the tag power sums (A, B) of rows 1, 2, ... at q, read
    at k = 0 and k = 1; s_rec and hat_rec are the k = 0 and k = 1
    recurrences with their initial values.  The row sums come from pair
    multisets, whose size is the number of distinct adjacent pairs, so deep
    rows are checked without materializing hundreds of millions of
    entries.
    """
    depth = len(tag_sums)
    params = triangle.TriangleParams(q)
    mismatches = []  # (sequence, n, expected, actual)
    counts, ahat, bhat = [(0, 1)], [0], [1]  # row 0 is the single base vertex
    for n, (a, b) in enumerate(tag_sums, 1):
        rc = triangle.row_counts(params, n)
        if (a[0], b[0]) != (rc.a, rc.b):
            mismatches.append(("row_counts", n, (rc.a, rc.b), (a[0], b[0])))
        counts.append((a[0], b[0]))
        ahat.append(a[1])
        bhat.append(b[1])

    s = [a + b for a, b in counts]
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
        for n, want in enumerate(initial, 1):
            if want != seq[n]:
                mismatches.append((name, n, want, seq[n]))
        mismatches += [(name, *m) for m in _misses(seq, cs)]
    return {"q": q, "depth": depth, "mismatches": [
        {"sequence": name, "n": n, "expected": str(e), "actual": str(a)}
        for name, n, e, a in mismatches]}


def reproduce_tables(k_max: int = tables.MAX_TABLED_K) -> tuple:
    """The derived coefficients of every k = 0..k_max as (k, coefficients,
    note) rows, and their diff against the reference table, which covers
    k <= 11, as (k, j, expected, computed) for each cell c_j that differs.
    A tabled k is padded with zeros to its reference width; an empty diff
    means exact reproduction."""
    rows, diffs = [], []
    for k in range(k_max + 1):
        rec = systembuilder.recurrence_for_k(k, with_initial_values=False)
        if k > tables.MAX_TABLED_K:
            rows.append((k, rec.coefficients, "no fixture (exploratory)"))
            continue
        expected = tables.reference_row(k)
        computed = rec.coefficients_padded(max(len(expected), rec.order))
        rows.append((k, computed, ""))
        expected += [QPoly()] * (len(computed) - len(expected))
        diffs += [(k, j, e, c) for j, (e, c)
                  in enumerate(zip(expected, computed), 1) if e != c]
    return rows, diffs


def probe_conjecture(k_min: int, k_max: int) -> list:
    """Order and q-degree evidence for each k, one finding dict per k; rows
    beyond the reference table are exploratory output."""
    if k_min < 2:
        raise ValueError("k_min must be >= 2")
    findings = []
    for k in range(k_min, k_max + 1):
        rec = systembuilder.recurrence_for_k(k, with_initial_values=False)
        conj = systembuilder.conjectured_order(k)
        trailing = conj - rec.order if rec.order <= conj else 0
        max_deg = max((len(c.coeffs) - 1 for c in rec.coefficients
                       if c), default=0)
        findings.append({
            "k": k, "stripped_order": rec.order, "conjectured_order": conj,
            "trailing_zero_count": trailing, "max_q_degree": max_deg,
            "order_matches": rec.order + trailing == conj,
            "coefficients_linear": max_deg <= 1, "anomaly": trailing > 0,
            "tabled": k <= tables.MAX_TABLED_K})
    return findings


# ---------------------------------------------------------------------------
# Grid runner: the report is the dict the verify command prints
# ---------------------------------------------------------------------------

def run_grid(k_range=DEFAULT_K_RANGE, q_list=DEFAULT_Q_LIST,
             entry_cap: int = DEFAULT_ENTRY_CAP,
             reduced: bool = False) -> dict:
    """Verify recurrences and system steps over a (k, q) grid, then the
    counting recurrences of each q, in q_list order.

    Each recurrence is derived once.  The rows of each q are streamed once,
    to the entry cap or COUNTING_DEPTH, whichever is deeper; of each row
    only its statistics are kept, for every k at once, and the row itself
    is dropped.  Its tag power sums are computed once and passed to
    state_vectors.  With reduced=True the printed reduced equations are swept
    by the oracle too, on the same state vectors; their failures are
    recorded in the report (they do not flip all_exact, which judges the
    verified systems only)."""
    k_lo, k_hi = k_range
    ks = range(k_lo, k_hi + 1)
    vector_ks = range(max(k_lo, 2), k_hi + 1)
    systems = ("full", "reduced-as-printed") if reduced else ("full",)
    recs = [systembuilder.recurrence_for_k(k, with_initial_values=False)
            for k in ks]
    counting_recs = [systembuilder.recurrence_for_k(k) for k in (0, 1)]
    checks = {}  # (k, q) -> (recurrence check, system checks)
    counting_checks = []
    for q in q_list:
        params = triangle.TriangleParams(q)
        depth = triangle.capped_depth(params, DEPTH_LIMIT, entry_cap)
        seqs = [[] for _ in ks]  # seqs[i][n] = (s^k)_n, k = ks[i]
        vectors = [[] for _ in vector_ks]  # of rows 1..depth
        tag_sums = []  # of rows 1..COUNTING_DEPTH, read at k = 0 and 1
        rows = islice(triangle.pair_rows(params),
                      max(depth, COUNTING_DEPTH) + 1)
        for n, row in enumerate(rows):
            if n > depth:
                a, b = sums.tag_power_sums(row, range(2))
            else:
                a, b = sums.tag_power_sums(row, range(max(k_hi, 1) + 1))
                for seq, k in zip(seqs, ks):
                    seq.append(a[k] + b[k])
                if n >= 1 and vector_ks:
                    for vs, g in zip(vectors, sums.state_vectors(
                            row, vector_ks, (a, b))):
                        vs.append(g)
            if 1 <= n <= COUNTING_DEPTH:
                tag_sums.append((a, b))
        for rec, seq in zip(recs, seqs):
            checks[rec.k, q] = (verify_recurrence(rec, q, seq), [])
        for k, vs in zip(vector_ks, vectors):
            checks[k, q][1].extend(verify_system_steps(k, q, vs, system)
                                   for system in systems)
        counting_checks.append(verify_counting(q, tag_sums, *counting_recs))
    recurrence_checks = [checks[k, q][0] for k in ks for q in q_list]
    system_checks = [c for k in ks for q in q_list for c in checks[k, q][1]]
    all_exact = not any(c["mismatches"]
                        for c in recurrence_checks + counting_checks) \
        and not any(c["failing_equations"] for c in system_checks
                    if c["variant"] == "full")
    return {"k_range": [k_lo, k_hi], "q_list": list(q_list),
            "entry_cap": entry_cap, "all_exact": all_exact,
            "recurrence_checks": recurrence_checks,
            "system_checks": system_checks,
            "counting_checks": counting_checks}
